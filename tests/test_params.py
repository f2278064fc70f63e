import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blockbp.params import (
    ModelParams,
    TreeParams,
    _integer,
    _real,
    derive_tree_params,
    ks_signal,
)
from blockbp.seeding import derived_rng


def test_derive_basic_example():
    tp = derive_tree_params(ModelParams(n=100, a=5, b=1))
    assert tp.d == 3.0
    assert tp.eta == pytest.approx(1 / 6, abs=0)
    assert tp.theta == pytest.approx(2 / 3, rel=1e-15)


def test_derive_with_noise():
    # the robust-reconstruction point; the leaf noise is the engines' own
    # argument, not a tree parameter
    tp = derive_tree_params(ModelParams(n=100, a=30, b=4))
    assert tp.d == 17.0
    assert tp.eta == pytest.approx(2 / 17, rel=1e-15)
    assert tp.theta == pytest.approx(13 / 17, rel=1e-15)


def test_equal_intensities_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        derive_tree_params(ModelParams(n=10, a=3, b=3))


def test_ks_signal_values():
    assert ks_signal(ModelParams(n=100, a=5, b=1)) == pytest.approx(16 / 12)
    assert ks_signal(ModelParams(n=100, a=3, b=2)) == pytest.approx(1 / 10)


def test_invalid_probabilities_rejected():
    with pytest.raises(ValueError, match="probability"):
        ModelParams(n=2, a=4, b=1)
    with pytest.raises(ValueError):
        ModelParams(n=0, a=1, b=1)
    with pytest.raises(ValueError):
        ModelParams(n=10, a=-1, b=1)
    for n in (400.5, 400.0, True):
        with pytest.raises(ValueError, match="integer"):
            ModelParams(n=n, a=1, b=1)
    for a, b in ((math.nan, 1), (1, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            ModelParams(n=10, a=a, b=b)


def test_tree_params_invariants():
    for eta, message in ((0.5, r"eta must lie in \[0, 1\] with eta != 1/2"),
                         (1.25, r"eta must lie in \[0, 1\] with eta != 1/2"),
                         (True, "'eta' must be a finite number, not True")):
        with pytest.raises(ValueError, match=message):
            TreeParams(d=2, eta=eta)
    with pytest.raises(ValueError):
        TreeParams(d=0, eta=0.25)
    for d, message in ((float("nan"), "'d' must be a finite number, not nan"),
                       (float("inf"), "'d' must be a finite number, not inf"),
                       (True, "'d' must be a finite number, not True"),
                       (-1.0, r"mean offspring d must be positive and finite, not -1\.0")):
        with pytest.raises(ValueError, match=message):
            TreeParams(d=d, eta=0.25)
    assert TreeParams(d=2, eta=0.25).theta == 0.5


@given(
    a=st.floats(min_value=0.01, max_value=50),
    b=st.floats(min_value=0.01, max_value=50),
)
def test_theta_and_signal_identities(a, b):
    if a == b:
        return
    m = ModelParams(n=1000, a=a, b=b)
    tp = derive_tree_params(m)
    assert tp.theta == 1.0 - 2.0 * tp.eta
    assert ks_signal(m) == pytest.approx(tp.signal, rel=1e-12)


def test_negative_theta_supported():
    tp = derive_tree_params(ModelParams(n=100, a=1, b=5))
    assert tp.theta == pytest.approx(-2 / 3, rel=1e-15)
    assert tp.signal == pytest.approx(4 / 3, rel=1e-12)


def test_signal_is_theta_squared_d():
    for a, b in [(5, 1), (30, 4), (3, 2), (2, 7)]:
        m = ModelParams(n=1000, a=a, b=b)
        tp = derive_tree_params(m)
        assert math.isclose(ks_signal(m), tp.theta ** 2 * tp.d, rel_tol=1e-12)


# --- the one rule for integer and number arguments --------------------------

_INTEGERS = st.integers(-2 ** 62, 2 ** 62)


@given(x=_INTEGERS, numpy=st.booleans())
def test_an_integer_comes_back_as_itself(x, numpy):
    value = np.int64(x) if numpy else x
    got = _integer("k", value)
    assert got == x and type(got) is int
    got = _real("a", value)
    assert got == float(x) and type(got) is float


@given(x=st.floats(allow_nan=False, allow_infinity=False), numpy=st.booleans())
def test_a_finite_float_is_a_number(x, numpy):
    got = _real("a", np.float64(x) if numpy else x)
    assert got == x and type(got) is float


@given(bad=st.one_of(st.booleans(), st.floats(), st.text(), st.none()))
def test_integer_refuses_and_names_the_key(bad):
    # a bool is not read as 0 or 1, nor a float (even 2.0) as an integer
    with pytest.raises(ValueError, match=r"^'k' must be an integer, not "):
        _integer("k", bad)


@given(bad=st.one_of(st.booleans(), st.text(), st.none(),
                     st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.inf)])))
def test_real_refuses_and_names_the_key(bad):
    with pytest.raises(ValueError, match=r"^'a' must be a finite number, not "):
        _real("a", bad)


@pytest.mark.parametrize("seed, message", [
    (2.5, "'master_seed' must be an integer, not 2.5"),
    (True, "'master_seed' must be an integer, not True"),
    (-1, "'master_seed' must be >= 0, not -1"),
], ids=["float", "bool", "negative"])
def test_master_seed_follows_the_rule(seed, message):
    # 2.5 is not read as 2, nor True as 1
    with pytest.raises(ValueError, match=rf"^{message}$"):
        derived_rng(seed, "chain")


@given(x=_INTEGERS, low=_INTEGERS)
def test_integer_holds_its_floor(x, low):
    if x >= low:
        assert _integer("k", x, low=low) == x
    else:
        with pytest.raises(ValueError, match=rf"^'k' must be >= {low}, not {x}$"):
            _integer("k", np.int64(x), low=low)
