import importlib
import inspect
import pkgutil
import re

import numpy as np
import pytest
from test_popdyn import _dying_forest, _forest

import blockbp
from blockbp import popdyn
from blockbp.bpcore import bp_combine, bp_levels, bp_root, exact_posterior
from blockbp.broadcast import (
    add_leaf_noise,
    run_broadcast,
    sample_tree,
    tree_from_parents,
)
from blockbp.estimators import (
    current_weights,
    effective_conductance,
    majority_estimate,
    majority_moments,
    weighted_majority_sign,
)


def test_dary_node_count():
    t = sample_tree("dary", 2, 3, seed=0)
    assert t.n_nodes == 15  # 2^4 - 1
    assert t.sizes == [1, 2, 4, 8]


def test_children_contiguous_and_parents_consistent():
    trees = [
        sample_tree("gw", 3.0, 4, seed=11),
        sample_tree("dary", 3, 3, seed=0),
        sample_tree("gw", 0.4, 8, seed=3),  # extinct before depth 8
        tree_from_parents([-1, 0, 0, 1, 1, 2, 4, 4, 5], depth=5),
        _forest("gw", 3.0, 0.6, 4, 6, 4),
        _dying_forest(),
    ]
    assert trees[2].sizes[-1] == 0
    for t in trees:
        pp, sizes = t.parent_pos, t.sizes
        assert t.depth == len(pp) - 1 and sizes == [len(p) for p in pp]
        assert pp[0].dtype == np.int64 and np.all(pp[0] == -1)
        for j in range(1, t.depth + 1):
            # children of consecutive nodes are consecutive: positions never decrease
            assert pp[j].dtype == np.int64 and np.all(np.diff(pp[j]) >= 0)
            assert np.all((0 <= pp[j]) & (pp[j] < sizes[j - 1]))
        # the arena views number the levels one after another
        ls, parent = t.level_start, t.parent
        assert np.array_equal(ls, np.concatenate(([0], np.cumsum(sizes))))
        assert t.n_nodes == len(parent) == ls[-1]
        for j in range(t.depth + 1):
            want = pp[0] if j == 0 else pp[j] + ls[j - 1]
            assert np.array_equal(parent[ls[j] : ls[j + 1]], want)
        # parents never decrease
        assert np.all(np.diff(parent[sizes[0]:]) >= 0)
        for c in range(sizes[0], t.n_nodes):
            assert t.depth_of(c) == t.depth_of(int(parent[c])) + 1


def test_gw_mean_node_count():
    # expected nodes at (d=3, depth=2): 1 + 3 + 9 = 13
    counts = []
    for s in range(20_000):
        counts.append(sample_tree("gw", 3.0, 2, seed=s).n_nodes)
    counts = np.asarray(counts, dtype=float)
    se = counts.std() / np.sqrt(len(counts))
    assert abs(counts.mean() - 13.0) < 3 * se + 1e-9


def test_subcritical_extinction():
    for s in range(500):
        t = sample_tree("gw", 0.5, 20, seed=s)
        assert t.sizes[20] == 0


def test_broadcast_eta_zero_and_one():
    t = sample_tree("dary", 2, 3, seed=1)
    t0 = run_broadcast(t, 0.0, seed=2)
    assert np.all(np.concatenate(t0.sigma) == t0.sigma[0][0])
    t1 = run_broadcast(t, 1.0, seed=2)
    for j in range(4):
        expected = t1.sigma[0][0] * (-1) ** j
        assert np.all(t1.sigma[j] == expected)


def test_single_step_flip_rate():
    # P(sigma_child = sigma_root) = 1 - eta = 5/6
    eta = 1 / 6
    agree = 0
    n = 0
    t = sample_tree("dary", 3, 1, seed=0)
    for s in range(20_000):
        tb = run_broadcast(t, eta, seed=s)
        kids = tb.sigma[1]
        agree += int((kids == tb.sigma[0][0]).sum())
        n += len(kids)
    p_hat = agree / n
    se = np.sqrt(p_hat * (1 - p_hat) / n)
    assert abs(p_hat - 5 / 6) < 4 * se


def test_two_step_flip_rate():
    # P(sigma_grandchild = sigma_root) = (1 + theta^2) / 2
    theta = 0.6
    eta = (1 - theta) / 2
    t = sample_tree("dary", 2, 2, seed=0)
    agree = 0
    n = 0
    for s in range(20_000):
        tb = run_broadcast(t, eta, seed=s)
        g = tb.sigma[2]
        agree += int((g == tb.sigma[0][0]).sum())
        n += len(g)
    p_hat = agree / n
    want = (1 + theta ** 2) / 2
    se = np.sqrt(p_hat * (1 - p_hat) / n)
    assert abs(p_hat - want) < 4 * se


def test_root_symmetry():
    t = sample_tree("dary", 2, 1, seed=0)
    roots = [run_broadcast(t, 0.2, seed=s).sigma[0][0] for s in range(20_000)]
    p_plus = np.mean(np.asarray(roots) == 1)
    assert abs(p_plus - 0.5) < 4 * np.sqrt(0.25 / 20_000)


def test_leaf_noise_zero_is_identity():
    t = run_broadcast(sample_tree("gw", 3, 3, seed=5), 0.2, seed=6)
    tn = add_leaf_noise(t, 0.0, seed=7)
    assert np.array_equal(tn.tau, tn.sigma[3])


def test_leaf_noise_flip_fraction():
    # one wide tree gives 1e5 leaves in a single draw
    t = run_broadcast(sample_tree("dary", 100_000, 1, seed=0), 0.3, seed=1)
    tn = add_leaf_noise(t, 0.3, seed=2)
    frac = float((tn.tau != tn.sigma[1]).mean())
    se = np.sqrt(0.3 * 0.7 / len(tn.tau))
    assert abs(frac - 0.3) < 4 * se


def test_leaf_noise_on_extinct_level_is_noop():
    t = run_broadcast(sample_tree("gw", 0.4, 8, seed=3), 0.2, seed=4)
    assert t.sizes[8] == 0
    tn = add_leaf_noise(t, 0.3, seed=5)
    assert tn.tau_level == 8
    assert tn.tau.shape == (0,)
    assert np.all(tn.tau == 0)


def test_determinism():
    a = sample_tree("gw", 2.5, 6, seed=42)
    b = sample_tree("gw", 2.5, 6, seed=42)
    assert np.array_equal(a.parent, b.parent)
    ba = run_broadcast(a, 0.3, seed=9)
    bb = run_broadcast(b, 0.3, seed=9)
    assert np.array_equal(np.concatenate(ba.sigma), np.concatenate(bb.sigma))


def _one_root_reference(kind, d, depth, seed):
    """The parent positions of a one-root tree, drawn as sample_tree drew
    them before it took ``roots``: a level's child counts in one draw."""
    rng = np.random.default_rng(seed)
    pp = [np.full(1, -1, dtype=np.int64)]
    for _ in range(depth):
        size = len(pp[-1])
        counts = rng.poisson(d, size) if kind == "gw" else np.full(size, d)
        pp.append(np.repeat(np.arange(size, dtype=np.int64), counts))
    return pp


@pytest.mark.parametrize("kind, d", [("gw", 2.5), ("gw", 0.8), ("dary", 3)])
def test_one_root_trees_unchanged(kind, d):
    # roots=1, given or not, draws the trees every single-tree caller saw
    for seed in (0, 1, 7, 42, 2024):
        want = _one_root_reference(kind, d, 6, seed)
        for tree in (sample_tree(kind, d, 6, seed=seed),
                     sample_tree(kind, d, 6, seed=seed, roots=1)):
            assert len(tree.parent_pos) == len(want)
            assert all(got.dtype == np.int64 and np.array_equal(got, w)
                       for got, w in zip(tree.parent_pos, want))


@pytest.mark.parametrize("kind, d", [("gw", 2.0), ("dary", 2)])
def test_forest_has_roots_on_level_zero(kind, d):
    rng = np.random.default_rng(3)
    forest = run_broadcast(sample_tree(kind, d, 3, rng, roots=7), 0.2, rng, root_sign=1)
    assert forest.sizes[0] == 7 and np.array_equal(forest.parent_pos[0], np.full(7, -1))
    assert forest.sigma[0].dtype == np.int8 and np.all(forest.sigma[0] == 1)
    if kind == "dary":
        assert forest.sizes == [7, 14, 28, 56]
    assert sample_tree(kind, d, 0, seed=0, roots=np.int64(4)).sizes == [4]


@pytest.mark.parametrize("roots", [0, -1, 2.5, True])
def test_sample_tree_rejects_bad_roots(roots):
    with pytest.raises(ValueError, match="roots"):
        sample_tree("gw", 2.0, 3, seed=0, roots=roots)


@pytest.mark.parametrize("depth", [-1, 2.5, True, "3"])
def test_sample_tree_rejects_bad_depth(depth):
    # checked as roots is: True is not read as 1, nor 2.5 left to range()
    rule = ">= 0" if depth == -1 else "an integer"
    with pytest.raises(ValueError, match=rf"'depth' must be {rule}, not {re.escape(repr(depth))}$"):
        sample_tree("gw", 2.0, depth, seed=0)
    assert sample_tree("dary", 2, np.int64(2), seed=0).sizes == [1, 2, 4]


def test_tree_from_parents_roundtrip():
    t = tree_from_parents([-1, 0, 0, 1, 1, 2])
    assert t.n_nodes == 6
    assert t.depth == 2
    assert t.sizes == [1, 2, 3]
    with pytest.raises(ValueError):
        tree_from_parents([0, -1])
    with pytest.raises(ValueError):
        tree_from_parents([-1, 5])


def test_bad_inputs():
    with pytest.raises(ValueError):
        sample_tree("dary", 2.5, 3)
    with pytest.raises(ValueError):
        sample_tree("weird", 2, 3)
    for eta, message in ((1.5, r"eta must lie in \[0, 1\]"),
                         (True, "'eta' must be a finite number, not True")):
        with pytest.raises(ValueError, match=message):
            run_broadcast(sample_tree("dary", 2, 1), eta)
    t = sample_tree("dary", 2, 1)
    with pytest.raises(ValueError):
        add_leaf_noise(t, 0.1)  # no spins yet


# every function that takes a level of a tree rejects one outside [0, depth]
_LEVEL_CALLS = {
    "bp_levels": lambda t, k: bp_levels(t, 0.5, [1, -1], level=k),
    "bp_root": lambda t, k: bp_root(t, 0.5, [1, -1], level=k),
    "exact_posterior": lambda t, k: exact_posterior(t, 0.5, [1, -1], level=k),
    "add_leaf_noise": lambda t, k: add_leaf_noise(t, 0.1, level=k),
    "majority_estimate": lambda t, k: majority_estimate(t, level=k),
    "effective_conductance": lambda t, k: effective_conductance(t, 0.5, k=k),
    "current_weights": lambda t, k: current_weights(t, 0.5, k=k),
    "weighted_majority_sign": lambda t, k: weighted_majority_sign(t, [1, -1], 0.5,
                                                                  rng=0, k=k),
}


@pytest.mark.parametrize("call", sorted(_LEVEL_CALLS))
@pytest.mark.parametrize("offset", [-1, 1], ids=["minus-one", "depth-plus-one"])
def test_level_out_of_range_is_rejected(call, offset):
    t = run_broadcast(tree_from_parents([-1, 0, 0]), 0.2, seed=0)
    k = -1 if offset < 0 else t.depth + 1
    with pytest.raises(ValueError, match=rf"level {k} is out of range for a tree of depth 1"):
        _LEVEL_CALLS[call](t, k)


@pytest.mark.parametrize("call", sorted(_LEVEL_CALLS))
@pytest.mark.parametrize("level", [True, 1.5], ids=["bool", "float"])
def test_level_must_be_an_integer(call, level):
    # True is not read as level 1, nor 1.5 used as an index
    t = run_broadcast(tree_from_parents([-1, 0, 0]), 0.2, seed=0)
    with pytest.raises(ValueError, match=rf"'level' must be an integer, not {level}$"):
        _LEVEL_CALLS[call](t, level)


# --- the one spelling of "no leaf noise" -------------------------------------

_OBS = [1, -1, 1, 1]  # the four leaves of the binary depth-2 tree below

_DELTA_CALLS = {
    "bp_levels": lambda t, delta: bp_levels(t, 0.6, _OBS, delta=delta),
    "bp_root": lambda t, delta: bp_root(t, 0.6, _OBS, delta=delta),
    "exact_posterior": lambda t, delta: exact_posterior(t, 0.6, _OBS, delta=delta),
    "majority_moments": lambda t, delta: majority_moments(2, 0.6, 2, delta=delta),
    "effective_conductance": lambda t, delta: effective_conductance(t, 0.6, delta=delta),
    "current_weights": lambda t, delta: current_weights(t, 0.6, delta=delta),
    "weighted_majority_sign": lambda t, delta: weighted_majority_sign(t, _OBS, 0.6, rng=0,
                                                                      delta=delta),
    "add_leaf_noise": lambda t, delta: add_leaf_noise(t, delta, seed=0),
    "magnetization_chain": lambda t, delta: popdyn.magnetization_chain(
        "gw", 2.0, 0.6, 2, 100, np.random.default_rng(0), delta=delta),
    "conductance_chain": lambda t, delta: popdyn.conductance_chain(
        "gw", 2.0, 0.6, 2, 100, np.random.default_rng(0), delta=delta),
    "dary_sum_trials": lambda t, delta: popdyn.dary_sum_trials(
        2, 0.6, 2, 100, np.random.default_rng(0), delta=delta),
}


def _public_functions_taking(param: str) -> set:
    """The names of every public blockbp function with a parameter ``param``."""
    public = {}
    for m in pkgutil.iter_modules(blockbp.__path__):
        if m.name != "__main__":
            mod = importlib.import_module(f"blockbp.{m.name}")
            public.update((name, getattr(mod, name)) for name in getattr(mod, "__all__", ()))
    return {name for name, obj in public.items()
            if inspect.isfunction(obj) and param in inspect.signature(obj).parameters}


def test_every_public_delta_function_is_covered():
    assert _public_functions_taking("delta") == set(_DELTA_CALLS)


@pytest.mark.parametrize("name", sorted(_DELTA_CALLS))
def test_tree_engines_reject_delta_none(name):
    # delta = 0 is the only spelling of "no leaf noise": None is refused
    # with an error that names delta, not read as 0 or failed on later, and
    # so are True (not read as 1) and "0.5" (not compared as a string)
    tree = run_broadcast(sample_tree("dary", 2, 2, seed=0), 0.2, seed=1, root_sign=1)
    _DELTA_CALLS[name](tree, 0.0)
    for delta in (None, True, "0.5"):
        with pytest.raises(ValueError, match=rf"'delta' must be a finite number, not {delta!r}$"):
            _DELTA_CALLS[name](tree, delta)


# --- one theta check for every engine ----------------------------------------

_THETA_CALLS = {
    "bp_combine": lambda t, theta: bp_combine([0.5, -0.2], theta),
    "bp_levels": lambda t, theta: bp_levels(t, theta, _OBS),
    "bp_root": lambda t, theta: bp_root(t, theta, _OBS),
    "exact_posterior": lambda t, theta: exact_posterior(t, theta, _OBS),
    "majority_moments": lambda t, theta: majority_moments(2, theta, 2),
    "effective_conductance": lambda t, theta: effective_conductance(t, theta),
    "current_weights": lambda t, theta: current_weights(t, theta),
    "weighted_majority_sign": lambda t, theta: weighted_majority_sign(t, _OBS, theta, rng=0),
    "magnetization_chain": lambda t, theta: popdyn.magnetization_chain(
        "gw", 2.0, theta, 2, 100, np.random.default_rng(0)),
    "conductance_chain": lambda t, theta: popdyn.conductance_chain(
        "gw", 2.0, theta, 2, 100, np.random.default_rng(0)),
    "dary_sum_trials": lambda t, theta: popdyn.dary_sum_trials(
        2, theta, 2, 100, np.random.default_rng(0)),
}


def test_every_public_theta_function_is_covered():
    assert _public_functions_taking("theta") == set(_THETA_CALLS)


@pytest.mark.parametrize("theta", [3.0, float("nan"), True, "0.5"],
                         ids=["three", "nan", "bool", "string"])
@pytest.mark.parametrize("name", sorted(_THETA_CALLS))
def test_tree_engines_reject_bad_theta(name, theta):
    # a theta outside [-1, 1], nan, a bool or a string is refused with an
    # error that names theta, not turned into a flip probability outside [0, 1]
    tree = run_broadcast(sample_tree("dary", 2, 2, seed=0), 0.2, seed=1, root_sign=1)
    _THETA_CALLS[name](tree, 0.6)
    with pytest.raises(ValueError, match="theta"):
        _THETA_CALLS[name](tree, theta)
