"""Deterministic derivation of RNG streams from a master seed.

Every Monte Carlo routine in this package takes either an integer seed or a
ready ``numpy.random.Generator``.  Experiments that fan work out (per grid
row, per graph seed, per trial batch) derive child streams with
``derived_rng(master, *key)``, where the key is a fixed tuple of small ints
and tag strings.  The derivation is a pure function of ``(master, key)``, so
trial batch ``i`` sees the same stream no matter how many workers are used or
in which order batches run.  The master seed and every integer key part is
one 64-bit word, in [0, 2**64): a value outside is refused, not wrapped onto
another value's stream.
"""

from __future__ import annotations

import zlib

import numpy as np

from .params import _integer

__all__ = ["as_generator", "derived_rng"]

_SEEDS = 1 << 64  # master seeds and integer key parts lie in [0, _SEEDS)


def _key_words(parts) -> list[int]:
    words = []
    for part in parts:
        if isinstance(part, str):
            words.append(zlib.crc32(part.encode("utf-8")))
        elif isinstance(part, (int, np.integer)):
            v = _integer("seed key part", part, low=0, below=_SEEDS)
            words.append(v & 0xFFFFFFFF)
            words.append(v >> 32)
        else:
            raise TypeError(f"seed key parts must be int or str, got {type(part)!r}")
    return words


def derived_rng(master_seed: int, *key) -> np.random.Generator:
    """Generator for the work unit identified by ``key`` under ``master_seed``,
    an integer in [0, 2**64)."""
    entropy = [_integer("master_seed", master_seed, low=0, below=_SEEDS)] + _key_words(key)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def as_generator(seed) -> np.random.Generator:
    """Coerce an int seed (or pass through a Generator) to a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
