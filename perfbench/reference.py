"""Brute-force reference for the importance outputs.

Every coalition is enumerated with itertools; an ensemble is the plain
per-level mean of its members' quantiles and is scored by plain WIS. Nothing
here comes from ensimp or its tests, so the checks built on it stay
independent of the code they check. Results agree with the program up to
floating-point summation order, so callers compare with a tolerance.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Coalitions scored per numpy call; bounds the (chunk, size, levels) gather.
_CHUNK = 4096


def neg_wis(values: np.ndarray, levels: np.ndarray, y: float) -> np.ndarray:
    """-WIS of quantile rows (last axis over levels) against one observation."""
    terms = 2.0 * ((y <= values) - levels) * (values - y)
    return -terms.mean(axis=-1)


def coalition_scores(values: np.ndarray, levels: np.ndarray, y: float) -> np.ndarray:
    """-WIS of the mean ensemble of every non-empty coalition, indexed by bitmask.

    ``values`` is (n_models, n_levels) in model-id order; bit j of a mask
    stands for model j. Index 0, the empty coalition, is NaN.
    """
    n = values.shape[0]
    bits = 1 << np.arange(n, dtype=np.int64)
    table = np.full(1 << n, np.nan)
    for size in range(1, n + 1):
        combos = itertools.combinations(range(n), size)
        while True:
            chunk = np.array(list(itertools.islice(combos, _CHUNK)), dtype=np.intp)
            if chunk.size == 0:
                break
            ensemble = values[chunk].mean(axis=1)
            table[bits[chunk].sum(axis=1)] = neg_wis(ensemble, levels, y)
    return table


def subset_size_of(n: int) -> np.ndarray:
    sizes = np.zeros(1 << n, dtype=np.int64)
    for j in range(n):
        sizes[1 << j : 2 << j] = sizes[: 1 << j] + 1
    return sizes


def lasomo(table: np.ndarray, i: int) -> float:
    """Permutation-weight LASOMO of model ``i`` from a coalition score table.

    A coalition S of the other models, |S| = s >= 1, has weight
    1 / ((n - 1) * C(n - 1, s)).
    """
    n = int(table.shape[0]).bit_length() - 1
    bit = 1 << i
    masks = np.arange(1, 1 << n, dtype=np.int64)
    without = masks[(masks & bit) == 0]
    sizes = subset_size_of(n)[without]
    weights = np.array([1.0 / ((n - 1) * math.comb(n - 1, s)) for s in range(n)])
    return math.fsum(weights[sizes] * (table[without | bit] - table[without]))


def lomo(values: np.ndarray, levels: np.ndarray, y: float, i: int) -> float:
    """Score of the full ensemble minus the score without model ``i``."""
    full = neg_wis(values.mean(axis=0), levels, y)
    rest = neg_wis(np.delete(values, i, axis=0).mean(axis=0), levels, y)
    return float(full - rest)


def close(got: float, want: float, scale: float, rel: float = 1e-9) -> bool:
    """Agreement up to summation order, relative to the task's score scale."""
    return abs(got - want) <= rel * max(1.0, scale)
