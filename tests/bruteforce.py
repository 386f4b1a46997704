"""Independent reference implementations used only by the test suite.

Everything here is deliberately naive: plain Python floats, explicit
enumeration of coalitions, exact Fraction weights converted at the end. The
one array reference, :func:`subset_scores`, holds the whole subset table.
The only convention shared with the package under test is the canonical
arithmetic order it documents (members and WIS terms sum left to right,
subset terms accumulate in ascending bitmask order, cross-task averages use
exact summation), which is what makes the recorded fixture outputs
reproducible byte for byte. The package sums LASOMO's terms size by size
instead, which gives the same bits on the fixture's pools of at most three
models under permutation weights and agrees to rounding elsewhere.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def wis(levels, values, y):
    """Mean over levels of 2 * (1[y <= q] - tau) * (q - y)."""
    acc = 0.0
    for tau, q in zip(levels, values):
        acc = acc + 2.0 * ((1.0 if y <= q else 0.0) - tau) * (q - y)
    return acc / len(levels)


def seq_mean(values):
    acc = values[0]
    for v in values[1:]:
        acc = acc + v
    return acc / len(values)


def ensemble_quantiles(rows):
    """Per-level mean of member quantile rows (members already in id order)."""
    return [seq_mean([row[k] for row in rows]) for k in range(len(rows[0]))]


def neg_wis_score(forecasts, subset, levels, y):
    rows = [forecasts[m] for m in sorted(subset)]
    return -wis(levels, ensemble_quantiles(rows), y)


def neg_spe_score(points, subset, y):
    return -((y - seq_mean([points[m] for m in sorted(subset)])) ** 2)


def shapley_weight(n, s):
    return Fraction(math.factorial(s) * math.factorial(n - s - 1),
                    math.factorial(n - 1) * (n - 1))


def equal_weight(n, s):
    return Fraction(1, 2 ** (n - 1) - 1)


def lasomo(score_of, model_ids, target, weight_fn=shapley_weight):
    """Explicit-enumeration LASOMO for one model.

    ``score_of`` maps a tuple of model ids to the positively oriented
    ensemble score; masks run in ascending numeric order over the sorted id
    list, matching the canonical accumulation order.
    """
    ids = sorted(model_ids)
    n = len(ids)
    i = ids.index(target)
    acc = 0.0
    for mask in range(1, 1 << n):
        if mask & (1 << i):
            continue
        subset = tuple(ids[j] for j in range(n) if mask & (1 << j))
        w = float(weight_fn(n, len(subset)))
        acc = acc + w * (score_of(subset + (target,)) - score_of(subset))
    return acc


def lomo(score_of, model_ids, target):
    ids = tuple(sorted(model_ids))
    rest = tuple(m for m in ids if m != target)
    return score_of(ids) - score_of(rest)


def contributions_by_size(score_of, model_ids, target):
    """Marginal contributions of one model grouped by ensemble size |S| + 1."""
    ids = sorted(model_ids)
    n = len(ids)
    i = ids.index(target)
    groups: dict[int, list[float]] = {}
    for mask in range(1, 1 << n):
        if mask & (1 << i):
            continue
        subset = tuple(ids[j] for j in range(n) if mask & (1 << j))
        diff = score_of(subset + (target,)) - score_of(subset)
        groups.setdefault(len(subset) + 1, []).append(diff)
    return groups


def exact_sum(vals) -> Fraction:
    """The sum of floats with no rounding at all."""
    ratios = [v.as_integer_ratio() for v in vals]
    den = max(d for _, d in ratios)  # every d is a power of two
    return Fraction(sum(n * (den // d) for n, d in ratios), den)


def two_pass(vals):
    """Mean, population variance (two exact-sum passes) and count."""
    mean = math.fsum(vals) / len(vals)
    var = math.fsum((v - mean) ** 2 for v in vals) / len(vals)
    return mean, var, len(vals)


def by_subset_size(score_of, model_ids, target):
    """Per ensemble-size mean and population variance of marginal contributions."""
    groups = contributions_by_size(score_of, model_ids, target)
    return {r: two_pass(vals) for r, vals in sorted(groups.items())}


def subset_scores(values, levels, y):
    """Positively oriented score of every subset from the materialised sum table.

    ``values`` is (n, T) point values (``levels`` None) or (n, T, K) quantile
    values at the level tuple ``levels``. The whole (2^n, ...) sum table is
    built with members joining in ascending bit order, then every non-empty
    mask is scored with WIS terms accumulated left to right. Row 0, the
    empty coalition, stays NaN. Returns the scores and the member counts.
    """
    n = values.shape[0]
    sums = np.zeros((1 << n,) + values.shape[1:])
    sizes = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        sums[1 << i : 2 << i] = sums[: 1 << i] + values[i]
        sizes[1 << i : 2 << i] = sizes[: 1 << i] + 1
    means = sums[1:] / sizes[1:].reshape((-1,) + (1,) * (sums.ndim - 1))
    scores = np.full((1 << n, values.shape[1]), np.nan)
    if levels is None:
        d = y - means
        scores[1:] = -(d * d)
    else:
        yb = np.asarray(y)[..., None]
        terms = 2.0 * ((yb <= means) - np.asarray(levels)) * (means - yb)
        scores[1:] = -(np.add.accumulate(terms, axis=-1)[..., -1] / len(levels))
    return scores, sizes
