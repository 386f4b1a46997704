"""Per-model importance metrics for equal-weight mean ensembles.

Two algorithms quantify how much a component model contributes to ensemble
accuracy on a task:

* LOMO (leave one model out): the change in the ensemble's positively
  oriented score when the model is dropped from the full pool.
* LASOMO (leave all subsets of models out): a Shapley-style weighted average
  of the model's marginal contribution over every non-empty coalition of the
  other models. The empty coalition is excluded because an ensemble of zero
  models makes no prediction, so the permutation weights are
  ``s!(n-s-1)! / ((n-1)! * (n-1)) == 1 / ((n-1) * C(n-1, s))``, under which
  LASOMO is the unweighted mean over sizes of the per-size mean contributions.

Both are differences of ensemble scores over the lattice of model subsets,
enumerated by bitmask over the pool's canonical (sorted) model order. For a
batch of T tasks sharing one pool, the walk :func:`_subset_scores` scores
every subset once into a (2^n, T) table, and :func:`_table_readouts` reads
every LASOMO output from that table and its size vector alone: LOMO (its top
layer), the moments of the marginal contributions at each subset size, their
per-task mean over sizes, and LASOMO from the same per-size sums, not from
per-subset weighted terms. The LOMO kernel, shared by the panel path and the
simulation engine, scores only the n + 1 top-layer ensembles: no model cap.

One float64 budget, ``_BLOCK_ELEMENTS``, bounds the kernels' working memory.
A batch takes the most tasks, at least one, whose largest array fits it: the
(2^n, T) score table or the (n, T, levels) member values for LASOMO, the
(n + 1, T, levels) ensembles for LOMO. The subset sums are streamed, never
held whole: one quantile level at a time, a depth-first walk builds them in
(2^L, T) blocks of at most that many values and scores each block as it is
built, so a block holds the most subsets the budget allows. A worker's
LASOMO memory is thus the (2^n, T) score table, its uint8 size vector and
readouts of the same order, plus at most n - L + 1 blocks and the scoring
temporaries of one (9 MB at n = 20 and T = 1, where L = 17), not the
(2^n, T, levels) sum table (193 MB there at 23 levels).

Member values sum left to right in canonical order, WIS terms sum left to
right over the levels, contributions of one size in ascending bitmask order
and the per-size sums in ascending size order, and each task's per-size
moments are pooled once over all tasks, in task order. So every output is
reproducible bit for bit across runs, worker counts, block budgets and
batch widths, and the LOMO read from the table equals the LOMO kernel's.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping

import numpy as np

from .dataio import Panel, TaskPanel, TaskPool, from_pools
from .ensembling import member_means
from .scoring import Metric, QuantileLevels, ValidationError, positive_scores, scored_values, wis_batch

__all__ = [
    "Algorithm",
    "CapacityError",
    "ImportanceResult",
    "MAX_EXACT_MODELS",
    "SizeStat",
    "TaskPool",
    "WeightScheme",
    "compute_importance",
    "importance_by_subset_size",
    "lasomo_all",
    "lasomo_task",
    "lomo_all",
    "lomo_task",
    "rank_models",
    "shapley_weight_exact",
]

# 2**20 subset ensembles per task is the practical ceiling for exact
# enumeration; beyond that the computation refuses rather than sampling.
MAX_EXACT_MODELS = 20

# The one float64 budget of the kernels' working memory. It sets how many
# tasks share a batch (the most whose largest array fits it) and how many low
# members a block of the streamed subset sums enumerates.
_BLOCK_ELEMENTS = 1 << 17


class CapacityError(ValidationError):
    """Exact subset enumeration refused because the pool is too large."""


class WeightScheme(Enum):
    """How LASOMO weights the coalitions a model can join.

    ``permutation`` uses the modified Shapley weights (size-dependent);
    ``equal`` gives every admissible subset the same weight.
    """

    PERMUTATION = "permutation"
    EQUAL = "equal"


class Algorithm(Enum):
    LOMO = "lomo"
    LASOMO = "lasomo"


def _check_capacity(n: int) -> None:
    if n > MAX_EXACT_MODELS:
        raise CapacityError(
            f"pool of {n} models exceeds the exact-enumeration cap of "
            f"{MAX_EXACT_MODELS}; use the lomo algorithm instead"
        )


def shapley_weight_exact(n: int, s: int) -> Fraction:
    """Exact coalition weight for a subset of size ``s`` among ``n`` models.

    Exact rational arithmetic keeps the normalization identity
    ``sum over all admissible subsets == 1`` free of rounding for every
    supported ``n``.
    """
    if n < 2:
        raise ValidationError(f"need at least 2 models, got {n}")
    _check_capacity(n)
    if not 1 <= s <= n - 1:
        raise ValidationError(
            f"subset size {s} outside [1, {n - 1}] (the empty coalition is excluded)"
        )
    return Fraction(1, (n - 1) * math.comb(n - 1, s))


def lomo_kernel(values: np.ndarray, levels: QuantileLevels | None, y, metric: Metric) -> np.ndarray:
    """LOMO of every member: the full ensemble's score minus the score without it.

    ``values`` holds member values in canonical order along the first axis,
    then batch axes that ``y`` broadcasts against, then the level axis when
    ``levels`` is given (None means point values). The n + 1 ensembles are
    scored in one call, so the pool size has no cap; the result is
    (n, batch...). The panel path and the simulation engine share it.
    """
    values, levels = scored_values(values, levels, metric)
    n = values.shape[0]
    ens = np.stack(
        [member_means(values)]
        + [member_means(np.delete(values, i, axis=0)) for i in range(n)]
    )
    scores = positive_scores(ens, levels, y)
    return scores[0] - scores[1:]


def _low_members(n: int, cell_elements: int) -> int:
    """How many low members L the streamed subset table enumerates per block.

    The most, down to one, whose (2^L subsets x ``cell_elements``) block fits
    ``_BLOCK_ELEMENTS``; L = n when the whole table fits, a single block.
    """
    return max(1, min(n, (_BLOCK_ELEMENTS // cell_elements).bit_length() - 1))


def _level_blocks(level: np.ndarray, low: int):
    """Yield ``(high, block)``: the (2^L, T) subset sums of one level's members.

    ``level`` is (n, T). The low L members' 2^L subset sums form the block of
    high mask 0, and a depth-first walk over the high bits gets each high
    mask's block from its parent's (the mask without its top bit) by adding
    that member. Members thus join in ascending bit order, so each subset's
    sum is the plain left-to-right sum of its members, bit for bit. Only the
    blocks on the current path are alive, at most n - L + 1 of them.
    """
    n, t = level.shape
    block = np.zeros((1 << low, t))
    for i in range(low):
        block[1 << i : 2 << i] = block[: 1 << i] + level[i]
    yield 0, block
    # Each path entry is a high mask, its block and the next member that may
    # join it.
    path = [(0, block, low)]
    while path:
        high, block, j = path[-1]
        if j == n:
            path.pop()
            continue
        path[-1] = (high, block, j + 1)
        child = (high | 1 << (j - low), block + level[j], j + 1)
        yield child[:2]
        path.append(child)


def _subset_scores(values: np.ndarray, levels: QuantileLevels | None, y):
    """Positively oriented ensemble score of every subset, and its member count.

    Both are indexed by bitmask over canonical member order; the counts are
    uint8. The sums are streamed, never held whole: one quantile level at a
    time, :func:`_level_blocks` builds them in (2^L, T) blocks, and each block
    is scored as soon as it is built, through :func:`wis_batch` at that one
    level (its term, exactly) or as -SPE for point values. The WIS terms are
    added into the table in level order, then divided by the level count and
    negated once. Score row 0, the empty coalition, is NaN and is never
    scored or read.
    """
    n, t = values.shape[:2]
    # Level-major members, (levels, n, T); point values get one level.
    members = (values[None] if levels is None else np.moveaxis(values, -1, 0)).copy()
    low = _low_members(n, t)
    sizes = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n):
        sizes[1 << i : 2 << i] = sizes[: 1 << i] + 1
    # float64 divisors: a division by the uint8 sizes would convert them per block
    low_sizes = sizes[: 1 << low, None].astype(np.float64)
    scores = np.full((1 << n, t), np.nan, dtype=np.float64)
    for k, level in enumerate(members):
        one_level = None if levels is None else QuantileLevels(levels.levels[k : k + 1])
        for high, block in _level_blocks(level, low):
            first = 1 if high == 0 else 0  # skip mask 0
            rows = slice((high << low) + first, (high + 1) << low)
            means = block[first:] / (low_sizes[first:] + high.bit_count())
            if levels is None:
                scores[rows] = positive_scores(means, None, y)
            elif k == 0:
                scores[rows] = wis_batch(means[..., None], one_level, y)
            else:
                scores[rows] += wis_batch(means[..., None], one_level, y)
    if levels is not None:
        table = scores[1:]
        table /= len(levels)
        np.negative(table, out=table)
    return scores, sizes


def _table_readouts(scores: np.ndarray, sizes: np.ndarray, scheme: WeightScheme):
    """Every output read from a (2^n, T) subset score table and its size vector.

    Returns ``(phi, lomo, mos, mean, m2)``: the (n, T) LASOMO, LOMO and
    mean-over-sizes cells, and per ensemble size r = 2..n (index r - 2) the
    (n, n - 1, T) mean of each model's marginal contributions in each task
    and their sum of squared deviations from it (M2). LASOMO is ``mos``
    itself under permutation weights and the per-size sums' total over
    2^(n-1) - 1 under equal weights. Besides the table and these outputs it
    holds at most three arrays of half the table's length.

    For model i the masks without bit i and the masks with it are the two
    halves of the zero-copy view (2^(n-1-i), 2, 2^i, T) of the table, both
    in ascending mask order. Model i's marginal contributions thus come out
    indexed by the mask with bit i squeezed out, whose popcount is the size
    of the coalition i joins, whatever i is: one popcount vector serves
    every model.
    """
    n, t = int(sizes[-1]), scores.shape[1]  # the full mask holds all n members
    half = 1 << (n - 1)
    by_size = np.argsort(sizes[1:half], kind="stable")  # mask 0 has no score
    counts = np.asarray([math.comb(n - 1, s) for s in range(1, n)])
    starts = np.cumsum(counts) - counts
    mos, total = np.empty((n, t)), np.empty((n, t))
    mean, m2 = np.empty((n, n - 1, t)), np.empty((n, n - 1, t))
    for i in range(n):
        halves = scores.reshape(half >> i, 2, 1 << i, t)
        grouped = np.take((halves[:, 1] - halves[:, 0]).reshape(half, t)[1:], by_size, axis=0)
        sums = np.add.reduceat(grouped, starts, axis=0)
        mean[i] = sums / counts[:, None]
        # accumulate pins the ascending size order at every batch width; a
        # reduce over a (N, 1) array would sum pairwise instead.
        mos[i] = np.add.accumulate(mean[i], axis=0)[-1] / (n - 1)
        total[i] = np.add.accumulate(sums, axis=0)[-1]
        grouped -= np.repeat(mean[i], counts, axis=0)
        grouped *= grouped
        m2[i] = np.add.reduceat(grouped, starts, axis=0)
        del grouped  # with the differences unnamed, three half arrays at most
    full = (1 << n) - 1
    lomo = scores[full] - scores[full ^ (1 << np.arange(n))]
    phi = mos if scheme is WeightScheme.PERMUTATION else total / (half - 1)
    return phi, lomo, mos, mean, m2


def _pool_index(task_pool: TaskPool, model_id: str) -> int:
    try:
        return task_pool.pool.model_ids.index(model_id)
    except ValueError:
        raise ValidationError(f"model {model_id!r} not in the task's pool") from None


def lomo_all(task_pool: TaskPool, metric: Metric) -> np.ndarray:
    """LOMO importance for every pool member, in canonical member order."""
    result = compute_importance(from_pools([task_pool]), metric, Algorithm.LOMO)
    return result.per_task.values[:, 0].copy()


def lomo_task(task_pool: TaskPool, metric: Metric, model_id: str) -> float:
    """Importance of one model as the score drop when it leaves the full pool."""
    i = _pool_index(task_pool, model_id)
    return float(lomo_all(task_pool, metric)[i])


def lasomo_all(
    task_pool: TaskPool,
    metric: Metric,
    scheme: WeightScheme = WeightScheme.PERMUTATION,
) -> np.ndarray:
    """LASOMO importance for every pool member, in canonical member order."""
    result = compute_importance(from_pools([task_pool]), metric, Algorithm.LASOMO, scheme)
    return result.per_task.values[:, 0].copy()


def lasomo_task(
    task_pool: TaskPool,
    metric: Metric,
    model_id: str,
    scheme: WeightScheme = WeightScheme.PERMUTATION,
) -> float:
    """LASOMO importance of one model for one task."""
    i = _pool_index(task_pool, model_id)
    return float(lasomo_all(task_pool, metric, scheme)[i])


@dataclass(frozen=True)
class SizeStat:
    """Mean and population variance of marginal contributions at one ensemble size."""

    mean: float
    variance: float
    count: int


def importance_by_subset_size(
    task_pool: TaskPool, metric: Metric, model_id: str
) -> dict[int, SizeStat]:
    """Marginal contributions of one model grouped by ensemble size r = |S| + 1.

    The unweighted mean over r of the per-size means equals the
    permutation-weight LASOMO value: each size contributes C(n-1, r-1)
    subsets whose common weight is 1/((n-1) C(n-1, r-1)).
    """
    _pool_index(task_pool, model_id)
    result = compute_importance(from_pools([task_pool]), metric, Algorithm.LASOMO)
    return result.by_subset_size[model_id]


def rank_models(values: Mapping[str, float]) -> dict[str, int]:
    """Rank models by positively oriented value, 1 = best, ties by model id."""
    order = sorted(values, key=lambda m: (-values[m], m))
    return {m: i + 1 for i, m in enumerate(order)}


@dataclass(frozen=True)
class ImportanceResult:
    """Per-task importance cells for a panel of tasks.

    ``per_task`` keeps the raw matrix with a missing cell wherever a model
    did not forecast a task; averaging over tasks, with an NA policy for
    those cells, is left to the caller. For LASOMO the subset tables that
    give ``per_task`` also give ``lomo``, the per-task LOMO cells,
    ``mean_over_sizes``, the per-task unweighted mean of the per-size mean
    contributions, and ``by_subset_size``, which pools marginal
    contributions across all (task, subset) pairs; all three are None for
    LOMO.
    """

    per_task: Panel
    by_subset_size: Mapping[str, Mapping[int, SizeStat]] | None = None
    lomo: Panel | None = None
    mean_over_sizes: Panel | None = None


def compute_importance(
    tasks: TaskPanel,
    metric: Metric,
    algorithm: Algorithm,
    scheme: WeightScheme = WeightScheme.PERMUTATION,
    n_workers: int | None = None,
) -> ImportanceResult:
    """Compute importance for every (model, task) cell of a task panel.

    Task columns with the same present models share a pool signature and
    are evaluated in batches as wide as ``_BLOCK_ELEMENTS`` allows,
    signatures in sorted model-id order, on ``n_workers`` threads (None
    means one); the output does not depend on either. Build the panel with
    :func:`~ensimp.dataio.build_task_pools` or :func:`~ensimp.dataio.from_pools`.
    """
    panel = tasks.forecasts
    if not tasks:
        raise ValidationError("no tasks to score")
    signatures: dict[tuple[int, ...], list[int]] = {}
    for j, (task, col) in enumerate(zip(panel.tasks, panel.present.T.tolist())):
        rows = tuple(i for i, present in enumerate(col) if present)
        if len(rows) < 2:
            raise ValidationError(f"task {task} has fewer than 2 models")
        if algorithm is Algorithm.LASOMO:
            _check_capacity(len(rows))
        signatures.setdefault(rows, []).append(j)

    jobs: list[tuple[tuple[int, ...], list[int]]] = []
    levels = 1 if panel.levels is None else len(panel.levels)
    # Models are sorted, so row-index order is model-id order.
    for rows in sorted(signatures):
        cols, n = signatures[rows], len(rows)
        # Per task, the largest array of a batch (see the module docstring).
        widest = (n + 1) * levels if algorithm is Algorithm.LOMO else max(1 << n, n * levels)
        per_batch = max(1, _BLOCK_ELEMENTS // widest)
        jobs += [(rows, cols[k : k + per_batch]) for k in range(0, len(cols), per_batch)]

    def run(job):
        rows, cols = job
        values, y = panel.values[np.ix_(rows, cols)], tasks.truth[cols]
        if algorithm is Algorithm.LOMO:
            return (lomo_kernel(values, panel.levels, y, metric),)
        values, levels = scored_values(values, panel.levels, metric)
        return _table_readouts(*_subset_scores(values, levels, y), scheme)

    with ThreadPoolExecutor(max_workers=n_workers or 1) as ex:
        outputs = list(ex.map(run, jobs))

    phi, lomo, mos = (np.full(panel.present.shape, np.nan) for _ in range(3))
    moments: dict[tuple[str, int], list[tuple[np.ndarray, ...]]] = {}
    for (rows, cols), (cells_phi, *table) in zip(jobs, outputs):
        cells, n = np.ix_(rows, cols), len(rows)
        phi[cells] = cells_phi
        if not table:
            continue
        lomo[cells], mos[cells], mean, m2 = table
        for i, row in enumerate(rows):
            for k in range(n - 1):
                # C(n - 1, k + 1) contributions of size r = k + 2 per task
                part = (np.full(len(cols), math.comb(n - 1, k + 1)), mean[i, k], m2[i, k])
                moments.setdefault((panel.models[row], k + 2), []).append(part)

    per_task = Panel(panel.models, panel.tasks, phi, panel.present)
    if algorithm is Algorithm.LOMO:
        return ImportanceResult(per_task)

    by_size: dict[str, dict[int, SizeStat]] = {m: {} for m in panel.models}
    # The exact two-level formula: N = sum(c), mean = sum(c * mean_t) / N and
    # M2 = sum(M2_t) + sum(c * (mean_t - mean)^2), each sum over the tasks in
    # (signature, column) order, which the batching does not change.
    for (model, r), parts in sorted(moments.items()):
        count, mean, m2 = map(np.concatenate, zip(*parts))
        total = int(count.sum())
        pooled = np.add.reduce(count * mean) / total
        dev = mean - pooled
        m2 = np.add.reduce(m2) + np.add.reduce(count * dev * dev)
        by_size[model][r] = SizeStat(float(pooled), float(m2 / total), total)
    lomo, mos = (Panel(panel.models, panel.tasks, cells, panel.present) for cells in (lomo, mos))
    return ImportanceResult(per_task, by_size, lomo, mos)
