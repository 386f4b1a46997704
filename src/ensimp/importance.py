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
batch of T tasks sharing one pool size n, whatever models each task has,
:func:`_subset_scores` scores every subset once into a (2^n, T) table, and
:func:`_table_readouts` reads every LASOMO output from that table alone:
LOMO (its top layer), the moments of the marginal contributions at each
subset size, their per-task mean over sizes, and LASOMO from the same
per-size sums, not from per-subset weighted terms. The LOMO kernel, shared by
the panel path and the simulation engine, scores only the n + 1 top-layer
ensembles: no model cap. Both kernels score the output of ``scored_values``,
called once per panel, through ``positive_scores`` alone.

One float64 budget, ``_BLOCK_ELEMENTS``, bounds the kernels' working memory.
A batch takes the most tasks, at least one, whose largest array fits it: the
(2^n, T) score table or the (n, T, levels) scored values for LASOMO, the
(n + 1, T, levels) ensembles for LOMO, levels counting those scored (1 for
SPE). The subset sums are held one level and one slice at a time: a slice of
2^L masks, the most the budget allows up to half the table, is summed from
the level's low table, the sums of the members below bit L, and the slice's
higher members. The readouts take each model's contributions one size at
a time into one slab of the largest size's rows, at most a quarter of the
table. Each job allocates its working arrays once: the walk's low table,
slice sums and scoring slab, with the divided sums as the scorer's scratch,
and the readouts' contributions (half the table's length) and slab. Nothing
the size of a slice or a table is allocated per level, slice or model, so a
worker thread does not hand pages back to the system only to fault them in
again. Every job of a pool size reads one shared, read-only size table: the
uint8 size of every mask and the int32 size order of the half without the
top member (:func:`_size_table`; 3 MB at n = 20, once per process).

A table over the budget (pools of 18 to 20 models, one task per job) is
scored after every other job, alone, in k parts, k the worker count or the
count of such tables, whichever is fewer: each part walks every k-th slice
and reads every k-th model into its own slice arrays, contributions and
slab, which the calling thread allocates. So one such table is alive at a
time, and never more parts' arrays than one table per worker would hold. At
n = 20 and T = 1 that is the 8.4 MB table, plus 3.1 MB of slice arrays per
part while it is scored, then 5.7 MB of readout arrays per part: 14.1 MB in
one part and 19.8 MB in two, by ``tracemalloc``; never the (2^n, T, levels)
sum table (193 MB there at 23 levels).

Member values sum left to right in canonical order at every pool size, WIS
terms sum left to right over the levels, contributions of one size in
ascending bitmask order and the per-size sums in ascending size order, and
each task's per-size moments are pooled once over all tasks, in the panel's
column (task) order. So every output is reproducible bit for bit across runs,
worker counts, block budgets and batch widths, and for every pool the table
accepts, the table's LOMO equals the LOMO kernel's.
"""

from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping

import numpy as np

from .dataio import Panel, TaskKey, TaskPanel, TaskPool, from_pools
from .ensembling import member_means
from .scoring import Metric, QuantileLevels, ValidationError, positive_scores, scored_values

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
# tasks share a batch (the most whose largest array fits it) and how many
# subsets a slice of the subset table scores at once.
_BLOCK_ELEMENTS = 1 << 17


class CapacityError(ValidationError):
    """Exact subset enumeration refused because the pool is too large.

    ``cap`` states the refusal alone; the message adds that LOMO has no cap.
    """

    def __init__(self, cap: str) -> None:
        super().__init__(f"{cap}; use the lomo algorithm instead")
        self.cap = cap


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


def _check_capacity(n: int, task: TaskKey | None = None) -> None:
    if n > MAX_EXACT_MODELS:
        at = "" if task is None else f"task {task}: "
        raise CapacityError(f"{at}pool of {n} models exceeds the exact-enumeration cap of "
                            f"{MAX_EXACT_MODELS}")


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


def lomo_kernel(values: np.ndarray, levels: QuantileLevels | None, y) -> np.ndarray:
    """LOMO of every member: the full ensemble's score minus the score without it.

    ``values`` and ``levels`` are what :func:`~ensimp.scoring.scored_values`
    returns: member values in canonical order along the first axis, then
    batch axes that ``y`` broadcasts against, then the level axis when
    ``levels`` is given (None means point values, scored as -SPE). The n + 1
    ensembles are scored in one call, so the pool size has no cap; the result
    is (n, batch...). The panel path and the simulation engine share it.
    """
    n = values.shape[0]
    ens = np.stack(
        [member_means(values)]
        + [member_means(np.delete(values, i, axis=0)) for i in range(n)]
    )
    scores = positive_scores(ens, levels, y)
    return scores[0] - scores[1:]


@functools.lru_cache(maxsize=MAX_EXACT_MODELS)
def _size_table(n: int):
    """The uint8 member count of masks 0 to 2^n - 1, and the stable order by
    count of masks 1 to 2^(n-1) - 1 (entry k is mask k + 1), as int32.

    Both are read-only, shared by every job of pool size ``n`` in every
    thread; :func:`compute_importance` builds them before its workers start.
    The cache holds at most one entry per pool size up to the model cap
    (3 MB at n = 20, 6 MB for all), whatever the process has run.
    """
    sizes = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n):
        sizes[1 << i : 2 << i] = sizes[: 1 << i] + 1
    # the largest entry, 2^19 - 2 at the cap, fits int32; np.take copies any order anyway
    order = np.argsort(sizes[1 : 1 << (n - 1)], kind="stable").astype(np.int32)
    sizes.flags.writeable = order.flags.writeable = False
    return sizes, order


def _in_turn(part, parts: int) -> None:
    """Run ``part(0)`` to ``part(parts - 1)`` in this thread, in order."""
    for p in range(parts):
        part(p)


def _subset_scores(values: np.ndarray, levels: QuantileLevels | None, y, parts: int = 1,
                   spread=_in_turn):
    """The (2^n, T) table of every subset's positively oriented ensemble score.

    Rows are indexed by bitmask over canonical member order. The table is
    walked in slices of 2^L masks, 2^L the largest power of two within
    ``_BLOCK_ELEMENTS`` values and half the table, one level at a time (point
    values are one). A slice's sums are the level's low table, the sums of
    the members below bit L filled by doubling as the member counts of
    :func:`_size_table` are, plus the slice's higher members in ascending
    bit order: members join in ascending bit order, so each subset's sum is
    the plain left-to-right sum of its members. The sums are divided by
    their counts and scored by one ``positive_scores`` call, as -SPE or as
    minus that one level's WIS term, exactly, with the divided sums as
    scratch: the first level straight into the table, each later one into a
    slab that is added to it, in level order. Each slice is then divided by
    the level count once. Score row 0, the empty coalition, is NaN and is
    never scored or read.

    ``spread(walk, parts)`` runs ``walk(p)`` for each of the ``parts``
    parts, each walking every ``parts``-th slice over its own rows of the
    table. The parts' low tables, sums and slabs are one array, allocated
    here, in the calling thread.
    """
    n, t = values.shape[:2]
    # Level-major members, (levels, n, T), and the level set each is scored at.
    members = values[None] if levels is None else np.moveaxis(values, -1, 0).copy()
    level_sets = [None] if levels is None else [QuantileLevels((p,)) for p in levels.levels]
    sizes = _size_table(n)[0]
    # At most half the table: a table within the budget is scored in halves,
    # whose sums and slab stay in cache where the whole table's would not.
    low = min(n - 1, max(1, _BLOCK_ELEMENTS // t).bit_length() - 1)
    width = 1 << low  # the masks of one scored slice
    scores = np.empty((1 << n, t))
    scores[0] = np.nan
    parts = min(parts, (1 << n) >> low)  # a part for every slice at most
    buffers = np.empty((parts, 3, width, t))  # each part's only slice arrays

    def walk(part):
        lows, sums, slab = buffers[part]
        # slice 0 last, so its sums, the low table itself, are spent once scored
        starts = range(part * width, 1 << n, parts * width)[::-1]
        lows[0] = 0.0  # the empty sum, never divided
        for k, (level, at) in enumerate(zip(members, level_sets)):
            for i in range(low):
                np.add(lows[: 1 << i], level[i], out=lows[1 << i : 2 << i])
            for start in starts:
                means = lows
                for i in range(low, n):
                    if start >> i & 1:
                        means = np.add(means, level[i], out=sums)
                first = int(start == 0)  # mask 0 is not scored
                rows = slice(start + first, start + width)
                # the means are spent once scored, so they are the scorer's scratch
                means = means[first:]
                means /= sizes[rows, None]
                out = positive_scores(means if at is None else means[..., None], at, y,
                                      slab[first:] if k else scores[rows])
                if k:
                    scores[rows] += out
        for start in starts:
            scores[start : start + width] /= len(members)

    spread(walk, parts)
    return scores


def _table_readouts(scores: np.ndarray, scheme: WeightScheme, parts: int = 1, spread=_in_turn):
    """Every output read from a (2^n, T) subset score table alone.

    Returns ``(phi, lomo, mos, mean, m2)``: the (n, T) LASOMO, LOMO and
    mean-over-sizes cells, and per ensemble size r = 2..n (index r - 2) the
    (n, n - 1, T) mean of each model's marginal contributions in each task
    and their sum of squared deviations from it (M2). LASOMO is ``mos``
    itself under permutation weights and the per-size sums' total over
    2^(n-1) - 1 under equal weights.

    ``spread(read, parts)`` runs ``read(p)`` for each of the ``parts``
    parts, part p reading every ``parts``-th model from model p. Besides the
    table, the shared size order and these outputs, each part holds its own
    model's contributions, half the table's length, one slab of the largest
    size's rows, into which each size's contributions are taken in turn, one
    size per pass, and the per-size sums: one array for all parts, allocated
    here, in the calling thread.

    For model i the masks without bit i and the masks with it are the two
    halves of the zero-copy view (2^(n-1-i), 2, 2^i, T) of the table, both
    in ascending mask order. Model i's marginal contributions thus come out
    indexed by the mask with bit i squeezed out, whose popcount is the size
    of the coalition i joins, whatever i is: one size order serves every
    model.
    """
    n, t = len(scores).bit_length() - 1, scores.shape[1]
    half, by_size = 1 << (n - 1), _size_table(n)[1]
    counts = [math.comb(n - 1, s) for s in range(1, n)]
    picks = np.split(by_size, np.cumsum(counts)[:-1])  # each size's read-only view
    mos, total = np.empty((n, t)), np.empty((n, t))
    mean, m2 = np.empty((n, n - 1, t)), np.empty((n, n - 1, t))
    parts = min(parts, n)  # a part for every model at most
    rows = half + max(counts)  # a part's contributions and slab, then its per-size sums
    buffers = np.empty((parts, rows + n - 1, t))

    def read(part):
        diff, slab, sums = np.split(buffers[part], [half, rows])
        for i in range(part, n, parts):
            halves = scores.reshape(half >> i, 2, 1 << i, t)
            np.subtract(halves[:, 1], halves[:, 0], out=diff.reshape(half >> i, 1 << i, t))
            for k, pick in enumerate(picks):
                grouped = slab[: len(pick)]
                # "clip" writes straight into ``out``, which "raise" would buffer; no index clips
                np.take(diff[1:], pick, axis=0, out=grouped, mode="clip")
                # reduceat sums the rows in order; a reduce over (N, 1) would sum pairwise
                np.add.reduceat(grouped, [0], axis=0, out=sums[k, None])
                np.divide(sums[k], len(pick), out=mean[i, k])
                grouped -= mean[i, k]
                grouped *= grouped
                np.add.reduceat(grouped, [0], axis=0, out=m2[i, k, None])
            # accumulate pins the ascending size order at every batch width, as above
            mos[i] = np.add.accumulate(mean[i], axis=0)[-1] / (n - 1)
            total[i] = np.add.accumulate(sums, axis=0)[-1]

    spread(read, parts)
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

    Tasks are batched by pool size (their count of present models), in column
    order, as many per batch as ``_BLOCK_ELEMENTS`` allows, and run on
    ``n_workers`` threads (None means one), a batch per thread; the LASOMO
    tables over the budget run after them, one at a time, each split across
    as many threads as there are such tables, up to ``n_workers``. The output depends on neither the batching nor the threads.
    Per-size moments are pooled over tasks in column order. Build the panel
    with :func:`~ensimp.dataio.build_task_pools` or :func:`~ensimp.dataio.from_pools`.
    """
    panel = tasks.forecasts
    if not tasks:
        raise ValidationError("no tasks to score")
    sizes = panel.present.sum(axis=0)
    bad = (sizes < 2) | ((sizes > MAX_EXACT_MODELS) & (algorithm is Algorithm.LASOMO))
    for j in np.flatnonzero(bad)[:1].tolist():  # the first task, in column order, to fail
        if sizes[j] < 2:
            raise ValidationError(f"task {panel.tasks[j]} has fewer than 2 models")
        _check_capacity(int(sizes[j]), panel.tasks[j])

    values, levels = scored_values(panel.values, panel.levels, metric)
    # Each batch's (n, T) member rows, in model-id order, and (T,) columns: a
    # job per worker, then the over-budget tables, one at a time, each in parts.
    jobs, alone = [], []
    # in every thread that computes, as none inherits it; the Panel names a non-finite cell
    quiet = functools.partial(np.errstate, over="ignore", invalid="ignore")
    width = 1 if levels is None else len(levels)  # the levels scored per value
    for n in sorted(set(sizes.tolist())):  # np.unique would import numpy.ma, kept resident
        # Per task, the largest array of a batch (see the module docstring).
        widest = (n + 1) * width if algorithm is Algorithm.LOMO else max(1 << n, n * width)
        if algorithm is Algorithm.LASOMO:
            _size_table(n)  # built once, before the workers that share it start
        group, step = np.flatnonzero(sizes == n), max(1, _BLOCK_ELEMENTS // widest)
        rows = np.nonzero(panel.present[:, group].T)[1].reshape(-1, n).T  # ascending per task
        split = algorithm is Algorithm.LASOMO and 1 << n > _BLOCK_ELEMENTS  # one task per job
        (alone if split else jobs).extend(
            (rows[:, k : k + step], group[k : k + step]) for k in range(0, len(group), step))

    def run(job, parts=1, spread=_in_turn):
        rows, cols = job
        batch, y = values[rows, cols], tasks.truth[cols]
        with quiet():
            if algorithm is Algorithm.LOMO:
                return (lomo_kernel(batch, levels, y),)
            scores = _subset_scores(batch, levels, y, parts, spread)
            return _table_readouts(scores, scheme, parts, spread)

    phi, lomo, mos = cells = np.full((3, *panel.present.shape), np.nan)
    # Each LASOMO cell's per-size mean and M2 about its task's own mean, size r at index r - 2.
    largest = int(sizes.max()) if algorithm is Algorithm.LASOMO else 1
    moments = np.empty((2, *panel.present.shape, largest - 1))
    workers = n_workers or 1
    with ThreadPoolExecutor(max_workers=workers) as ex:
        def spread(part, parts):
            def in_worker(p):
                with quiet():
                    part(p)
            list(ex.map(in_worker, range(parts)))  # re-raises a part's error

        # The over-budget tables in this thread, once every other job is done,
        # in no more parts than there are such tables: never more working
        # arrays at once than one table per worker would hold.
        parts = min(workers, len(alone))
        done = itertools.chain(ex.map(run, jobs), (run(job, parts, spread) for job in alone))
        for (rows, cols), (cells_phi, *table) in zip(jobs + alone, done):
            phi[rows, cols] = cells_phi
            if table:
                lomo[rows, cols], mos[rows, cols], mean, m2 = table
                moments[:, rows, cols, : len(rows) - 1] = np.swapaxes(np.stack((mean, m2)), 2, 3)

    if algorithm is Algorithm.LOMO:
        return ImportanceResult(Panel(panel.models, panel.tasks, phi, panel.present))

    by_size: dict[str, dict[int, SizeStat]] = {m: {} for m in panel.models}
    comb = np.array([[math.comb(a, b) for b in range(largest)] for a in range(largest)])
    # The exact two-level formula: N = sum(c), mean = sum(c * mean_t) / N and
    # M2 = sum(M2_t) + sum(c * (mean_t - mean)^2), a task of n models giving
    # c = C(n - 1, r - 1) contributions of size r, each sum over the tasks in
    # column order, which the batching does not change. As in the jobs, numpy
    # stays silent: whoever reports a moment checks it finite.
    with quiet():
        for row, model in enumerate(panel.models):
            tasks_in = np.flatnonzero(panel.present[row])
            for k in range(sizes[tasks_in].max(initial=1) - 1):
                cols = tasks_in[sizes[tasks_in] > k + 1]
                count, (mean, m2) = comb[sizes[cols] - 1, k + 1], moments[:, row, cols, k]
                total = int(count.sum())
                pooled = np.add.reduce(count * mean) / total
                dev = mean - pooled
                m2 = np.add.reduce(m2) + np.add.reduce(count * dev * dev)
                by_size[model][k + 2] = SizeStat(float(pooled), float(m2 / total), total)
    per_task, lomo, mos = (Panel(panel.models, panel.tasks, c, panel.present) for c in cells)
    return ImportanceResult(per_task, by_size, lomo, mos)
