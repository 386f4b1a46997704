"""Property tests for the importance kernels: the identities the paper proves
and the reproducibility the package documents, over generated pools."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from conftest import quantile_pool, same_cells

from ensimp import importance
from ensimp.dataio import TaskPool, from_pools
from ensimp.importance import (
    Algorithm,
    WeightScheme,
    compute_importance,
    importance_by_subset_size,
    lasomo_all,
    lomo_all,
)
from ensimp.scoring import Metric, QuantileLevels

LEVELS = QuantileLevels((0.25, 0.5, 0.75))
SHAPE = (-1.0, 0.0, 1.0)

coordinate = st.floats(-100.0, 100.0, allow_nan=False)
spread = st.floats(0.0, 10.0, allow_nan=False)
member = st.tuples(coordinate, spread)
metric = st.sampled_from(Metric)
scheme = st.sampled_from(WeightScheme)
FEW = settings(max_examples=25, deadline=None)
# Block budgets of the streamed subset table: the small ones split the walk
# into many blocks, down to one low member per block.
block_budget = st.sampled_from((1, 12, 1 << 17))


def make_pool(members, y, names=None, i=0) -> TaskPool:
    names = names or [f"m{j}" for j in range(len(members))]
    forecasts = {
        name: tuple(c + s * z for z in SHAPE) for name, (c, s) in zip(names, members)
    }
    return quantile_pool(forecasts, LEVELS, y, i)


def by_name(tp: TaskPool, values) -> dict[str, float]:
    return dict(zip(tp.pool.model_ids, values))


@st.composite
def panels(draw, max_models=5, max_tasks=6):
    """Tasks whose pools draw on one roster, so some share a signature."""
    n = draw(st.integers(2, max_models))
    pools = []
    for t in range(draw(st.integers(1, max_tasks))):
        ids = draw(st.sets(st.integers(0, n), min_size=2, max_size=n + 1))
        members = draw(st.lists(member, min_size=len(ids), max_size=len(ids)))
        names = [f"m{j}" for j in sorted(ids)]
        pools.append(make_pool(members, draw(coordinate), names, t))
    return pools


@FEW
@given(st.data(), st.integers(2, 6), metric, scheme)
def test_renaming_models_changes_nothing(data, n, metric, scheme):
    members = data.draw(st.lists(member, min_size=n, max_size=n))
    perm = data.draw(st.permutations(range(n)))
    y = data.draw(coordinate)
    plain = make_pool(members, y)
    renamed = make_pool(members, y, [f"m{perm[j]}" for j in range(n)])
    for kernel, args in ((lasomo_all, (scheme,)), (lomo_all, ())):
        want = by_name(plain, kernel(plain, metric, *args))
        got = by_name(renamed, kernel(renamed, metric, *args))
        for j in range(n):
            assert got[f"m{perm[j]}"] == pytest.approx(want[f"m{j}"], rel=1e-9, abs=1e-8)


@FEW
@given(st.lists(member, min_size=2, max_size=7), coordinate, metric)
def test_mean_over_sizes_equals_permutation_lasomo(members, y, metric):
    tp = make_pool(members, y)
    phi = lasomo_all(tp, metric, WeightScheme.PERMUTATION)
    for i, m in enumerate(tp.pool.model_ids):
        stats = importance_by_subset_size(tp, metric, m)
        mos = math.fsum(s.mean for s in stats.values()) / len(stats)
        assert mos == pytest.approx(phi[i], rel=1e-9, abs=1e-8)


@FEW
@given(st.lists(member, min_size=2, max_size=2), coordinate, metric, scheme)
def test_lomo_equals_lasomo_at_two_models(members, y, metric, scheme):
    tp = make_pool(members, y)
    assert np.array_equal(lasomo_all(tp, metric, scheme), lomo_all(tp, metric))


@FEW
@given(panels(), metric)
def test_table_lomo_equals_lomo_kernel(pools, metric):
    table = compute_importance(from_pools(pools), metric, Algorithm.LASOMO)
    kernel = compute_importance(from_pools(pools), metric, Algorithm.LOMO)
    assert same_cells(table.lomo, kernel.per_task)
    panel = kernel.per_task
    for tp in pools:
        rows = [panel.models.index(m) for m in tp.pool.model_ids]
        column = panel.values[rows, panel.tasks.index(tp.task)]
        assert column.tolist() == lomo_all(tp, metric).tolist()


@FEW
@given(panels(), metric, scheme)
def test_cells_do_not_depend_on_worker_count(pools, metric, scheme):
    one = compute_importance(from_pools(pools), metric, Algorithm.LASOMO, scheme, n_workers=1)
    three = compute_importance(from_pools(pools), metric, Algorithm.LASOMO, scheme, n_workers=3)
    assert same_cells(one.per_task, three.per_task)
    assert same_cells(one.lomo, three.lomo)
    assert same_cells(one.mean_over_sizes, three.mean_over_sizes)
    assert one.by_subset_size == three.by_subset_size
    panel = one.per_task
    for tp in pools:
        rows = [panel.models.index(m) for m in tp.pool.model_ids]
        column = panel.values[rows, panel.tasks.index(tp.task)]
        assert column.tolist() == lasomo_all(tp, metric, scheme).tolist()


@settings(max_examples=10, deadline=None)
@given(st.lists(member, min_size=40, max_size=40), coordinate)
def test_lomo_of_a_large_pool_uses_exact_sums(members, y):
    tp = make_pool(members, y)
    rows = [list(f.values) for f in tp.pool.forecasts]

    def neg_wis(sub):
        ens = [math.fsum(col) / len(sub) for col in zip(*sub)]
        return -bf.wis(LEVELS.levels, ens, y)

    want = [neg_wis(rows) - neg_wis(rows[:i] + rows[i + 1:]) for i in range(len(rows))]
    assert lomo_all(tp, Metric.WIS).tolist() == want


@FEW
@given(st.lists(member, min_size=2, max_size=9), coordinate, metric, block_budget)
def test_permutation_lasomo_is_efficient(members, y, metric, budget):
    """Shapley efficiency with the empty coalition dropped and weights rescaled:
    ``sum_i phi_i == n/(n-1) * (v(N) - mean_i v({i}))``."""
    tp = make_pool(members, y)
    with mock.patch.object(importance, "_BLOCK_ELEMENTS", budget):
        phi = lasomo_all(tp, metric, WeightScheme.PERMUTATION)
    ids, n = tp.pool.model_ids, len(members)
    forecasts = {m: f.values for m, f in zip(ids, tp.pool.forecasts)}
    if metric is Metric.WIS:
        v = lambda sub: bf.neg_wis_score(forecasts, sub, LEVELS.levels, y)
    else:
        medians = {m: q[LEVELS.index_of(0.5)] for m, q in forecasts.items()}
        v = lambda sub: bf.neg_spe_score(medians, sub, y)
    singles = [v((m,)) for m in ids]
    want = n / (n - 1) * (v(ids) - math.fsum(singles) / n)
    scale = max(abs(x) for x in singles + [v(ids)])
    assert math.fsum(phi) == pytest.approx(want, rel=1e-9, abs=1e-12 * scale)


@FEW
@given(st.lists(member, min_size=1, max_size=8), st.data(), coordinate, metric, scheme, block_budget)
def test_identical_neighbours_get_identical_phi(members, data, y, metric, scheme, budget):
    """Symmetry: twins adjacent in canonical order take the same place in every
    left-to-right member sum, so their phi agree bit for bit."""
    k = data.draw(st.integers(0, len(members) - 1))
    tp = make_pool(members[: k + 1] + members[k:], y)
    with mock.patch.object(importance, "_BLOCK_ELEMENTS", budget):
        phi = lasomo_all(tp, metric, scheme)
    assert phi[k] == phi[k + 1]
    lomo = lomo_all(tp, metric)
    assert lomo[k] == lomo[k + 1]
