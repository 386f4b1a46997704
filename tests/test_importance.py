import itertools
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from conftest import point_pool, quantile_pool, random_quantile_pool, same_cells, task_key

from ensimp import importance, scoring
from ensimp.dataio import NaPolicy, Panel, TaskPanel, TaskPool, apply_na_policy, from_pools, model_mean_scores
from ensimp.importance import (
    Algorithm,
    CapacityError,
    SizeStat,
    WeightScheme,
    compute_importance,
    importance_by_subset_size,
    lasomo_all,
    lasomo_task,
    lomo_all,
    lomo_task,
    rank_models,
    shapley_weight_exact,
)
from ensimp.scoring import CANONICAL_LEVELS, Metric, QuantileLevels, ValidationError


def assert_same_outputs(got, want):
    """Two LASOMO results hold the same bits in every output."""
    for a, b in ((got.per_task, want.per_task), (got.lomo, want.lomo),
                 (got.mean_over_sizes, want.mean_over_sizes)):
        assert same_cells(a, b) and a.values.tobytes() == b.values.tobytes()
    assert repr(got.by_subset_size) == repr(want.by_subset_size)  # repr keeps every bit but NaN's


class TestShapleyWeight:
    def test_examples(self):
        assert shapley_weight_exact(3, 1) == Fraction(1, 4)
        assert shapley_weight_exact(3, 2) == Fraction(1, 2)
        assert shapley_weight_exact(2, 1) == 1

    def test_matches_factorial_form(self):
        for n in range(2, 21):
            for s in range(1, n):
                direct = Fraction(
                    math.factorial(s) * math.factorial(n - s - 1),
                    math.factorial(n - 1) * (n - 1),
                )
                assert shapley_weight_exact(n, s) == direct

    def test_normalization_exact(self):
        for n in range(2, 21):
            total = sum(math.comb(n - 1, s) * shapley_weight_exact(n, s) for s in range(1, n))
            assert total == 1

    def test_domain_errors(self):
        with pytest.raises(CapacityError):
            shapley_weight_exact(21, 1)
        with pytest.raises(ValidationError):
            shapley_weight_exact(3, 0)
        with pytest.raises(ValidationError):
            shapley_weight_exact(3, 3)
        with pytest.raises(ValidationError):
            shapley_weight_exact(1, 1)


class TestLomo:
    def test_point_example(self):
        tp = point_pool({"a": 0.0, "b": 2.0}, y=0.0)
        assert lomo_task(tp, Metric.SPE, "a") == 3.0
        assert lomo_task(tp, Metric.SPE, "b") == -1.0

    def test_identical_forecasts_score_zero(self):
        levels = QuantileLevels((0.25, 0.5, 0.75))
        tp = quantile_pool(
            {m: (1.25, 2.5, 3.75) for m in "abcd"}, levels, y=2.0
        )
        for m in "abcd":
            assert lomo_task(tp, Metric.WIS, m) == 0.0

    def test_member_equal_to_loo_ensemble_scores_zero(self):
        # c equals the mean of a and b at every level, so adding it to the
        # pool leaves the ensemble unchanged (dyadic values keep this exact).
        levels = QuantileLevels((0.25, 0.5, 0.75))
        tp = quantile_pool(
            {"a": (1.0, 2.0, 4.0), "b": (3.0, 6.0, 8.0), "c": (2.0, 4.0, 6.0)},
            levels,
            y=3.0,
        )
        assert lomo_task(tp, Metric.WIS, "c") == 0.0

    def test_single_member_rejected(self):
        tp = point_pool({"a": 0.0}, y=0.0)
        with pytest.raises(ValidationError, match="fewer than 2 models"):
            lomo_task(tp, Metric.SPE, "a")

    def test_unknown_model_rejected(self):
        tp = point_pool({"a": 0.0, "b": 2.0}, y=0.0)
        with pytest.raises(ValidationError):
            lomo_task(tp, Metric.SPE, "zz")


class TestLasomo:
    def test_equals_lomo_for_two_models(self, rng):
        for _ in range(25):
            tp, _, _, _ = random_quantile_pool(rng, 2)
            for m in tp.pool.model_ids:
                assert lasomo_task(tp, Metric.WIS, m) == lomo_task(tp, Metric.WIS, m)
        tp = point_pool({"a": -0.7, "b": 1.3}, y=0.25)
        for m in ("a", "b"):
            assert lasomo_task(tp, Metric.SPE, m) == lomo_task(tp, Metric.SPE, m)

    def test_three_point_models_match_explicit_enumeration(self):
        points = {"a": -1.0, "b": -0.5, "c": 1.5}
        tp = point_pool(points, y=0.0)
        score_of = lambda sub: bf.neg_spe_score(points, sub, 0.0)
        for m in points:
            expected = bf.lasomo(score_of, tuple(points), m)
            assert lasomo_task(tp, Metric.SPE, m) == pytest.approx(expected, abs=1e-12)

    def test_equal_weight_scheme_matches_uniform_enumeration(self):
        points = {"a": -1.0, "b": -0.5, "c": 1.5}
        tp = point_pool(points, y=0.0)
        score_of = lambda sub: bf.neg_spe_score(points, sub, 0.0)
        assert float(bf.equal_weight(3, 1)) == float(bf.equal_weight(3, 2)) == pytest.approx(1 / 3)
        for m in points:
            expected = bf.lasomo(score_of, tuple(points), m, weight_fn=bf.equal_weight)
            got = lasomo_task(tp, Metric.SPE, m, WeightScheme.EQUAL)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force_on_random_quantile_pools(self, rng):
        for n in range(2, 7):
            for _ in range(4):
                tp, forecasts, levels, y = random_quantile_pool(rng, n)
                score_of = lambda sub: bf.neg_wis_score(forecasts, sub, levels.levels, y)
                fast = lasomo_all(tp, Metric.WIS)
                for i, m in enumerate(tp.pool.model_ids):
                    assert fast[i] == pytest.approx(bf.lasomo(score_of, forecasts, m), abs=1e-10)

    def test_capacity_cap(self, rng):
        tp, _, _, _ = random_quantile_pool(rng, 3)
        with pytest.raises(CapacityError):
            shapley_weight_exact(21, 5)
        big = point_pool({f"m{i:02d}": float(i) for i in range(21)}, y=0.0)
        with pytest.raises(CapacityError, match="lomo"):
            lasomo_task(big, Metric.SPE, "m00")
        # LOMO itself has no cap
        assert isinstance(lomo_task(big, Metric.SPE, "m00"), float)


class TestBySubsetSize:
    def test_two_models_single_size_zero_variance(self):
        tp = point_pool({"a": 0.0, "b": 2.0}, y=0.0)
        stats = importance_by_subset_size(tp, Metric.SPE, "a")
        assert list(stats) == [2]
        assert stats[2].variance == 0.0
        assert stats[2].count == 1
        assert stats[2].mean == lomo_task(tp, Metric.SPE, "a")

    def test_identical_pool_all_zero(self):
        levels = QuantileLevels((0.25, 0.5, 0.75))
        tp = quantile_pool({m: (1.0, 2.0, 3.0) for m in "abcd"}, levels, y=1.5)
        stats = importance_by_subset_size(tp, Metric.WIS, "b")
        for r, st in stats.items():
            assert st.mean == 0.0 and st.variance == 0.0

    def test_mean_over_sizes_equals_lasomo(self, rng):
        tp = point_pool({m: float(v) for m, v in zip("abcd", rng.normal(size=4))}, y=0.3)
        stats = importance_by_subset_size(tp, Metric.SPE, "c")
        mos = math.fsum(stats[r].mean for r in sorted(stats)) / len(stats)
        assert mos == pytest.approx(lasomo_task(tp, Metric.SPE, "c"), abs=1e-10)

    def test_matches_brute_force(self, rng):
        tp, forecasts, levels, y = random_quantile_pool(rng, 5)
        score_of = lambda sub: bf.neg_wis_score(forecasts, sub, levels.levels, y)
        for m in tp.pool.model_ids:
            expected = bf.by_subset_size(score_of, forecasts, m)
            got = importance_by_subset_size(tp, Metric.WIS, m)
            assert sorted(got) == sorted(expected)
            for r in expected:
                assert got[r].mean == pytest.approx(expected[r][0], abs=1e-10)
                assert got[r].variance == pytest.approx(expected[r][1], abs=1e-10)
                assert got[r].count == expected[r][2]


class TestLasomoFromSizeSums:
    """LASOMO is read from the per-size sums of the marginal contributions."""

    @pytest.mark.parametrize("metric", Metric)
    def test_permutation_lasomo_is_the_mean_over_sizes_bit_for_bit(self, metric):
        n, t = 12, 40
        rng = np.random.default_rng(12)
        present = np.zeros((n, t), dtype=bool)
        for j in range(t):  # pools of 2 to 12 models
            present[rng.choice(n, rng.integers(2, n + 1), replace=False), j] = True
        # Mixed magnitudes make the summation order show in the low bits.
        scale = 10.0 ** rng.integers(-2, 3, size=(n, t, 1))
        values = np.sort(rng.normal(size=(n, t, 3)) * scale, axis=-1)
        forecasts = Panel(tuple(f"m{i:02d}" for i in range(n)), tuple(task_key(j) for j in range(t)),
                          values, present, QuantileLevels((0.1, 0.5, 0.9)))
        result = compute_importance(TaskPanel(forecasts, rng.normal(size=t)), metric, Algorithm.LASOMO)
        assert same_cells(result.per_task, result.mean_over_sizes)

    @pytest.mark.parametrize("seed", range(4))
    def test_cells_are_exact_to_1e_16_of_the_largest_contribution(self, seed):
        n, k = 16, len(CANONICAL_LEVELS)
        rng = np.random.default_rng(seed)
        values = np.sort(rng.normal(size=(n, 1, k)), axis=-1)
        y = rng.normal(size=1)
        forecasts = Panel(tuple(f"m{i:02d}" for i in range(n)), (task_key(),),
                          values, np.ones((n, 1), dtype=bool), CANONICAL_LEVELS)
        scores, sizes = bf.subset_scores(values, CANONICAL_LEVELS.levels, y)
        masks = np.arange(1, 1 << n)
        weights = {WeightScheme.PERMUTATION: shapley_weight_exact, WeightScheme.EQUAL: bf.equal_weight}
        for scheme, weight in weights.items():
            phi = compute_importance(TaskPanel(forecasts, y), Metric.WIS, Algorithm.LASOMO, scheme)
            for i in range(n):
                without = masks[masks & (1 << i) == 0]
                diffs = scores[without | (1 << i), 0] - scores[without, 0]
                exact = sum((weight(n, s) * bf.exact_sum(diffs[sizes[without] == s].tolist())
                             for s in range(1, n)), Fraction(0))
                error = abs(Fraction(float(phi.per_task.values[i, 0])) - exact)
                assert error <= Fraction(1e-16) * Fraction(float(np.abs(diffs).max())), (scheme, i)


class TestOverallAndRanks:
    def test_overall_importance_examples(self):
        tasks = (task_key(0), task_key(1), task_key(2))
        panel = Panel(
            ("a", "b"),
            tasks,
            [[3.0, -1.0, np.nan], [2.0, 4.0, 6.0]],
            [[True, True, False], [True, True, True]],
        )
        overall = model_mean_scores(panel)
        assert overall["a"] == 1.0
        assert overall["b"] == 4.0

    def test_zero_task_model_reported_missing(self):
        tasks = (task_key(0),)
        panel = Panel(("a", "b"), tasks, [[0.0], [np.nan]], [[True], [False]])
        overall = model_mean_scores(panel)
        assert overall["a"] == 0.0
        assert "b" not in overall

    def test_rank_models(self):
        assert rank_models({"A": -40.2, "B": -41.2}) == {"A": 1, "B": 2}
        assert rank_models({"A": 2.81, "B": 3.11}) == {"B": 1, "A": 2}
        assert rank_models({"b": 1.0, "a": 1.0}) == {"a": 1, "b": 2}


class TestComputeImportance:
    def test_batch_matches_per_task_bitwise(self, rng):
        pools = []
        for i in range(9):
            tp, _, _, _ = random_quantile_pool(rng, 5)
            pools.append(TaskPool(task_key(i), tp.pool, tp.truth))
        result = compute_importance(from_pools(pools), Metric.WIS, Algorithm.LASOMO)
        panel = result.per_task
        for tp in pools:
            rows = [panel.models.index(m) for m in tp.pool.model_ids]
            column = panel.values[rows, panel.tasks.index(tp.task)]
            assert column.tolist() == lasomo_all(tp, Metric.WIS).tolist()

    @pytest.mark.parametrize("metric", list(Metric))
    @pytest.mark.parametrize("scheme", list(WeightScheme))
    def test_worker_count_invariance(self, rng, metric, scheme):
        """Every output at 1, 2 and 3 workers, with every table within the
        budget or, under a budget of 40 values, the tables of 6 to 8 models
        over it and split across the workers, holds one worker's bits."""
        pools = []
        for i, n in enumerate((4, 6, 4, 7, 8, 4, 4)):
            tp, _, _, _ = random_quantile_pool(rng, n)
            pools.append(TaskPool(task_key(i), tp.pool, tp.truth))
        tasks = from_pools(pools)
        want = compute_importance(tasks, metric, Algorithm.LASOMO, scheme, n_workers=1)
        for budget, workers in itertools.product((importance._BLOCK_ELEMENTS, 40), (1, 2, 3)):
            with mock.patch.object(importance, "_BLOCK_ELEMENTS", budget):
                got = compute_importance(tasks, metric, Algorithm.LASOMO, scheme, workers)
            assert_same_outputs(got, want)

    @pytest.mark.parametrize("scale", [1e200, 1e308])
    def test_an_overflowing_split_table_warns_in_no_thread(self, rng, scale):
        """Two 7-model tables over a budget of 40 values, their parts on 2 workers.

        Near 1e200 the contributions' squares overflow in the readouts' parts,
        and only the per-size variances are infinite. Near 1e308 the sums
        overflow in the walk's parts, and the result's Panel names the first
        non-finite cell. Under the suite's warnings-as-errors a part that lost
        the kernels' error state would raise its warning instead."""
        levels = QuantileLevels((0.25, 0.5, 0.75))
        # two tables over the budget, so that each is cut into two parts
        tasks = from_pools([
            quantile_pool({f"m{i}": tuple(np.sort(rng.uniform(-1.7, 1.7, size=3)) * scale)
                           for i in range(7)}, levels, 0.0, j)
            for j in range(2)])
        runs = []
        for budget, workers in ((importance._BLOCK_ELEMENTS, 1), (40, 2)):
            with mock.patch.object(importance, "_BLOCK_ELEMENTS", budget):
                try:
                    runs.append(compute_importance(tasks, Metric.WIS, Algorithm.LASOMO,
                                                   n_workers=workers))
                except ValidationError as error:
                    runs.append(str(error))
        if scale == 1e200:
            assert math.isinf(runs[0].by_subset_size["m0"][4].variance)
            assert_same_outputs(*runs)
        else:
            assert runs[0] == runs[1] == f"cell ('m0', {task_key(0)}) is not finite"

    def test_absent_model_is_a_missing_cell(self, rng):
        tp1, _, _, _ = random_quantile_pool(rng, 3)
        tp2_full, _, _, _ = random_quantile_pool(rng, 2)
        pools = [
            TaskPool(task_key(0), tp1.pool, tp1.truth),
            TaskPool(task_key(1), tp2_full.pool, tp2_full.truth),
        ]
        result = compute_importance(from_pools(pools), Metric.WIS, Algorithm.LASOMO)
        panel = result.per_task
        missing = set(panel.models) - set(pools[1].pool.model_ids)
        assert missing
        j = panel.tasks.index(pools[1].task)
        for m in missing:
            assert not panel.present[panel.models.index(m), j]

    def test_lomo_panel(self, rng):
        pools = []
        for i in range(3):
            tp, _, _, _ = random_quantile_pool(rng, 4)
            pools.append(TaskPool(task_key(i), tp.pool, tp.truth))
        result = compute_importance(from_pools(pools), Metric.WIS, Algorithm.LOMO)
        assert result.by_subset_size is None
        assert result.lomo is None and result.mean_over_sizes is None
        panel = result.per_task
        for tp in pools:
            rows = [panel.models.index(m) for m in tp.pool.model_ids]
            column = panel.values[rows, panel.tasks.index(tp.task)]
            assert column.tolist() == lomo_all(tp, Metric.WIS).tolist()

    def test_by_subset_size_pools_all_tasks(self, rng):
        pools = []
        for i in range(4):
            tp, _, _, _ = random_quantile_pool(rng, 3)
            pools.append(TaskPool(task_key(i), tp.pool, tp.truth))
        result = compute_importance(from_pools(pools), Metric.WIS, Algorithm.LASOMO)
        for m, stats in result.by_subset_size.items():
            for r, st in stats.items():
                assert st.count == math.comb(2, r - 1) * 4

    def test_pooled_subset_size_variance_matches_two_pass(self, rng):
        # Contributions near 1e5 with a spread of 1e-2: E[x^2] - mean^2
        # cancels to nothing here, so the pooled variance must come from
        # deviations, merged across batches without squaring the means.
        pools, points = [], []
        for t in range(200):
            pts = {f"m{j}": 1000.0 + 1e-5 * float(rng.normal()) for j in range(3)}
            pts["m9"] = 1700.0 + 1e-5 * float(rng.normal())
            pools.append(point_pool(pts, y=0.0, i=t))
            points.append(pts)
        result = compute_importance(from_pools(pools), Metric.SPE, Algorithm.LASOMO)
        for m in ("m0", "m9"):
            pooled: dict[int, list[float]] = {}
            for pts in points:
                score_of = lambda sub: bf.neg_spe_score(pts, sub, 0.0)
                for r, vals in bf.contributions_by_size(score_of, pts, m).items():
                    pooled.setdefault(r, []).extend(vals)
            for r, vals in pooled.items():
                mean, var, count = bf.two_pass(vals)
                got = result.by_subset_size[m][r]
                assert got.count == count
                assert got.mean == pytest.approx(mean, rel=1e-12)
                assert got.variance == pytest.approx(var, rel=1e-5)

    # The per-model average over tasks is the caller's step on the returned
    # cells: model_mean_scores(apply_na_policy(per_task, policy)).

    def test_overall_is_mean_of_scored_tasks_under_drop(self, rng):
        pools = []
        for i in range(5):
            tp, _, _, _ = random_quantile_pool(rng, 3)
            pools.append(TaskPool(task_key(i), tp.pool, tp.truth))
        panel = compute_importance(from_pools(pools), Metric.WIS, Algorithm.LASOMO).per_task
        overall = model_mean_scores(apply_na_policy(panel, NaPolicy.DROP))
        for m, row, present in zip(panel.models, panel.values, panel.present):
            vals = row[present].tolist()
            assert overall[m] == math.fsum(vals) / len(vals)

    def test_overall_equals_mean_over_size_means_on_uniform_panels(self, rng):
        pools = []
        for i in range(6):
            tp, _, _, _ = random_quantile_pool(rng, 4)
            pools.append(TaskPool(task_key(i), tp.pool, tp.truth))
        result = compute_importance(from_pools(pools), Metric.WIS, Algorithm.LASOMO)
        overall = model_mean_scores(apply_na_policy(result.per_task, NaPolicy.DROP))
        for m in result.per_task.models:
            stats = result.by_subset_size[m]
            mos = math.fsum(stats[r].mean for r in sorted(stats)) / len(stats)
            assert mos == pytest.approx(overall[m], abs=1e-10)

    def test_overall_uses_na_policy(self, rng):
        tp_abc, _, _, _ = random_quantile_pool(rng, 3)
        tp_ab, _, _, _ = random_quantile_pool(rng, 2)
        pools = [
            TaskPool(task_key(0), tp_abc.pool, tp_abc.truth),
            TaskPool(task_key(1), tp_ab.pool, tp_ab.truth),
        ]
        panel = compute_importance(from_pools(pools), Metric.WIS, Algorithm.LASOMO).per_task
        worst = model_mean_scores(apply_na_policy(panel, NaPolicy.WORST))
        mean = model_mean_scores(apply_na_policy(panel, NaPolicy.MEAN))
        # worst fills with the column minimum, mean with the column average,
        # so no model's average may come out higher under worst.
        for m in worst:
            assert worst[m] <= mean[m] + 1e-12


class TestBatchesByPoolSize:
    # Four signatures of three models and one of four, two tasks each,
    # interleaved so no signature's tasks are adjacent columns.
    SIGNATURES = ("abc", "ace", "bde", "abcd", "cde")

    def pools(self, rng):
        pools = []
        for i in range(2 * len(self.SIGNATURES)):
            _, forecasts, levels, y = random_quantile_pool(rng, 5)
            names = [f"m{c}" for c in self.SIGNATURES[i % len(self.SIGNATURES)]]
            pools.append(quantile_pool({m: forecasts[m] for m in names}, levels, y, i))
        return pools

    def test_one_kernel_job_per_pool_size(self, rng, monkeypatch):
        calls = {"_subset_scores": [], "lomo_kernel": []}
        for name, seen in calls.items():
            kernel = getattr(importance, name)
            monkeypatch.setattr(importance, name,
                                lambda v, *a, k=kernel, s=seen: s.append(v.shape[:2]) or k(v, *a))
        tasks = from_pools(self.pools(rng))
        for algorithm in Algorithm:
            compute_importance(tasks, Metric.WIS, algorithm, n_workers=1)
        # (pool size, batch width): sizes ascending, every task of a size in one batch
        assert calls == {"_subset_scores": [(3, 8), (4, 2)], "lomo_kernel": [(3, 8), (4, 2)]}

    def test_each_pool_size_builds_one_read_only_size_table(self, rng):
        """One job per task on more workers than cores, switching threads
        every microsecond: each pool size's table is built once, before the
        jobs, and the cells are the one-worker cells bit for bit."""
        tasks = from_pools(self.pools(rng))
        want = compute_importance(tasks, Metric.WIS, Algorithm.LASOMO, n_workers=1)
        importance._size_table.cache_clear()
        compute_importance(tasks, Metric.WIS, Algorithm.LOMO, n_workers=2)
        assert importance._size_table.cache_info().misses == 0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(importance, "_BLOCK_ELEMENTS", 8):
                got = compute_importance(tasks, Metric.WIS, Algorithm.LASOMO, n_workers=4)
        finally:
            sys.setswitchinterval(interval)
        assert importance._size_table.cache_info().misses == 2  # pool sizes 3 and 4
        for n in (3, 4):  # a uint8 count per mask, an int32 index per mask below 2^(n-1)
            assert [a.nbytes for a in importance._size_table(n)] == [1 << n, 4 * ((1 << n - 1) - 1)]
        assert_same_outputs(got, want)
        for array in importance._size_table(4):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    @pytest.mark.parametrize("metric", list(Metric))
    def test_cells_equal_those_of_each_task_alone(self, rng, metric):
        pools = self.pools(rng)
        batched = compute_importance(from_pools(pools), metric, Algorithm.LASOMO, n_workers=2)
        for tp in pools:
            alone = compute_importance(from_pools([tp]), metric, Algorithm.LASOMO)
            rows = [batched.per_task.models.index(m) for m in tp.pool.model_ids]
            j = batched.per_task.tasks.index(tp.task)
            for got, want in ((batched.per_task, alone.per_task), (batched.lomo, alone.lomo),
                              (batched.mean_over_sizes, alone.mean_over_sizes)):
                assert got.values[rows, j].tobytes() == want.values[:, 0].tobytes()

    def test_sizes_pool_tasks_in_column_order(self, rng):
        pools = self.pools(rng)
        result = compute_importance(from_pools(pools), Metric.WIS, Algorithm.LASOMO, n_workers=2)
        # Each task's own per-size (count, mean, M2), pooled by the two-level
        # formula over the tasks in column order.
        parts: dict[tuple[str, int], list[tuple[int, float, float]]] = {}
        for tp in sorted(pools, key=lambda tp: tp.task):
            panel = from_pools([tp]).forecasts
            values, levels = scoring.scored_values(panel.values, panel.levels, Metric.WIS)
            table = importance._subset_scores(values, levels, np.array([tp.truth.value]))
            *_, mean, m2 = importance._table_readouts(table, WeightScheme.PERMUTATION)
            n = len(tp.pool.model_ids)
            for i, m in enumerate(tp.pool.model_ids):
                for k in range(n - 1):
                    parts.setdefault((m, k + 2), []).append(
                        (math.comb(n - 1, k + 1), mean[i, k, 0], m2[i, k, 0]))
        assert sorted(parts) == sorted((m, r) for m, by_r in result.by_subset_size.items()
                                       for r in by_r)
        for (m, r), rows in parts.items():
            count, mean, m2 = (np.array(column) for column in zip(*rows))
            total = int(count.sum())
            pooled = np.add.reduce(count * mean) / total
            dev = mean - pooled
            m2 = np.add.reduce(m2) + np.add.reduce(count * dev * dev)
            assert result.by_subset_size[m][r] == SizeStat(float(pooled), float(m2 / total), total)

    def test_the_first_failing_task_in_column_order_is_named(self):
        # Column 0 is over the LASOMO cap, column 1 under two models: each
        # algorithm names the first task that fails one of its checks.
        big = point_pool({f"m{i:02d}": float(i) for i in range(21)}, y=0.0, i=0)
        tasks = from_pools([big, point_pool({"m00": 0.0}, y=0.0, i=1)])
        assert tasks.forecasts.tasks == (task_key(0), task_key(1))
        with pytest.raises(CapacityError, match=f"task {task_key(0)}: pool of 21 models"):
            compute_importance(tasks, Metric.SPE, Algorithm.LASOMO)
        with pytest.raises(ValidationError, match=f"task {task_key(1)} has fewer than 2 models"):
            compute_importance(tasks, Metric.SPE, Algorithm.LOMO)
        for algorithm in Algorithm:
            with pytest.raises(ValidationError, match="^no tasks to score$"):
                compute_importance(from_pools([]), Metric.SPE, algorithm)


class TestStreamedSubsetTable:
    """The streamed kernel against the materialised table it replaces."""

    LEVELS = QuantileLevels((0.1, 0.5, 0.9))
    # Three inner levels, the first and last canonical levels, and point values.
    LEVEL_SETS = (LEVELS, QuantileLevels(CANONICAL_LEVELS.levels[::22]), None)

    @pytest.mark.parametrize("n", range(2, 13))
    @settings(max_examples=4, deadline=None)
    @given(t=st.sampled_from((1, 2, 5)), levels=st.sampled_from(LEVEL_SETS),
           seed=st.integers(0, 2**32 - 1))
    def test_every_block_split_gives_the_same_bits(self, n, t, levels, seed):
        rng = np.random.default_rng(seed)
        shape = (n, t) if levels is None else (n, t, len(levels))
        # Mixed magnitudes make the summation order show in the low bits.
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        if levels is not None:
            values.sort(axis=-1)
        y = rng.normal(size=t) * 10.0
        # The WIS term's edges: the last task's y equals the last member's
        # value at some level, where the indicator is closed, and the first
        # member's values are -0.0 against the first task's y of +0.0.
        y[-1] = values[-1, -1].flat[rng.integers(values[-1, -1].size)]
        values[0] = -0.0
        y[0] = 0.0
        want_scores, want_sizes = bf.subset_scores(values, levels and levels.levels, y)
        # Slices of one subset up to half the table, some not powers of two,
        # walked whole or by three parts, each taking every third slice.
        budgets = [t << low for low in range(n + 1)] + [3 * t, 5 * t + 1]
        for budget, parts in itertools.product(budgets, (1, 3)):
            with mock.patch.object(importance, "_BLOCK_ELEMENTS", budget):
                scores = importance._subset_scores(values, levels, y, parts)
            assert scores.tobytes() == want_scores.tobytes(), (budget, parts)
        assert np.array_equal(importance._size_table(n)[0], want_sizes)

    @pytest.mark.parametrize("parts", [1, 2])
    def test_peak_memory_follows_the_planned_blocks(self, parts):
        n, t, k = 20, 1, len(CANONICAL_LEVELS)
        rng = np.random.default_rng(3)
        values = np.sort(rng.normal(size=(n, t, k)), axis=-1)
        y = rng.normal(size=t)
        block = 8 * importance._BLOCK_ELEMENTS
        table = 8 * (t << n)
        # The shared size table: a uint8 count per mask and the int32 size
        # order of the lower half, built once per pool size before any job.
        size_bound = (1 << n) + 4 * (1 << (n - 1))
        # The walk holds the score table and, per part, three slice buffers
        # (the level's low sums, the slice's sums and the scoring slab), plus
        # the members and numpy's buffers, under a quarter of a block.
        walk_bound = table + parts * 3 * block + block // 4
        # The readouts hold the table and, per part, one array of half its
        # length and a slab of the largest size's rows, T values and an index
        # per row, plus their (n, n - 1, T) outputs and numpy's buffers,
        # under a quarter of a block.
        slab_rows = math.comb(n - 1, n // 2)
        readout_bound = parts * (table // 2 + 8 * (t + 1) * slab_rows) + block // 4
        importance._size_table.cache_clear()
        tracemalloc.start()
        try:
            importance._size_table(n)
            size_table = tracemalloc.get_traced_memory()[0]
            with ThreadPoolExecutor(parts) as ex:
                def spread(part, parts):
                    list(ex.map(part, range(parts)))

                tracemalloc.reset_peak()
                scores = importance._subset_scores(values, CANONICAL_LEVELS, y, parts, spread)
                walk_peak = tracemalloc.get_traced_memory()[1] - size_table
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0] - size_table
                importance._table_readouts(scores, WeightScheme.PERMUTATION, parts, spread)
                readout_peak = tracemalloc.get_traced_memory()[1] - size_table - base
        finally:
            tracemalloc.stop()
        assert sum(a.nbytes for a in importance._size_table(n)) <= size_bound
        assert size_table < size_bound + 4096
        assert walk_peak < walk_bound
        assert readout_peak < readout_bound
        assert base + readout_peak > walk_peak  # the readouts are the job's peak

    @staticmethod
    def peak_at_the_cap(t, workers):
        """The ``tracemalloc`` peak of ``compute_importance`` on t 20-model
        tasks, the size table prebuilt."""
        n, k = 20, len(CANONICAL_LEVELS)
        rng = np.random.default_rng(3)
        forecasts = Panel(tuple(f"m{i:02d}" for i in range(n)), tuple(task_key(j) for j in range(t)),
                          np.sort(rng.normal(size=(n, t, k)), axis=-1), np.ones((n, t), dtype=bool),
                          CANONICAL_LEVELS)
        tasks = TaskPanel(forecasts, rng.normal(size=t))
        importance._size_table(n)
        tracemalloc.start()
        try:
            compute_importance(tasks, Metric.WIS, Algorithm.LASOMO, n_workers=workers)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_two_tasks_at_the_cap_hold_one_table_at_a_time(self):
        """Two 20-model tasks on two workers: their 8 MB tables, one at a time,
        each with its two parts' buffers, peak under 2.5 tables, where one
        table per worker with its working arrays peaked at 28.2 MiB."""
        assert self.peak_at_the_cap(2, 2) < 20 * 2**20

    def test_a_lone_task_at_the_cap_is_not_split(self):
        """One 20-model task peaks no higher at 4 workers than at 1: a table
        is cut into no more parts than there are tables, so the parts' arrays
        never outgrow those of one table per worker. Four parts would add
        three parts' 5.7 MB of readout arrays; the slack covers the pool's
        bookkeeping."""
        assert self.peak_at_the_cap(1, 4) <= self.peak_at_the_cap(1, 1) + 2**16

    @pytest.mark.skipif(sys.platform != "linux", reason="per-thread rusage is Linux only")
    def test_a_worker_thread_faults_in_its_slabs_once(self):
        """The walk allocates nothing per level or slice that the allocator
        could hand back and fault in again, as worker threads' freed arrays are.

        A fresh interpreter runs one job at n = 18 in one worker thread and
        prints that thread's minor page faults for the walk and the readouts."""
        n = 18
        script = textwrap.dedent(f"""
        import resource, threading
        import numpy as np
        from ensimp import importance
        from ensimp.scoring import CANONICAL_LEVELS

        def faults():
            return resource.getrusage(resource.RUSAGE_THREAD).ru_minflt

        def job():
            rng = np.random.default_rng(3)
            values = np.sort(rng.normal(size=({n}, 1, len(CANONICAL_LEVELS))), axis=-1)
            y = rng.normal(size=1)
            start = faults()
            scores = importance._subset_scores(values, CANONICAL_LEVELS, y)
            walk = faults()
            importance._table_readouts(scores, importance.WeightScheme.PERMUTATION)
            print(walk - start, faults() - walk)

        worker = threading.Thread(target=job)
        worker.start()
        worker.join()
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(importance.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        walk, readouts = map(int, proc.stdout.split())
        table_pages = 8 * (1 << n) // os.sysconf("SC_PAGE_SIZE")
        # The score table and the walk's three slice buffers are each faulted
        # in once, 2.5 tables' pages; fresh scoring arrays per level and slice
        # faulted in about 24,700 pages here.
        assert walk < 4 * table_pages, (walk, readouts)

    @pytest.mark.parametrize("t, low", [(1, 12), (64, 11), (1024, 7)])
    def test_each_level_is_scored_in_blocks_of_the_whole_budget(self, t, low):
        """One ``wis_batch`` call per level and slice of 2^L subsets, L as large as
        fits, a slice never more than half the table.

        A walk that went back to small slabs would make many more calls."""
        n, k = 12, len(CANONICAL_LEVELS)
        slices = 2 ** (n - min(low, n - 1))
        rng = np.random.default_rng(3)
        values = np.sort(rng.normal(size=(n, t, k)), axis=-1)
        with mock.patch.object(scoring, "wis_batch", wraps=scoring.wis_batch) as calls:
            importance._subset_scores(values, CANONICAL_LEVELS, rng.normal(size=t))
        assert calls.call_count == k * slices
        # Point values are one level: one -SPE call per slice.
        values = values[..., 0]
        with mock.patch.object(importance, "positive_scores", wraps=scoring.positive_scores) as calls:
            importance._subset_scores(values, None, rng.normal(size=t))
        assert calls.call_count == slices

    @pytest.mark.parametrize("algorithm, kernel", [(Algorithm.LOMO, "lomo_kernel"),
                                                   (Algorithm.LASOMO, "_subset_scores")])
    def test_batches_are_planned_from_the_scored_levels(self, algorithm, kernel):
        """SPE on quantile values scores one level, so a batch is 23 times as wide.

        With a budget of 800 values, the 100 tasks of a 3-model pool fit one
        batch of medians; planned from all 23 levels they would take 13 LOMO
        or 10 LASOMO batches."""
        n, t, k = 3, 100, len(CANONICAL_LEVELS)
        rng = np.random.default_rng(3)
        values = np.sort(rng.normal(size=(n, t, k)), axis=-1)
        forecasts = Panel(tuple(f"m{i}" for i in range(n)), tuple(task_key(j) for j in range(t)),
                          values, np.ones((n, t), dtype=bool), CANONICAL_LEVELS)
        tasks = TaskPanel(forecasts, rng.normal(size=t))
        with mock.patch.object(importance, "_BLOCK_ELEMENTS", 800):
            with mock.patch.object(importance, kernel, wraps=getattr(importance, kernel)) as calls:
                compute_importance(tasks, Metric.SPE, algorithm)
        assert calls.call_count == 1

    @pytest.mark.parametrize("n, t", [(2, 20_000), (10, 2_000)])
    @pytest.mark.parametrize("algorithm", Algorithm)
    def test_batch_peak_follows_the_one_budget(self, n, t, algorithm):
        """A batch's arrays fit ``_BLOCK_ELEMENTS``, however many tasks there are.

        At n = 2 a width set by the (2^n, T) score table alone would put
        every task in one batch, and each copy of its (n, T, levels) member
        values would take 7 MB."""
        k = len(CANONICAL_LEVELS)
        rng = np.random.default_rng(3)
        values = np.sort(rng.normal(size=(n, t, k)), axis=-1)
        forecasts = Panel(tuple(f"m{i}" for i in range(n)), tuple(task_key(j) for j in range(t)),
                          values, np.ones((n, t), dtype=bool), CANONICAL_LEVELS)
        tasks = TaskPanel(forecasts, rng.normal(size=t))
        # Per task and model: the phi, LOMO and mean-over-sizes cells, their
        # panels, and a count, mean and M2 per ensemble size.
        outputs = 8 * t * n * (6 + 3 * n)
        tracemalloc.start()
        try:
            compute_importance(tasks, Metric.WIS, algorithm, n_workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < outputs + 8 * 8 * importance._BLOCK_ELEMENTS
