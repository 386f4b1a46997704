import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from conftest import point_pool, quantile_pool, random_quantile_pool, same_cells, task_key

from ensimp import importance
from ensimp.dataio import NaPolicy, Panel, TaskPanel, TaskPool, from_pools, model_mean_scores
from ensimp.importance import (
    Algorithm,
    CapacityError,
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

    @pytest.mark.parametrize("scheme", WeightScheme)
    def test_float_weights_are_the_rounded_fractions(self, scheme):
        for n in range(2, 21):
            for s in range(1, n):
                if scheme is WeightScheme.PERMUTATION:
                    exact = shapley_weight_exact(n, s)
                else:
                    exact = Fraction(1, 2 ** (n - 1) - 1)
                assert importance._size_weights(n, scheme)[s] == float(exact), (n, s)


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

    def test_worker_count_invariance(self, rng):
        pools = []
        for i in range(7):
            tp, _, _, _ = random_quantile_pool(rng, 4)
            pools.append(TaskPool(task_key(i), tp.pool, tp.truth))
        r1 = compute_importance(from_pools(pools), Metric.WIS, Algorithm.LASOMO, n_workers=1)
        r3 = compute_importance(from_pools(pools), Metric.WIS, Algorithm.LASOMO, n_workers=3)
        assert same_cells(r1.per_task, r3.per_task)
        assert r1.overall == r3.overall

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

    def test_overall_is_mean_of_scored_tasks_under_drop(self, rng):
        pools = []
        for i in range(5):
            tp, _, _, _ = random_quantile_pool(rng, 3)
            pools.append(TaskPool(task_key(i), tp.pool, tp.truth))
        result = compute_importance(from_pools(pools), Metric.WIS, Algorithm.LASOMO, na_policy=NaPolicy.DROP)
        panel = result.per_task
        for m, row, present in zip(panel.models, panel.values, panel.present):
            vals = row[present].tolist()
            assert result.overall[m] == math.fsum(vals) / len(vals)

    def test_overall_equals_mean_over_size_means_on_uniform_panels(self, rng):
        pools = []
        for i in range(6):
            tp, _, _, _ = random_quantile_pool(rng, 4)
            pools.append(TaskPool(task_key(i), tp.pool, tp.truth))
        result = compute_importance(from_pools(pools), Metric.WIS, Algorithm.LASOMO, na_policy=NaPolicy.DROP)
        for m in result.per_task.models:
            stats = result.by_subset_size[m]
            mos = math.fsum(stats[r].mean for r in sorted(stats)) / len(stats)
            assert mos == pytest.approx(result.overall[m], abs=1e-10)

    def test_overall_uses_na_policy(self, rng):
        tp_abc, _, _, _ = random_quantile_pool(rng, 3)
        tp_ab, _, _, _ = random_quantile_pool(rng, 2)
        pools = [
            TaskPool(task_key(0), tp_abc.pool, tp_abc.truth),
            TaskPool(task_key(1), tp_ab.pool, tp_ab.truth),
        ]
        worst = compute_importance(from_pools(pools), Metric.WIS, Algorithm.LASOMO, na_policy=NaPolicy.WORST)
        mean = compute_importance(from_pools(pools), Metric.WIS, Algorithm.LASOMO, na_policy=NaPolicy.MEAN)
        # worst fills with the column minimum, mean with the column average,
        # so no model's average may come out higher under worst.
        for m in worst.overall:
            assert worst.overall[m] <= mean.overall[m] + 1e-12


class TestStreamedSubsetTable:
    """The streamed kernel against the materialised table it replaces."""

    LEVELS = QuantileLevels((0.1, 0.5, 0.9))

    @pytest.mark.parametrize("n", range(2, 13))
    @settings(max_examples=4, deadline=None)
    @given(t=st.sampled_from((1, 2, 5)), quantile=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_every_block_split_gives_the_same_bits(self, n, t, quantile, seed):
        rng = np.random.default_rng(seed)
        shape = (n, t, len(self.LEVELS)) if quantile else (n, t)
        # Mixed magnitudes make the summation order show in the low bits.
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        values[rng.integers(n)] = 0.0
        levels = None
        if quantile:
            values.sort(axis=-1)
            levels = self.LEVELS
        y = rng.normal(size=t) * 10.0
        want_scores, want_sizes = bf.subset_scores(values, levels and levels.levels, y)
        cell = values[0].size
        for low in range(1, n + 1):
            with mock.patch.object(importance, "_BLOCK_ELEMENTS", cell << low):
                assert importance._low_members(n, cell) == low
                scores, sizes = importance._subset_scores(values, levels, y)
            assert scores.tobytes() == want_scores.tobytes(), low
            assert np.array_equal(sizes, want_sizes)

    def test_peak_memory_follows_the_planned_blocks(self):
        n, t, k = 20, 1, len(CANONICAL_LEVELS)
        rng = np.random.default_rng(3)
        values = np.sort(rng.normal(size=(n, t, k)), axis=-1)
        y = rng.normal(size=t)
        low = importance._low_members(n, t * k)
        block = 8 * (t * k << low)
        table = 8 * (t << n)
        # The walk holds the score table, the size vector, the n - low + 1
        # blocks on its path and one block of means, plus level slabs.
        walk_bound = 2 * table + (n - low + 3) * block
        # The readouts then add at most six arrays of half its length, plus
        # their (n, n - 1, T) outputs, well under one block.
        readout_bound = 3 * table + block
        assert walk_bound + readout_bound < 100e6
        tracemalloc.start()
        try:
            scores, sizes = importance._subset_scores(values, CANONICAL_LEVELS, y)
            walk_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            importance._table_readouts(scores, sizes, WeightScheme.PERMUTATION)
            readout_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert walk_peak < walk_bound
        assert readout_peak < readout_bound

    @pytest.mark.parametrize("n, t", [(2, 20_000), (10, 2_000)])
    @pytest.mark.parametrize("algorithm", Algorithm)
    def test_batch_peak_follows_the_one_budget(self, n, t, algorithm):
        """A batch's arrays fit ``_BLOCK_ELEMENTS``, however many tasks there are.

        At n = 2 a width set by the (2^n, T) score table alone would put
        every task in one batch, and its (levels, 2, T) blocks of sums would
        take 39 MB."""
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
