"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Every tolerance is pinned here, not configurable.
"""

import math
import time
from datetime import date, timedelta

import numpy as np

import bruteforce as bf
from conftest import FIXTURES, ORACLES, point_pool, random_quantile_pool, same_cells

from ensimp.cli import main
from ensimp.dataio import TaskKey, TaskPool, from_pools, read_forecasts, read_truth
from ensimp.decomposition import (
    ErrorVector,
    GaussianErrorModel,
    ambiguity_check,
    expected_phi,
    phi_decomposed,
    phi_direct,
)
from ensimp.ensembling import ForecastPool, mean_quantile_ensemble
from ensimp.importance import (
    Algorithm,
    WeightScheme,
    compute_importance,
    importance_by_subset_size,
    lasomo_all,
    lasomo_task,
    lomo_task,
    shapley_weight_exact,
)
from ensimp.scoring import (
    CANONICAL_LEVELS,
    Metric,
    Observation,
    QuantileForecast,
    QuantileLevels,
    wis,
)
from ensimp.simulation import (
    NormalSpec,
    normal_quantile,
    normal_quantile_forecast,
    run_sweep,
    setting_a_point,
    setting_a_prob,
    setting_b_dispersion,
)


def _pass(num: int, message: str) -> None:
    print(f"\nPASS criterion {num:02d}: {message}")


def test_criterion_01_decomposition_identity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        ev = ErrorVector(tuple(rng.standard_normal(n)))
        i = int(rng.integers(n))
        a, b = phi_direct(ev, i), phi_decomposed(ev, i)
        worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9, f"max relative residual {worst}"
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s"
    _pass(1, f"direct vs decomposed importance, max residual {worst:.2e} in {elapsed:.2f}s")


def test_criterion_02_ambiguity_connection():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        ev = ErrorVector(tuple(rng.standard_normal(n) * 2))
        raw = rng.random(n) + 1e-3
        weights = tuple(raw / raw.sum())
        i = int(rng.integers(n))
        worst = max(worst, abs(ambiguity_check(ev, weights, i)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9, f"max residual {worst}"
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s"
    _pass(2, f"ambiguity reconstruction, max residual {worst:.2e} in {elapsed:.2f}s")


def test_criterion_03_weight_normalization():
    for n in range(2, 21):
        exact = sum(math.comb(n - 1, s) * shapley_weight_exact(n, s) for s in range(1, n))
        assert exact == 1, f"exact sum for n={n} is {exact}"
        approx = math.fsum(math.comb(n - 1, s) * float(shapley_weight_exact(n, s)) for s in range(1, n))
        assert abs(approx - 1.0) < 1e-12, f"float sum for n={n} off by {approx - 1.0}"
    _pass(3, "coalition weights sum to 1 exactly for n in [2, 20], to 1e-12 in floats")


def test_criterion_04_brute_force_equivalence():
    rng = np.random.default_rng(404)
    worst = 0.0
    for n in range(2, 7):
        for _ in range(3):
            tp, forecasts, levels, y = random_quantile_pool(rng, n)
            score_of = lambda sub: bf.neg_wis_score(forecasts, sub, levels.levels, y)
            fast = lasomo_all(tp, Metric.WIS)
            for i, m in enumerate(tp.pool.model_ids):
                worst = max(worst, abs(fast[i] - bf.lasomo(score_of, forecasts, m)))

            points = {f"m{j}": float(rng.normal()) for j in range(n)}
            ptp = point_pool(points, y=float(rng.normal()))
            pscore = lambda sub: bf.neg_spe_score(points, sub, ptp.truth.value)
            pfast = lasomo_all(ptp, Metric.SPE)
            for i, m in enumerate(ptp.pool.model_ids):
                worst = max(worst, abs(pfast[i] - bf.lasomo(pscore, points, m)))
    assert worst < 1e-10, f"max |bitmask - enumeration| = {worst}"

    for _ in range(10):
        tp, _, _, _ = random_quantile_pool(rng, 2)
        for m in tp.pool.model_ids:
            assert lasomo_task(tp, Metric.WIS, m) == lomo_task(tp, Metric.WIS, m)
    _pass(4, f"bitmask LASOMO matches enumeration (max diff {worst:.2e}); n=2 equals LOMO exactly")


def test_criterion_05_subset_size_identity():
    rng = np.random.default_rng(505)
    worst = 0.0
    for n in range(3, 9):
        for _ in range(3):
            tp, _, _, _ = random_quantile_pool(rng, n)
            for m in tp.pool.model_ids:
                stats = importance_by_subset_size(tp, Metric.WIS, m)
                mos = math.fsum(stats[r].mean for r in sorted(stats)) / len(stats)
                worst = max(worst, abs(mos - lasomo_task(tp, Metric.WIS, m)))
    assert worst < 1e-10, f"max identity residual {worst}"
    _pass(5, f"mean over subset sizes equals permutation LASOMO (max residual {worst:.2e})")


def test_criterion_06_setting_a_point():
    start = time.perf_counter()
    result = run_sweep(setting_a_point())
    grid = result.grid_values
    analytic = np.array(
        [
            [expected_phi(GaussianErrorModel((-1.0, -0.5, float(b)), 1.0), i) for b in grid]
            for i in range(3)
        ]
    )
    dev = np.abs(result.mean_importance - analytic)
    # the absolute floor covers the grid point where the per-replicate
    # importance is constant (empirical standard error exactly zero)
    band = 4.0 * result.standard_errors() + 1e-9
    assert np.all(dev < band), f"worst dev/band ratio {(dev / band).max()}"

    vertex = -(-1.0 + -0.5)
    assert vertex == 1.5
    analytic_argmax = grid[int(np.argmax(analytic[2]))]
    assert abs(analytic_argmax - 1.5) < 1e-12
    simulated_argmax = grid[int(np.argmax(result.mean_importance[2]))]
    assert abs(simulated_argmax - 1.5) <= 0.05 + 1e-9, f"simulated argmax {simulated_argmax}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s"
    _pass(6, f"point sweep tracks the closed form; argmax at b={simulated_argmax:.2f} "
             f"(analytic 1.5) in {elapsed:.1f}s")


def test_criterion_07_setting_a_probabilistic():
    start = time.perf_counter()
    result = run_sweep(setting_a_prob())
    assert result.seed == 42
    grid = result.grid_values
    m = result.mean_importance
    top = np.argmax(m, axis=0)

    strictly_above_2 = (grid >= 2.05 - 1e-9)
    assert np.all(top[strictly_above_2] == 0), "forecaster 1 must lead for b > 2"
    # at b = 2.0 the leave-one-out ensembles N(0.75, 1) and N(-0.75, 1) are
    # mirror images around the truth mean, so forecasters 1 and 3 tie in
    # expectation; allow the seed-level noise of that tie
    at_two = np.isclose(grid, 2.0, atol=1e-9)
    assert np.all(m[0, at_two] >= m[:, at_two].max(axis=0) - 1e-3)

    small_positive = (grid >= 0.25 - 1e-9) & (grid <= 1.75 + 1e-9)
    assert np.all(top[small_positive] == 2), "forecaster 3 must lead at small positive bias"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s"
    _pass(7, f"forecaster 1 leads for b >= 2 (tie at the b=2 boundary), forecaster 3 leads "
             f"for b in [0.25, 1.75]; {elapsed:.1f}s")


def test_criterion_08_setting_b_dispersion():
    start = time.perf_counter()
    result = run_sweep(setting_b_dispersion())
    assert result.seed == 42
    grid = result.grid_values
    top = np.argmax(result.mean_importance, axis=0)

    band = (grid >= 0.75 - 1e-9) & (grid <= 2.25 + 1e-9)
    assert np.all(top[band] == 2), "forecaster 3 must lead on [0.75, 2.25]"
    high = grid >= 2.55 - 1e-9
    assert np.all(top[high] == 0), "forecaster 1 must lead for s >= 2.55"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s"
    _pass(8, f"forecaster 3 leads on s in [0.75, 2.25], forecaster 1 from 2.55; {elapsed:.1f}s")


def test_criterion_09_ensemble_of_normals_lemma():
    pool = ForecastPool.from_dict(
        {
            "f1": normal_quantile_forecast(NormalSpec(0.0, 0.5), CANONICAL_LEVELS),
            "f2": normal_quantile_forecast(NormalSpec(0.0, 0.7), CANONICAL_LEVELS),
            "f3": normal_quantile_forecast(NormalSpec(0.0, 1.8), CANONICAL_LEVELS),
        }
    )
    ens = mean_quantile_ensemble(pool, pool.model_ids)
    target = normal_quantile_forecast(NormalSpec(0.0, 1.0), CANONICAL_LEVELS)
    worst = max(abs(a - b) for a, b in zip(ens.values, target.values))
    assert worst < 1e-8, f"max per-level deviation {worst}"
    assert abs(normal_quantile(0.975) - 1.959963985) < 1e-8
    _pass(9, f"mean of N(0,0.5^2), N(0,0.7^2), N(0,1.8^2) is N(0,1) to {worst:.1e}; "
             "quantile(0.975) = 1.959963985")


def test_criterion_10_wis_properties():
    rng = np.random.default_rng(1010)
    n_cases = 10_000

    for _ in range(n_cases):
        q, y = rng.normal(size=2) * 20
        assert wis(QuantileForecast(QuantileLevels((0.5,)), (q,)), Observation(y)) == abs(y - q)

    worst_shift = worst_scale = 0.0
    for _ in range(n_cases):
        k = int(rng.integers(1, 11))
        levels = np.sort(rng.uniform(0.01, 0.99, size=k))
        if len(set(levels)) != k:
            continue
        ql = QuantileLevels(tuple(levels))
        values = tuple(np.sort(rng.normal(size=k) * 3))
        y = float(rng.normal())
        base = wis(QuantileForecast(ql, values), Observation(y))

        c = float(rng.uniform(-10, 10))
        shifted = wis(
            QuantileForecast(ql, tuple(v + c for v in values)), Observation(y + c)
        )
        worst_shift = max(worst_shift, abs(shifted - base) / max(1.0, abs(base)))

        a = float(rng.uniform(0.1, 10))
        scaled = wis(QuantileForecast(ql, tuple(a * v for v in values)), Observation(a * y))
        worst_scale = max(worst_scale, abs(scaled - a * base) / max(1.0, abs(a * base)))
    assert worst_shift < 1e-12, f"translation residual {worst_shift}"
    assert worst_scale < 1e-12, f"scaling residual {worst_scale}"
    _pass(10, f"pinball equality exact; translation {worst_shift:.1e}, scaling {worst_scale:.1e} "
              f"over {n_cases} cases each")


def test_criterion_11_fixture_pipeline_oracle(tmp_path):
    fc = str(FIXTURES / "forecasts.csv")
    truth_path = str(FIXTURES / "truth.csv")

    # the recorded files must themselves match a fresh run of the
    # independent enumerator before the pipeline is held to them
    forecasts, _ = read_forecasts(fc)
    truth = read_truth(truth_path)
    levels = forecasts.levels.levels
    by_task = {}
    for i, model in enumerate(forecasts.models):
        for j in np.flatnonzero(forecasts.present[i]).tolist():
            by_task.setdefault(forecasts.tasks[j], {})[model] = forecasts.values[i, j].tolist()
    recorded = {}
    with open(ORACLES / "importance_worst.csv") as fh:
        import csv as _csv

        for row in _csv.DictReader(fh):
            if row["metric"] == "phi_task":
                key = (row["model"], row["forecast_date"], row["location"], row["horizon"])
                recorded[key] = row["value"]
    for task, forecasts in by_task.items():
        y = truth[(task.location, task.target_end_date)].value
        score_of = lambda sub: bf.neg_wis_score(forecasts, sub, levels, y)
        for m in forecasts:
            fresh = bf.lasomo(score_of, forecasts, m)
            key = (m, task.forecast_date.isoformat(), task.location, str(task.horizon))
            assert float(recorded[key]) == fresh, f"recorded oracle drifted at {key}"

    for policy in ("drop", "worst", "mean"):
        out = tmp_path / f"imp_{policy}.csv"
        code = main(["importance", "--forecasts", fc, "--truth", truth_path,
                     "--algorithm", "lasomo", "--weights", "permutation",
                     "--na", policy, "--output", str(out)])
        assert code == 0
        want = (ORACLES / f"importance_{policy}.csv").read_bytes()
        assert out.read_bytes() == want, f"{policy} output differs from the recorded oracle"
    _pass(11, "pipeline output is byte-identical to the enumerator-recorded tables "
              "for all three NA policies")


def test_criterion_12_performance_ten_models():
    rng = np.random.default_rng(1212)
    models = [f"model{chr(97 + i)}" for i in range(10)]
    base = date(2021, 1, 2)
    pools = []
    for t in range(1000):
        tk = TaskKey(base + timedelta(days=7 * (t // 4)), f"l{t % 4}", t % 4 + 1,
                     base + timedelta(days=7 * (t // 4) + 7 * (t % 4 + 1)))
        fcs = {
            m: QuantileForecast(
                CANONICAL_LEVELS,
                tuple(np.sort(rng.normal(loc=rng.normal(), scale=0.5 + rng.random(), size=23))),
            )
            for m in models
        }
        pools.append(TaskPool(tk, ForecastPool.from_dict(fcs), Observation(float(rng.normal()))))

    start = time.perf_counter()
    r4 = compute_importance(
        from_pools(pools), Metric.WIS, Algorithm.LASOMO, scheme=WeightScheme.PERMUTATION,
        n_workers=4,
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s on 4 workers"

    r1 = compute_importance(
        from_pools(pools), Metric.WIS, Algorithm.LASOMO, scheme=WeightScheme.PERMUTATION,
        n_workers=1,
    )
    assert same_cells(r1.per_task, r4.per_task)
    assert r1.overall == r4.overall
    _pass(12, f"LASOMO on 10 models x 1000 tasks x 23 levels in {elapsed:.2f}s "
              "on 4 workers; output invariant to worker count")


def test_criterion_13_rank_table_shape_and_sign_relation():
    import csv as _csv

    # Full-scale reproduction of the published 10-model, 21,800-prediction
    # comparison needs the live hub archive and is out of scope; the bundled
    # fixture stands in, with its recorded tables checked in criterion 11.
    for policy in ("drop", "worst", "mean"):
        with open(ORACLES / f"importance_{policy}.csv") as fh:
            rows = list(_csv.DictReader(fh))
        per_model = {}
        for row in rows:
            if row["metric"] in {"neg_wis", "phi_lasomo", "phi_lomo"}:
                per_model.setdefault(row["model"], {})[row["metric"]] = float(row["value"])
                assert row["n_predictions"], "summary rows must carry prediction counts"
                assert row["pct_submitted"], "summary rows must carry submission percentages"
        assert set(per_model) == {"alder", "birch", "cedar"}
        for model, vals in per_model.items():
            assert set(vals) == {"neg_wis", "phi_lasomo", "phi_lomo"}
            assert vals["phi_lomo"] <= vals["phi_lasomo"], (
                f"{model} under {policy}: recorded phi_lomo exceeds phi_lasomo"
            )
    _pass(13, "rank tables carry the published column structure; recorded values satisfy "
              "phi_lomo <= phi_lasomo per model (fixture stands in for the full archive)")
