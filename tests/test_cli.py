import csv
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import FIXTURES, ORACLES, mutated_decomposition, perfbench_inputs, task_key

from ensimp import cli, importance
from ensimp.cli import _resolve_workers, main
from ensimp.dataio import FORECAST_HEADER, Panel
from ensimp.ensembling import ForecastPool
from ensimp.scoring import CANONICAL_LEVELS, QuantileForecast

FC = str(FIXTURES / "forecasts.csv")
TRUTH = str(FIXTURES / "truth.csv")


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(row for row in fh if not row.startswith("#")))


def two_model_fixture(tmp_path):
    """The bundled fixture with cedar removed: every task has exactly 2 models."""
    dst = tmp_path / "two.csv"
    with open(FC) as fh:
        lines = [line for line in fh if not line.startswith("cedar,")]
    dst.write_text("".join(lines))
    return str(dst)


def one_task_files(tmp_path, target_end_date, truth_rows=""):
    """Models m1 and m2 forecasting 2021-11-08/01/h1 for ``target_end_date``, and a truth file."""
    fc, truth = tmp_path / "fc.csv", tmp_path / "truth.csv"
    rows = [f"{m},2021-11-08,01,1,{target_end_date},{lvl},{lvl + k}\n"
            for k, m in enumerate(("m1", "m2")) for lvl in (0.25, 0.5, 0.75)]
    fc.write_text(",".join(FORECAST_HEADER) + "\n" + "".join(rows))
    truth.write_text("location,target_end_date,value\n" + truth_rows)
    return str(fc), str(truth)


class TestScore:
    def test_an_inconsistent_target_end_date_warns_once_per_model(self, tmp_path, capsys):
        fc, truth = one_task_files(tmp_path, "2021-11-22", "01,2021-11-22,2\n")
        out = tmp_path / "scores.csv"
        assert main(["score", "--forecasts", fc, "--truth", truth, "--output", str(out)]) == 0
        assert capsys.readouterr().err == "".join(
            f"warning: ({m!r}, 2021-11-08/01/h1/2021-11-22): target_end_date is inconsistent "
            "with forecast_date + 1 week(s)\n" for m in ("m1", "m2"))
        assert len(read_rows(out)) == 4  # two summaries and two task cells

    def test_writes_cells_and_summaries(self, tmp_path, capsys):
        out = tmp_path / "scores.csv"
        assert main(["score", "--forecasts", FC, "--truth", TRUTH, "--output", str(out)]) == 0
        rows = read_rows(out)
        cells = [r for r in rows if r["metric"] == "neg_wis_task"]
        summaries = [r for r in rows if r["metric"] == "neg_wis"]
        assert len(cells) == 22
        assert len(summaries) == 3
        assert all(float(r["value"]) <= 0.0 for r in cells)

    def test_spe_notes_median_scoring(self, tmp_path):
        out = tmp_path / "scores.csv"
        assert main(["score", "--forecasts", FC, "--truth", TRUTH,
                     "--metric", "spe", "--output", str(out)]) == 0
        first = out.read_text().splitlines()[0]
        assert first.startswith("#") and "median" in first

    def test_spe_without_a_median_names_the_metric(self, tmp_path, capsys):
        no_median = tmp_path / "quartiles.csv"
        with open(FC) as fh:
            lines = [line for line in fh if line.split(",")[5] in ("quantile_level", "0.25", "0.75")]
        no_median.write_text("".join(lines))
        code = main(["score", "--forecasts", str(no_median), "--truth", TRUTH,
                     "--metric", "spe", "--output", "-"])
        assert code == 1
        assert capsys.readouterr().err == ("error: SPE scores the 0.5 quantile (the predictive "
                                           "median), which these forecasts lack\n")

    def test_missing_truth_file_names_path(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.csv")
        code = main(["score", "--forecasts", FC, "--truth", missing, "--output", "-"])
        err = capsys.readouterr().err
        assert code != 0
        assert "nope.csv" in err

    def test_utf8_bom_is_accepted(self, tmp_path):
        fc_bom, truth_bom = tmp_path / "fc.csv", tmp_path / "truth.csv"
        fc_bom.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / "forecasts.csv").read_bytes())
        truth_bom.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / "truth.csv").read_bytes())
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        assert main(["score", "--forecasts", FC, "--truth", TRUTH, "--output", str(plain)]) == 0
        assert main(["score", "--forecasts", str(fc_bom), "--truth", str(truth_bom),
                     "--output", str(bom)]) == 0
        assert bom.read_bytes() == plain.read_bytes()

    def test_stdout_output(self, capsys):
        assert main(["score", "--forecasts", FC, "--truth", TRUTH, "--output", "-"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("model,metric")


class TestImportance:
    @pytest.mark.parametrize("policy", ["drop", "worst", "mean"])
    def test_matches_recorded_oracle_byte_for_byte(self, tmp_path, policy):
        out = tmp_path / f"imp_{policy}.csv"
        code = main(["importance", "--forecasts", FC, "--truth", TRUTH,
                     "--algorithm", "lasomo", "--weights", "permutation",
                     "--na", policy, "--output", str(out)])
        assert code == 0
        assert out.read_bytes() == (ORACLES / f"importance_{policy}.csv").read_bytes()

    def test_builds_no_per_forecast_objects(self, tmp_path, monkeypatch):
        # The CLI path stays on the array panel from the CSV to the kernels.
        def refuse(obj):
            raise AssertionError(f"{type(obj).__name__} built on the CLI path")

        monkeypatch.setattr(QuantileForecast, "__post_init__", refuse)
        monkeypatch.setattr(ForecastPool, "__post_init__", refuse)
        out = tmp_path / "imp.csv"
        assert main(["importance", "--forecasts", FC, "--truth", TRUTH, "--output", str(out)]) == 0
        assert out.read_bytes() == (ORACLES / "importance_worst.csv").read_bytes()

    def test_lomo_equals_lasomo_on_two_model_tasks(self, tmp_path):
        fc2 = two_model_fixture(tmp_path)
        out_lomo = tmp_path / "lomo.csv"
        out_lasomo = tmp_path / "lasomo.csv"
        assert main(["importance", "--forecasts", fc2, "--truth", TRUTH,
                     "--algorithm", "lomo", "--output", str(out_lomo)]) == 0
        assert main(["importance", "--forecasts", fc2, "--truth", TRUTH,
                     "--algorithm", "lasomo", "--output", str(out_lasomo)]) == 0
        lomo = {(r["model"], r["forecast_date"], r["location"], r["horizon"]): r["value"]
                for r in read_rows(out_lomo) if r["metric"] == "phi_task"}
        lasomo = {(r["model"], r["forecast_date"], r["location"], r["horizon"]): r["value"]
                  for r in read_rows(out_lasomo) if r["metric"] == "phi_task"}
        assert lomo == lasomo and lomo

    def test_worst_penalizes_gapped_model_at_least_as_much_as_drop(self, tmp_path):
        vals = {}
        for policy in ("drop", "worst"):
            out = tmp_path / f"{policy}.csv"
            main(["importance", "--forecasts", FC, "--truth", TRUTH,
                  "--na", policy, "--output", str(out)])
            vals[policy] = {
                r["model"]: float(r["value"])
                for r in read_rows(out)
                if r["metric"] == "phi_lasomo"
            }
        assert vals["worst"]["cedar"] <= vals["drop"]["cedar"]

    def test_capacity_error_advises_lomo(self, tmp_path, capsys):
        big = tmp_path / "big.csv"
        with open(big, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("model", "forecast_date", "location", "horizon",
                        "target_end_date", "quantile_level", "value"))
            for i in range(21):
                for lvl, val in ((0.25, 1.0 + i), (0.5, 2.0 + i), (0.75, 3.0 + i)):
                    w.writerow((f"m{i:02d}", "2021-11-06", "25", 1, "2021-11-13", lvl, val))
        truth = tmp_path / "truth.csv"
        truth.write_text("location,target_end_date,value\n25,2021-11-13,2\n")
        code = main(["importance", "--forecasts", str(big), "--truth", str(truth),
                     "--algorithm", "lasomo", "--output", "-"])
        err = capsys.readouterr().err
        assert code != 0
        assert "lomo" in err

    def test_a_task_without_truth_is_excluded_and_the_run_fails(self, tmp_path, capsys):
        fc, truth = one_task_files(tmp_path, "2021-11-15")
        out = tmp_path / "imp.csv"
        assert main(["importance", "--forecasts", fc, "--truth", truth, "--output", str(out)]) == 1
        assert capsys.readouterr().err == (
            "excluded task: 2021-11-08/01/h1/2021-11-15: no truth value\n"
            "error: no scoreable tasks after joining forecasts with truth\n")
        assert not out.exists()

    def test_repeat_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["importance", "--forecasts", FC, "--truth", TRUTH, "--workers", "2"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "imp.json"
        assert main(["importance", "--forecasts", FC, "--truth", TRUTH,
                     "--format", "json", "--output", str(out)]) == 0
        import json

        payload = json.loads(out.read_text())
        metrics = {r["metric"] for r in payload["rows"]}
        assert {"neg_wis", "phi_lasomo", "phi_lomo", "phi_rank", "neg_wis_rank"} <= metrics


class TestSimulate:
    def test_default_b_grid_has_59_values_per_forecaster(self, tmp_path):
        out = tmp_path / "b.csv"
        assert main(["simulate", "--scenario", "b", "--replicates", "3",
                     "--output", str(out)]) == 0
        rows = read_rows(out)
        per = {}
        for r in rows:
            per.setdefault(r["forecaster"], []).append(r)
        assert set(per) == {"forecaster_1", "forecaster_2", "forecaster_3"}
        assert all(len(v) == 59 for v in per.values())

    def test_determinism_with_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--scenario", "a-prob", "--replicates", "1", "--seed", "7",
                "--grid-start", "0.0", "--grid-end", "1.0", "--grid-step", "0.5"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_grid_fails(self, capsys):
        code = main(["simulate", "--scenario", "b", "--grid-step", "-1", "--output", "-"])
        assert code != 0

    def test_zero_replicates_rejected_naming_the_flag(self, capsys):
        code = main(["simulate", "--scenario", "b", "--replicates", "0", "--output", "-"])
        assert code == 1
        assert "--replicates" in capsys.readouterr().err

    def test_zero_replicates_reported_before_a_bad_grid(self, capsys):
        code = main(["simulate", "--scenario", "b", "--replicates", "0", "--grid-step", "-1",
                     "--output", "-"])
        assert code == 1
        assert capsys.readouterr().err == "error: --replicates must be >= 1, got 0\n"

    def test_oversized_grid_fails_naming_the_step(self, capsys):
        code = main(["simulate", "--scenario", "b", "--grid-step", "5e-324", "--output", "-"])
        assert code == 1
        assert "--grid-step" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, name, value", [("--grid-start", "start", "nan"),
                                                   ("--grid-end", "end", "inf")])
    def test_non_finite_grid_bound_is_named(self, capsys, flag, name, value):
        code = main(["simulate", "--scenario", "b", flag, value, "--output", "-"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == (f"error: --grid-start/--grid-end/--grid-step: "
                       f"grid {name} must be finite, got {value}\n")

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_the_philox_key_rejected_naming_the_flag(self, capsys, seed):
        code = main(["simulate", "--scenario", "a-point", "--replicates", "3", "--grid-start", "0",
                     "--grid-end", "0", "--seed", seed, "--output", "-"])
        assert code == 1
        assert capsys.readouterr().err == f"error: --seed must be in [0, 2**64), got {seed}\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_mean_fails_naming_the_point(self, capsys):
        code = main(["simulate", "--scenario", "a-point", "--grid-start", "1e155",
                     "--grid-end", "1e155", "--output", "-"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: mean importance (a_point, grid value 1e+155, forecaster_1) is not finite\n")

    def test_out_of_memory_is_one_line(self, monkeypatch, capsys):
        message = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"

        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "run_sweep", exhausted)
        code = main(["simulate", "--scenario", "a-point", "--replicates", "1000000000000",
                     "--grid-start", "0", "--grid-end", "0", "--output", "-"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: not enough memory: {message}\n"

    @pytest.mark.parametrize("start", ["0", "-1"])
    def test_non_positive_dispersion_start_names_the_flag_and_scenario(self, capsys, start):
        code = main(["simulate", "--scenario", "b", "--grid-start", start, "--grid-end", "0.1",
                     "--output", "-"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: --grid-start/--grid-end/--grid-step: grid start must be > 0 for scenario "
            f"b_dispersion (the swept sd), got {float(start)}\n")


class TestDecomposeCheck:
    def test_passes_by_default(self, capsys):
        assert main(["decompose-check", "--instances", "300", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "max" in out

    def test_zero_instances_rejected(self, capsys):
        assert main(["decompose-check", "--instances", "0"]) == 1
        assert "--instances" in capsys.readouterr().err

    def test_negative_seed_rejected_naming_the_flag(self, capsys):
        assert main(["decompose-check", "--instances", "1", "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"

    def test_injected_fault_fails(self, capsys, monkeypatch):
        exact = cli.phi_decomposed
        monkeypatch.setattr(cli, "phi_decomposed", lambda errors, i: exact(errors, i) + 1e-6)
        assert main(["decompose-check", "--instances", "10"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_fault_in_the_lomo_kernel_fails(self, capsys, monkeypatch):
        # phi_direct reads the kernel that importance and simulate run
        means = importance.member_means
        monkeypatch.setattr(importance, "member_means", lambda rows: means(rows) * (1 + 1e-6))
        assert main(["decompose-check", "--instances", "200"]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "FAIL: residual above 1e-9"

    def test_deterministic_report(self, capsys):
        assert main(["decompose-check", "--instances", "200", "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["decompose-check", "--instances", "200", "--seed", "9"]) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("old, new, name", [
        (" + 2 * (s / m) * cross", "", "phi_decomposed"),  # the closed form's cross term
        ("/ (s + 1) ** 2", "/ s**2", "phi_decomposed"),  # a closed-form coefficient
        ("(amb[0] - amb[1])", "amb[0]", "ambiguity_check"),  # a term of the ambiguity split
    ])
    def test_faults_in_the_checked_formulas_fail(self, capsys, monkeypatch, old, new, name):
        monkeypatch.setattr(cli, name, getattr(mutated_decomposition(old, new), name))
        assert main(["decompose-check", "--instances", "200"]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "FAIL: residual above 1e-9"

    @pytest.mark.parametrize("seed", [7, 11])
    def test_single_instance_is_named(self, capsys, seed):
        # at seed 11 one residual is exactly 0
        assert main(["decompose-check", "--instances", "1", "--seed", str(seed)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" at ")[1][:14] for line in lines[1:3]] == ["instance 0 (n="] * 2

    def test_worst_instance_of_all_zero_residuals_is_the_first(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "phi_decomposed", cli.phi_direct)
        assert main(["decompose-check", "--instances", "20000"]) == 0
        line = capsys.readouterr().out.splitlines()[1]
        assert line.startswith("max relative residual, direct vs decomposed: 0.000000e+00 "
                               "at instance 0 (n=")

    @pytest.mark.parametrize("seed", [3, 42])
    def test_residuals_at_the_benchmark_size(self, capsys, seed):
        assert main(["decompose-check", "--instances", "20000", "--seed", str(seed)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(float(line.split(": ")[1].split()[0]) < 1e-12 for line in lines[1:3])
        assert lines[-1] == "PASS"

    def test_memory_does_not_grow_with_instances(self, capsys):
        peaks = []
        for instances in (20_000, 200_000):
            tracemalloc.start()
            try:
                assert main(["decompose-check", "--instances", str(instances), "--seed", "3"]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks


class TestSubsetVariance:
    def test_mean_over_sizes_matches_lasomo(self, tmp_path):
        out = tmp_path / "sv.csv"
        assert main(["subset-variance", "--forecasts", FC, "--truth", TRUTH,
                     "--na", "worst", "--output", str(out)]) == 0
        rows = read_rows(out)
        mos = {r["model"]: float(r["mean"]) for r in rows if r["subset_size"] == "mean_over_sizes"}
        phi = {r["model"]: float(r["mean"]) for r in rows if r["subset_size"] == "lasomo"}
        assert set(mos) == set(phi) == {"alder", "birch", "cedar"}
        assert mos == phi

    def test_lasomo_rows_are_the_mean_over_sizes_rows_on_the_benchmark_panel(self, tmp_path):
        inputs = perfbench_inputs()
        fc, truth = tmp_path / "forecasts.csv", tmp_path / "truth.csv"
        inputs.write_panel(inputs.HUB_PANEL, CANONICAL_LEVELS.levels, 3, fc, truth)
        out = tmp_path / "sv.csv"
        assert main(["subset-variance", "--forecasts", str(fc), "--truth", str(truth),
                     "--na", "worst", "--workers", "1", "--output", str(out)]) == 0
        rows = read_rows(out)
        mos = {r["model"]: r["mean"] for r in rows if r["subset_size"] == "mean_over_sizes"}
        phi = {r["model"]: r["mean"] for r in rows if r["subset_size"] == "lasomo"}
        assert len(mos) == 10
        assert mos == phi

    def test_json_output(self, tmp_path):
        import json

        out = tmp_path / "sv.json"
        assert main(["subset-variance", "--forecasts", FC, "--truth", TRUTH,
                     "--format", "json", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        sizes = {r["subset_size"] for r in payload["rows"]}
        assert {"2", "3", "mean_over_sizes", "lasomo"} <= sizes

    def test_two_model_fixture_has_single_size_row(self, tmp_path):
        fc2 = two_model_fixture(tmp_path)
        out = tmp_path / "sv2.csv"
        assert main(["subset-variance", "--forecasts", fc2, "--truth", TRUTH,
                     "--output", str(out)]) == 0
        rows = read_rows(out)
        sizes = {r["subset_size"] for r in rows if r["subset_size"].isdigit()}
        assert sizes == {"2"}

    def test_identical_forecasts_have_zero_variance(self, tmp_path):
        src = tmp_path / "same.csv"
        with open(src, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("model", "forecast_date", "location", "horizon",
                        "target_end_date", "quantile_level", "value"))
            for m in ("a", "b", "c"):
                for lvl, val in ((0.25, 1.0), (0.5, 2.0), (0.75, 3.0)):
                    w.writerow((m, "2021-11-06", "25", 1, "2021-11-13", lvl, val))
        truth = tmp_path / "truth.csv"
        truth.write_text("location,target_end_date,value\n25,2021-11-13,2\n")
        out = tmp_path / "sv3.csv"
        assert main(["subset-variance", "--forecasts", str(src), "--truth", str(truth),
                     "--output", str(out)]) == 0
        for r in read_rows(out):
            if r["subset_size"].isdigit():
                assert float(r["variance"]) == 0.0
                assert float(r["mean"]) == 0.0

    def test_capacity_error_names_the_task_and_offers_no_flag(self, tmp_path, capsys):
        # subset-variance has no --algorithm flag, and LOMO has no per-size rows
        big = tmp_path / "big.csv"
        with open(big, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("model", "forecast_date", "location", "horizon",
                        "target_end_date", "quantile_level", "value"))
            for i in range(21):
                for lvl, val in ((0.25, 1.0 + i), (0.5, 2.0 + i), (0.75, 3.0 + i)):
                    w.writerow((f"m{i:02d}", "2021-11-06", "25", 1, "2021-11-13", lvl, val))
        truth = tmp_path / "truth.csv"
        truth.write_text("location,target_end_date,value\n25,2021-11-13,2\n")
        code = main(["subset-variance", "--forecasts", str(big), "--truth", str(truth),
                     "--output", str(tmp_path / "sv.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: task 2021-11-06/25/h1/2021-11-13: pool of 21 models exceeds the "
            "exact-enumeration cap of 20\n"
        )
        assert not (tmp_path / "sv.csv").exists()


class TestWorkers:
    def test_default_is_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert _resolve_workers(None) == 3

    def test_default_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert _resolve_workers(None) == 5

    def test_a_request_is_capped_at_the_cpus_this_process_may_use(self, monkeypatch):
        # A pool maps every grid value at once, so an uncapped request could
        # start a thread per value; resolving the count starts none.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        threads = threading.active_count()
        assert _resolve_workers(10**6) == 2
        assert _resolve_workers(1) == 1
        assert threading.active_count() == threads

    def test_zero_workers_rejected(self, capsys):
        code = main(["simulate", "--scenario", "b", "--replicates", "1", "--workers", "0",
                     "--output", "-"])
        assert code == 1
        assert "--workers" in capsys.readouterr().err


def test_task_rows_hold_one_model_row_at_a_time():
    n_models, n_tasks = 10, 20_000
    values = np.arange(n_models * n_tasks, dtype=float).reshape(n_models, n_tasks)
    panel = Panel(tuple(f"m{i}" for i in range(n_models)),
                  tuple(task_key(j) for j in range(n_tasks)), values,
                  np.ones((n_models, n_tasks), dtype=bool))
    rows = 0
    tracemalloc.start()
    try:
        for row in cli._task_rows(panel, "wis"):
            rows += 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == n_models * n_tasks
    assert row["model"] == "m9" and row["value"] == values[-1, -1]
    # The whole panel as Python floats is about 7 MiB; one model's row is under 1.
    assert peak < 3 * 2**20, peak


def test_cli_import_does_not_load_scipy():
    # numpy is the only runtime dependency; SciPy serves the tests alone
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import ensimp.cli, sys; assert 'scipy' not in sys.modules"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_import_does_not_load_numpy_random():
    # numpy.random, about 6 MB resident, serves only the commands that draw;
    # numpy 1.x imports it with numpy itself
    src = Path(__file__).resolve().parent.parent / "src"

    def loads_numpy_random(module):
        proc = subprocess.run(
            [sys.executable, "-c", f"import {module}, sys; print('numpy.random' in sys.modules)"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip() == "True"

    if loads_numpy_random("numpy"):
        pytest.skip("this numpy imports numpy.random with numpy")
    assert not loads_numpy_random("ensimp.cli")


@pytest.mark.parametrize("algorithm", ["lasomo", "lomo"])
def test_importance_does_not_load_numpy_ma(tmp_path, algorithm):
    # numpy.ma stays resident once imported (np.unique imports it); a child
    # process, since scipy has imported it here
    src = Path(__file__).resolve().parent.parent / "src"
    argv = ["importance", "--algorithm", algorithm, "--forecasts", FC, "--truth", TRUTH,
            "--output", str(tmp_path / "imp.csv")]
    code = f"import sys; from ensimp import cli; assert cli.main({argv!r}) == 0; " \
           "assert 'numpy.ma' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def overflowing_fixture(tmp_path):
    """The bundled fixture with every forecast and truth value times 1e200: the
    squared errors overflow."""
    paths = []
    for name in ("forecasts.csv", "truth.csv"):
        with open(FIXTURES / name, newline="") as fh:
            rows = list(csv.reader(fh))
        k = rows[0].index("value")
        for row in rows[1:]:
            row[k] = repr(float(row[k]) * 1e200)
        paths.append(tmp_path / name)
        with open(paths[-1], "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    return [str(p) for p in paths]


@pytest.mark.parametrize("argv", [
    ["score", "--metric", "spe"],
    ["importance", "--algorithm", "lomo", "--metric", "spe"],
    ["importance", "--metric", "spe"],
])
def test_overflowing_scores_print_only_the_error_line(tmp_path, argv):
    # pytest records warnings in process, so only a child's stderr shows what reaches a user
    fc, truth = overflowing_fixture(tmp_path)
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "ensimp.cli", *argv, "--forecasts", fc, "--truth", truth,
         "--output", "-"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: cell ('alder', 2021-11-06/25/h1/2021-11-13) is not finite\n"


def test_overflowing_per_size_moments_stop_subset_variance(tmp_path, capsys):
    # the contributions near 1e200 are finite; their squared deviations are not
    fc, truth = overflowing_fixture(tmp_path)
    out = tmp_path / "sv.csv"
    assert main(["subset-variance", "--forecasts", fc, "--truth", truth, "--metric", "wis",
                 "--output", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: variance of model 'alder' at subset size 2 overflows float64\n")
    assert not out.exists()


def test_importance_pools_per_size_moments_without_warnings(tmp_path, capsys):
    # importance writes no per-size moment, so their overflow is not its error
    fc, truth = overflowing_fixture(tmp_path)
    out = tmp_path / "imp.csv"
    assert main(["importance", "--forecasts", fc, "--truth", truth, "--metric", "wis",
                 "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert len(read_rows(out)) == 3 * 5 + 22  # five summary rows a model, 22 cells


def write_huge_panel(tmp_path, scales, n_tasks):
    """Models named by their scale: quantiles 1, 1.5 and 2 times it at levels
    0.25, 0.5 and 0.75 on ``n_tasks`` tasks whose truth is 0. Every -WIS is
    finite, near -1.33 times the scale."""
    fc, truth = tmp_path / "huge-forecasts.csv", tmp_path / "huge-truth.csv"
    rows = ["model,forecast_date,location,horizon,target_end_date,quantile_level,value"]
    for j, scale in enumerate(scales):
        for t in range(n_tasks):
            rows += [f"m{j}-{scale!r},2021-11-08,{t + 1:02d},1,2021-11-13,{p},{v * scale!r}"
                     for p, v in ((0.25, 1.0), (0.5, 1.5), (0.75, 2.0))]
    fc.write_text("\n".join(rows) + "\n")
    truth.write_text("".join(["location,target_end_date,value\n"]
                             + [f"{t + 1:02d},2021-11-13,0\n" for t in range(n_tasks)]))
    return ["--forecasts", str(fc), "--truth", str(truth)]


@pytest.mark.parametrize("argv", [
    ["score"],
    ["importance", "--algorithm", "lomo"],
    ["importance"],
    ["subset-variance"],
])
def test_a_mean_over_tasks_that_overflows_names_the_model(tmp_path, capsys, argv):
    # 30 scores near -1.33e307 are finite; their sum is not
    data = write_huge_panel(tmp_path, (1e307, 2e307), 30)
    out = tmp_path / "out.csv"
    assert main([*argv, *data, "--output", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: mean of model 'm0-1e+307' over tasks overflows float64\n")
    assert not out.exists()


def test_a_mean_fill_that_overflows_names_the_task(tmp_path, capsys):
    # each model's two scores have a finite mean; the seven that fill the
    # gap m7 leaves on task 01 do not have a finite sum
    data = write_huge_panel(tmp_path, (2e307,) * 8, 2)
    fc = Path(data[1])
    lines = fc.read_text().splitlines(True)
    fc.write_text("".join(x for x in lines if not (x.startswith("m7-") and ",01," in x)))
    assert main(["score", *data, "--na", "mean", "--output", "-"]) == 1
    assert capsys.readouterr().err == (
        "error: mean fill of task 2021-11-08/01/h1/2021-11-13 overflows float64\n")


@pytest.mark.parametrize("na", ["mean", "worst"])
def test_a_gap_free_task_is_not_filled(tmp_path, capsys, na):
    # the eight scores of the one task have no finite sum, but no cell is
    # missing, so no fill is computed and the output is drop's
    data = write_huge_panel(tmp_path, (2e307,) * 8, 1)
    drop, out = tmp_path / "drop.csv", tmp_path / f"{na}.csv"
    assert main(["score", *data, "--na", "drop", "--output", str(drop)]) == 0
    assert main(["score", *data, "--na", na, "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_bytes() == drop.read_bytes()
