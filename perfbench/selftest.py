"""Self-tests of the benchmark itself (not of ensimp).

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's own test collection.
"""

from __future__ import annotations

import csv
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from ensimp.cli import main as cli_main  # noqa: E402
from ensimp.scoring import CANONICAL_LEVELS  # noqa: E402

LEVELS = CANONICAL_LEVELS.levels
SMALL = replace(inputs.HUB_PANEL, n_models=5, n_locations=5, n_dates=2, n_horizons=2,
                incomplete_groups=2)


def _groups(path: Path) -> dict:
    groups: dict = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for model, fd, loc, h, end, level, value in reader:
            groups.setdefault((model, fd, loc, h, end), {})[float(level)] = float(value)
    return groups


def test_generator_is_deterministic_with_stated_shapes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    tally = inputs.write_panel(inputs.HUB_PANEL, LEVELS, 5, a / "f.csv", a / "t.csv")
    again = inputs.write_panel(inputs.HUB_PANEL, LEVELS, 5, b / "f.csv", b / "t.csv")
    assert tally == again
    assert inputs.describe(a / "f.csv")["sha256"] == inputs.describe(b / "f.csv")["sha256"]
    assert inputs.describe(a / "t.csv")["sha256"] == inputs.describe(b / "t.csv")["sha256"]
    inputs.write_panel(inputs.HUB_PANEL, LEVELS, 6, b / "f.csv", b / "t.csv")
    assert inputs.describe(a / "f.csv")["sha256"] != inputs.describe(b / "f.csv")["sha256"]

    cells = 10 * 1000
    assert tally["tasks"] == 1000
    assert 0.04 <= tally["missing_cells"] / cells <= 0.06
    assert 0.33 <= tally["tasks_with_gap"] / 1000 <= 0.47
    assert tally["truth_rows_dropped"] == 4 and tally["incomplete_groups"] == 20
    rows = inputs.describe(a / "f.csv")["rows"]
    assert rows == tally["groups"] * len(LEVELS) - tally["incomplete_groups"]
    assert 214_000 <= rows <= 224_000
    assert inputs.describe(a / "t.csv")["rows"] == 396

    groups = _groups(a / "f.csv")
    complete = [g for g in groups.values() if len(g) == len(LEVELS)]
    assert len(complete) == tally["groups"] - 20
    for body in complete:
        values = [body[p] for p in LEVELS]
        assert all(x <= y for x, y in zip(values, values[1:]))

    wide = inputs.write_panel(inputs.WIDE_POOL, LEVELS, 5, a / "wf.csv", a / "wt.csv")
    assert wide["groups"] == 80 and wide["missing_cells"] == 0
    assert inputs.describe(a / "wf.csv")["rows"] == 20 * 4 * len(LEVELS)


@pytest.fixture
def hub_outputs(tmp_path):
    f, t = tmp_path / "f.csv", tmp_path / "t.csv"
    inputs.write_panel(SMALL, LEVELS, 3, f, t)
    data = ["--forecasts", str(f), "--truth", str(t), "--na", "worst"]
    outputs = {
        "score": (["score"], tmp_path / "score.csv"),
        "importance": (["importance", "--workers", "2"], tmp_path / "imp.csv"),
        "importance_lomo": (["importance", "--algorithm", "lomo"], tmp_path / "lomo.csv"),
        "subset_variance": (["subset-variance"], tmp_path / "sv.csv"),
    }
    for argv, out in outputs.values():
        assert cli_main([argv[0], *data, *argv[1:], "--output", str(out)]) == 0
    panel = checks.Panel(f, t, LEVELS)
    return {k: out for k, (_, out) in outputs.items()}, panel


def _perturb(path: Path, match, column: str, rel: float = 1e-6) -> None:
    """Move the first matching row's ``column`` by ``rel`` of its size (at least ``rel``)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    row = next(r for r in rows if match(r))
    value = float(row[column])
    row[column] = repr(value + rel * max(1.0, abs(value)))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def test_checker_passes_real_outputs(hub_outputs):
    outputs, panel = hub_outputs
    problems = checks.check_hub_panel(outputs, panel, seed=1, sample=len(panel.tasks))
    assert problems == {k: [] for k in outputs}


@pytest.mark.parametrize("command,match,column", [
    ("importance", lambda r: r["metric"] == "phi_task", "value"),
    ("importance_lomo", lambda r: r["metric"] == "phi_task", "value"),
    ("score", lambda r: r["metric"] == "neg_wis_task", "value"),
    ("subset_variance", lambda r: r["subset_size"] == "mean_over_sizes", "mean"),
])
def test_checker_fails_on_one_perturbed_value(hub_outputs, command, match, column):
    outputs, panel = hub_outputs
    _perturb(outputs[command], match, column)
    problems = checks.check_hub_panel(outputs, panel, seed=1, sample=len(panel.tasks))
    assert problems[command], f"perturbed {command} output passed"


def test_failed_ops_count_a_nonzero_exit(tmp_path):
    env = run.child_env()
    missing = run.Command("importance", "importance",
                          ("importance", "--forecasts", str(tmp_path / "none.csv"),
                           "--truth", str(tmp_path / "none.csv")))
    fine = run.Command("decompose_check", "decompose_check",
                       ("decompose-check", "--instances", "10"), writes_file=False)
    rounds = [[run.execute(missing, tmp_path, env, 60), run.execute(fine, tmp_path, env, 60)]]
    assert rounds[0][0].result.returncode != 0
    assert run.tally(rounds, [], {}) == (2, 1)
    # a failed output check fails the command's operations as well
    assert run.tally(rounds, [], {"decompose_check": ["bad"]}) == (2, 2)


def test_worker_span_takes_the_open_main_span_as_parent():
    tr = tracer.Tracer("cmd")
    inner = tr.wrap(threading.get_ident, "layer.inner", "layer")

    def outer():
        with ThreadPoolExecutor(max_workers=2) as ex:
            return [f.result() for f in [ex.submit(inner) for _ in range(4)]]

    tr.wrap(outer, "layer.outer", "cli")()
    by_name = {}
    for span in tr.spans:
        by_name.setdefault(span[1], []).append(span)
    (root,) = by_name["layer.outer"]
    assert len(by_name["layer.inner"]) == 4
    assert all(s[5] == root[0] and s[6] != root[6] for s in by_name["layer.inner"])
    summary = tracer.summarize(tr.spans)
    # worker spans run on other threads, so they do not reduce the root's self time
    assert summary["layer.outer.self_s"] == summary["layer.outer.s"] == root[4] - root[3]
    assert summary["layer.inner.calls"] == 4


def test_paper_sim_checks_catch_a_moved_curve(tmp_path):
    outputs = {}
    for scenario in ("a-point", "a-prob", "b"):
        out = tmp_path / f"{scenario}.csv"
        assert cli_main(["simulate", "--scenario", scenario, "--replicates", "1000",
                         "--output", str(out)]) == 0
        outputs[f"simulate_{scenario.replace('-', '_')}"] = out
    outputs["decompose_check"] = tmp_path / "decompose.stdout"
    outputs["decompose_check"].write_text("PASS\n", encoding="utf-8")
    assert checks.check_paper_sim(outputs) == {k: [] for k in outputs}

    # the a-point band is four Monte-Carlo standard errors wide, so move a
    # whole unit
    _perturb(outputs["simulate_a_point"], lambda r: r["forecaster"] == "forecaster_3",
             "mean_importance", rel=1.0)
    outputs["decompose_check"].write_text("FAIL: residual above 1e-9\n", encoding="utf-8")
    problems = checks.check_paper_sim(outputs)
    assert problems["simulate_a_point"] and problems["decompose_check"]
