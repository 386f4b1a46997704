"""The benchmark's tracer still finds every layer boundary it wraps.

The tracer wraps a fixed list of public functions by name; a refactor that
drops or reshapes one of them crashes every traced benchmark run, so one
traced command runs here end to end. Its counts also pin how much work the
LASOMO kernel does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import FIXTURES

from ensimp.dataio import build_task_pools, read_forecasts, read_truth

ROOT = Path(__file__).resolve().parent.parent


def test_traced_importance_run(tmp_path):
    spans_path, out = tmp_path / "spans.json", tmp_path / "o.csv"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans_path), "t", "--",
         "importance", "--forecasts", str(FIXTURES / "forecasts.csv"),
         "--truth", str(FIXTURES / "truth.csv"), "--output", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans_path.read_text())
    spans = [dict(zip(doc["fields"], span)) for span in doc["spans"]]
    counts = {span["name"]: span["counts"] for span in spans}
    assert counts["dataio.read_forecasts"]["records"] == 22
    assert counts["dataio.write_results"]["bytes"] > 0

    (kernel,) = [s["id"] for s in spans if s["name"] == "importance.compute_importance"]
    rows = sum(
        s["counts"]["rows"] for s in spans
        if s["name"] == "scoring.wis_batch" and s["parent"] == kernel
    )
    forecasts, _ = read_forecasts(str(FIXTURES / "forecasts.csv"))
    tasks, _ = build_task_pools(forecasts, read_truth(str(FIXTURES / "truth.csv")))
    # Batches partition the tasks, so the sum over batches of (2^n - 1) * T
    # is a sum over tasks: every subset but the empty one, once per level.
    pool_sizes = tasks.forecasts.present.sum(axis=0).tolist()
    levels = len(tasks.forecasts.levels)
    assert rows == levels * sum((1 << n) - 1 for n in pool_sizes) == 1104

