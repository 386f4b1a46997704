"""Output checks, run outside the timed region.

Each check returns, per command, the list of problems it found; an empty
list means the command's output passed. Every comparison uses a tolerance,
not a digest, so a change that only reorders floating-point sums does not
read as a failure.
"""

from __future__ import annotations

import csv
import math
import random
from pathlib import Path

import numpy as np

import reference as ref

# A task as its four output fields: forecast_date, location, horizon, target_end_date.
TaskKey = tuple[str, str, str, str]


class Panel:
    """The benchmark's own reading of a generated forecast and truth CSV.

    A (model, task) group whose level set is not the full declared set is
    left out, and so is a task without truth or with fewer than two models,
    as the hub format requires.
    """

    def __init__(self, forecasts: Path, truth: Path, levels):
        self.levels = np.asarray(levels, dtype=np.float64)
        level_index = {format(p, "g"): k for k, p in enumerate(levels)}
        groups: dict[TaskKey, dict[str, dict[int, float]]] = {}
        with open(forecasts, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            for model, fd, loc, h, end, level, value in reader:
                body = groups.setdefault((fd, loc, h, end), {}).setdefault(model, {})
                body[level_index[level]] = float(value)
        with open(truth, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            truth_of = {(loc, end): float(v) for loc, end, v in reader}
        self.tasks: dict[TaskKey, tuple[list[str], np.ndarray, float]] = {}
        for task in sorted(groups):
            y = truth_of.get((task[1], task[3]))
            full = {m: b for m, b in groups[task].items() if len(b) == len(levels)}
            if y is None or len(full) < 2:
                continue
            models = sorted(full)
            values = np.array([[full[m][k] for k in range(len(levels))] for m in models])
            self.tasks[task] = (models, values, y)


def read_csv(path: Path) -> list[dict]:
    """Rows of a CSV output as dicts, skipping ``#`` note lines."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def per_task(rows: list[dict], metric: str) -> dict[TaskKey, dict[str, float]]:
    out: dict[TaskKey, dict[str, float]] = {}
    for row in rows:
        if row["metric"] == metric:
            task = (row["forecast_date"], row["location"], row["horizon"], row["target_end_date"])
            out.setdefault(task, {})[row["model"]] = float(row["value"])
    return out


def summary(rows: list[dict], metric: str) -> dict[str, float]:
    return {r["model"]: float(r["value"]) for r in rows
            if r["metric"] == metric and not r["forecast_date"]}


def _compare_cells(name, got_cells, want_cells, scale, problems):
    if set(got_cells) != set(want_cells):
        problems.append(f"{name}: models {sorted(got_cells)} != reference {sorted(want_cells)}")
        return
    for model, want in want_cells.items():
        if not ref.close(got_cells[model], want, scale):
            problems.append(f"{name} {model}: {got_cells[model]!r} != reference {want!r}")


def _compare_summaries(name, got, want, problems):
    if set(got) != set(want):
        problems.append(f"{name}: models {sorted(got)} != {sorted(want)}")
        return
    for model in want:
        if not ref.close(got[model], want[model], abs(want[model])):
            problems.append(f"{name} {model}: {got[model]!r} != {want[model]!r}")


def check_hub_panel(outputs: dict[str, Path], panel: Panel, seed: int,
                    sample: int = 40) -> dict[str, list[str]]:
    """Sampled cells of score, LASOMO and LOMO against brute force, plus identities."""
    problems = {cmd: [] for cmd in outputs}
    rows = {cmd: read_csv(path) for cmd, path in outputs.items()
            if cmd != "subset_variance"}
    scored = per_task(rows["score"], "neg_wis_task")
    lasomo = per_task(rows["importance"], "phi_task")
    lomo = per_task(rows["importance_lomo"], "phi_task")
    tasks = sorted(panel.tasks)
    for task in random.Random(seed).sample(tasks, min(sample, len(tasks))):
        models, values, y = panel.tasks[task]
        table = ref.coalition_scores(values, panel.levels, y)
        scale = float(np.nanmax(np.abs(table)))
        own = ref.neg_wis(values, panel.levels, y)
        _compare_cells(f"neg_wis_task {task}", scored.get(task, {}),
                       dict(zip(models, own.tolist())), scale, problems["score"])
        _compare_cells(f"phi_task lasomo {task}", lasomo.get(task, {}),
                       {m: ref.lasomo(table, i) for i, m in enumerate(models)},
                       scale, problems["importance"])
        _compare_cells(f"phi_task lomo {task}", lomo.get(task, {}),
                       {m: ref.lomo(values, panel.levels, y, i) for i, m in enumerate(models)},
                       scale, problems["importance_lomo"])
    _compare_summaries("phi_lomo summary vs the lomo command",
                       summary(rows["importance"], "phi_lomo"),
                       summary(rows["importance_lomo"], "phi_lomo"), problems["importance"])

    variance = read_csv(outputs["subset_variance"])
    mean_over_sizes = {r["model"]: float(r["mean"]) for r in variance
                       if r["subset_size"] == "mean_over_sizes"}
    lasomo_row = {r["model"]: float(r["mean"]) for r in variance if r["subset_size"] == "lasomo"}
    # The paper's identity: under permutation weights the unweighted mean of
    # the per-size means is the LASOMO value.
    _compare_summaries("mean_over_sizes vs lasomo", mean_over_sizes, lasomo_row,
                       problems["subset_variance"])
    _compare_summaries("subset-variance lasomo vs importance phi_lasomo", lasomo_row,
                       summary(rows["importance"], "phi_lasomo"), problems["subset_variance"])
    return problems


def check_wide_pool(outputs: dict[str, Path], panel: Panel, seed: int) -> dict[str, list[str]]:
    """phi_lomo rows and every LASOMO cell of one seeded task against brute force."""
    problems: list[str] = []
    rows = read_csv(outputs["importance"])
    lomo_cells: dict[str, list[float]] = {}
    for models, values, y in panel.tasks.values():
        for i, m in enumerate(models):
            lomo_cells.setdefault(m, []).append(ref.lomo(values, panel.levels, y, i))
    _compare_summaries("phi_lomo", summary(rows, "phi_lomo"),
                       {m: math.fsum(v) / len(v) for m, v in lomo_cells.items()}, problems)
    lasomo = per_task(rows, "phi_task")
    task = random.Random(seed).choice(sorted(panel.tasks))
    models, values, y = panel.tasks[task]
    table = ref.coalition_scores(values, panel.levels, y)
    _compare_cells(f"phi_task lasomo {task}", lasomo.get(task, {}),
                   {m: ref.lasomo(table, i) for i, m in enumerate(models)},
                   float(np.nanmax(np.abs(table))), problems)
    return {"importance": problems}


def _sweep(path: Path) -> tuple[np.ndarray, np.ndarray, int]:
    """Grid values, (forecasters, grid) mean importance and replicate count."""
    rows = read_csv(path)
    grid = sorted({float(r["grid_value"]) for r in rows})
    n_f = len({r["forecaster"] for r in rows})
    means = np.full((n_f, len(grid)), np.nan)
    col = {g: k for k, g in enumerate(grid)}
    for r in rows:
        f = int(r["forecaster"].rpartition("_")[2]) - 1
        means[f, col[float(r["grid_value"])]] = float(r["mean_importance"])
    return np.asarray(grid), means, int(rows[0]["replicates"])


def check_paper_sim(outputs: dict[str, Path]) -> dict[str, list[str]]:
    """Closed form for a-point, leader bands for a-prob and b, PASS for decompose-check."""
    from ensimp.decomposition import GaussianErrorModel, expected_phi

    problems = {cmd: [] for cmd in outputs}
    grid, means, reps = _sweep(outputs["simulate_a_point"])
    for g, b in enumerate(grid):
        forecasts = (-1.0, -0.5, float(b))
        full = sum(forecasts) / 3
        for i in range(3):
            loo = (sum(forecasts) - forecasts[i]) / 2
            # phi_i(y) = 2 y (full - loo) + loo^2 - full^2 is linear in a
            # standard normal y, so its per-replicate sd is 2 |full - loo|.
            band = 4.0 * 2.0 * abs(full - loo) / math.sqrt(reps) + 1e-9
            want = expected_phi(GaussianErrorModel(forecasts, 1.0), i)
            if not abs(means[i, g] - want) < band:
                problems["simulate_a_point"].append(
                    f"b={b:.2f} forecaster {i + 1}: {means[i, g]!r} vs {want!r} (band {band:.1e})")

    # Leader bands of the paper's figures, as acceptance criteria 7 and 8 state them.
    found = problems["simulate_a_prob"]
    grid, means, _ = _sweep(outputs["simulate_a_prob"])
    top = np.argmax(means, axis=0)
    if not np.all(top[grid >= 2.05 - 1e-9] == 0):
        found.append("forecaster 1 does not lead for b > 2")
    at_two = np.isclose(grid, 2.0, atol=1e-9)
    if not np.all(means[0, at_two] >= means[:, at_two].max(axis=0) - 1e-3):
        found.append("forecaster 1 is not tied for the lead at b = 2")
    if not np.all(top[(grid >= 0.25 - 1e-9) & (grid <= 1.75 + 1e-9)] == 2):
        found.append("forecaster 3 does not lead on b in [0.25, 1.75]")

    found = problems["simulate_b"]
    grid, means, _ = _sweep(outputs["simulate_b"])
    top = np.argmax(means, axis=0)
    if not np.all(top[(grid >= 0.75 - 1e-9) & (grid <= 2.25 + 1e-9)] == 2):
        found.append("forecaster 3 does not lead on s in [0.75, 2.25]")
    if not np.all(top[grid >= 2.55 - 1e-9] == 0):
        found.append("forecaster 1 does not lead for s >= 2.55")

    lines = outputs["decompose_check"].read_text(encoding="utf-8").splitlines()
    if not lines or lines[-1] != "PASS":
        problems["decompose_check"].append(f"no PASS line, last line {lines[-1:]}")
    return problems
