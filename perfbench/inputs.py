"""Seeded synthetic hub inputs for the benchmark workloads.

Every file is a pure function of the seed: the same seed gives the same
bytes. The program under test only ever sees the CSVs written here.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

FORECAST_HEADER = "model,forecast_date,location,horizon,target_end_date,quantile_level,value"
TRUTH_HEADER = "location,target_end_date,value"


@dataclass(frozen=True)
class PanelShape:
    n_models: int
    n_locations: int
    n_dates: int
    n_horizons: int
    missing_cell_rate: float
    missing_truth_rate: float
    incomplete_groups: int

    @property
    def n_tasks(self) -> int:
        return self.n_locations * self.n_dates * self.n_horizons


# hub-panel: 10 models x 1000 tasks (50 locations x 5 forecast dates x 4
# horizons). With 5% of (model, task) cells missing, 1 - 0.95**10 = 40% of
# tasks have a gap, so pools split across many signatures.
HUB_PANEL = PanelShape(10, 50, 5, 4, 0.05, 0.01, 20)
# wide-pool: the exact-enumeration cap of 20 models on 4 gap-free tasks.
WIDE_POOL = PanelShape(20, 2, 1, 2, 0.0, 0.0, 0)

FIRST_FORECAST_DATE = date(2021, 11, 1)


def z_scores(levels) -> np.ndarray:
    nd = statistics.NormalDist()
    return np.asarray([nd.inv_cdf(p) for p in levels], dtype=np.float64)


def _tasks(shape: PanelShape):
    """(forecast_date, location, horizon, target_end_date) in canonical order."""
    out = []
    for d in range(shape.n_dates):
        fd = FIRST_FORECAST_DATE + timedelta(days=7 * d)
        for loc in range(shape.n_locations):
            for h in range(1, shape.n_horizons + 1):
                # Saturday ending the h-th week after a Monday forecast date
                out.append((fd, f"{loc + 1:02d}", h, fd + timedelta(days=7 * h - 2)))
    return out


def write_panel(shape: PanelShape, levels, seed: int, forecasts: Path, truth: Path) -> dict:
    """Write a forecast and a truth CSV; return the generator's own tallies."""
    rng = np.random.default_rng([seed, shape.n_models, shape.n_tasks])
    z = z_scores(levels)
    tasks = _tasks(shape)
    truth_keys = sorted({(loc, end) for _, loc, _, end in tasks})
    loc_scale = {f"{i + 1:02d}": float(np.exp(rng.uniform(3.0, 7.0)))
                 for i in range(shape.n_locations)}
    truth_vals = {
        key: round(loc_scale[key[0]] * float(np.exp(rng.normal(0.0, 0.2))), 1)
        for key in truth_keys
    }
    n_drop_truth = int(round(shape.missing_truth_rate * len(truth_keys)))
    dropped = rng.choice(len(truth_keys), n_drop_truth, replace=False)
    dropped_truth = {truth_keys[i] for i in dropped}

    models = [f"model{j:02d}" for j in range(shape.n_models)]
    bias = rng.normal(0.0, 0.15, size=shape.n_models)
    spread = rng.uniform(0.6, 1.6, size=shape.n_models)
    present = rng.random((shape.n_models, len(tasks))) >= shape.missing_cell_rate
    cells = np.flatnonzero(present.ravel())
    incomplete = {}
    for c in rng.choice(cells, shape.incomplete_groups, replace=False):
        incomplete[int(c)] = int(rng.integers(len(levels)))

    level_text = [format(p, "g") for p in levels]
    lines = [FORECAST_HEADER]
    groups = 0
    for j, model in enumerate(models):
        noise = rng.normal(0.0, 0.15, size=len(tasks))
        for t, (fd, loc, h, end) in enumerate(tasks):
            if not present[j, t]:
                continue
            groups += 1
            y = truth_vals[(loc, end)]
            center = y * float(np.exp(bias[j] + noise[t]))
            sd = center * 0.2 * spread[j] * np.sqrt(h)
            q = np.maximum(center + sd * z, 0.0)
            skip = incomplete.get(j * len(tasks) + t)
            prefix = f"{model},{fd.isoformat()},{loc},{h},{end.isoformat()},"
            for k, value in enumerate(q):
                if k != skip:
                    lines.append(f"{prefix}{level_text[k]},{value:.3f}")
    forecasts.write_text("\n".join(lines) + "\n", encoding="utf-8")

    truth_lines = [TRUTH_HEADER]
    for loc, end in truth_keys:
        if (loc, end) not in dropped_truth:
            truth_lines.append(f"{loc},{end.isoformat()},{truth_vals[(loc, end)]:.1f}")
    truth.write_text("\n".join(truth_lines) + "\n", encoding="utf-8")
    return {
        "tasks": len(tasks),
        "groups": groups,
        "missing_cells": int((~present).sum()),
        "tasks_with_gap": int((~present).any(axis=0).sum()),
        "incomplete_groups": len(incomplete),
        "truth_rows_dropped": n_drop_truth,
    }


def describe(path: Path) -> dict:
    """sha256 and data-row count of a generated file."""
    data = path.read_bytes()
    return {
        "path": path.name,
        "sha256": hashlib.sha256(data).hexdigest(),
        "rows": data.count(b"\n") - 1,
    }
