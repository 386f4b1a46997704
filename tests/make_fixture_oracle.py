"""Record the importance-table outputs for the bundled fixture.

Every number is computed here with bruteforce.py (explicit coalition
enumeration, plain Python arithmetic), not with the package's importance
engine; only CSV parsing and the result writer are shared plumbing. The
recorded files are what `ensimp importance` must reproduce byte for byte
under each NA policy.

Run: python3 tests/make_fixture_oracle.py
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import bruteforce as bf

from ensimp.dataio import read_forecasts, read_truth, write_results

FIXTURES = Path(__file__).parent / "fixtures"
ORACLES = Path(__file__).parent / "oracles"

POLICIES = ("drop", "worst", "mean")


def load():
    forecasts, _ = read_forecasts(str(FIXTURES / "forecasts.csv"))
    truth = read_truth(str(FIXTURES / "truth.csv"))
    levels = forecasts.levels.levels
    tasks = list(forecasts.tasks)
    by_task = {}
    for i, model in enumerate(forecasts.models):
        for j, task in enumerate(tasks):
            if forecasts.present[i, j]:
                by_task.setdefault(task, {})[model] = forecasts.values[i, j].tolist()
    truth_of = {t: truth[(t.location, t.target_end_date)].value for t in tasks}
    models = list(forecasts.models)
    return models, tasks, by_task, truth_of, levels


def fill_and_average(models, tasks, cells, policy):
    """Per-model mean after resolving missing cells per task column."""
    filled = {}
    for t in tasks:
        present = [cells[(m, t)] for m in models if (m, t) in cells]
        if not present:
            continue
        if policy == "worst":
            fill = min(present)
        elif policy == "mean":
            fill = math.fsum(present) / len(present)
        else:
            fill = None
        for m in models:
            if (m, t) in cells:
                filled[(m, t)] = cells[(m, t)]
            elif fill is not None:
                filled[(m, t)] = fill
    means = {}
    for m in models:
        vals = [filled[(m, t)] for t in tasks if (m, t) in filled]
        if vals:
            means[m] = math.fsum(vals) / len(vals)
    return means


def ranks(values):
    order = sorted(values, key=lambda m: (-values[m], m))
    return {m: i + 1 for i, m in enumerate(order)}


def main() -> None:
    ORACLES.mkdir(exist_ok=True)
    models, tasks, by_task, truth_of, levels = load()
    n_tasks = len(tasks)

    wis_cells = {}
    lasomo_cells = {}
    lomo_cells = {}
    for t in tasks:
        forecasts = by_task[t]
        y = truth_of[t]
        score_of = lambda sub: bf.neg_wis_score(forecasts, sub, levels, y)
        members = sorted(forecasts)
        for m in members:
            wis_cells[(m, t)] = -bf.wis(levels, forecasts[m], y)
            lasomo_cells[(m, t)] = bf.lasomo(score_of, members, m)
            lomo_cells[(m, t)] = bf.lomo(score_of, members, m)
    counts = {m: sum(1 for t in tasks if (m, t) in wis_cells) for m in models}

    for policy in POLICIES:
        neg_wis = fill_and_average(models, tasks, wis_cells, policy)
        phi_lasomo = fill_and_average(models, tasks, lasomo_cells, policy)
        phi_lomo = fill_and_average(models, tasks, lomo_cells, policy)
        wis_rank = ranks(neg_wis)
        phi_rank = ranks(phi_lasomo)

        rows = []
        for m in models:
            named = {
                "neg_wis": neg_wis[m],
                "neg_wis_rank": wis_rank[m],
                "phi_lasomo": phi_lasomo[m],
                "phi_lomo": phi_lomo[m],
                "phi_rank": phi_rank[m],
            }
            for name in sorted(named):
                rows.append(
                    {
                        "model": m,
                        "metric": name,
                        "value": named[name],
                        "n_predictions": counts[m],
                        "pct_submitted": 100.0 * counts[m] / n_tasks,
                    }
                )
        for m in models:
            for t in tasks:
                if (m, t) not in lasomo_cells:
                    continue
                rows.append(
                    {
                        "model": m,
                        "metric": "phi_task",
                        "forecast_date": t.forecast_date,
                        "location": t.location,
                        "horizon": t.horizon,
                        "target_end_date": t.target_end_date,
                        "value": lasomo_cells[(m, t)],
                    }
                )
        write_results(rows, str(ORACLES / f"importance_{policy}.csv"), "csv")
        print(f"wrote oracles/importance_{policy}.csv ({len(rows)} rows)")


if __name__ == "__main__":
    main()
