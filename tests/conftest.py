from __future__ import annotations

import importlib.util
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ensimp.dataio import TaskKey, TaskPool
from ensimp.ensembling import ForecastPool
from ensimp.scoring import Observation, PointForecast, QuantileForecast, QuantileLevels

FIXTURES = Path(__file__).parent / "fixtures"
ORACLES = Path(__file__).parent / "oracles"


def perfbench_inputs():
    """The benchmark's input generator, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def task_key(i: int = 0) -> TaskKey:
    base = date(2021, 11, 6)
    return TaskKey(base + timedelta(days=7 * i), "25", 1, base + timedelta(days=7 * i + 7))


def same_cells(a, b) -> bool:
    """Two panels hold the same cells: same ids, same presence, bit-equal values."""
    return (
        (a.models, a.tasks) == (b.models, b.tasks)
        and np.array_equal(a.present, b.present)
        and np.array_equal(a.values, b.values, equal_nan=True)
    )


def point_pool(values: dict[str, float], y: float, i: int = 0) -> TaskPool:
    pool = ForecastPool.from_dict({m: PointForecast(v) for m, v in values.items()})
    return TaskPool(task_key(i), pool, Observation(y))


def quantile_pool(
    forecasts: dict[str, tuple[float, ...]],
    levels: QuantileLevels,
    y: float,
    i: int = 0,
) -> TaskPool:
    pool = ForecastPool.from_dict(
        {m: QuantileForecast(levels, tuple(v)) for m, v in forecasts.items()}
    )
    return TaskPool(task_key(i), pool, Observation(y))


def random_quantile_pool(rng: np.random.Generator, n_models: int, n_levels: int = 7):
    levels = QuantileLevels(tuple(np.linspace(0.1, 0.9, n_levels)))
    forecasts = {
        f"m{chr(97 + j)}": tuple(
            np.sort(rng.normal(loc=rng.normal(scale=2.0), scale=0.5 + rng.random(), size=n_levels))
        )
        for j in range(n_models)
    }
    y = float(rng.normal())
    return quantile_pool(forecasts, levels, y), forecasts, levels, y


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
