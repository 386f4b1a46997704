"""Seeded Monte-Carlo sweeps of component bias and dispersion.

Three scenarios share one engine: three forecasters predict a standard
normal truth, the third forecaster's bias (``b``) or dispersion (``s``) is
swept over a grid, and the leave-one-model-out importance of each forecaster
is averaged over seeded replicates at every grid value. One stratified truth
sample is drawn per sweep and shared by every grid value.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import partial
from statistics import NormalDist

import numpy as np

from .dataio import write_results
from .importance import lomo_kernel
from .scoring import (
    CANONICAL_LEVELS,
    PointForecast,
    QuantileForecast,
    QuantileLevels,
    ValidationError,
)

__all__ = [
    "MAX_GRID_POINTS",
    "SWEEP_HEADER",
    "Grid",
    "NormalSpec",
    "Scenario",
    "SimulationSpec",
    "SweepResult",
    "normal_quantile",
    "normal_quantile_forecast",
    "run_sweep",
    "setting_a_point",
    "setting_a_prob",
    "setting_b_dispersion",
    "write_sweep_csv",
]

# Over 1000 times the 81-point default grids; checked before any allocation.
MAX_GRID_POINTS = 100_000

SWEEP_HEADER = ("scenario", "grid_value", "forecaster", "mean_importance", "replicates", "seed")


def normal_quantile(p):
    """Inverse standard-normal CDF for ``p`` in the open interval (0, 1).

    Accepts a scalar or array: a scalar (or 0-d array) gives a float, and an
    array keeps its shape. Each value is the standard library's
    ``statistics.NormalDist().inv_cdf``, Wichura's algorithm AS241 (1988),
    accurate to about 1e-16 relative; it gives ``q(0.5) == 0``, and
    ``q(1 - p) == -q(p)`` wherever 1 - p is exact.
    """
    arr = np.asarray(p, dtype=np.float64)
    if arr.size and not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValidationError("probabilities must lie strictly inside (0, 1)")
    x = np.fromiter(map(NormalDist().inv_cdf, arr.ravel().tolist()),
                    dtype=np.float64, count=arr.size).reshape(arr.shape)
    return float(x) if x.ndim == 0 else x


@dataclass(frozen=True)
class NormalSpec:
    """A normal predictive distribution N(mean, sd^2)."""

    mean: float
    sd: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean) and math.isfinite(self.sd) and self.sd > 0):
            raise ValidationError(f"need finite mean and sd > 0, got N({self.mean}, {self.sd}^2)")


def normal_quantile_forecast(spec: NormalSpec, levels: QuantileLevels) -> QuantileForecast:
    """Quantiles of N(mean, sd^2) at the given levels (monotone by construction)."""
    with np.errstate(over="ignore", invalid="ignore"):  # QuantileForecast names a non-finite one
        values = spec.mean + spec.sd * normal_quantile(levels.as_array())
    return QuantileForecast(levels, tuple(values))


class Scenario(Enum):
    A_POINT = "a_point"
    A_PROB = "a_prob"
    B_DISPERSION = "b_dispersion"


@dataclass(frozen=True)
class Grid:
    """An inclusive arithmetic grid start, start+step, ..., end."""

    start: float
    end: float
    step: float

    def __post_init__(self) -> None:
        for name, value in (("start", self.start), ("end", self.end)):
            if not math.isfinite(value):
                raise ValidationError(f"grid {name} must be finite, got {value}")
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValidationError(f"grid step must be positive, got {self.step}")
        if self.end < self.start:
            raise ValidationError("grid end precedes start")
        # Also catches a quotient that overflows to inf (or is NaN), which
        # __len__ could not floor.
        if not self._steps() < MAX_GRID_POINTS:
            raise ValidationError(
                f"grid step {self.step} over [{self.start}, {self.end}] gives more than "
                f"{MAX_GRID_POINTS} points"
            )

    def _steps(self) -> float:
        # Whole steps that fit, with slack for the rounding of the quotient,
        # so no value passes end by more than rounding.
        return (self.end - self.start) / self.step + 1e-9

    def __len__(self) -> int:
        return math.floor(self._steps()) + 1

    def values(self) -> np.ndarray:
        # The double nearest each decimal start + k * step, start and step read
        # as their shortest repr, so a value has the same bits on every grid.
        start, step = (Fraction(repr(float(x))) for x in (self.start, self.step))
        return np.array([float(start + step * k) for k in range(len(self))])


@dataclass(frozen=True)
class SimulationSpec:
    """A parameterized sweep scenario.

    ``fixed_components`` holds the non-swept forecasters; the swept
    forecaster (point value b, N(b, 1), or N(0, s^2) depending on scenario)
    is appended after them, so in the default settings it is forecaster 3.
    """

    scenario: Scenario
    fixed_components: tuple
    sweep: Grid
    replicates: int = 1000
    seed: int = 42

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ValidationError(f"replicates must be >= 1, got {self.replicates}")
        if not 0 <= self.seed < 2**64:  # one 64-bit word: the Philox stream keyed (seed, 0)
            raise ValidationError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.scenario is Scenario.B_DISPERSION and self.sweep.start <= 0:
            raise ValidationError(f"grid start must be > 0 for scenario {self.scenario.value} "
                                  f"(the swept sd), got {self.sweep.start}")
        want_point = self.scenario is Scenario.A_POINT
        for comp in self.fixed_components:
            if want_point and not isinstance(comp, PointForecast):
                raise ValidationError("a_point scenario takes PointForecast components")
            if not want_point and not isinstance(comp, NormalSpec):
                raise ValidationError("probabilistic scenarios take NormalSpec components")


def setting_a_point() -> SimulationSpec:
    """Point forecasts -1 and -0.5 plus a swept bias b in [-1, 3]."""
    return SimulationSpec(
        scenario=Scenario.A_POINT,
        fixed_components=(PointForecast(-1.0), PointForecast(-0.5)),
        sweep=Grid(-1.0, 3.0, 0.05),
    )


def setting_a_prob() -> SimulationSpec:
    """N(-1,1) and N(-0.5,1) plus a swept N(b,1), b in [-1, 3]."""
    return SimulationSpec(
        scenario=Scenario.A_PROB,
        fixed_components=(NormalSpec(-1.0, 1.0), NormalSpec(-0.5, 1.0)),
        sweep=Grid(-1.0, 3.0, 0.05),
    )


def setting_b_dispersion() -> SimulationSpec:
    """N(0,0.5^2) and N(0,0.7^2) plus a swept N(0,s^2), s in [0.1, 3]."""
    return SimulationSpec(
        scenario=Scenario.B_DISPERSION,
        fixed_components=(NormalSpec(0.0, 0.5), NormalSpec(0.0, 0.7)),
        sweep=Grid(0.1, 3.0, 0.05),
    )


@dataclass(frozen=True)
class SweepResult:
    """Per-forecaster mean importance at each grid value, and its Monte-Carlo error."""

    scenario: Scenario
    grid_values: np.ndarray
    mean_importance: np.ndarray  # (n_forecasters, n_grid)
    collapsed_ss: np.ndarray  # see standard_errors
    replicates: int
    seed: int

    def standard_errors(self) -> np.ndarray:
        """Collapsed-strata standard error of ``mean_importance``, NaN at R = 1.

        The truth draws are stratified, so the iid std / sqrt(R) would
        overstate it; see Cochran, *Sampling Techniques* (1977), 5A.12.
        """
        return np.sqrt(self.collapsed_ss) / self.replicates


def _collapsed_ss(phi: np.ndarray) -> np.ndarray:
    """R^2 SE^2: sum over groups of k / (k - 1) sum (phi_i - group mean)^2.

    The groups collapse adjacent strata along the last (replicate) axis into
    pairs, the last three into a triple when R is odd.
    """
    r = phi.shape[-1]
    paired = r - 3 if r % 2 else r
    diff = phi[..., 0:paired:2] - phi[..., 1:paired:2]  # a pair's term is diff^2
    ss = (diff * diff).sum(axis=-1)
    if r % 2:  # a triple's term is 3/2 * 3 var; one replicate has no estimate
        ss += 4.5 * phi[..., -3:].var(axis=-1) if r > 1 else np.nan
    return ss


def truth_draws(seed: int, replicates: int) -> np.ndarray:
    """Standard-normal truth values for one sweep from a counter-based keyed stream.

    The Philox stream is keyed by the seed and the replicate index is its
    counter position. Replicate r's uniform is placed in the r-th of
    ``replicates`` equal-width strata, which leaves every draw marginally
    standard normal while sharply reducing the Monte-Carlo error of
    replicate averages. The strata ascend with the replicate index, so the
    sample is non-decreasing: the simulation's WIS calls score each ensemble
    against it with one binary search per level (see
    :func:`~ensimp.scoring.wis_batch`).
    """
    from numpy.random import Generator, Philox  # loaded only by the commands that draw

    gen = Generator(Philox(key=seed))
    mantissa = gen.integers(0, 1 << 53, size=replicates)
    v = (mantissa + 0.5) * 2.0**-53
    u = (np.arange(replicates) + v) / replicates
    return normal_quantile(u)


def _swept_component(spec: SimulationSpec, value: float):
    if spec.scenario is Scenario.A_POINT:
        return PointForecast(float(value))
    if spec.scenario is Scenario.A_PROB:
        return NormalSpec(float(value), 1.0)
    return NormalSpec(0.0, float(value))


def _grid_point(spec: SimulationSpec, z: np.ndarray, y: np.ndarray, value: float):
    """Mean and collapsed-strata sum of squares of per-replicate LOMO against truths ``y``.

    ``z`` holds the standard-normal quantiles at the canonical levels.
    """
    components = list(spec.fixed_components) + [_swept_component(spec, value)]
    # in the worker thread, which does not inherit it; run_sweep names a non-finite mean
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.scenario is Scenario.A_POINT:
            values, levels = np.asarray([[c.value] for c in components], dtype=np.float64), None
        else:
            values, levels = np.stack([[c.mean + c.sd * z] for c in components]), CANONICAL_LEVELS
        phi = lomo_kernel(values, levels, y)
        return phi.mean(axis=1), _collapsed_ss(phi)


def run_sweep(spec: SimulationSpec, n_workers: int | None = None) -> SweepResult:
    """Evaluate the sweep at every grid value.

    One truth sample is drawn here and every grid value is scored against
    it (common random numbers), so much of the sampling noise cancels
    between neighbouring grid values, and a cell does not depend on the
    grid around it. Grid values run on ``n_workers`` threads (None means
    one worker thread) that share the read-only sample; results are
    assembled in grid order and are invariant to ``n_workers``.
    """
    values = spec.sweep.values()
    y = truth_draws(spec.seed, replicates=spec.replicates)  # by name: the tracer reads it
    y.flags.writeable = False
    z = normal_quantile(CANONICAL_LEVELS.as_array())
    with ThreadPoolExecutor(max_workers=n_workers or 1) as ex:
        results = list(ex.map(partial(_grid_point, spec, z, y), values.tolist()))

    means, collapsed_ss = (np.stack(column, axis=1) for column in zip(*results))
    # The first in CSV order; collapsed_ss is NaN at R = 1 by design, so only means count.
    bad = np.argwhere(~np.isfinite(means.T))
    if len(bad):
        g, i = bad[0]
        raise ValidationError(f"mean importance ({spec.scenario.value}, grid value "
                              f"{float(values[g])!r}, forecaster_{i + 1}) is not finite")
    return SweepResult(
        scenario=spec.scenario,
        grid_values=values,
        mean_importance=means,
        collapsed_ss=collapsed_ss,
        replicates=spec.replicates,
        seed=spec.seed,
    )


def write_sweep_csv(result: SweepResult, output: str) -> None:
    """Write one CSV row per (grid value, forecaster), in that order, to a path or ``-``."""
    rows = (
        {
            "scenario": result.scenario.value,
            "grid_value": float(val),
            "forecaster": f"forecaster_{i + 1}",
            "mean_importance": float(result.mean_importance[i, g]),
            "replicates": result.replicates,
            "seed": result.seed,
        }
        for g, val in enumerate(result.grid_values)
        for i in range(result.mean_importance.shape[0])
    )
    write_results(rows, output, header=SWEEP_HEADER)
