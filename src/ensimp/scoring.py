"""Proper scoring rules for point and quantile forecasts.

Raw WIS and SPE are error measures (lower is better). Everything downstream
of this module works with positively oriented scores (larger is better), so
the orientation flip happens exactly once, in the array scorer
:func:`positive_scores`. The score panel, the importance kernels and the
object API's :func:`positive_score`, which scores one forecast and returns a
plain float, all go through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "CANONICAL_LEVELS",
    "Metric",
    "Observation",
    "PointForecast",
    "QuantileForecast",
    "QuantileLevels",
    "ValidationError",
    "positive_score",
    "positive_scores",
    "scored_values",
    "spe",
    "wis",
    "wis_batch",
]


class ValidationError(ValueError):
    """Raised when an input violates a documented invariant."""


def _require_finite(value: float, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"{what} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class QuantileLevels:
    """Strictly increasing quantile levels, each in the open interval (0, 1)."""

    levels: tuple[float, ...]

    def __post_init__(self) -> None:
        levels = tuple(float(p) for p in self.levels)
        if not levels:
            raise ValidationError("quantile level set must be non-empty")
        for p in levels:
            if not math.isfinite(p) or not 0.0 < p < 1.0:
                raise ValidationError(f"quantile level {p!r} outside open interval (0, 1)")
        for a, b in zip(levels, levels[1:]):
            if not a < b:
                raise ValidationError(f"quantile levels must be strictly increasing, got {a} before {b}")
        object.__setattr__(self, "levels", levels)

    def __len__(self) -> int:
        return len(self.levels)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.levels, dtype=np.float64)

    def index_of(self, level: float) -> int:
        """Index of an exactly matching level, or a validation error."""
        try:
            return self.levels.index(float(level))
        except ValueError:
            raise ValidationError(f"level {level} not among the forecast's quantile levels") from None


# The 23 levels used by the COVID-19 Forecast Hub submission format.
CANONICAL_LEVELS = QuantileLevels(
    (0.01, 0.025, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50,
     0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 0.975, 0.99)
)


@dataclass(frozen=True)
class QuantileForecast:
    """A predictive distribution given as paired (level, value) quantiles."""

    levels: QuantileLevels
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        values = tuple(_require_finite(v, "quantile value") for v in self.values)
        if len(values) != len(self.levels):
            raise ValidationError(
                f"got {len(values)} quantile values for {len(self.levels)} levels"
            )
        for k, (a, b) in enumerate(zip(values, values[1:])):
            if a > b:
                raise ValidationError(
                    "quantile values must be non-decreasing in level; "
                    f"value {a} at level {self.levels.levels[k]} exceeds {b} at level {self.levels.levels[k + 1]}"
                )
        object.__setattr__(self, "values", values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)


@dataclass(frozen=True)
class PointForecast:
    """A single predicted value."""

    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", _require_finite(self.value, "point forecast"))


@dataclass(frozen=True)
class Observation:
    """An observed outcome."""

    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", _require_finite(self.value, "observation"))


class Metric(Enum):
    WIS = "wis"
    SPE = "spe"


def spe(forecast: PointForecast, obs: Observation) -> float:
    """Squared prediction error (y - yhat)^2. Raw error, lower is better."""
    # A product is correctly rounded; ``**`` goes through libm pow, which is not.
    d = obs.value - forecast.value
    return d * d


def wis_batch(values: np.ndarray, levels: QuantileLevels, y: float | np.ndarray) -> np.ndarray:
    """Weighted interval score of quantile rows against observations.

    ``values`` holds predictive quantiles along its last axis (one entry per
    level); ``y`` must broadcast against ``values`` without its last axis.
    All WIS evaluations in the package route through this function so that
    scalar and batched calls share one floating-point code path.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-1] != len(levels):
        raise ValidationError(
            f"quantile axis of length {values.shape[-1]} does not match {len(levels)} levels"
        )
    y = np.asarray(y, dtype=np.float64)
    # Level-major memory gives each level one contiguous slab; the copy is a
    # free view when the caller already holds the values that way. Terms sum
    # strictly left to right over the levels.
    by_level = np.ascontiguousarray(np.moveaxis(values, -1, 0))
    total = None
    for tau, q in zip(levels.levels, by_level):
        term = (y <= q).astype(np.float64)
        term -= tau
        term *= 2.0
        term *= q - y
        if total is None:
            total = term
        else:
            total += term
    total /= len(levels)  # in place: total is this call's own array
    return total


def wis(forecast: QuantileForecast, obs: Observation) -> float:
    """Weighted interval score, averaged over the forecast's quantile levels.

    The score is ``(1/K) * sum_k 2 * (1[y <= q_k] - tau_k) * (q_k - y)``,
    with the indicator closed at equality. Raw error, lower is better.
    """
    row = forecast.as_array()[None, :]
    return float(wis_batch(row, forecast.levels, obs.value)[0])


def scored_values(values: np.ndarray, levels: QuantileLevels | None, metric: Metric):
    """The forecast values a metric reads, and the levels WIS scores them at.

    ``levels`` is None for point values. SPE on quantile values reads the
    predictive median (the 0.5 level), so it too comes back with None levels.
    Ensembles may be formed after this step: the median of a mean quantile
    ensemble is the mean of the members' medians.
    """
    if not isinstance(metric, Metric):
        raise ValidationError(f"unknown metric {metric!r}")
    if levels is None:
        if metric is Metric.WIS:
            raise ValidationError("WIS requires quantile forecasts")
        return values, None
    if metric is Metric.SPE:
        return values[..., levels.index_of(0.5)], None
    return values, levels


def positive_scores(values: np.ndarray, levels: QuantileLevels | None, y) -> np.ndarray:
    """-WIS of quantile rows (``levels`` given) or -SPE of point values (None).

    ``y`` broadcasts against the values' batch axes. Takes the output of
    :func:`scored_values`.
    """
    if levels is None:
        d = y - values
        return -(d * d)
    return -wis_batch(values, levels, y)


def positive_score(
    metric: Metric, forecast: QuantileForecast | PointForecast, obs: Observation
) -> float:
    """Score one forecast in positive orientation (-WIS or -SPE).

    SPE accepts a quantile forecast by scoring its predictive median as the
    point estimate; WIS requires a quantile forecast.
    """
    if isinstance(forecast, QuantileForecast):
        values, levels = forecast.as_array(), forecast.levels
    else:
        values, levels = forecast.value, None
    return float(positive_scores(*scored_values(values, levels, metric), obs.value))
