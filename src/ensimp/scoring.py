"""Proper scoring rules for point and quantile forecasts.

Raw WIS and SPE are error measures (lower is better). Everything downstream
of this module works with positively oriented scores (larger is better), so
the squared error's product and the orientation flip each happen exactly
once, in the array scorer :func:`positive_scores`. The score panel, the
importance kernels, the object API's :func:`positive_score`, which scores one
forecast and returns a plain float, and the raw :func:`spe` all go through
it. Which values a metric scores is settled once, before that, by
:func:`scored_values`: the kernels take its output, not a metric.

Every WIS goes through :func:`wis_batch`: one loop over the levels builds
each level's term ``(q - y) * ((1[y <= q] - tau) * 2.0)`` and adds it to
the sum. The factor is applied in one of two ways: per element, or, for
forecasts that do not vary across a non-decreasing truth sample, by one
binary search per quantile that splits the sample where the indicator turns
from 1 to 0. Both evaluate the same per-element expression, so they give the
same bits, and an ``out`` array follows one rule for both.
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
    return float(-positive_scores(forecast.value, None, obs.value))


def wis_batch(
    values: np.ndarray, levels: QuantileLevels, y: float | np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Weighted interval score of quantile rows against observations.

    ``values`` holds predictive quantiles along its last axis (one entry per
    level); ``y`` must broadcast against ``values`` without its last axis.
    All WIS evaluations in the package route through this function. Each
    truth's term at level k is ``(q_k - y)`` times the factor
    ``(1[y <= q_k] - tau_k) * 2.0``; the terms are built one level at a time,
    sum left to right over the levels, and the sum is divided by the level
    count once. The factor is applied in one of two ways, with the same bits:

    * per element, by comparing each truth with its quantile;
    * by one binary search per row and level, when ``y`` is 1-D, holds at
      least two values and is non-decreasing, the values do not vary along
      its axis (their batch shape ends in 1) and ``out``, if given, is
      C-contiguous. That is the simulation's shape: a few ensembles against
      one sorted truth sample. The search splits the row where the indicator
      turns from 1.0 to 0.0, and each side is multiplied by its factor.

    With ``out``, a float64 array of the scores' shape, the scores are
    written into it, with the bits of a call without ``out``. Then
    ``values``, if already a float64 array whose batch shape is the scores',
    is overwritten as scratch by the comparison: when it is held
    level-major, nothing the size of the batch is allocated.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-1] != len(levels):
        raise ValidationError(
            f"quantile axis of length {values.shape[-1]} does not match {len(levels)} levels"
        )
    y = np.asarray(y, dtype=np.float64)
    # Level-major memory gives each level one contiguous slab, a free view
    # when the caller already holds the values that way.
    by_level = np.ascontiguousarray(np.moveaxis(values, -1, 0))
    shape = np.broadcast(by_level[0], y).shape
    if out is not None and out.shape != shape:
        raise ValidationError(f"out has shape {out.shape}, the scores {shape}")
    # The shape tests come first, so a call with one truth per row pays only
    # for them; a NaN truth fails the order test. The split's rows are views
    # of a C-contiguous term.
    split = (y.ndim == 1 and len(y) > 1 and values.shape[-2:-1] == (1,)
             and (out is None or out.flags.c_contiguous) and np.all(y[1:] >= y[:-1]))
    if split:
        # y[:cut] <= q exactly where cut = searchsorted(y, q, side="right"); a
        # NaN quantile's row is NaN - y, the same NaN whichever side it is on
        cuts = np.searchsorted(y, by_level, side="right").reshape(len(levels), -1).tolist()
        scratch = np.empty((1, *shape))
    elif out is not None and by_level.shape[1:] == shape:
        scratch = by_level  # the values are spent level by level
    else:  # the caller's values stay intact: two slabs of the call's own
        scratch = np.empty((2, *shape))
    if out is None:
        out = np.empty(shape)
    for k, tau in enumerate(levels.levels):
        # The first term is built in ``out``, each later one in scratch slab
        # k - 1; the comparison builds its factor in slab k. With the values
        # as scratch, those are the level before, spent, and this level's
        # quantiles, spent once q - y is taken.
        q = by_level[k, ...]
        term = np.subtract(q, y, out=scratch[(k - 1) % len(scratch), ...] if k else out)
        if split:
            hit, miss = (1.0 - tau) * 2.0, (0.0 - tau) * 2.0
            for line, cut in zip(term.reshape(-1, shape[-1]), cuts[k]):
                line[:cut] *= hit
                line[cut:] *= miss
        else:
            factor = np.less_equal(y, q, out=scratch[k % len(scratch), ...])  # closed at equality
            factor -= tau
            factor *= 2.0
            term *= factor
        if k:
            out += term
    if len(levels) > 1:  # x / 1 is x
        out /= len(levels)
    return out


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
        if 0.5 not in levels.levels:
            raise ValidationError("SPE scores the 0.5 quantile (the predictive median), "
                                  "which these forecasts lack")
        return values[..., levels.index_of(0.5)], None
    return values, levels


def positive_scores(
    values: np.ndarray, levels: QuantileLevels | None, y, out: np.ndarray | None = None
) -> np.ndarray:
    """-WIS of quantile rows (``levels`` given) or -SPE of point values (None).

    ``y`` broadcasts against the values' batch axes. Takes the output of
    :func:`scored_values`. With ``out``, which must have the scores' shape,
    the scores are written into it as :func:`wis_batch` writes them, with the
    same bits.
    """
    if levels is None:
        # A product is correctly rounded; ``**`` goes through libm pow, which is not.
        d = np.subtract(y, values, out=out, dtype=np.float64)  # integer input would not negate in place
        scores = np.multiply(d, d, out=out)
    else:
        scores = wis_batch(values, levels, y, out)
    scores *= -1.0  # in place: a negation would cost one more array
    return scores


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
