"""Equal-weight mean ensembles over pools of component forecasts.

Members are kept in sorted model-id order, the canonical one: bitmask
enumeration follows it, and every ensemble, of any size, sums its members left
to right in it, so values do not depend on the order members were supplied in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .scoring import PointForecast, QuantileForecast, QuantileLevels, ValidationError

__all__ = [
    "ForecastPool",
    "mean_point_ensemble",
    "mean_quantile_ensemble",
]


@dataclass(frozen=True)
class ForecastPool:
    """Forecasts from distinct models for one forecasting task.

    ``model_ids`` is sorted at construction; ``forecasts`` is aligned with it.
    All members must be the same kind of forecast, and quantile members must
    share level-by-level identical quantile levels.
    """

    model_ids: tuple[str, ...]
    forecasts: tuple[QuantileForecast | PointForecast, ...] = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.model_ids) != len(self.forecasts):
            raise ValidationError("model_ids and forecasts must have equal length")
        if not self.model_ids:
            raise ValidationError("a forecast pool needs at least one member")
        if len(set(self.model_ids)) != len(self.model_ids):
            raise ValidationError("model ids must be distinct")
        order = sorted(range(len(self.model_ids)), key=lambda i: self.model_ids[i])
        object.__setattr__(self, "model_ids", tuple(self.model_ids[i] for i in order))
        object.__setattr__(self, "forecasts", tuple(self.forecasts[i] for i in order))
        kinds = {type(f) for f in self.forecasts}
        if len(kinds) > 1:
            raise ValidationError("pool mixes point and quantile forecasts")
        if self.is_quantile:
            first = self.forecasts[0].levels
            for model_id, fc in zip(self.model_ids, self.forecasts):
                if fc.levels.levels != first.levels:
                    raise ValidationError(
                        f"model {model_id!r} uses different quantile levels than the pool"
                    )

    @classmethod
    def from_dict(cls, forecasts: Mapping[str, QuantileForecast | PointForecast]) -> "ForecastPool":
        ids = tuple(forecasts)
        return cls(ids, tuple(forecasts[m] for m in ids))

    @property
    def is_quantile(self) -> bool:
        return isinstance(self.forecasts[0], QuantileForecast)

    @property
    def levels(self) -> QuantileLevels:
        if not self.is_quantile:
            raise ValidationError("point-forecast pool has no quantile levels")
        return self.forecasts[0].levels

    def values_matrix(self) -> np.ndarray:
        """Member values in canonical order: (n, K) for quantile pools, (n,) for point pools."""
        if self.is_quantile:
            return np.asarray([f.values for f in self.forecasts], dtype=np.float64)
        return np.asarray([f.value for f in self.forecasts], dtype=np.float64)


def member_means(rows: np.ndarray) -> np.ndarray:
    """Mean over the leading member axis of values in canonical member order.

    Members sum left to right at every pool size, as the subset table sums
    them; m members' sum errs by at most (m - 1)u sum|x| (Higham 2002, 4.2).
    """
    total = rows[0]
    for row in rows[1:]:
        total = total + row
    return total / rows.shape[0]


def _subset_mean(pool: ForecastPool, subset: Iterable[str]) -> np.ndarray:
    """Mean of the pool members named in ``subset``; an empty subset predicts nothing."""
    wanted = set(subset)
    if not wanted:
        raise ValidationError("empty model subset: no prediction to score")
    unknown = wanted.difference(pool.model_ids)
    if unknown:
        raise ValidationError(f"model ids not in pool: {sorted(unknown)}")
    return member_means(pool.values_matrix()[[m in wanted for m in pool.model_ids]])


def mean_quantile_ensemble(pool: ForecastPool, subset: Iterable[str]) -> QuantileForecast:
    """Equal-weight ensemble: at each level, the mean of the members' quantiles.

    The mean of non-decreasing sequences is non-decreasing, so the result is
    always a valid quantile forecast.
    """
    if not pool.is_quantile:
        raise ValidationError("mean_quantile_ensemble requires a quantile pool")
    return QuantileForecast(pool.levels, tuple(_subset_mean(pool, subset)))


def mean_point_ensemble(pool: ForecastPool, subset: Iterable[str]) -> PointForecast:
    """Equal-weight ensemble of point forecasts, summed as :func:`member_means` sums."""
    if pool.is_quantile:
        raise ValidationError("mean_point_ensemble requires a point-forecast pool")
    return PointForecast(float(_subset_mean(pool, subset)))
