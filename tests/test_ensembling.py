import math

import numpy as np
import pytest

from ensimp.ensembling import (
    ForecastPool,
    mean_point_ensemble,
    mean_quantile_ensemble,
)
from ensimp.scoring import (
    CANONICAL_LEVELS,
    PointForecast,
    QuantileForecast,
    QuantileLevels,
    ValidationError,
)
from ensimp.simulation import NormalSpec, normal_quantile_forecast

LEVELS = QuantileLevels((0.25, 0.5, 0.75))


def qpool(**forecasts):
    return ForecastPool.from_dict(
        {m: QuantileForecast(LEVELS, tuple(v)) for m, v in forecasts.items()}
    )


class TestMeanQuantileEnsemble:
    def test_two_member_mean(self):
        pool = qpool(a=[1.0, 2.0, 3.0], b=[3.0, 4.0, 5.0])
        assert mean_quantile_ensemble(pool, ("a", "b")).values == (2.0, 3.0, 4.0)

    def test_singleton_is_identity(self):
        pool = qpool(a=[1.0, 2.0, 3.0], b=[3.0, 4.0, 5.0])
        assert mean_quantile_ensemble(pool, ("b",)).values == (3.0, 4.0, 5.0)

    def test_idempotence_for_identical_members(self):
        pool = qpool(a=[1.5, 2.5, 3.5], b=[1.5, 2.5, 3.5], c=[1.5, 2.5, 3.5])
        assert mean_quantile_ensemble(pool, ("a", "b", "c")).values == (1.5, 2.5, 3.5)

    def test_empty_subset_is_no_prediction(self):
        pool = qpool(a=[1.0, 2.0, 3.0])
        with pytest.raises(ValidationError, match="^empty model subset: no prediction to score$"):
            mean_quantile_ensemble(pool, ())

    def test_unknown_member_rejected(self):
        pool = qpool(a=[1.0, 2.0, 3.0])
        with pytest.raises(ValidationError, match=r"^model ids not in pool: \['zz'\]$"):
            mean_quantile_ensemble(pool, ("a", "zz"))

    def test_permutation_invariance_bitwise(self, rng):
        values = {m: tuple(np.sort(rng.normal(size=3))) for m in "abcde"}
        fwd = ForecastPool.from_dict({m: QuantileForecast(LEVELS, values[m]) for m in "abcde"})
        rev = ForecastPool.from_dict(
            {m: QuantileForecast(LEVELS, values[m]) for m in reversed("abcde")}
        )
        assert mean_quantile_ensemble(fwd, "abcde").values == mean_quantile_ensemble(rev, "abcde").values

    def test_normal_members_average_their_scales(self):
        pool = ForecastPool.from_dict(
            {
                "a": normal_quantile_forecast(NormalSpec(0.0, 0.5), CANONICAL_LEVELS),
                "b": normal_quantile_forecast(NormalSpec(0.0, 0.7), CANONICAL_LEVELS),
                "c": normal_quantile_forecast(NormalSpec(0.0, 1.8), CANONICAL_LEVELS),
            }
        )
        ens = mean_quantile_ensemble(pool, ("a", "b", "c"))
        target = normal_quantile_forecast(NormalSpec(0.0, 1.0), CANONICAL_LEVELS)
        for got, want in zip(ens.values, target.values):
            assert got == pytest.approx(want, abs=1e-8)

    def test_location_scale_closure(self, rng):
        for _ in range(20):
            mus = rng.normal(size=4)
            sds = rng.uniform(0.2, 3.0, size=4)
            pool = ForecastPool.from_dict(
                {
                    f"m{i}": normal_quantile_forecast(NormalSpec(mus[i], sds[i]), CANONICAL_LEVELS)
                    for i in range(4)
                }
            )
            ens = mean_quantile_ensemble(pool, pool.model_ids)
            target = normal_quantile_forecast(
                NormalSpec(float(np.mean(mus)), float(np.mean(sds))), CANONICAL_LEVELS
            )
            for got, want in zip(ens.values, target.values):
                assert got == pytest.approx(want, abs=1e-8)

    def test_mismatched_levels_rejected(self):
        other = QuantileLevels((0.1, 0.5, 0.9))
        with pytest.raises(ValidationError, match="different quantile levels"):
            ForecastPool.from_dict(
                {
                    "a": QuantileForecast(LEVELS, (1.0, 2.0, 3.0)),
                    "b": QuantileForecast(other, (1.0, 2.0, 3.0)),
                }
            )

    def test_large_pool_uses_compensated_sums(self, rng):
        n = 40
        values = {f"m{i:02d}": tuple(np.sort(rng.normal(size=3) * 1e6)) for i in range(n)}
        pool = ForecastPool.from_dict(
            {m: QuantileForecast(LEVELS, v) for m, v in values.items()}
        )
        ens = mean_quantile_ensemble(pool, pool.model_ids)
        for k in range(3):
            exact = math.fsum(values[m][k] for m in pool.model_ids) / n
            assert ens.values[k] == exact


class TestMeanPointEnsemble:
    def test_examples(self):
        pool = ForecastPool.from_dict({"a": PointForecast(0.0), "b": PointForecast(2.0)})
        assert mean_point_ensemble(pool, ("a", "b")).value == 1.0

        trio = ForecastPool.from_dict(
            {"a": PointForecast(-1.0), "b": PointForecast(-0.5), "c": PointForecast(1.5)}
        )
        assert mean_point_ensemble(trio, ("a", "b", "c")).value == 0.0
        assert mean_point_ensemble(trio, ("c",)).value == 1.5

    def test_point_members_sum_left_to_right(self):
        # A pairwise sum of these ten members gives 8.0 (mean 0.8); in member
        # order each 1.0 is absorbed by 1e16, as the quantile ensembles and
        # the importance kernels sum.
        values = [1e16] + [1.0] * 8 + [-1e16]
        pool = ForecastPool.from_dict({f"m{k}": PointForecast(v) for k, v in enumerate(values)})
        assert mean_point_ensemble(pool, pool.model_ids).value == 0.0

    def test_kind_mismatch_rejected(self):
        pool = ForecastPool.from_dict({"a": PointForecast(0.0), "b": PointForecast(2.0)})
        with pytest.raises(ValidationError):
            mean_quantile_ensemble(pool, ("a", "b"))
        qp = qpool(a=[1.0, 2.0, 3.0])
        with pytest.raises(ValidationError):
            mean_point_ensemble(qp, ("a",))


class TestPoolValidation:
    def test_needs_a_member(self):
        with pytest.raises(ValidationError):
            ForecastPool((), ())

    def test_distinct_ids(self):
        with pytest.raises(ValidationError):
            ForecastPool(("a", "a"), (PointForecast(1.0), PointForecast(2.0)))

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ValidationError, match="mixes"):
            ForecastPool.from_dict(
                {"a": PointForecast(1.0), "b": QuantileForecast(LEVELS, (1.0, 2.0, 3.0))}
            )

    def test_canonical_ordering(self):
        pool = ForecastPool.from_dict({"zeta": PointForecast(1.0), "alpha": PointForecast(2.0)})
        assert pool.model_ids == ("alpha", "zeta")
