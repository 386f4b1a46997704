import math

import numpy as np
import pytest

from ensimp.scoring import (
    CANONICAL_LEVELS,
    Metric,
    Observation,
    PointForecast,
    QuantileForecast,
    QuantileLevels,
    Score,
    ValidationError,
    mean_score,
    positive_score,
    positive_scores,
    scored_values,
    spe,
    wis,
)


def qf(levels, values):
    return QuantileForecast(QuantileLevels(tuple(levels)), tuple(values))


class TestSpe:
    def test_squares_by_multiplying(self):
        # libm pow gives ...237 here; the correctly rounded product is ...234.
        assert spe(PointForecast(0.0), Observation(-163.3882222222221)) == 26695.711160938234

    def test_zero_error(self):
        assert spe(PointForecast(3.0), Observation(3.0)) == 0.0

    def test_direct_arithmetic(self):
        assert spe(PointForecast(1.0), Observation(3.0)) == 4.0
        assert spe(PointForecast(-0.5), Observation(0.0)) == 0.25

    def test_symmetry_and_nonnegativity(self, rng):
        for _ in range(500):
            a, b = rng.normal(size=2) * 10
            assert spe(PointForecast(a), Observation(b)) == spe(PointForecast(b), Observation(a))
            assert spe(PointForecast(a), Observation(b)) >= 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            PointForecast(float("nan"))
        with pytest.raises(ValidationError):
            Observation(float("inf"))


class TestWis:
    def test_all_quantiles_equal_observation(self):
        assert wis(qf([0.5], [3.0]), Observation(3.0)) == 0.0

    def test_single_median(self):
        assert wis(qf([0.5], [1.0]), Observation(0.0)) == 1.0

    def test_three_levels(self):
        assert wis(qf([0.25, 0.5, 0.75], [1.0, 2.0, 3.0]), Observation(2.0)) == pytest.approx(
            1.0 / 3.0, abs=1e-15
        )

    def test_pinball_equivalence_at_median_is_exact(self, rng):
        for _ in range(2000):
            q, y = rng.normal(size=2) * 50
            assert wis(qf([0.5], [q]), Observation(y)) == abs(y - q)

    def test_nonnegative_and_zero_iff_exact(self, rng):
        levels = [0.1, 0.25, 0.5, 0.75, 0.9]
        for _ in range(300):
            values = np.sort(rng.normal(size=5))
            y = float(rng.normal())
            v = wis(qf(levels, values), Observation(y))
            assert v >= 0.0
        y = 1.25
        assert wis(qf(levels, [y] * 5), Observation(y)) == 0.0
        assert wis(qf(levels, [y, y, y, y, y + 0.5]), Observation(y)) > 0.0

    def test_translation_invariance(self, rng):
        levels = [0.05, 0.3, 0.5, 0.8, 0.95]
        for _ in range(300):
            values = np.sort(rng.normal(size=5) * 3)
            y = float(rng.normal())
            c = float(rng.uniform(-10, 10))
            a = wis(qf(levels, values), Observation(y))
            b = wis(qf(levels, values + c), Observation(y + c))
            assert b == pytest.approx(a, abs=1e-12 * max(1.0, abs(a)))

    def test_positive_scale_equivariance(self, rng):
        levels = [0.05, 0.3, 0.5, 0.8, 0.95]
        for _ in range(300):
            values = np.sort(rng.normal(size=5) * 3)
            y = float(rng.normal())
            a = float(rng.uniform(0.1, 10))
            lhs = wis(qf(levels, a * values), Observation(a * y))
            rhs = a * wis(qf(levels, values), Observation(y))
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))


class TestPositiveScore:
    def test_wis_negated(self):
        score = positive_score(Metric.WIS, qf([0.5], [1.0]), Observation(0.0))
        assert score == Score(-1.0)

    def test_spe_negated(self):
        assert positive_score(Metric.SPE, PointForecast(3.0), Observation(3.0)) == Score(0.0)
        assert positive_score(Metric.SPE, PointForecast(1.0), Observation(3.0)) == Score(-4.0)

    def test_spe_on_quantiles_scores_the_median(self):
        fc = qf([0.25, 0.5, 0.75], [1.0, 2.0, 3.0])
        assert positive_score(Metric.SPE, fc, Observation(5.0)) == Score(-9.0)

    def test_spe_on_quantiles_requires_median_level(self):
        fc = qf([0.25, 0.75], [1.0, 3.0])
        with pytest.raises(ValidationError, match="0.5"):
            positive_score(Metric.SPE, fc, Observation(0.0))

    def test_equals_the_array_scorer_bit_for_bit(self, rng):
        levels = QuantileLevels((0.25, 0.5, 0.75))
        values = np.sort(rng.normal(scale=300.0, size=(200, 3)), axis=1)
        y = rng.normal(scale=300.0, size=200)
        for metric in Metric:
            batch = positive_scores(*scored_values(values, levels, metric), y)
            one = [positive_score(metric, qf(levels.levels, v), Observation(o)).value
                   for v, o in zip(values, y)]
            assert batch.tolist() == one
        point = positive_scores(*scored_values(values[:, 1], None, Metric.SPE), y)
        one = [positive_score(Metric.SPE, PointForecast(v), Observation(o)).value
               for v, o in zip(values[:, 1], y)]
        assert point.tolist() == one
        assert positive_score(
            Metric.SPE, PointForecast(0.0), Observation(-163.3882222222221)
        ).value == float(positive_scores(np.float64(0.0), None, -163.3882222222221))

    def test_wis_rejects_point_forecast(self):
        with pytest.raises(ValidationError):
            positive_score(Metric.WIS, PointForecast(1.0), Observation(0.0))


class TestMeanScore:
    def test_examples(self):
        assert mean_score([Score(-2.0), Score(-4.0)]) == Score(-3.0)
        assert mean_score([Score(0.0)]) == Score(0.0)
        assert mean_score([Score(-1.0), Score(-1.0), Score(-4.0)]) == Score(-2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            mean_score([])


class TestQuantileTypes:
    def test_canonical_set_has_23_levels(self):
        assert len(CANONICAL_LEVELS) == 23
        assert CANONICAL_LEVELS.levels[0] == 0.01
        assert CANONICAL_LEVELS.levels[-1] == 0.99
        assert 0.5 in CANONICAL_LEVELS.levels

    def test_levels_must_increase_strictly(self):
        with pytest.raises(ValidationError):
            QuantileLevels((0.1, 0.1, 0.5))
        with pytest.raises(ValidationError):
            QuantileLevels((0.5, 0.2))

    def test_levels_must_be_interior(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValidationError):
                QuantileLevels((bad,))

    def test_empty_levels_rejected(self):
        with pytest.raises(ValidationError):
            QuantileLevels(())

    def test_value_length_must_match(self):
        with pytest.raises(ValidationError):
            qf([0.25, 0.75], [1.0])

    def test_non_monotone_values_rejected_not_sorted(self):
        with pytest.raises(ValidationError, match="non-decreasing"):
            qf([0.25, 0.5, 0.75], [2.0, 1.0, 3.0])

    def test_ties_are_allowed(self):
        fc = qf([0.25, 0.5, 0.75], [1.0, 1.0, 3.0])
        assert fc.values == (1.0, 1.0, 3.0)

    def test_median_property(self):
        assert qf([0.25, 0.5, 0.75], [1.0, 2.0, 3.0]).median == 2.0


def test_wis_matches_explicit_formula(rng):
    for _ in range(200):
        k = int(rng.integers(1, 12))
        levels = np.sort(rng.uniform(0.01, 0.99, size=k))
        if len(set(levels)) != k:
            continue
        values = np.sort(rng.normal(size=k))
        y = float(rng.normal())
        expected = math.fsum(
            2.0 * ((1.0 if y <= q else 0.0) - t) * (q - y) for t, q in zip(levels, values)
        ) / k
        got = wis(qf(levels, values), Observation(y))
        assert got == pytest.approx(expected, abs=1e-13)
