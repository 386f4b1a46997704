import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ensimp.scoring import (
    CANONICAL_LEVELS,
    Metric,
    Observation,
    PointForecast,
    QuantileForecast,
    QuantileLevels,
    ValidationError,
    positive_score,
    positive_scores,
    scored_values,
    spe,
    wis,
    wis_batch,
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
        assert type(score) is float and score == -1.0

    def test_spe_negated(self):
        assert positive_score(Metric.SPE, PointForecast(3.0), Observation(3.0)) == 0.0
        assert positive_score(Metric.SPE, PointForecast(1.0), Observation(3.0)) == -4.0

    def test_spe_on_quantiles_scores_the_median(self):
        fc = qf([0.25, 0.5, 0.75], [1.0, 2.0, 3.0])
        assert positive_score(Metric.SPE, fc, Observation(5.0)) == -9.0

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
            one = [positive_score(metric, qf(levels.levels, v), Observation(o))
                   for v, o in zip(values, y)]
            assert batch.tolist() == one
        point = positive_scores(*scored_values(values[:, 1], None, Metric.SPE), y)
        one = [positive_score(Metric.SPE, PointForecast(v), Observation(o))
               for v, o in zip(values[:, 1], y)]
        assert point.tolist() == one
        assert positive_score(
            Metric.SPE, PointForecast(0.0), Observation(-163.3882222222221)
) == float(positive_scores(np.float64(0.0), None, -163.3882222222221))

    @pytest.mark.parametrize("levels", [QuantileLevels((0.5,)), CANONICAL_LEVELS, None],
                             ids=["one level", "23 levels", "point values"])
    def test_out_gets_the_same_bits_and_no_batch_is_allocated(self, levels, rng):
        """With ``out``, level-major values are the scratch: the scores keep
        their bits, and nothing the size of the batch is allocated."""
        k, shape = 1 if levels is None else len(levels), (20_000, 5)
        level_major = np.sort(rng.normal(scale=10.0, size=(k, *shape)), axis=0)
        y = rng.normal(scale=10.0, size=shape[1:])
        # The indicator's edges: y equal to a quantile, and -0.0 against +0.0.
        y[1] = level_major[k // 2, 7, 1]
        level_major[:, 3, 2], y[2] = -0.0, 0.0

        def values():  # a fresh level-major copy, as the scratch is overwritten
            copy = level_major.copy()
            return copy[0] if levels is None else np.moveaxis(copy, 0, -1)
        kept = values()
        want = positive_scores(kept, levels, y)
        assert kept.tobytes() == values().tobytes()  # without out the values stay intact
        out = np.empty(shape)
        scratch = values()
        tracemalloc.start()
        try:
            got = positive_scores(scratch, levels, y, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got is out and got.tobytes() == want.tobytes()
        assert peak < out.nbytes // 4  # numpy's cast buffers, not a batch
        if levels is not None:
            raw = wis_batch(values(), levels, y, np.empty(shape))
            assert raw.tobytes() == wis_batch(kept, levels, y).tobytes() == (-want).tobytes()

    def test_integer_point_values_score_as_floats(self):
        scores = positive_scores(np.array([1, 5, -2]), None, np.array([3, 3, 3]))
        assert scores.dtype == np.float64 and scores.tolist() == [-4.0, -4.0, -25.0]

    def test_wis_rejects_point_forecast(self):
        with pytest.raises(ValidationError):
            positive_score(Metric.WIS, PointForecast(1.0), Observation(0.0))


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
        fc = qf([0.25, 0.5, 0.75], [1.0, 2.0, 3.0])
        median, levels = scored_values(fc.as_array(), fc.levels, Metric.SPE)
        assert median == 2.0 and levels is None


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


# Truths and quantiles from one small pool, so truths repeat and meet
# quantiles exactly, with -0.0 against +0.0 and values whose difference
# overflows; quantiles may also be infinite or NaN.
_EDGES = (-0.0, 0.0, 1.0, -2.5, 1e308, -1e308)
_truth = st.sampled_from(_EDGES) | st.floats(-10.0, 10.0)
_quantile = _truth | st.sampled_from((math.inf, -math.inf, math.nan))
# Batch shapes constant along the truth axis: ending in 1.
_batch = st.sampled_from(((1,), (3, 1), (2, 2, 1)))


def _spy_split():
    """Spy on the binary search, the one numpy call only the split makes."""
    return mock.patch.object(np, "searchsorted", wraps=np.searchsorted)


@settings(max_examples=300, deadline=None)
@given(
    levels=st.lists(st.sampled_from(CANONICAL_LEVELS.levels), min_size=1, max_size=5,
                    unique=True).map(lambda ls: QuantileLevels(tuple(sorted(ls)))),
    batch=_batch,
    data=st.data(),
    with_out=st.booleans(),
)
@example(levels=QuantileLevels((0.5,)), batch=(1,), data=None, with_out=True)
def test_ascending_truths_split_once_per_level_with_the_bits_of_the_comparison(
        levels, batch, data, with_out):
    """Against an ascending sample, one binary search per row and level gives
    the bits of the per-element comparison run on a shuffled copy of the
    sample, once unshuffled."""
    if data is None:  # the pinned example: a quantile equal to a truth, -0.0 against 0.0
        y, values, perm = np.array([-0.0, 0.0, 0.5, 0.5, 2.0]), np.array([[0.5]]), [4, 0, 3, 1, 2]
    else:
        r = data.draw(st.integers(2, 30), label="replicates")
        y = np.sort(np.array(data.draw(st.lists(_truth, min_size=r, max_size=r), label="y")))
        n = math.prod(batch) * len(levels)
        values = np.array(data.draw(st.lists(_quantile, min_size=n, max_size=n), label="q"))
        values = values.reshape(*batch, len(levels))
        perm = data.draw(st.permutations(range(r)), label="shuffle")
    scores_shape = (*values.shape[:-2], len(y))
    with np.errstate(over="ignore", invalid="ignore"):
        # Values spread along the truth axis always take the comparison.
        spread = np.broadcast_to(values, (*scores_shape, len(levels)))
        shuffled = wis_batch(spread, levels, y[perm])
        want = np.empty(scores_shape)
        want[..., perm] = shuffled
        out = np.full(scores_shape, np.nan) if with_out else None
        with _spy_split() as spy:
            got = wis_batch(values, levels, y, out)
    assert spy.call_count == 1
    assert got.shape == scores_shape and (out is None or got is out)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.mark.parametrize("values, y", [
    (np.array([[1.0, 2.0]]), np.array([3.0, 2.0, 1.0])),  # descending
    (np.array([[1.0, 2.0]]), np.array([0.0, np.nan, 2.0])),  # a NaN truth
    (np.array([[1.0, 2.0]]), np.array([1.5])),  # one truth
    (np.array([[1.0, 2.0], [0.0, 3.0]]), np.array([0.5, 1.5])),  # values vary along y's axis
    (np.array([1.0, 2.0]), np.array(0.5)),  # a scalar truth
    (np.array([1.0, 2.0]), np.array([0.5, 1.5, 2.5])),  # 1-D values
], ids=["descending", "NaN truth", "one truth", "values vary along y", "scalar truth",
        "1-D values"])
def test_other_truths_take_the_comparison(values, y):
    levels = QuantileLevels((0.25, 0.75))
    with _spy_split() as spy:
        got = wis_batch(values, levels, y)
    assert spy.call_count == 0
    rows = np.broadcast_to(values, (*got.shape, 2)).reshape(-1, 2).tolist()
    want = [((float(obs <= q0) - 0.25) * 2.0 * (q0 - obs)
             + (float(obs <= q1) - 0.75) * 2.0 * (q1 - obs)) / 2
            for (q0, q1), obs in zip(rows, np.broadcast_to(y, got.shape).ravel().tolist())]
    np.testing.assert_array_equal(got.ravel(), want)


@pytest.mark.parametrize("values, y", [
    (np.zeros((2, 1, 3)), np.array([0.0, 1.0])),  # split: scores (2, 2)
    (np.zeros((2, 3, 3)), np.array([0.0, 1.0, 2.0])),  # per element: scores (2, 3)
], ids=["split", "per element"])
def test_an_out_of_another_shape_is_rejected(values, y):
    with pytest.raises(ValidationError, match="shape"):
        wis_batch(values, QuantileLevels((0.25, 0.5, 0.75)), y, np.empty((2, 1)))


def test_an_out_of_the_scores_shape_is_filled_when_y_widens_the_values():
    """Per element too, values with no batch axes against three truths fill
    an out of shape (3,), with the bits of a call without one; the values,
    too small to be scratch, stay intact."""
    values, y, levels = np.array([1.0, 2.0]), np.array([2.5, 0.5, 1.5]), QuantileLevels((0.25, 0.75))
    want = wis_batch(values, levels, y)
    out = np.full(3, np.nan)
    assert wis_batch(values, levels, y, out) is out
    assert out.tobytes() == want.tobytes() and values.tolist() == [1.0, 2.0]
