import math

import numpy as np
import pytest

import bruteforce as bf
from conftest import point_pool

from ensimp.decomposition import (
    ErrorVector,
    GaussianErrorModel,
    ambiguity_check,
    contributions_by_size,
    expected_phi,
    expected_phi_from_moments,
    phi_decomposed,
    phi_direct,
)
from ensimp.importance import lomo_task
from ensimp.scoring import Metric, ValidationError


class TestPhiDirect:
    def test_two_model_example(self):
        ev = ErrorVector((0.0, -2.0))
        assert phi_direct(ev, 0) == 3.0
        assert phi_direct(ev, 1) == -1.0

    def test_equal_errors_give_zero(self):
        ev = ErrorVector((1.3, 1.3, 1.3))
        for i in range(3):
            assert phi_direct(ev, i) == 0.0

    def test_index_validation(self):
        ev = ErrorVector((0.0, 1.0))
        with pytest.raises(ValidationError):
            phi_direct(ev, 2)
        with pytest.raises(ValidationError):
            ErrorVector((1.0,))

    def test_matches_lomo_with_neg_spe(self, rng):
        # mean(y - yhat_j) and y - mean(yhat_j) can round differently for
        # general floats; with two models and dyadic data both routes are
        # exact, so equality there is bit for bit.
        for _ in range(100):
            n = 2
            y = float(rng.integers(-256, 256)) / 64.0
            points = {f"m{j}": float(rng.integers(-256, 256)) / 64.0 for j in range(n)}
            tp = point_pool(points, y=y)
            errors = ErrorVector(tuple(y - points[m] for m in sorted(points)))
            for i, m in enumerate(sorted(points)):
                assert phi_direct(errors, i) == lomo_task(tp, Metric.SPE, m)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            y = float(rng.normal())
            points = {f"m{j}": float(rng.normal()) for j in range(n)}
            tp = point_pool(points, y=y)
            errors = ErrorVector(tuple(y - points[m] for m in sorted(points)))
            for i, m in enumerate(sorted(points)):
                a, b = phi_direct(errors, i), lomo_task(tp, Metric.SPE, m)
                assert a == pytest.approx(b, abs=1e-12 * max(1.0, abs(b)))
        # At truth 0 both routes run the one LOMO kernel on the same values.
        for n in range(2, 9):
            for _ in range(20):
                points = {f"m{j}": float(rng.normal()) for j in range(n)}
                tp = point_pool(points, y=0.0)
                errors = ErrorVector(tuple(0.0 - points[m] for m in sorted(points)))
                for i, m in enumerate(sorted(points)):
                    assert phi_direct(errors, i) == lomo_task(tp, Metric.SPE, m)


class TestPhiDecomposed:
    def test_two_model_example(self):
        ev = ErrorVector((0.0, -2.0))
        # coefficient (2n-1)/(n(n-1))^2 is 3/4 at n=2
        assert phi_decomposed(ev, 0) == 0.75 * 4.0 == 3.0
        assert phi_decomposed(ev, 1) == -1.0

    def test_identity_with_direct_form(self, rng):
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            ev = ErrorVector(tuple(rng.standard_normal(n)))
            i = int(rng.integers(n))
            a, b = phi_direct(ev, i), phi_decomposed(ev, i)
            worst = max(worst, abs(a - b) / max(1.0, abs(a)))
        assert worst < 1e-9

    def test_translation_of_forecasts_and_truth_is_invisible(self, rng):
        # errors are differences, so a common shift cancels before it
        # reaches either formula
        for _ in range(50):
            y = float(rng.normal())
            points = {f"m{j}": float(rng.normal()) for j in range(4)}
            c = float(rng.uniform(-20, 20))
            base = point_pool(points, y=y)
            shifted = point_pool({m: v + c for m, v in points.items()}, y=y + c)
            for m in sorted(points):
                a = lomo_task(base, Metric.SPE, m)
                b = lomo_task(shifted, Metric.SPE, m)
                assert b == pytest.approx(a, abs=1e-9)


class TestExpectedPhi:
    def test_vertex_of_setting_a_curve(self):
        # the b-coefficients make the curve -(b^2)/9 - (2/9)(y1+y2) b + const,
        # so the vertex sits at -(y1 + y2)
        bs = np.arange(-1.0, 3.0001, 0.01)
        vals = [expected_phi(GaussianErrorModel((-1.0, -0.5, b), 1.0), 2) for b in bs]
        assert bs[int(np.argmax(vals))] == pytest.approx(1.5, abs=1e-9)
        left = expected_phi(GaussianErrorModel((-1.0, -0.5, 1.5 - 1e-4), 1.0), 2)
        right = expected_phi(GaussianErrorModel((-1.0, -0.5, 1.5 + 1e-4), 1.0), 2)
        peak = expected_phi(GaussianErrorModel((-1.0, -0.5, 1.5), 1.0), 2)
        assert peak > left and peak > right

    def test_symmetric_pair(self):
        for c in (0.5, 1.0, 2.5):
            model = GaussianErrorModel((-c, c), 1.0)
            assert expected_phi(model, 0) == pytest.approx(expected_phi(model, 1), abs=1e-14)

    def test_monte_carlo_agreement(self, rng):
        means = (-1.0, -0.5, 1.5)
        model = GaussianErrorModel(means, 1.0)
        y = rng.standard_normal(100_000)
        mu_all = sum(means) / 3
        for i in range(3):
            mu_loo = (sum(means) - means[i]) / 2
            samples = -((y - mu_all) ** 2) + (y - mu_loo) ** 2
            se = samples.std() / math.sqrt(len(samples))
            assert abs(samples.mean() - expected_phi(model, i)) < 4 * se
            # the vectorized restatement is what phi_direct computes per draw
            for yk in y[:50]:
                ev = ErrorVector(tuple(yk - m for m in means))
                direct = phi_direct(ev, i)
                assert direct == pytest.approx(
                    -((yk - mu_all) ** 2) + (yk - mu_loo) ** 2, abs=1e-12
                )

    def test_general_moment_form_matches_gaussian_shortcut(self, rng):
        means = tuple(rng.normal(size=4))
        var = 1.7
        model = GaussianErrorModel(means, var)
        espe = [var + m * m for m in means]
        prod = var + np.outer(means, means)
        for i in range(4):
            assert expected_phi_from_moments(espe, prod, i) == expected_phi(model, i)

    def test_validation(self):
        with pytest.raises(ValidationError):
            GaussianErrorModel((1.0,), 1.0)
        with pytest.raises(ValidationError):
            GaussianErrorModel((1.0, 2.0), 0.0)
        with pytest.raises(ValidationError):
            expected_phi_from_moments([1.0, 2.0], np.ones((3, 3)), 0)
        with pytest.raises(ValidationError, match="^need at least 2 forecasters$"):
            expected_phi_from_moments([1.0], np.ones((1, 1)), 0)
        for bad in (1.5, True):
            with pytest.raises(ValidationError, match=rf"model index {bad} is not an integer in \[0, 2\]"):
                expected_phi_from_moments([1.0, 2.0, 3.0], np.ones((3, 3)), bad)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError, match=f"forecast mean must be finite, got {bad!r}"):
                expected_phi(GaussianErrorModel((bad, 1.0), 1.0), 0)


class TestContributionsBySize:
    def test_lomo_readout_matches_the_term_by_term_expansion(self, rng):
        # the expansion expected_phi_from_moments held before the closed form
        worst = 0.0
        for _ in range(350):
            n = int(rng.integers(2, 13))
            a = rng.normal(size=(n, n))
            prod = (a + a.T) / 2
            espe = rng.uniform(0.1, 5.0, n)
            for i in range(n):
                want = bf.expected_phi_from_moments(espe.tolist(), prod.tolist(), i)
                got = expected_phi_from_moments(espe, prod, i)
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
        assert worst <= 1e-13

    def test_a_point_expected_lasomo(self):
        # forecasts -1, -0.5 and b = 1.3 against N(0, 1) truth:
        # E[e_j e_k] = 1 + yhat_j yhat_k, and permutation LASOMO is the row mean
        means = np.array([-1.0, -0.5, 1.3])
        phi = contributions_by_size(1.0 + np.outer(means, means)).mean(axis=1)
        assert np.round(phi, 4).tolist() == [0.4165, 0.5009, 0.5459]

    @pytest.mark.parametrize("scale", [None, 81.0315200291, 632.7641190657])
    def test_a_batch_is_rows_of_single_instances(self, rng, scale):
        # With errors (scale, 0, 0) and equal weights, a single instance once
        # squared with a scalar ``**`` (libm pow), a batch with a product, and
        # the two differed in the last bit.
        if scale is None:
            e, raw = rng.standard_normal((50, 5)), rng.random((50, 5)) + 1e-3
            i = rng.integers(5, size=50)
        else:
            e, raw, i = np.array([[scale, 0.0, 0.0]] * 2), np.ones((2, 3)), np.array([0, 1])
        w = raw / raw.sum(axis=1, keepdims=True)
        batch = ErrorVector(e)
        for fn, args in ((phi_direct, ()), (phi_decomposed, ()), (ambiguity_check, (w,))):
            got = fn(batch, *args, i)
            assert got.shape == i.shape
            rows = [fn(ErrorVector(e[k]), *(a[k] for a in args), int(i[k])) for k in range(len(e))]
            assert got.tolist() == rows
        assert phi_direct(batch, 2).tolist() == [phi_direct(ErrorVector(r), 2) for r in e]

    def test_batch_validation(self):
        with pytest.raises(ValidationError, match="must be finite, got nan"):
            ErrorVector([[0.0, 1.0], [math.nan, 1.0]])
        ev = ErrorVector([[0.0, 1.0], [2.0, 1.0]])
        with pytest.raises(ValidationError, match=r"model index 2 is not an integer in \[0, 1\]"):
            phi_decomposed(ev, np.array([0, 2]))
        with pytest.raises(ValidationError, match="model index 0.5 is not an integer"):
            phi_direct(ev, 0.5)
        with pytest.raises(ValidationError, match="shape"):
            ambiguity_check(ev, (0.5, 0.5), 0)
        assert not ev.errors.flags.writeable


class TestAmbiguityCheck:
    def test_equal_weight_example(self):
        assert ambiguity_check(ErrorVector((0.0, -2.0)), (0.5, 0.5), 0) == 0.0

    def test_identical_errors(self):
        assert ambiguity_check(ErrorVector((1.0, 1.0, 1.0)), (1 / 3, 1 / 3, 1 / 3), 1) == pytest.approx(0.0, abs=1e-15)

    def test_random_weighted_instances(self, rng):
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            ev = ErrorVector(tuple(rng.standard_normal(n) * 3))
            raw = rng.random(n) + 1e-3
            weights = tuple(raw / raw.sum())
            i = int(rng.integers(n))
            worst = max(worst, abs(ambiguity_check(ev, weights, i)))
        assert worst < 1e-9

    def test_weights_must_sum_to_one(self):
        ev = ErrorVector((0.0, 1.0))
        with pytest.raises(ValidationError, match="sum to 1"):
            ambiguity_check(ev, (0.6, 0.6), 0)
        with pytest.raises(ValidationError):
            ambiguity_check(ev, (-0.2, 1.2), 0)
        with pytest.raises(ValidationError):
            ambiguity_check(ev, (1.0, 0.0), 0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestOverflow:
    """Finite errors whose squares overflow are rejected by name, without warnings."""

    BATCH = ErrorVector([[1.0, 2.0, 3.0], [1e200, 0.0, 0.0]])

    @pytest.mark.parametrize("readout, args", [
        (phi_direct, (ErrorVector([1e200, 0.0, 0.0]), 0)),
        (phi_decomposed, (ErrorVector([1e200, 0.0, 0.0]), 0)),
        (ambiguity_check, (ErrorVector([1e200, 0.0, 0.0]), (1 / 3, 1 / 3, 1 / 3), 0)),
        (expected_phi, (GaussianErrorModel((1e200, 0.0), 1.0), 0)),
    ])
    def test_one_instance(self, readout, args):
        with pytest.raises(ValidationError, match=rf"^{readout.__name__} overflows float64$"):
            readout(*args)

    @pytest.mark.parametrize("readout, args", [
        (phi_direct, (BATCH, [2, 0])),
        (phi_decomposed, (BATCH, np.array([1, 1]))),
        (ambiguity_check, (BATCH, np.full((2, 3), 1 / 3), np.array([0, 2]))),
    ])
    def test_a_batch_names_the_instance_that_overflows(self, readout, args):
        with pytest.raises(ValidationError, match=rf"^{readout.__name__} overflows float64 in instance 1$"):
            readout(*args)
        # the finite row alone still reads as before
        first = (ErrorVector(self.BATCH.errors[:1]),) + tuple(np.asarray(a)[:1] for a in args[1:])
        assert np.isfinite(readout(*first)).all()

    def test_moments_are_checked_finite_and_their_readout_too(self):
        with pytest.raises(ValidationError, match=r"^espe\[0\] must be finite, got nan$"):
            expected_phi_from_moments([math.nan, 1.0], np.zeros((2, 2)), 0)
        products = np.zeros((3, 3))
        products[1, 2] = -math.inf
        with pytest.raises(ValidationError, match=r"^error_products\[1, 2\] must be finite, got -inf$"):
            expected_phi_from_moments([1.0, 1.0, 1.0], products, 0)
        with pytest.raises(ValidationError, match=r"^expected_phi_from_moments overflows float64$"):
            expected_phi_from_moments([1e308] * 3, np.zeros((3, 3)), 0)

    def test_large_finite_errors_still_read(self):
        ev = ErrorVector([1e150, 0.0, 0.0])
        assert phi_direct(ev, 0) == pytest.approx(phi_decomposed(ev, 0), rel=1e-12)
