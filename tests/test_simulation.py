import csv
import math
from statistics import NormalDist
from unittest import mock

import numpy as np
import pytest
from scipy.special import ndtri

from ensimp import scoring, simulation
from ensimp.decomposition import GaussianErrorModel, expected_phi
from ensimp.ensembling import ForecastPool, mean_quantile_ensemble
from ensimp.scoring import CANONICAL_LEVELS, QuantileLevels, ValidationError
from ensimp.simulation import (
    MAX_GRID_POINTS,
    Grid,
    NormalSpec,
    Scenario,
    SimulationSpec,
    normal_quantile,
    normal_quantile_forecast,
    run_sweep,
    setting_a_point,
    setting_a_prob,
    setting_b_dispersion,
    truth_draws,
    write_sweep_csv,
)

MEDIAN = CANONICAL_LEVELS.index_of(0.5)


class TestNormalQuantile:
    def test_median_is_zero(self):
        assert normal_quantile(0.5) == 0.0

    def test_hub_interval_endpoint(self):
        assert normal_quantile(0.975) == pytest.approx(1.959963985, abs=1e-8)

    def test_antisymmetry_exact_for_representable_complements(self):
        # p = k/2**20 makes 1 - p exact, so the reflection is bit-exact
        for k in (1, 37, 2**10, 2**19 - 1):
            p = k / 2**20
            assert normal_quantile(1.0 - p) == -normal_quantile(p)

    def test_bits_equal_inv_cdf_for_scalars_and_arrays(self, rng):
        # inv_cdf is antisymmetric by construction, so no reflection at 0.5
        # is needed to match it on either side.
        stratified = [(np.arange(r) + rng.random(r)) / r for r in (1, 2, 1000, 20000)]
        tails = np.concatenate([2.0 ** -np.arange(1, 1075), 10.0 ** -np.arange(1, 324),
                                [5e-324, 1e-17]])
        # AS241's branch edges, |p - 0.5| = 0.425 and r = 5, and 3 ulps either side
        edges = np.array([0.075, 0.925, math.exp(-25.0)])
        near = (edges[:, None] + np.arange(-3, 4) * np.spacing(edges)[:, None]).ravel()
        # Tail values whose np.log differs from math.log in the last bit (numpy 2.4 on an
        # AVX-512 x86-64 host), so the quantile would too.
        logs = [float.fromhex(h) for h in ("0x1.7d3140d67fc77p-5", "0x1.9391d0a971569p-5",
                                           "0x1.26dcd030f6435p-7", "0x1.1b9e101522074p-4")]
        ps = np.concatenate(stratified + [tails, near, logs, [0.5, 1.0 - 2.0**-53]])
        for p in (ps, 1.0 - ps[1.0 - ps < 1.0]):
            expected = np.array([NormalDist().inv_cdf(v) for v in p.tolist()])
            assert np.array_equal(normal_quantile(p).view(np.int64), expected.view(np.int64))
            assert [normal_quantile(v).hex() for v in p.tolist()] == [x.hex() for x in expected]

    def test_scalars_give_floats_and_arrays_keep_their_shape(self):
        for p in (0.3, np.array(0.3)):
            assert type(normal_quantile(p)) is float
        assert normal_quantile(np.full((2, 3), 0.3)).shape == (2, 3)
        assert normal_quantile(np.empty(0)).shape == (0,)
        for bad in (math.nan, 0.0, 1.0):
            with pytest.raises(ValidationError):
                normal_quantile(np.array([0.3, bad]))

    def test_near_antisymmetry_everywhere(self, rng):
        ps = rng.uniform(1e-6, 0.5, size=5000)
        a = normal_quantile(ps)
        b = normal_quantile(1.0 - ps)
        assert np.max(np.abs(a + b)) < 1e-12

    def test_accuracy_against_scipy(self):
        ps = np.concatenate(
            [
                np.linspace(1e-9, 1 - 1e-9, 100001),
                [1e-12, 0.00023, 0.02425, 0.5, 0.975, 5e-324, 1e-300, 1 - 2**-53],
            ]
        )
        assert np.max(np.abs(normal_quantile(ps) - ndtri(ps))) < 1e-9

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValidationError):
                normal_quantile(bad)
        with pytest.raises(ValidationError):
            normal_quantile(np.array([0.5, 1.0]))

    def test_array_round_trip(self):
        # dyadic probabilities so the complements are exactly representable
        ps = np.array([0.25, 0.5, 0.75])
        z = normal_quantile(ps)
        assert z.shape == (3,)
        assert z[1] == 0.0 and z[2] == -z[0]


class TestNormalQuantileForecast:
    def test_standard_normal_median(self):
        fc = normal_quantile_forecast(NormalSpec(0.0, 1.0), CANONICAL_LEVELS)
        assert fc.values[MEDIAN] == 0.0

    def test_location_shift(self):
        fc = normal_quantile_forecast(NormalSpec(1.75, 1.0), CANONICAL_LEVELS)
        assert fc.values[MEDIAN] == 1.75

    def test_scale(self):
        fc = normal_quantile_forecast(NormalSpec(0.0, 2.0), QuantileLevels((0.5, 0.975)))
        assert fc.values[1] == pytest.approx(2.0 * normal_quantile(0.975), abs=1e-12)
        assert fc.values[1] == pytest.approx(3.919927, abs=1e-6)

    def test_invalid_spec(self):
        with pytest.raises(ValidationError):
            NormalSpec(0.0, 0.0)
        with pytest.raises(ValidationError):
            NormalSpec(float("nan"), 1.0)


class TestGrid:
    def test_default_grids(self):
        assert len(setting_a_point().sweep) == 81
        assert len(setting_a_prob().sweep) == 81
        assert len(setting_b_dispersion().sweep) == 59

    def test_values_inclusive(self):
        g = Grid(0.1, 3.0, 0.05)
        vals = g.values()
        assert vals[0] == 0.1
        assert vals[-1] == pytest.approx(3.0, abs=1e-12)

    def test_values_never_pass_end(self):
        assert Grid(0.0, 1.0, 0.6).values().tolist() == [0.0, 0.6]
        assert Grid(0.0, 1.0, 0.5).values().tolist() == [0.0, 0.5, 1.0]

    def test_validation(self):
        with pytest.raises(ValidationError):
            Grid(0.0, 1.0, 0.0)
        with pytest.raises(ValidationError):
            Grid(1.0, 0.0, 0.1)
        with pytest.raises(ValidationError):
            SimulationSpec(Scenario.A_PROB, (NormalSpec(0, 1),), Grid(0, 1, 0.5), replicates=0)
        # the seed is one 64-bit word of the Philox key
        for seed in (-1, 2**64):
            with pytest.raises(ValidationError, match=rf"seed must be in \[0, 2\*\*64\), got {seed}"):
                SimulationSpec(Scenario.A_PROB, (NormalSpec(0, 1),), Grid(0, 1, 0.5), seed=seed)
        SimulationSpec(Scenario.A_PROB, (NormalSpec(0, 1),), Grid(0, 1, 0.5), seed=2**64 - 1)

    def test_size_bounded_before_allocation(self):
        # Constructing is all these do: a rejected grid never reaches values().
        with pytest.raises(ValidationError, match="step 5e-324"):
            Grid(0.0, 1.0, 5e-324)
        with pytest.raises(ValidationError, match="step 1e-12"):
            Grid(0.0, 1.0, 1e-12)
        with pytest.raises(ValidationError, match="step 1.0"):
            Grid(0.0, float(MAX_GRID_POINTS), 1.0)
        assert len(Grid(0.0, float(MAX_GRID_POINTS - 1), 1.0)) == MAX_GRID_POINTS

    def test_component_kinds_checked(self):
        with pytest.raises(ValidationError):
            SimulationSpec(Scenario.A_POINT, (NormalSpec(0, 1),), Grid(0, 1, 0.5))

    @pytest.mark.parametrize("start", [0.0, -1.0])
    def test_dispersion_grid_must_start_above_zero(self, start):
        # the swept value is the third forecaster's sd; bias grids may start anywhere
        base = setting_b_dispersion()
        with pytest.raises(ValidationError, match=rf"^grid start must be > 0 for scenario "
                                                  rf"b_dispersion \(the swept sd\), got {start}$"):
            SimulationSpec(base.scenario, base.fixed_components, Grid(start, 0.1, 0.05))
        SimulationSpec(base.scenario, base.fixed_components, Grid(5e-324, 0.1, 0.05))
        SimulationSpec(Scenario.A_PROB, (NormalSpec(0, 1),), Grid(start, 0.1, 0.05))


class TestTruthDraws:
    def test_reproducible_and_keyed_by_seed(self):
        a = truth_draws(42, 100)
        b = truth_draws(42, 100)
        c = truth_draws(43, 100)
        assert a.tobytes() == b.tobytes()
        assert not np.array_equal(a, c)

    def test_stratification_covers_the_distribution(self):
        y = truth_draws(7, 2000)
        assert abs(y.mean()) < 0.01
        assert abs(y.std() - 1.0) < 0.02

    @pytest.mark.parametrize("replicates", [1, 2, 3, 50, 20_000])
    def test_sample_ascends_with_the_replicate_index(self, replicates):
        for seed in (0, 7, 42, 2**64 - 1):
            y = truth_draws(seed, replicates)
            assert len(y) == replicates and np.all(y[1:] >= y[:-1])


class TestRunSweep:
    def test_bit_identical_across_runs_and_workers(self):
        spec = SimulationSpec(
            Scenario.B_DISPERSION,
            (NormalSpec(0.0, 0.5), NormalSpec(0.0, 0.7)),
            Grid(0.5, 1.5, 0.25),
            replicates=200,
            seed=11,
        )
        r1 = run_sweep(spec, n_workers=1)
        r2 = run_sweep(spec, n_workers=3)
        r3 = run_sweep(spec, n_workers=1)
        assert np.array_equal(r1.mean_importance, r2.mean_importance)
        assert np.array_equal(r1.mean_importance, r3.mean_importance)
        assert np.array_equal(r1.standard_errors(), r2.standard_errors())

    def test_one_truth_draw_per_sweep(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append((args, kwargs))
            return truth_draws(*args, **kwargs)

        monkeypatch.setattr(simulation, "truth_draws", counting)
        spec = SimulationSpec(Scenario.A_PROB, setting_a_prob().fixed_components,
                              Grid(-1.0, 1.0, 0.5), replicates=50, seed=9)
        assert len(spec.sweep) == 5
        results = []
        for workers in (1, 3):
            calls.clear()
            results.append(run_sweep(spec, n_workers=workers))
            # by name: perfbench's tracer reads the count from kwargs["replicates"]
            assert calls == [((9,), {"replicates": 50})]
        assert results[0].mean_importance.tobytes() == results[1].mean_importance.tobytes()
        assert results[0].collapsed_ss.tobytes() == results[1].collapsed_ss.tobytes()

    @pytest.mark.parametrize("setting", [setting_a_prob, setting_b_dispersion])
    def test_every_grid_value_scores_by_one_split_per_level(self, setting):
        """Each grid value's one WIS call scores its ensembles against the
        ascending sample by binary search, not by a comparison per truth."""
        spec = setting()
        with mock.patch.object(scoring, "wis_batch", wraps=scoring.wis_batch) as calls, \
                mock.patch.object(np, "searchsorted", wraps=np.searchsorted) as split:
            run_sweep(spec, n_workers=1)
        assert calls.call_count == split.call_count == len(spec.sweep)

    @pytest.mark.parametrize("setting", [setting_a_point, setting_a_prob, setting_b_dispersion])
    def test_cell_does_not_depend_on_the_grid_around_it(self, setting):
        base = setting()

        def sweep(grid):
            return run_sweep(SimulationSpec(base.scenario, base.fixed_components, grid,
                                            replicates=200, seed=11))

        wide, alone = sweep(Grid(0.5, 1.5, 0.25)), sweep(Grid(1.0, 1.0, 0.25))
        assert wide.grid_values[2] == alone.grid_values[0] == 1.0
        assert wide.mean_importance[:, 2].tobytes() == alone.mean_importance[:, 0].tobytes()
        assert wide.standard_errors()[:, 2].tobytes() == alone.standard_errors()[:, 0].tobytes()

    def test_zoomed_grid_reproduces_the_default_sweep_at_every_shared_value(self):
        base = setting_a_prob()

        def sweep(grid):
            return run_sweep(SimulationSpec(base.scenario, base.fixed_components, grid,
                                            replicates=200, seed=11))

        default, zoomed = sweep(base.sweep), sweep(Grid(0.5, 1.5, 0.05))
        at = {v: k for k, v in enumerate(default.grid_values.tolist())}
        cols = [at[v] for v in zoomed.grid_values.tolist()]  # a KeyError is an unshared value
        assert len(cols) == 21
        assert default.mean_importance[:, cols].tobytes() == zoomed.mean_importance.tobytes()
        assert default.standard_errors()[:, cols].tobytes() == zoomed.standard_errors().tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_mean_rejected_naming_scenario_grid_value_and_forecaster(self):
        # The squared errors overflow at b = 1e155: forecasters 1 and 2 get
        # inf - inf, forecaster 3 -inf.
        base = setting_a_point()
        spec = SimulationSpec(base.scenario, base.fixed_components, Grid(0.0, 1e155, 1e155),
                              replicates=1)
        with pytest.raises(ValidationError, match=r"^mean importance \(a_point, grid value "
                                                  r"1e\+155, forecaster_1\) is not finite$"):
            run_sweep(spec)

    def test_pooled_median_unbiased_at_crossover_bias(self):
        # with components N(-1,1), N(-0.5,1), N(1.5,1) the ensemble median
        # is exactly zero, the truth's mean
        pool = ForecastPool.from_dict(
            {
                "f1": normal_quantile_forecast(NormalSpec(-1.0, 1.0), CANONICAL_LEVELS),
                "f2": normal_quantile_forecast(NormalSpec(-0.5, 1.0), CANONICAL_LEVELS),
                "f3": normal_quantile_forecast(NormalSpec(1.5, 1.0), CANONICAL_LEVELS),
            }
        )
        ens = mean_quantile_ensemble(pool, pool.model_ids)
        assert ens.values[MEDIAN] == 0.0

    def test_dispersion_ensemble_correctly_specified_at_1_8(self):
        pool = ForecastPool.from_dict(
            {
                "f1": normal_quantile_forecast(NormalSpec(0.0, 0.5), CANONICAL_LEVELS),
                "f2": normal_quantile_forecast(NormalSpec(0.0, 0.7), CANONICAL_LEVELS),
                "f3": normal_quantile_forecast(NormalSpec(0.0, 1.8), CANONICAL_LEVELS),
            }
        )
        ens = mean_quantile_ensemble(pool, pool.model_ids)
        target = normal_quantile_forecast(NormalSpec(0.0, 1.0), CANONICAL_LEVELS)
        for got, want in zip(ens.values, target.values):
            assert got == pytest.approx(want, abs=1e-12)

    def test_sweep_rows_shape(self, tmp_path):
        spec = SimulationSpec(
            Scenario.A_POINT,
            setting_a_point().fixed_components,
            Grid(-1.0, -0.5, 0.25),
            replicates=10,
            seed=5,
        )
        write_sweep_csv(run_sweep(spec), str(tmp_path / "sweep.csv"))
        with open(tmp_path / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 3
        assert rows[0]["scenario"] == "a_point"
        assert [r["grid_value"] for r in rows[::3]] == ["-1", "-0.75", "-0.5"]
        assert [r["forecaster"] for r in rows[:3]] == ["forecaster_1", "forecaster_2", "forecaster_3"]
        assert all(r["replicates"] == "10" and r["seed"] == "5" for r in rows)


class TestStandardErrors:
    def test_collapsed_strata_by_hand(self):
        # Strata pairs (1, 3) and, R being odd, the triple (2, 6, 4):
        # (1 - 3)^2 + 3/2 * (2^2 + 2^2 + 0^2) = 16.
        phi = np.array([[1.0, 3.0, 2.0, 6.0, 4.0], [5.0, 5.0, 5.0, 5.0, 5.0]])
        assert simulation._collapsed_ss(phi).tolist() == [16.0, 0.0]
        assert simulation._collapsed_ss(phi[:, :4]).tolist() == [20.0, 0.0]
        assert simulation._collapsed_ss(phi[:, :3]).tolist() == [3.0, 0.0]

    def test_one_replicate_has_no_estimate(self):
        spec = SimulationSpec(Scenario.A_POINT, setting_a_point().fixed_components,
                              Grid(0.0, 1.0, 0.5), replicates=1)
        assert np.isnan(run_sweep(spec).standard_errors()).all()

    def test_band_rejects_a_closed_form_off_by_a_hundredth(self):
        # The a-point closed form within 4 SE holds in every cell (acceptance
        # criterion 6); moving the swept forecaster's bias by 0.01 must break
        # the band widely; the iid SE, tens of times too wide, let all but 4 pass.
        result = run_sweep(setting_a_point())
        wrong = np.array([
            [expected_phi(GaussianErrorModel((-1.0, -0.5, float(b) + 0.01), 1.0), i)
             for b in result.grid_values]
            for i in range(3)
        ])
        band = 4.0 * result.standard_errors() + 1e-9
        failed = int((np.abs(result.mean_importance - wrong) >= band).sum())
        assert failed >= 100, f"{failed} of {wrong.size} cells"


def _expected_wis(mean: float, sd: float) -> float:
    """E[WIS] at the canonical levels of N(mean, sd^2) quantiles against Y ~ N(0, 1).

    Each level's term is E[2(1{Y <= q} - tau)(q - Y)] = 2(q Phi(q) + phi(q) - tau q).
    """
    nd = NormalDist()
    terms = []
    for tau in CANONICAL_LEVELS.levels:
        q = mean + sd * nd.inv_cdf(tau)
        terms.append(2.0 * (q * nd.cdf(q) + nd.pdf(q) - tau * q))
    return math.fsum(terms) / len(terms)


def _exact_lomo(spec: SimulationSpec, value: float) -> list[float]:
    """Expected LOMO of each forecaster at one grid value of a default sweep."""
    if spec.scenario is Scenario.A_POINT:
        means = tuple(c.value for c in spec.fixed_components) + (value,)
        return [expected_phi(GaussianErrorModel(means, 1.0), i) for i in range(len(means))]
    swept = (NormalSpec(value, 1.0) if spec.scenario is Scenario.A_PROB
             else NormalSpec(0.0, value))
    members = list(spec.fixed_components) + [swept]

    def ensemble_wis(specs):
        # a mean ensemble of normal quantiles is the normal with the mean mean and mean sd
        return _expected_wis(sum(c.mean for c in specs) / len(specs),
                             sum(c.sd for c in specs) / len(specs))

    full = ensemble_wis(members)
    return [ensemble_wis(members[:i] + members[i + 1:]) - full for i in range(len(members))]


@pytest.mark.parametrize("setting", [setting_a_point, setting_a_prob, setting_b_dispersion])
def test_every_default_cell_within_four_standard_errors_of_its_exact_value(setting):
    spec = setting()
    result = run_sweep(spec, n_workers=2)
    exact = np.array([_exact_lomo(spec, float(v)) for v in result.grid_values]).T
    band = 4.0 * result.standard_errors() + 1e-12
    dev = np.abs(result.mean_importance - exact)
    assert np.all(dev <= band), f"worst dev/band ratio {(dev / band).max()}"
