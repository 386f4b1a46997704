"""Quantile-forecast scoring, mean ensembles, and per-model importance analytics."""

from .dataio import (
    NaPolicy,
    Panel,
    TaskKey,
    TaskPanel,
    TaskPool,
    apply_na_policy,
    build_task_pools,
    from_pools,
    read_forecasts,
    read_truth,
    write_results,
)
from .decomposition import (
    ErrorVector,
    GaussianErrorModel,
    ambiguity_check,
    expected_phi,
    expected_phi_from_moments,
    phi_decomposed,
    phi_direct,
)
from .ensembling import (
    ForecastPool,
    mean_point_ensemble,
    mean_quantile_ensemble,
)
from .importance import (
    Algorithm,
    CapacityError,
    ImportanceResult,
    WeightScheme,
    compute_importance,
    importance_by_subset_size,
    lasomo_all,
    lasomo_task,
    lomo_all,
    lomo_task,
    rank_models,
    shapley_weight_exact,
)
from .scoring import (
    CANONICAL_LEVELS,
    Metric,
    Observation,
    PointForecast,
    QuantileForecast,
    QuantileLevels,
    ValidationError,
    positive_score,
    spe,
    wis,
)
from .simulation import (
    Grid,
    NormalSpec,
    Scenario,
    SimulationSpec,
    SweepResult,
    normal_quantile,
    normal_quantile_forecast,
    run_sweep,
    setting_a_point,
    setting_a_prob,
    setting_b_dispersion,
)

__version__ = "0.1.0"
