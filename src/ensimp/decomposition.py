"""Closed-form analysis of leave-one-out importance for point forecasts.

For point forecasts scored by -SPE, the importance of model i has an exact
expansion into its own squared error, error products with the other models,
and the other models' joint error structure. These functions serve as
analytic oracles for the simulation engine and the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .scoring import ValidationError

__all__ = [
    "ErrorVector",
    "GaussianErrorModel",
    "ambiguity_check",
    "expected_phi",
    "expected_phi_from_moments",
    "phi_decomposed",
    "phi_direct",
]


@dataclass(frozen=True)
class ErrorVector:
    """Prediction errors e_j = y - yhat_j, one per model (at least two)."""

    errors: tuple[float, ...]

    def __post_init__(self) -> None:
        errors = tuple(float(e) for e in self.errors)
        if len(errors) < 2:
            raise ValidationError("need errors from at least 2 models")
        for e in errors:
            if not math.isfinite(e):
                raise ValidationError(f"error values must be finite, got {e!r}")
        object.__setattr__(self, "errors", errors)

    def __len__(self) -> int:
        return len(self.errors)


@dataclass(frozen=True)
class GaussianErrorModel:
    """Deterministic point forecasts against a zero-mean truth with known variance."""

    forecast_means: tuple[float, ...]
    truth_variance: float

    def __post_init__(self) -> None:
        means = tuple(float(v) for v in self.forecast_means)
        if len(means) < 2:
            raise ValidationError("need at least 2 forecasters")
        if not (math.isfinite(self.truth_variance) and self.truth_variance > 0):
            raise ValidationError("truth_variance must be positive")
        object.__setattr__(self, "forecast_means", means)


def _check_index(n: int, index: int) -> None:
    if not 0 <= index < n:
        raise ValidationError(f"model index {index} outside [0, {n - 1}]")


def phi_direct(errors: ErrorVector, index: int) -> float:
    """Importance of model ``index``: -(mean error)^2 + (leave-one-out mean error)^2.

    The full ensemble's error equals the mean of the member errors, so this
    is the -SPE score gain from including the model.
    """
    e = np.asarray(errors.errors, dtype=np.float64)
    n = len(e)
    _check_index(n, index)
    mean_all = float(np.add.reduce(e)) / n
    mean_loo = float(np.add.reduce(np.concatenate((e[:index], e[index + 1:])))) / (n - 1)
    return -(mean_all**2) + mean_loo**2


def phi_decomposed(errors: ErrorVector, index: int) -> float:
    """Importance expanded into own-error, cross-error, and others' terms.

    Algebraically identical to :func:`phi_direct`:
    ``-e_i^2/n^2 - (2/n^2) sum_{j!=i} e_i e_j
    + (2n-1)/(n(n-1))^2 * (sum_{j!=i} e_j^2 + 2 sum_{j<k, both!=i} e_j e_k)``.
    """
    e = errors.errors
    n = len(e)
    _check_index(n, index)
    ei = e[index]
    others = [e[j] for j in range(n) if j != index]
    cross = math.fsum(ei * ej for ej in others)
    sq = math.fsum(ej**2 for ej in others)
    pairs = math.fsum(
        others[a] * others[b] for a in range(len(others)) for b in range(a + 1, len(others))
    )
    coef = (2 * n - 1) / (n * (n - 1)) ** 2
    return -(ei**2) / n**2 - (2.0 / n**2) * cross + coef * (sq + 2.0 * pairs)


def expected_phi_from_moments(
    espe: Sequence[float], error_products: np.ndarray, index: int
) -> float:
    """Expected importance from ESPE values and expected error products.

    ``espe[j]`` is E[(Y - Yhat_j)^2] and ``error_products[j, k]`` is
    E[e_j e_k]; only off-diagonal entries are read. This is the general form
    of the closed curve; :func:`expected_phi` fills in the moments for the
    zero-mean Gaussian truth setting.
    """
    espe = [float(v) for v in espe]
    n = len(espe)
    if n < 2:
        raise ValidationError("need at least 2 forecasters")
    _check_index(n, index)
    prod = np.asarray(error_products, dtype=np.float64)
    if prod.shape != (n, n):
        raise ValidationError(f"error_products must be {n}x{n}, got {prod.shape}")
    coef = (2 * n - 1) / (n * (n - 1)) ** 2
    others = [j for j in range(n) if j != index]
    cross = math.fsum(prod[index, j] for j in others)
    espe_rest = math.fsum(espe[j] for j in others)
    pairs = math.fsum(
        prod[others[a], others[b]]
        for a in range(len(others))
        for b in range(a + 1, len(others))
    )
    return (
        -espe[index] / n**2
        + coef * espe_rest
        - (2.0 / n**2) * cross
        + 2.0 * coef * pairs
    )


def expected_phi(model: GaussianErrorModel, index: int) -> float:
    """Expected importance under zero-mean truth with the model's variance.

    With deterministic forecasts yhat_j and truth Y of mean zero,
    ``ESPE_j = sigma^2 + yhat_j^2`` and ``E[e_j e_k] = sigma^2 + yhat_j yhat_k``.
    """
    means = np.asarray(model.forecast_means, dtype=np.float64)
    var = model.truth_variance
    espe = var + means**2
    prod = var + np.outer(means, means)
    return expected_phi_from_moments(espe.tolist(), prod, index)


def ambiguity_check(
    errors: ErrorVector, weights: Sequence[float], index: int
) -> float:
    """Residual of reconstructing importance from two ambiguity decompositions.

    The ensemble's squared error splits into the weighted member error minus
    the weighted member spread around the ensemble (the ambiguity term); the
    same holds for the leave-``index``-out ensemble with the remaining
    weights renormalized. Subtracting the two reconstructs the importance
    value as the change in weighted member error (whose only new piece is
    model ``index``'s own squared error) plus the change in ambiguity.
    Returns the difference between the directly computed importance and that
    reconstruction; it is zero up to rounding.
    """
    e = errors.errors
    n = len(e)
    _check_index(n, index)
    w = [float(x) for x in weights]
    if len(w) != n:
        raise ValidationError(f"got {len(w)} weights for {n} errors")
    for x in w:
        if not (math.isfinite(x) and x >= 0.0):
            raise ValidationError(f"weights must be non-negative, got {x!r}")
    if abs(math.fsum(w) - 1.0) > 1e-12:
        raise ValidationError("weights must sum to 1 within 1e-12")
    rest_mass = 1.0 - w[index]
    if rest_mass <= 0.0:
        raise ValidationError("leaving the model out requires other models with weight")

    others = [j for j in range(n) if j != index]
    w_loo = {j: w[j] / rest_mass for j in others}

    mean_full = math.fsum(w[j] * e[j] for j in range(n))
    mean_loo = math.fsum(w_loo[j] * e[j] for j in others)
    phi = -(mean_full**2) + mean_loo**2

    err_full = math.fsum(w[j] * e[j] ** 2 for j in range(n))
    err_loo = math.fsum(w_loo[j] * e[j] ** 2 for j in others)
    amb_full = math.fsum(w[j] * (e[j] - mean_full) ** 2 for j in range(n))
    amb_loo = math.fsum(w_loo[j] * (e[j] - mean_loo) ** 2 for j in others)

    recon = (err_loo - err_full) + (amb_full - amb_loo)
    return phi - recon
