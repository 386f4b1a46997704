"""Closed-form importance for point forecasts scored by -SPE.

A model's mean marginal contribution over the coalitions of one size is exact
in the error products. :func:`contributions_by_size` maps an (n, n) product
matrix (e_j e_k realized, E[e_j e_k] expected) to the (n, n - 1) mean
contribution of each model at each coalition size s = 1..n-1. LOMO is its
last column, permutation-weight LASOMO its row mean and equal-weight LASOMO
its C(n - 1, s)-weighted column sum over 2^(n-1) - 1. :func:`phi_direct`
(the LOMO kernel at truth 0) and :func:`ambiguity_check` check its LOMO
readout :func:`phi_decomposed` independently, on an :class:`ErrorVector` of
one instance, (n,), or a batch, (instances, n), with an index per instance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .importance import lomo_kernel
from .scoring import ValidationError, _require_finite

__all__ = [
    "ErrorVector",
    "GaussianErrorModel",
    "ambiguity_check",
    "contributions_by_size",
    "expected_phi",
    "expected_phi_from_moments",
    "phi_decomposed",
    "phi_direct",
]


@dataclass(frozen=True, eq=False)
class ErrorVector:
    """Errors e_j = y - yhat_j of n >= 2 models, as a read-only float64 array:
    (n,) for one instance or (instances, n) for a batch, checked once here."""

    errors: np.ndarray

    def __post_init__(self) -> None:
        errors = np.array(self.errors, dtype=np.float64)
        if errors.ndim not in (1, 2) or errors.shape[-1] < 2:
            raise ValidationError("need errors from at least 2 models")
        bad = errors[~np.isfinite(errors)]
        if bad.size:
            raise ValidationError(f"error values must be finite, got {float(bad[0])!r}")
        errors.flags.writeable = False
        object.__setattr__(self, "errors", errors)


@dataclass(frozen=True)
class GaussianErrorModel:
    """Deterministic point forecasts against a zero-mean truth with known variance."""

    forecast_means: tuple[float, ...]
    truth_variance: float

    def __post_init__(self) -> None:
        means = tuple(_require_finite(v, "forecast mean") for v in self.forecast_means)
        if len(means) < 2:
            raise ValidationError("need at least 2 forecasters")
        if not (math.isfinite(self.truth_variance) and self.truth_variance > 0):
            raise ValidationError("truth_variance must be positive")
        object.__setattr__(self, "forecast_means", means)


def _checked(e: np.ndarray, index) -> np.ndarray:
    """The model index of each instance of the (..., n) values ``e``, an integer in [0, n)."""
    idx = np.broadcast_to(index, e.shape[:-1])
    bad = idx[(idx < 0) | (idx >= e.shape[-1]) | (idx.dtype.kind not in "iu")]
    if bad.size:
        raise ValidationError(f"model index {bad[0]} is not an integer in [0, {e.shape[-1] - 1}]")
    return idx


def _at(per_model: np.ndarray, errors: ErrorVector, index):
    """The (..., n) values ``per_model`` at each instance's model index, checked;
    ``[()]`` turns a single instance's 0-d result into a float."""
    idx = _checked(errors.errors, index)
    return np.take_along_axis(per_model, idx[..., None], axis=-1)[..., 0][()]


def _finite(readout):
    """``readout`` without numpy's overflow warnings, rejecting a non-finite result
    and naming, in a batch, its first instance: the inputs are checked finite,
    but errors or forecast means near 1e155 still overflow once squared."""

    @functools.wraps(readout)
    def checked(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            result = readout(*args, **kwargs)
        bad = np.flatnonzero(~np.isfinite(result))
        if bad.size:
            where = f" in instance {bad[0]}" if np.ndim(result) else ""
            raise ValidationError(f"{readout.__name__} overflows float64{where}")
        return result

    return checked


def contributions_by_size(products) -> np.ndarray:
    """Each model's mean marginal contribution to -SPE at each coalition size.

    ``products`` is an (..., n, n) symmetric matrix P of error products. Entry
    [..., i, s - 1] of the (..., n, n - 1) result is the mean over coalitions S
    of s models other than i of -(mean error of S + i)^2 + (mean error of S)^2.
    X, the sum of S's errors, is a size-s draw without replacement from the
    m = n - 1 others O: ``E[e_i X] = (s/m) sum_O P_ij``, ``E[X^2] = (s/m)
    sum_O P_jj + s(s-1)/(m(m-1)) sum_{j != k in O} P_jk`` and
    ``c_s = -(P_ii + 2 E[e_i X] + E[X^2]) / (s+1)^2 + E[X^2] / s^2``.
    """
    p = np.asarray(products, dtype=np.float64)
    m = p.shape[-1] - 1  # the other models
    off = 1.0 - np.eye(m + 1)
    diag = np.diagonal(p, axis1=-2, axis2=-1)
    cross = np.einsum("...ij,ij->...i", p, off)[..., None]
    squares = np.einsum("...j,ij->...i", diag, off)[..., None]
    # off[i, j] * off[i, k] * off[j, k]: j and k are distinct and neither is i
    pairs = np.einsum("...jk,ijk->...i", p, off[:, :, None] * off[:, None, :] * off)[..., None]
    s = np.arange(1.0, m + 1)
    x2 = (s / m) * squares + s * (s - 1) / max(m * (m - 1), 1) * pairs
    own = diag[..., None] + 2 * (s / m) * cross
    return -(own + x2) / (s + 1) ** 2 + x2 / s**2


@_finite
def phi_direct(errors: ErrorVector, index):
    """Importance of model ``index``: the LOMO kernel's -SPE gain from including it,
    on member values -e against truth 0, where each member's error is e."""
    return _at(lomo_kernel(-errors.errors.T, None, 0.0).T, errors, index)


@_finite
def phi_decomposed(errors: ErrorVector, index):
    """Importance from the error products: the closed form's LOMO column.

    Algebraically identical to :func:`phi_direct`:
    ``-e_i^2/n^2 - (2/n^2) sum_{j!=i} e_i e_j
    + (2n-1)/(n(n-1))^2 * (sum_{j!=i} e_j^2 + sum_{j!=k, both!=i} e_j e_k)``.
    """
    e = errors.errors
    return _at(contributions_by_size(e[..., :, None] * e[..., None, :])[..., -1], errors, index)


def _lomo_from_moments(espe: np.ndarray, error_products, index: int) -> float:
    """The closed form's LOMO readout of the moments, unchecked for finiteness."""
    n = len(espe)
    if n < 2:
        raise ValidationError("need at least 2 forecasters")
    _checked(espe, index)
    prod = np.array(error_products, dtype=np.float64)
    if prod.shape != (n, n):
        raise ValidationError(f"error_products must be {n}x{n}, got {prod.shape}")
    np.fill_diagonal(prod, espe)
    return float(contributions_by_size(prod)[index, -1])


@_finite
def expected_phi_from_moments(espe: Sequence[float], error_products, index: int) -> float:
    """Expected importance from ESPE values and expected error products.

    ``espe[j]`` is E[(Y - Yhat_j)^2], put on the diagonal of ``error_products``,
    whose [j, k] is E[e_j e_k]. This is the closed form's LOMO readout;
    :func:`expected_phi` fills in the moments for zero-mean Gaussian truth.
    Both arguments must be finite, and so must the result.
    """
    espe, prod = np.asarray(espe, dtype=np.float64), np.asarray(error_products, dtype=np.float64)
    for name, moments in (("espe", espe), ("error_products", prod)):
        bad = np.argwhere(~np.isfinite(moments))
        if bad.size:
            at = ", ".join(map(str, bad[0].tolist()))
            raise ValidationError(f"{name}[{at}] must be finite, got {float(moments[tuple(bad[0])])!r}")
    return _lomo_from_moments(espe, prod, index)


@_finite
def expected_phi(model: GaussianErrorModel, index: int) -> float:
    """Expected importance under zero-mean truth with the model's variance.

    With deterministic forecasts yhat_j and truth Y of mean zero,
    ``ESPE_j = sigma^2 + yhat_j^2`` and ``E[e_j e_k] = sigma^2 + yhat_j yhat_k``.
    """
    means = np.asarray(model.forecast_means, dtype=np.float64)
    prod = model.truth_variance + np.outer(means, means)  # may overflow: checked as the result
    return _lomo_from_moments(np.diagonal(prod), prod, index)


@_finite
def ambiguity_check(errors: ErrorVector, weights, index):
    """Residual of reconstructing importance from two ambiguity decompositions.

    A weighted ensemble's squared error is the weighted member error minus the
    weighted spread around it (the ambiguity), for the full pool and the pool
    without model ``index`` (weights renormalized), so the importance is the change
    in member error plus the change in ambiguity. ``weights`` has the errors' shape.
    """
    e, idx = errors.errors, _checked(errors.errors, index)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != e.shape:
        raise ValidationError(f"got weights of shape {w.shape} for errors of shape {e.shape}")
    bad = w[~(np.isfinite(w) & (w >= 0.0))]
    if bad.size:
        raise ValidationError(f"weights must be non-negative, got {float(bad[0])!r}")
    if np.any(np.abs(w.sum(axis=-1) - 1.0) > 1e-12):
        raise ValidationError("weights must sum to 1 within 1e-12")
    own = np.arange(e.shape[-1]) == idx[..., None]
    rest_mass = 1.0 - w.sum(axis=-1, where=own)
    if np.any(rest_mass <= 0.0):
        raise ValidationError("leaving the model out requires other models with weight")
    both = np.stack((w, np.where(own, 0.0, w / rest_mass[..., None])))  # full, leave-one-out
    mean = (both * e).sum(axis=-1)
    phi = -(mean[0] * mean[0]) + mean[1] * mean[1]
    err = (both * e * e).sum(axis=-1)
    amb = (both * (e - mean[..., None]) ** 2).sum(axis=-1)
    recon = (err[1] - err[0]) + (amb[0] - amb[1])
    return (phi - recon)[()]
