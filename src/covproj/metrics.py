"""Closed-form separability measures between two Gaussian classes.

The central quantity is the overlap

    eps = sqrt(pi1 * pi2) * exp(-delta(1/2)),

an analytic upper bound on the Bayes risk, where delta(s) is the Chernoff
distance between the class densities and s = 1/2 gives the Bhattacharyya
distance. Because the overlap has a data-free closed form it can score class
separability inside an embedding space directly from projected parameters,
which is what makes large enumeration sweeps affordable.

All log-determinants go through Cholesky factors (sum of log diagonal), never
through raw determinants, so the formulas stay finite at p = 1000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .core import (
    DimensionMismatchError,
    NonPositiveEigenvalueError,
    ProjectionMatrix,
    SingularBlendError,
    TwoClassGaussian,
    _derived_spd,
)


@dataclass(frozen=True)
class OverlapReport:
    """Distance / overlap pair at a given Chernoff exponent s."""

    distance: float
    overlap: float
    s: float


def _chol(entries: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(entries)
    except np.linalg.LinAlgError as exc:
        raise SingularBlendError(
            f"{what} of order {entries.shape[0]} is numerically singular",
            dim=entries.shape[0],
        ) from exc


def _logdet(chol_factor: np.ndarray) -> float:
    return 2.0 * float(np.sum(np.log(np.diag(chol_factor))))


def chernoff_distance(model: TwoClassGaussian, s: float) -> float:
    """Chernoff distance delta(s) between the two class densities.

    delta(s) = s(1-s)/2 * d^T (s*C1 + (1-s)*C2)^{-1} d
               + 1/2 * ln[ det(s*C1 + (1-s)*C2) / (det(C1)^s det(C2)^{1-s}) ]

    with d = mu2 - mu1. Requires 0 <= s <= 1 and strictly positive definite
    covariances. The value is clamped at 0 to absorb round-off on identical
    distributions.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must lie in [0, 1], got {s}")
    c1 = model.cov_1.entries
    c2 = model.cov_2.entries
    blend = s * c1 + (1.0 - s) * c2
    l_blend = _chol(blend, "covariance blend")
    l1 = _chol(c1, "class-1 covariance")
    l2 = _chol(c2, "class-2 covariance")
    d = model.mean_2 - model.mean_1
    u = solve_triangular(l_blend, d, lower=True)
    quad = float(u @ u)
    logdet_term = _logdet(l_blend) - s * _logdet(l1) - (1.0 - s) * _logdet(l2)
    return max(0.0, s * (1.0 - s) / 2.0 * quad + 0.5 * logdet_term)


def bhattacharyya_distance(model: TwoClassGaussian) -> float:
    """Bhattacharyya distance, i.e. the Chernoff distance at s = 1/2."""
    return chernoff_distance(model, 0.5)


def bhattacharyya_overlap(model: TwoClassGaussian) -> float:
    """Overlap sqrt(pi1*pi2) * exp(-delta(1/2)); in (0, 0.5] when balanced."""
    return bhattacharyya_report(model).overlap


def bhattacharyya_report(model: TwoClassGaussian) -> OverlapReport:
    delta = bhattacharyya_distance(model)
    overlap = math.sqrt(model.weight_1 * model.weight_2) * math.exp(-delta)
    return OverlapReport(distance=delta, overlap=overlap, s=0.5)


def project_model(model: TwoClassGaussian, w: ProjectionMatrix) -> TwoClassGaussian:
    """Push the population parameters through W: (mu, C) -> (W^T mu, W^T C W)."""
    if w.ambient_dim != model.dim:
        raise DimensionMismatchError(
            f"projection ambient dim {w.ambient_dim} != model dim {model.dim}"
        )
    we = w.entries
    return TwoClassGaussian(
        model.weight_1,
        we.T @ model.mean_1,
        we.T @ model.mean_2,
        _derived_spd(we.T @ model.cov_1.entries @ we),
        _derived_spd(we.T @ model.cov_2.entries @ we),
    )


def embedded_overlap(model: TwoClassGaussian, w: ProjectionMatrix) -> float:
    """Bhattacharyya overlap of the model seen through the embedding W.

    Invariant under W -> W R for any invertible q x q R, since the
    determinant factors of R cancel; in particular random projections need
    not be orthonormalized before scoring.
    """
    return bhattacharyya_overlap(project_model(model, w))


def optimal_overlap_closed_form(
    eigenvalues, weights: tuple[float, float] = (0.5, 0.5)
) -> float:
    """Overlap achieved by the overlap-minimizing embedding, from its spectrum.

    Given the q retained generalized eigenvalues lam_j of the class
    covariance pair, returns

        sqrt(pi1*pi2) * ( prod_j (lam_j^(1/2) + lam_j^(-1/2)) / 2 )^(-1/2).

    Every factor is >= 1, so the value is non-increasing as eigenvalues are
    appended in decreasing order of lam + 1/lam.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if lam.size == 0 or np.any(lam <= 0.0):
        raise NonPositiveEigenvalueError(
            "all retained eigenvalues must be strictly positive"
        )
    root = np.sqrt(lam)
    log_product = float(np.sum(np.log((root + 1.0 / root) / 2.0)))
    return math.sqrt(weights[0] * weights[1]) * math.exp(-0.5 * log_product)
