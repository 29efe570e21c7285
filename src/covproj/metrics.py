"""Closed-form separability measures between two Gaussian classes.

The central quantity is the overlap

    eps = sqrt(pi1 * pi2) * exp(-delta(1/2)),

an analytic upper bound on the Bayes risk, where delta(s) is the Chernoff
distance between the class densities and s = 1/2 gives the Bhattacharyya
distance. Because the overlap has a data-free closed form it can score class
separability inside an embedding space directly from projected parameters,
which is what makes large enumeration sweeps affordable.

All log-determinants go through Cholesky factors (sum of log diagonal), never
through raw determinants, so the formulas stay finite at p = 1000. One kernel
evaluates the formula over a stack of items; the ambient distance and a single
embedding are its one-item case, so every caller gets the same bits.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .blas import solve_triangular
from .core import (
    DimensionMismatchError,
    NonPositiveEigenvalueError,
    ProjectionMatrix,
    SingularBlendError,
    TwoClassGaussian,
    _derived_spd,
)


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


_FACTORS = ("covariance blend", "class-1 covariance", "class-2 covariance")


def _chernoff_distances(
    covs_1: np.ndarray, covs_2: np.ndarray, gaps: np.ndarray, s: float
) -> list[float]:
    """delta(s) of each item of a stack: covariances (k, q, q), mean gaps (k, q).

    One Cholesky call factors the (blend, C1, C2) triple of every item. If it
    fails, the matrices are factored one at a time in that order, so the
    SingularBlendError names the first singular factor. The quadratic term is
    solved only for a non-zero gap; a zero gap gives exactly 0.0 either way.
    Each value is the one the formula gives for its item alone, bit for bit.
    """
    blends = s * covs_1 + (1.0 - s) * covs_2
    triples = np.stack((blends, covs_1, covs_2), axis=1)
    try:
        factors = np.linalg.cholesky(triples)
    except np.linalg.LinAlgError:
        factors = np.array(
            [[_chol(m, what) for what, m in zip(_FACTORS, triple)] for triple in triples]
        )
    logdets = 2.0 * np.log(np.diagonal(factors, axis1=-2, axis2=-1)).sum(axis=-1)
    distances = []
    for factor, gap, nonzero, (ld_blend, ld_1, ld_2) in zip(
        factors, gaps, gaps.any(axis=1).tolist(), logdets.tolist()
    ):
        quad = 0.0
        if nonzero:
            u = solve_triangular(factor[0], gap, lower=True)
            quad = float(u @ u)
        logdet_term = ld_blend - s * ld_1 - (1.0 - s) * ld_2
        distances.append(max(0.0, s * (1.0 - s) / 2.0 * quad + 0.5 * logdet_term))
    return distances


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
    return _chernoff_distances(
        model.cov_1.entries[None],
        model.cov_2.entries[None],
        (model.mean_2 - model.mean_1)[None],
        s,
    )[0]


def bhattacharyya_overlap(model: TwoClassGaussian) -> float:
    """Overlap sqrt(pi1*pi2) * exp(-delta(1/2)); in (0, 0.5] when balanced."""
    return math.sqrt(model.weight_1 * model.weight_2) * math.exp(-chernoff_distance(model, 0.5))


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


def embedded_overlaps(
    model: TwoClassGaussian, ws: Sequence[ProjectionMatrix]
) -> list[float]:
    """Bhattacharyya overlap of the model seen through each embedding of ws.

    The projections must share one shape; they are scored as one stack (one
    product W^T C_k W per class, one Cholesky call), and each value equals
    ``embedded_overlap`` of that projection alone, bit for bit. A singular
    embedded covariance raises SingularBlendError for the first projection
    that has one.
    """
    if not ws:
        return []
    for w in ws:
        if w.ambient_dim != model.dim:
            raise DimensionMismatchError(
                f"projection ambient dim {w.ambient_dim} != model dim {model.dim}"
            )
    if len({w.embed_dim for w in ws}) > 1:
        raise DimensionMismatchError("stacked projections must share one embedding dim")
    # C order whatever each frame's layout: the products' last bits follow it
    stack = np.array([w.entries for w in ws], order="C")
    stack_t = np.swapaxes(stack, 1, 2)
    covs = []
    for cov in (model.cov_1, model.cov_2):
        a = stack_t @ cov.entries @ stack
        covs.append((a + np.swapaxes(a, 1, 2)) / 2.0)
    gaps = stack_t @ model.mean_2 - stack_t @ model.mean_1
    scale = math.sqrt(model.weight_1 * model.weight_2)
    return [scale * math.exp(-delta) for delta in _chernoff_distances(*covs, gaps, 0.5)]


def embedded_overlap(model: TwoClassGaussian, w: ProjectionMatrix) -> float:
    """Bhattacharyya overlap of the model seen through the embedding W.

    Invariant under W -> W R for any invertible q x q R, since the
    determinant factors of R cancel; in particular random projections need
    not be orthonormalized before scoring.
    """
    return embedded_overlaps(model, [w])[0]


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
