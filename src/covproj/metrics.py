"""Closed-form separability measures between two Gaussian classes.

The central quantity is the overlap

    eps = sqrt(pi1 * pi2) * exp(-delta(1/2)),

an analytic upper bound on the Bayes risk, where delta(1/2) is the
Bhattacharyya distance (the Chernoff distance at s = 1/2, the only s used)
between the class densities. Because the overlap has a data-free closed form
it can score class separability inside an embedding space directly from
projected parameters, which is what makes large enumeration sweeps affordable.

All log-determinants go through Cholesky factors (``_logdet``), never through
raw determinants, so the formulas stay finite at p = 1000. ``_embed`` is the
one W^T . W, for the QDA rule, the overlap and the reconstruction error. One
kernel evaluates the overlap over a stack of items; the ambient overlap and a
single embedding are its one-item case, so every caller gets the same bits.
It is also the one fallback: a stack that does not factor is evaluated item
by item, and an item with a singular factor gets that factor's error.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .blas import solve_triangular
from .core import (
    ConfigError,
    ProjectionMatrix,
    SingularBlendError,
    TwoClassGaussian,
    _check_finite,
    _derived_spd,
    _sym,
)


def _logdet(factors: np.ndarray) -> np.ndarray:
    """Log-determinant of each matrix of a stack, from its lower Cholesky factor."""
    return 2.0 * np.log(np.diagonal(factors, axis1=-2, axis2=-1)).sum(axis=-1)


_FACTORS = ("covariance blend", "class-1 covariance", "class-2 covariance")


def _overlaps(
    model: TwoClassGaussian, covs_1: np.ndarray, covs_2: np.ndarray, gaps: np.ndarray
) -> list[float | SingularBlendError]:
    """Overlap of each item of a stack (covariances (k, q, q), mean gaps
    (k, q)) under the class weights of ``model``, or its SingularBlendError.

    One Cholesky call factors the (blend, C1, C2) triple of every item. If it
    fails, each item is evaluated alone; one that does not factor gets the
    error naming its first singular factor in that order. The quadratic term
    is solved only for a non-zero gap (a zero gap gives exactly 0.0 either
    way). Each value is the one the formula gives for its item alone.
    """
    triples = np.stack((0.5 * covs_1 + 0.5 * covs_2, covs_1, covs_2), axis=1)
    try:
        factors = np.linalg.cholesky(triples)
    except np.linalg.LinAlgError:
        if len(triples) > 1:
            items = zip(covs_1[:, None], covs_2[:, None], gaps[:, None])
            return [_overlaps(model, *item)[0] for item in items]
        for what, m in zip(_FACTORS, triples[0]):
            try:
                np.linalg.cholesky(m)
            except np.linalg.LinAlgError:
                message = f"{what} of order {len(m)} is numerically singular"
                return [SingularBlendError(message, dim=len(m))]
        raise
    logdets = _logdet(factors)
    scale = math.sqrt(model.weight_1 * model.weight_2)
    values = []
    for factor, gap, nonzero, (ld_blend, ld_1, ld_2) in zip(
        factors, gaps, gaps.any(axis=1).tolist(), logdets.tolist()
    ):
        quad = 0.0
        if nonzero:
            u = solve_triangular(factor[0], gap, lower=True)
            quad = float(u @ u)
        delta = max(0.0, 0.125 * quad + 0.5 * (ld_blend - 0.5 * ld_1 - 0.5 * ld_2))
        values.append(scale * math.exp(-delta))
    return values


def _values(outcomes: list[float | SingularBlendError]) -> list[float]:
    """The values of a stack's outcomes; raises the first item's error."""
    for outcome in outcomes:
        if isinstance(outcome, SingularBlendError):
            raise outcome
    return outcomes


def bhattacharyya_overlap(model: TwoClassGaussian) -> float:
    """Overlap sqrt(pi1*pi2) * exp(-delta(1/2)); in (0, 0.5] when balanced.

    delta(1/2) = d^T B^{-1} d / 8 + ln[det(B) / sqrt(det(C1) det(C2))] / 2,
    with d = mu2 - mu1 and B = (C1 + C2) / 2, needs strictly positive
    definite covariances and is clamped at 0 to absorb round-off.
    """
    c1, c2, gap = model.cov_1.entries, model.cov_2.entries, model.mean_2 - model.mean_1
    return _values(_overlaps(model, c1[None], c2[None], gap[None]))[0]


def _embed(ws: Sequence[ProjectionMatrix], *params: np.ndarray) -> list[np.ndarray]:
    """Each p-vector v as the (k, q) stack of W^T v over the frames W of ws, each
    p x p matrix A as the unsymmetrized (k, q, q) stack of W^T A W."""
    p = len(params[0])
    for w in ws:
        if w.ambient_dim != p:
            raise ConfigError("w", f"projection ambient dim {w.ambient_dim} != model dim {p}")
    if len({w.embed_dim for w in ws}) > 1:
        raise ConfigError("ws", "stacked projections must share one embedding dim")
    # C order whatever each frame's layout: the products' last bits follow it
    stack = np.array([w.entries for w in ws], order="C")
    stack_t = np.swapaxes(stack, 1, 2)
    return [stack_t @ a @ stack if a.ndim == 2 else stack_t @ a for a in params]


def project_model(model: TwoClassGaussian, w: ProjectionMatrix) -> TwoClassGaussian:
    """Push the population parameters through W: (mu, C) -> (W^T mu, W^T C W)."""
    m = model
    mu_1, mu_2, c_1, c_2 = _embed([w], m.mean_1, m.mean_2, m.cov_1.entries, m.cov_2.entries)
    return TwoClassGaussian(
        m.weight_1, mu_1[0], mu_2[0], _derived_spd(c_1[0]), _derived_spd(c_2[0])
    )


def _embedded_overlaps(
    model: TwoClassGaussian, ws: Sequence[ProjectionMatrix]
) -> list[float | SingularBlendError]:
    """``embedded_overlaps`` with each singular item's error in its place."""
    if not ws:
        return []
    m = model
    mu_1, mu_2, c_1, c_2 = _embed(ws, m.mean_1, m.mean_2, m.cov_1.entries, m.cov_2.entries)
    return _overlaps(m, _sym(c_1), _sym(c_2), mu_2 - mu_1)


def embedded_overlaps(
    model: TwoClassGaussian, ws: Sequence[ProjectionMatrix]
) -> list[float]:
    """Bhattacharyya overlap of the model seen through each embedding of ws.

    The projections must share one shape; they are scored as one stack (one
    product W^T C_k W per class, one Cholesky call), and each value equals
    ``embedded_overlap`` of that projection alone, bit for bit. If the stack
    does not factor, each projection is evaluated alone, and the first one
    with a singular embedded covariance raises its SingularBlendError.
    """
    return _values(_embedded_overlaps(model, ws))


def embedded_overlap(model: TwoClassGaussian, w: ProjectionMatrix) -> float:
    """Bhattacharyya overlap of the model seen through the embedding W.

    Invariant under W -> W R for any invertible q x q R, since the
    determinant factors of R cancel; in particular random projections need
    not be orthonormalized before scoring.
    """
    return embedded_overlaps(model, [w])[0]


def optimal_overlap_closed_form(eigenvalues) -> float:
    """Overlap achieved by the overlap-minimizing embedding of a balanced
    zero-mean pair, from its spectrum.

    Given the q retained generalized eigenvalues lam_j of the class
    covariance pair, returns

        1/2 * ( prod_j (lam_j^(1/2) + lam_j^(-1/2)) / 2 )^(-1/2).

    Every factor is >= 1, so the value is non-increasing as eigenvalues are
    appended in decreasing order of lam + 1/lam.
    """
    lam = _check_finite("eigenvalues", eigenvalues)
    if lam.size == 0 or np.any(lam <= 0.0):
        raise ConfigError("eigenvalues", "all retained eigenvalues must be strictly positive")
    root = np.sqrt(lam)
    log_product = float(np.sum(np.log((root + 1.0 / root) / 2.0)))
    return 0.5 * math.exp(-0.5 * log_product)
