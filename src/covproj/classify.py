"""Embedded Gaussian likelihood-ratio (QDA) classification and risk metrics.

A classifier lives in the image of a projection W: the class parameters are
pushed through W and the quadratic discriminant rule is applied to W^T x.
The same machinery serves the trained classifier (parameters estimated from
a labeled training split) and the population-parameter Bayes rule used by
the Monte Carlo risk oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .blas import solve_triangular
from .core import (
    ConfigError,
    LabeledDataset,
    NotPositiveDefiniteError,
    ProjectionMatrix,
    RngStream,
    SingularEmbeddedCovarianceError,
    TwoClassGaussian,
    _check_count,
    _check_finite,
    _check_ridge,
    _derived_spd,
)
from .metrics import _embed, _logdet, project_model

_MC_BLOCK = 1 << 16
# normals drawn and embedded at a time inside a block (1 MB), so a chunk holds
# max(1, _MC_CHUNK // p) rows; it bounds the memory of mc_bayes_risk whatever
# p is, and does not move the draws
_MC_CHUNK = 1 << 17


@dataclass(frozen=True)
class RiskEstimate:
    """Monte Carlo misclassification estimate with its binomial standard error."""

    estimate: float
    std_error: float
    n_samples: int


@dataclass(frozen=True, eq=False)
class EmbeddedQda:
    """Gaussian likelihood-ratio classifier in the image of a projection.

    Decides argmax_k [ ln(pi_k) - 1/2 ln det(C_k) - 1/2 |L_k^{-1}(y - m_k)|^2 ]
    for y = W^T x. Cholesky factors and log-determinants are precomputed
    once; the object is immutable and safe to share.
    """

    w: ProjectionMatrix | None
    model: TwoClassGaussian
    chol_factors: tuple[np.ndarray, np.ndarray]
    log_dets: tuple[float, float]

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Labels in {1, 2}, exact ties to class 1; a non-finite x raises ConfigError."""
        y = np.atleast_2d(_check_finite("x", x))
        dim = self.model.dim if self.w is None else self.w.ambient_dim
        if y.shape[1] != dim:
            raise ConfigError("x", f"data has {y.shape[1]} columns, the rule expects {dim}")
        if self.w is not None:
            y = y @ self.w.entries
        m = self.model
        scores = np.empty((y.shape[0], 2))
        for k, (mean, weight) in enumerate(((m.mean_1, m.weight_1), (m.mean_2, m.weight_2))):
            centered = y - mean
            u = solve_triangular(self.chol_factors[k], centered.T, lower=True)
            quad = np.einsum("ij,ij->j", u, u)
            scores[:, k] = math.log(weight) - 0.5 * self.log_dets[k] - 0.5 * quad
        return np.where(scores[:, 1] > scores[:, 0], 2, 1)


def fit_embedded_qda(
    model: TwoClassGaussian,
    w: ProjectionMatrix | None = None,
    ridge: float = 0.0,
) -> EmbeddedQda:
    """The embedded classifier of a two-class model seen through W.

    Given the population model this is the embedded Bayes rule; given the
    plug-in estimates of a training split (:func:`empirical_covariances`) it
    is the trained rule. ``ridge`` is relative: each embedded covariance
    receives ridge * mean(trace(C_k)/p) * I, an ambient-scale floor that
    keeps the fit well defined when the projection lands in the null space
    of a sample covariance. With ridge 0, a singular embedded covariance
    raises :class:`SingularEmbeddedCovarianceError` rather than being
    silently repaired, because the instability of large embedding dimensions
    is a phenomenon to surface rather than mask.
    """
    _check_ridge(ridge)
    emb = model if w is None else project_model(model, w)
    ridge_abs = 0.0
    if ridge > 0.0:
        ridge_abs = ridge * (
            (float(np.trace(model.cov_1.entries)) + float(np.trace(model.cov_2.entries)))
            / (2.0 * model.dim)
        )
    covs, chols = [], []
    for k, cov_k in enumerate((emb.cov_1, emb.cov_2)):
        if ridge_abs > 0.0:
            cov_k = _derived_spd(cov_k.entries + ridge_abs * np.eye(emb.dim))
        try:
            if ridge_abs == 0.0:
                # Cholesky can sneak through an exactly rank-deficient matrix
                # on round-off pivots, so singularity is tested spectrally.
                w_k = np.linalg.eigvalsh(cov_k.entries)
                if w_k[0] <= 1e-12 * max(w_k[-1], 0.0) or w_k[-1] <= 0.0:
                    raise NotPositiveDefiniteError(
                        f"eigenvalues span [{w_k[0]:.3e}, {w_k[-1]:.3e}]"
                    )
            chols.append(cov_k.cholesky())
        except NotPositiveDefiniteError as exc:
            raise SingularEmbeddedCovarianceError(
                f"embedded covariance of class {k + 1} is singular at q={emb.dim}; "
                "the embedding dimension is too large for the class sample size"
            ) from exc
        covs.append(cov_k)
    return EmbeddedQda(
        w=w,
        model=replace(emb, cov_1=covs[0], cov_2=covs[1]),
        chol_factors=(chols[0], chols[1]),
        log_dets=(float(_logdet(chols[0])), float(_logdet(chols[1]))),
    )


def oos_error(model: EmbeddedQda, val: LabeledDataset) -> float:
    """Misclassification fraction of the classifier on a held-out split."""
    if val.n == 0:
        raise ConfigError("val", "validation set is empty")
    predictions = model.predict(val.X)
    return float(np.count_nonzero(predictions != val.z)) / val.n


def mc_bayes_risk(
    model: TwoClassGaussian,
    w: ProjectionMatrix | None,
    n_samples: int,
    stream: RngStream,
) -> RiskEstimate:
    """Monte Carlo estimate of the Bayes risk in the image of W.

    Labels are drawn from the class weights and observations x = m_k + L_k z
    from the matching class in the ambient space (L_k the Cholesky factor of
    C_k), and the population-parameter rule is applied to y = W^T x. Sampling
    is independent of W, so calling with the same stream and different
    projections compares them on common random draws. That holds for direct
    calls only: a ``risk_mc`` sweep gives each projection its own stream.

    The sample loop is split into fixed-size blocks with per-block stream
    forks, merged in block order, so the estimate does not depend on
    scheduling. Each block draws its label uniforms first and then its
    standard-normal noise z in chunks of about 2^17 normals (1 MB), that is
    max(1, 2^17 // p) rows, from the same generator; numpy fills normals
    sequentially, so the draws are those of one block-sized call. Each chunk
    goes straight into the embedding as y = W^T m_k + (W^T L_k) z, at p*q
    flops per sample rather than p^2, and no ambient sample is ever formed.
    Memory is one chunk of noise plus a block's labels, independent of both
    ``n_samples`` and p; with ``w`` None the embedding is the identity.
    """
    _check_count("n_samples", n_samples)
    emb = model if w is None else project_model(model, w)
    rule = fit_embedded_qda(emb)
    factors = [model.cov_1.cholesky(), model.cov_2.cholesky()]
    if w is not None:
        factors = [w.entries.T @ l_k for l_k in factors]
    # both classes' embeddings of a chunk come from one product; each row
    # then keeps the half that belongs to its label
    stacked = np.vstack(factors).T
    means = np.concatenate([emb.mean_1, emb.mean_2])
    q = emb.dim
    rows = max(1, _MC_CHUNK // model.dim)
    n_errors = 0
    done = 0
    block = 0
    while done < n_samples:
        nb = min(_MC_BLOCK, n_samples - done)
        g = stream.child(block).generator()
        labels = np.where(g.random(nb) < model.weight_1, 1, 2)
        for start in range(0, nb, rows):
            chunk = labels[start : start + rows]
            both = g.standard_normal((chunk.size, model.dim)) @ stacked + means
            y = np.where((chunk == 1)[:, None], both[:, :q], both[:, q:])
            n_errors += int(np.count_nonzero(rule.predict(y) != chunk))
        done += nb
        block += 1
    estimate = n_errors / n_samples
    std_error = math.sqrt(estimate * (1.0 - estimate) / n_samples)
    return RiskEstimate(estimate=estimate, std_error=std_error, n_samples=n_samples)


def reconstruction_error(
    w: ProjectionMatrix, estimate: TwoClassGaussian, model: TwoClassGaussian
) -> float:
    """Embedded covariance estimation error 1/2 sum_k |W^T (S_k - C_k) W|_F^2,
    with S_k the estimate's class covariances and C_k the model's."""
    e, m = estimate, model
    if e.dim != m.dim:
        raise ConfigError("estimate", f"has dimension {e.dim}, the model {m.dim}")
    diffs = _embed([w], e.cov_1.entries - m.cov_1.entries, e.cov_2.entries - m.cov_2.entries)
    return 0.5 * sum(float(np.sum(diff[0] * diff[0])) for diff in diffs)
