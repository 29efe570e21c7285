"""Embedded Gaussian likelihood-ratio (QDA) classification and risk metrics.

A classifier lives in the image of a projection W: the class parameters are
pushed through W and the quadratic discriminant rule is applied to W^T x.
The same machinery serves the trained classifier (parameters estimated from
a labeled training split) and the population-parameter Bayes rule used by
the Monte Carlo risk oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .core import (
    ConfigError,
    DimensionMismatchError,
    LabeledDataset,
    NotPositiveDefiniteError,
    ProjectionMatrix,
    RngStream,
    SingularEmbeddedCovarianceError,
    SpdMatrix,
    TwoClassGaussian,
    make_spd,
)
from .projections import ClassEstimates

_MC_BLOCK = 1 << 16


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
    for y = W^T x, with the prior term dropped when ``use_priors`` is False.
    Cholesky factors and log-determinants are precomputed once; the object is
    immutable and safe to share.
    """

    w: ProjectionMatrix | None
    weights: tuple[float, float]
    emb_means: tuple[np.ndarray, np.ndarray]
    emb_covs: tuple[SpdMatrix, SpdMatrix]
    chol_factors: tuple[np.ndarray, np.ndarray]
    log_dets: tuple[float, float]
    use_priors: bool = True

    @property
    def embed_dim(self) -> int:
        return self.emb_means[0].shape[0]

    def embed(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if self.w is None:
            return x
        if x.shape[1] != self.w.ambient_dim:
            raise DimensionMismatchError(
                f"data has {x.shape[1]} columns, projection expects "
                f"{self.w.ambient_dim}"
            )
        return x @ self.w.entries

    def _scores(self, y: np.ndarray) -> np.ndarray:
        scores = np.empty((y.shape[0], 2))
        for k in range(2):
            centered = y - self.emb_means[k]
            u = solve_triangular(self.chol_factors[k], centered.T, lower=True)
            quad = np.einsum("ij,ij->j", u, u)
            prior = math.log(self.weights[k]) if self.use_priors else 0.0
            scores[:, k] = prior - 0.5 * self.log_dets[k] - 0.5 * quad
        return scores

    def log_ratio(self, x: np.ndarray) -> np.ndarray:
        """-2 ln( p_1(y) / p_2(y) ), the class-2-favoring decision statistic."""
        scores = self._scores(self.embed(x))
        return -2.0 * (scores[:, 0] - scores[:, 1])

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predicted labels in {1, 2}; exact ties resolve to class 1."""
        scores = self._scores(self.embed(x))
        return np.where(scores[:, 1] > scores[:, 0], 2, 1)


def qda_from_parameters(
    weights: tuple[float, float],
    means: tuple[np.ndarray, np.ndarray],
    covs: tuple[SpdMatrix, SpdMatrix],
    w: ProjectionMatrix | None = None,
    ridge: float = 0.0,
    use_priors: bool = True,
) -> EmbeddedQda:
    """Build the embedded classifier from explicit class parameters.

    ``ridge`` is relative: each embedded covariance receives
    ridge * mean(trace(C_k)/p) * I, an ambient-scale floor that keeps the fit
    well defined when the projection lands in the null space of a sample
    covariance. With ridge 0, a singular embedded covariance is an error, not
    silently repaired, because the instability of large embedding dimensions
    is a phenomenon to surface rather than mask.
    """
    p = covs[0].dim
    if w is not None and w.ambient_dim != p:
        raise DimensionMismatchError(
            f"projection ambient dim {w.ambient_dim} != parameter dim {p}"
        )
    ridge_abs = 0.0
    if ridge > 0.0:
        ridge_abs = ridge * (
            (float(np.trace(covs[0].entries)) + float(np.trace(covs[1].entries)))
            / (2.0 * p)
        )
    emb_means, emb_covs, chols, log_dets = [], [], [], []
    q = p if w is None else w.embed_dim
    for k in range(2):
        if w is None:
            mean_k = np.asarray(means[k], dtype=np.float64)
            cov_k = covs[k].entries.copy()
        else:
            mean_k = w.entries.T @ np.asarray(means[k], dtype=np.float64)
            cov_k = w.entries.T @ covs[k].entries @ w.entries
        if ridge_abs > 0.0:
            cov_k = cov_k + ridge_abs * np.eye(q)
        try:
            spd_k = make_spd(cov_k)
            if ridge_abs == 0.0:
                # Cholesky can sneak through an exactly rank-deficient matrix
                # on round-off pivots, so singularity is tested spectrally.
                w_k = np.linalg.eigvalsh(spd_k.entries)
                if w_k[0] <= 1e-12 * max(w_k[-1], 0.0) or w_k[-1] <= 0.0:
                    raise SingularEmbeddedCovarianceError(
                        f"embedded covariance of class {k + 1} is singular at "
                        f"q={q}; the embedding dimension is too large for the "
                        "class sample size"
                    )
            chol_k = spd_k.cholesky()
        except NotPositiveDefiniteError as exc:
            raise SingularEmbeddedCovarianceError(
                f"embedded covariance of class {k + 1} is singular at q={q}; "
                "the embedding dimension is too large for the class sample size"
            ) from exc
        emb_means.append(mean_k)
        emb_covs.append(spd_k)
        chols.append(chol_k)
        log_dets.append(2.0 * float(np.sum(np.log(np.diag(chol_k)))))
    return EmbeddedQda(
        w=w,
        weights=(float(weights[0]), float(weights[1])),
        emb_means=(emb_means[0], emb_means[1]),
        emb_covs=(emb_covs[0], emb_covs[1]),
        chol_factors=(chols[0], chols[1]),
        log_dets=(log_dets[0], log_dets[1]),
        use_priors=use_priors,
    )


def qda_from_model(
    model: TwoClassGaussian,
    w: ProjectionMatrix | None = None,
    use_priors: bool = True,
) -> EmbeddedQda:
    """Population-parameter (oracle) classifier, i.e. the embedded Bayes rule."""
    return qda_from_parameters(
        (model.weight_1, model.weight_2),
        (model.mean_1, model.mean_2),
        (model.cov_1, model.cov_2),
        w=w,
        use_priors=use_priors,
    )


def fit_embedded_qda(
    est: ClassEstimates,
    w: ProjectionMatrix,
    ridge: float = 0.0,
    use_priors: bool = True,
) -> EmbeddedQda:
    """Train the embedded classifier from a training split's estimates.

    Class weights, means and covariances are the per-class sample statistics
    of the training data (:func:`empirical_covariances`), pushed through W.
    Raises :class:`SingularEmbeddedCovarianceError` when an embedded sample
    covariance cannot be factorized and no ridge was requested.
    """
    return qda_from_parameters(
        est.weights,
        est.means,
        (est.cov_1, est.cov_2),
        w=w,
        ridge=ridge,
        use_priors=use_priors,
    )


def oos_error(model: EmbeddedQda, val: LabeledDataset) -> float:
    """Misclassification fraction of the classifier on a held-out split."""
    if val.n == 0:
        raise DimensionMismatchError("validation set is empty")
    predictions = model.predict(val.X)
    return float(np.count_nonzero(predictions != val.z)) / val.n


def mc_bayes_risk(
    model: TwoClassGaussian,
    w: ProjectionMatrix | None,
    n_samples: int,
    stream: RngStream,
) -> RiskEstimate:
    """Monte Carlo estimate of the Bayes risk in the image of W.

    Labels are drawn from the class weights, observations from the matching
    class in the ambient space, and the population-parameter rule is applied
    to W^T x. Sampling is independent of W, so calling with the same stream
    and different projections compares them on common random draws. The
    sample loop is split into fixed-size blocks with per-block stream forks,
    merged in block order, so the estimate does not depend on scheduling.
    """
    if n_samples < 1:
        raise ConfigError("n_samples", "must be at least 1")
    rule = qda_from_model(model, w)
    l_1 = model.cov_1.cholesky()
    l_2 = model.cov_2.cholesky()
    n_errors = 0
    done = 0
    block = 0
    while done < n_samples:
        nb = min(_MC_BLOCK, n_samples - done)
        g = stream.child(block).generator()
        u = g.random(nb)
        noise = g.standard_normal((nb, model.dim))
        labels = np.where(u < model.weight_1, 1, 2)
        x = np.empty_like(noise)
        mask = labels == 1
        x[mask] = model.mean_1 + noise[mask] @ l_1.T
        x[~mask] = model.mean_2 + noise[~mask] @ l_2.T
        n_errors += int(np.count_nonzero(rule.predict(x) != labels))
        done += nb
        block += 1
    estimate = n_errors / n_samples
    std_error = math.sqrt(estimate * (1.0 - estimate) / n_samples)
    return RiskEstimate(estimate=estimate, std_error=std_error, n_samples=n_samples)


def reconstruction_error(
    w: ProjectionMatrix,
    s_1: SpdMatrix,
    s_2: SpdMatrix,
    cov_1: SpdMatrix,
    cov_2: SpdMatrix,
) -> float:
    """Embedded covariance estimation error 1/2 sum_k |W^T (S_k - C_k) W|_F^2."""
    p = w.ambient_dim
    if any(m.dim != p for m in (s_1, s_2, cov_1, cov_2)):
        raise DimensionMismatchError("all matrices must match the ambient dimension")
    total = 0.0
    for s_k, c_k in ((s_1, cov_1), (s_2, cov_2)):
        diff = w.entries.T @ (s_k.entries - c_k.entries) @ w.entries
        total += float(np.sum(diff * diff))
    return 0.5 * total
