"""Constructors for the four projection families.

Unsupervised: PCA of the mixture covariance, dense Gaussian random
projection, and the very sparse three-valued random projection. Supervised
benchmark: the overlap-optimal projection built from the generalized
eigenvectors of the class covariance pair, selected by the extremeness score
lam + 1/lam. Each family is built by ``build_projection`` from a class
covariance pair, which is either the true pair (the parameter-oracle form) or
the sample estimates (the empirical form).

All constructors are deterministic given their inputs and an RngStream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import solve_triangular

from .core import (
    ConfigError,
    DimensionMismatchError,
    EmptyClassError,
    LabeledDataset,
    ProjectionMatrix,
    RankDeficientAfterRetriesError,
    RankDeficientError,
    RngStream,
    SingularAfterRidgeError,
    SpdMatrix,
    TwoClassGaussian,
    _derived_spd,
)

PROJECTIONS = ("pca", "rp", "sparse_rp", "bhatt_optimal")

_MAX_RANK_RETRIES = 100


@dataclass(frozen=True)
class EigPair:
    """One generalized eigenpair (lam, phi) with C2 phi = lam C1 phi."""

    value: float
    vector: np.ndarray


class OptimalProjection(NamedTuple):
    """Overlap-optimal projection plus the eigenpairs it retained, in order."""

    matrix: ProjectionMatrix
    pairs: list[EigPair]


def _fix_column_signs(v: np.ndarray) -> np.ndarray:
    """Flip column signs so the largest-magnitude entry of each is positive."""
    out = v.copy()  # C order: on a Fortran-ordered result later products round differently
    rows = np.argmax(np.abs(out), axis=0)
    flip = out[rows, np.arange(out.shape[1])] < 0
    out[:, flip] = -out[:, flip]
    return out


def pca_projection(mixture_cov: SpdMatrix, q: int) -> ProjectionMatrix:
    """Leading q unit eigenvectors of the mixture covariance, descending.

    Ties in eigenvalue are broken by ascending position in the eigensolver
    output, and each eigenvector is oriented so its largest-magnitude entry
    is positive, making the output reproducible across runs.
    """
    p = mixture_cov.dim
    if q < 1 or q > p:
        raise DimensionMismatchError(f"q={q} must satisfy 1 <= q <= p={p}")
    w, v = np.linalg.eigh(mixture_cov.entries)
    order = np.argsort(-w, kind="stable")
    cols = _fix_column_signs(v[:, order[:q]])
    return ProjectionMatrix(cols, orthonormal_columns=True)


def mixture_covariance(x: np.ndarray) -> SpdMatrix:
    """Sample covariance (divisor n) of the rows of x: a class, or the pooled
    rows whose mixture covariance PCA decomposes."""
    x = np.asarray(x, dtype=np.float64)
    centered = x - x.mean(axis=0)
    return _derived_spd(centered.T @ centered / x.shape[0])


def random_projection(p: int, q: int, stream: RngStream) -> ProjectionMatrix:
    """p x q matrix with iid standard normal entries, redrawn until rank q.

    Columns are deliberately not orthonormalized: overlap and the embedded
    Gaussian classifier are invariant under right multiplication by any
    invertible matrix, so orthonormalization would be redundant work.
    """
    g = stream.generator()
    for _ in range(_MAX_RANK_RETRIES):
        raw = g.standard_normal((p, q))
        try:
            return ProjectionMatrix(raw, orthonormal_columns=False)
        except RankDeficientError:
            continue
    raise RankDeficientAfterRetriesError(
        f"no rank-{q} draw in {_MAX_RANK_RETRIES} attempts for p={p}"
    )


def sparse_random_projection(p: int, q: int, stream: RngStream) -> ProjectionMatrix:
    """Very sparse random projection with entries in {-p^(1/4), 0, +p^(1/4)}.

    Entry probabilities are {1/(2 sqrt p), 1 - 1/sqrt p, 1/(2 sqrt p)}, which
    keeps the entry second moment equal to 1. Redrawn (capped) until rank q;
    a persistent rank failure is plausible for tiny p*q and is reported so
    the caller can enlarge p or q.
    """
    g = stream.generator()
    magnitude = p**0.25
    half_prob = 1.0 / (2.0 * np.sqrt(p))
    for _ in range(_MAX_RANK_RETRIES):
        u = g.random((p, q))
        raw = np.where(u < half_prob, -magnitude, np.where(u < 2 * half_prob, magnitude, 0.0))
        try:
            return ProjectionMatrix(raw, orthonormal_columns=False)
        except RankDeficientError:
            continue
    raise RankDeficientAfterRetriesError(
        f"no rank-{q} sparse draw in {_MAX_RANK_RETRIES} attempts for p={p}"
    )


def generalized_eigenpairs(
    cov_1: SpdMatrix, cov_2: SpdMatrix, ridge: float = 0.0
) -> list[EigPair]:
    """Eigenpairs of C2 phi = lam (C1 + ridge*I) phi, most extreme first.

    Solved by whitening: factor C1 + ridge*I = L L^T, take the symmetric
    eigendecomposition of L^{-1} C2 L^{-T}, and back-transform the
    eigenvectors as phi = L^{-T} u (normalized to unit Euclidean length,
    oriented largest-entry-positive). Forming C1^{-1} C2 explicitly would
    lose symmetry and conditioning.

    Pairs are ordered by decreasing extremeness lam + 1/lam, with ties broken
    by ascending position in the eigensolver output. Eigenvalues that are
    non-positive (round-off on rank-deficient empirical covariances) are
    treated as maximally extreme, matching the lam -> 0+ limit.
    """
    p = cov_1.dim
    if cov_2.dim != p:
        raise DimensionMismatchError("covariances must share the same dimension")
    if ridge < 0:
        raise ValueError("ridge must be non-negative")
    a = cov_1.entries + ridge * np.eye(p) if ridge > 0 else cov_1.entries
    try:
        ell = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise SingularAfterRidgeError(
            f"class-1 covariance singular at ridge={ridge:.3e}"
        ) from exc
    inner = solve_triangular(ell, cov_2.entries, lower=True)
    whitened = solve_triangular(ell, inner.T, lower=True)
    whitened = (whitened + whitened.T) / 2.0
    lam, u = np.linalg.eigh(whitened)
    phi = solve_triangular(ell.T, u, lower=False)
    phi /= np.linalg.norm(phi, axis=0)
    phi = _fix_column_signs(phi)
    with np.errstate(divide="ignore"):
        lam_pos = np.maximum(lam, 0.0)
        score = np.where(lam_pos > 0.0, lam_pos + 1.0 / lam_pos, np.inf)
    order = np.argsort(-score, kind="stable")
    return [EigPair(float(lam[j]), phi[:, j].copy()) for j in order]


def bhattacharyya_optimal_projection(
    cov_1: SpdMatrix, cov_2: SpdMatrix, q: int, ridge: float = 0.0
) -> OptimalProjection:
    """Overlap-minimizing q-dimensional embedding for a zero-mean class pair.

    Retains the q generalized eigenvectors with the largest lam + 1/lam and
    orthonormalizes them among themselves (QR with positive diagonal), which
    leaves the achieved overlap unchanged. The retained raw eigenpairs are
    returned alongside so callers can check the eigenvalue bookkeeping.
    """
    p = cov_1.dim
    if q < 1 or q > p:
        raise DimensionMismatchError(f"q={q} must satisfy 1 <= q <= p={p}")
    pairs = generalized_eigenpairs(cov_1, cov_2, ridge)[:q]
    raw = np.column_stack([pair.vector for pair in pairs])
    qmat, rmat = np.linalg.qr(raw)
    flip = np.sign(np.diag(rmat))
    flip[flip == 0] = 1.0
    return OptimalProjection(
        ProjectionMatrix(qmat * flip, orthonormal_columns=True), pairs
    )


def optimal_projection_auto_ridge(
    cov_1: SpdMatrix, cov_2: SpdMatrix, q: int, rel_ridge: float = 1e-6
) -> OptimalProjection:
    """Optimal projection that falls back to a scaled ridge when needed.

    Tries ridge 0 first; if the class-1 covariance is rank deficient (the
    empirical case with n < p, where regularization is necessary to
    approximate the inversion), retries with ridge = rel_ridge * trace/p.
    """
    try:
        return bhattacharyya_optimal_projection(cov_1, cov_2, q, ridge=0.0)
    except SingularAfterRidgeError:
        scale = float(np.trace(cov_1.entries)) / cov_1.dim
        if scale <= 0 or rel_ridge <= 0:
            raise
        return bhattacharyya_optimal_projection(
            cov_1, cov_2, q, ridge=rel_ridge * scale
        )


def empirical_covariances(data: LabeledDataset) -> TwoClassGaussian:
    """The plug-in model: class shares, per-class sample means and
    covariances (divisor n_k).

    A single-observation class yields the zero matrix (rank 0), which the
    semi-definite constructor accepts; strictness is enforced later, where
    the matrices are inverted.
    """
    covs, means, counts = [], [], []
    for label in (1, 2):
        rows = data.class_rows(label)
        if rows.shape[0] == 0:
            raise EmptyClassError(f"class {label} has no observations")
        covs.append(mixture_covariance(rows))
        means.append(rows.mean(axis=0))
        counts.append(rows.shape[0])
    n = counts[0] + counts[1]
    return TwoClassGaussian(counts[0] / n, means[0], means[1], covs[0], covs[1])


def build_projection(
    name: str,
    q: int,
    cov_1: SpdMatrix,
    cov_2: SpdMatrix,
    stream: RngStream,
    rel_ridge: float = 1e-6,
    x: np.ndarray | None = None,
) -> ProjectionMatrix:
    """The q-dimensional projection ``name`` (one of ``PROJECTIONS``).

    PCA decomposes the mixture covariance of the rows ``x`` when they are
    given, and C1 + C2 otherwise; the random families draw from ``stream``;
    the optimal projection falls back to a ridge of ``rel_ridge`` times the
    mean class-1 variance when C1 is singular.
    """
    if name == "pca":
        if x is not None:
            return pca_projection(mixture_covariance(x), q)
        return pca_projection(_derived_spd(cov_1.entries + cov_2.entries), q)
    if name == "rp":
        return random_projection(cov_1.dim, q, stream)
    if name == "sparse_rp":
        return sparse_random_projection(cov_1.dim, q, stream)
    if name == "bhatt_optimal":
        return optimal_projection_auto_ridge(cov_1, cov_2, q, rel_ridge).matrix
    raise ConfigError("projections", f"unknown projection {name!r}")
