"""Random covariance-pair families and the sampling primitives behind them.

Three families produce the (C1, C2) pairs that the sweeps enumerate:

* scaled inverse Wishart, df * InvWishart(I_p, df), whose scaling keeps the
  matrices comparable to the identity across dimensions;
* a latent low-dimension construction, (r+1) Q^T Theta Q + 0.02 p M, mixing a
  small inverse Wishart factor into the ambient space plus full-rank noise,
  with Q or Theta optionally shared between the classes and Q optionally
  sparse;
* empirical covariances of two real (or synthetic) data groups, with a column
  overlap procedure that interpolates between distinct and identical
  populations.

Sweeps and ``covproj oracle`` look the fixture pairs up in ``_FIXTURES``.

Every sampler owns an RngStream fork, so parallel cells never share state.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .blas import solve_triangular
from .core import (
    ConfigError,
    InsufficientRowsError,
    LabeledDataset,
    RngStream,
    SpdMatrix,
    TwoClassGaussian,
    _check_count,
    _derived_spd,
)
from .projections import mixture_covariance


@functools.cache
def _bartlett_indices(dim: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Read-only diagonal and strict lower-triangle indices of order ``dim``."""
    indices = (np.diag_indices(dim), np.tril_indices(dim, -1))
    for index in indices:
        for axis in index:
            axis.setflags(write=False)
    return indices


def _bartlett_factor(dim: int, df: float, g: np.random.Generator) -> np.ndarray:
    """Lower-triangular Bartlett factor A with A A^T ~ Wishart(I_dim, df).

    Diagonal entries are sqrt(chi^2) with df, df-1, ..., df-dim+1 degrees of
    freedom (fractional df is handled natively by the gamma-based chi-square
    sampler); strict subdiagonal entries are standard normal.
    """
    diag, lower = _bartlett_indices(dim)
    a = np.zeros((dim, dim))
    dof = df - np.arange(dim, dtype=np.float64)
    a[diag] = np.sqrt(g.chisquare(dof))
    a[lower] = g.standard_normal(lower[0].size)
    return a


def sample_inverse_wishart(dim: int, df: float, stream: RngStream) -> SpdMatrix:
    """InvWishart(I_dim, df) draw, inverted through the Bartlett factor.

    With W = A A^T the inverse is B^T B for B = A^{-1}, computed by one
    triangular solve, so no general matrix inversion is ever formed.
    Requires an integer dim >= 1 and a finite df > dim - 1.
    """
    _check_count("dim", dim)
    if not dim - 1 < df < math.inf:
        raise ConfigError("df", f"df={df} must be finite and > p - 1 for dimension {dim}")
    a = _bartlett_factor(dim, df, stream.generator())
    b = solve_triangular(a, np.eye(dim), lower=True)
    return _derived_spd(b.T @ b)


def gen_iw_pair(
    p: int, df_1: float, df_2: float, stream: RngStream
) -> tuple[SpdMatrix, SpdMatrix]:
    """Two independent scaled inverse Wishart draws df_k * InvWishart(I_p, df_k),
    class k from ``stream.child(k - 1)``, each df_k finite and >= p. The scaling
    keeps the mean, df/(df-p-1) * I when it exists, near the identity at any p."""
    _check_count("p", p)
    covs = []
    for k, (field, df) in enumerate((("df_1", df_1), ("df_2", df_2))):
        if not p <= df < math.inf:
            raise ConfigError(field, f"{field}={df} must be finite and >= dimension {p}")
        covs.append(_derived_spd(df * sample_inverse_wishart(p, df, stream.child(k)).entries))
    return covs[0], covs[1]


def latent_rank(p: int) -> int:
    """Latent dimension r = max(2, round(p / 25)), round-half-to-even."""
    return max(2, round(p / 25))


def _mixing_matrix(r: int, p: int, density: float | None, stream: RngStream) -> np.ndarray:
    g = stream.generator()
    q = g.standard_normal((r, p))
    if density is not None:
        keep = g.random((r, p)) < density
        q = np.where(keep, q, 0.0)
    return q


def gen_latent_pair(
    p: int, share: str, sparse_density: float | None, stream: RngStream
) -> tuple[SpdMatrix, SpdMatrix]:
    """Latent low-dimension pair C_k = (r+1) Q_k^T Theta_k Q_k + 0.02 p M_k.

    Theta_k ~ InvWishart(I_r, r+1) (unscaled; note the heavy tails, its mean
    does not exist), M_k ~ InvWishart(I_p, 2p), Q_k an r x p mixing matrix.
    ``share`` is "none", or "q" or "theta" to reuse that very object for both
    classes. Q_k is dense when ``sparse_density`` is None; otherwise each of
    its entries is kept with that probability, which must lie in (0, 1].
    """
    _check_share(share)
    if sparse_density is not None:
        _check_sparse_density(sparse_density)
    if p < 2:
        raise ConfigError("p", "latent family needs p >= 2")
    r = latent_rank(p)
    theta_1 = sample_inverse_wishart(r, r + 1, stream.child(0))
    theta_2 = theta_1 if share == "theta" else sample_inverse_wishart(
        r, r + 1, stream.child(1)
    )
    q_1 = _mixing_matrix(r, p, sparse_density, stream.child(2))
    q_2 = q_1 if share == "q" else _mixing_matrix(r, p, sparse_density, stream.child(3))
    m_1 = sample_inverse_wishart(p, 2 * p, stream.child(4))
    m_2 = sample_inverse_wishart(p, 2 * p, stream.child(5))
    covs = []
    for q_k, theta_k, m_k in ((q_1, theta_1, m_1), (q_2, theta_2, m_2)):
        sigma = (r + 1) * (q_k.T @ theta_k.entries @ q_k) + 0.02 * p * m_k.entries
        covs.append(_derived_spd(sigma))
    return covs[0], covs[1]


def _check_share(share: str) -> None:
    """The one rule for a latent ``share`` (``gen_latent_pair``, sweep configs)."""
    if share not in ("none", "q", "theta"):
        raise ConfigError("share", f"must be none, q or theta, got {share!r}")


def _check_sparse_density(density: float) -> None:
    """The one rule for a sparse Q's keep probability (``gen_latent_pair``,
    sweep configs)."""
    if not 0.0 < density <= 1.0:
        raise ConfigError("sparse_q_density", f"must lie in (0, 1], got {density!r}")


def column_overlap(
    x_1: np.ndarray, x_2: np.ndarray, gamma: float, stream: RngStream
) -> tuple[np.ndarray, np.ndarray]:
    """Make floor(gamma * p) columns of the first group follow the second.

    The rows of x_2 are split at random into two disjoint halves of size
    m = min(floor(n2/2), n1); one half becomes the returned second group, the
    other donates columns. m rows of x_1 are subsampled, and the chosen
    columns are overwritten with the donor's columns, so the overlapping
    columns follow the second group's distribution without any row being
    shared. gamma = 0 returns a pure row subsample of x_1; gamma = 1 makes
    the two returned m x p groups identically distributed.
    """
    x_1 = np.asarray(x_1, dtype=np.float64)
    x_2 = np.asarray(x_2, dtype=np.float64)
    if x_1.ndim != 2 or x_2.ndim != 2 or x_1.shape[1] != x_2.shape[1]:
        raise ConfigError("x_2", "the two groups must share a column count")
    _check_gamma(gamma)
    p = x_1.shape[1]
    m = min(x_2.shape[0] // 2, x_1.shape[0])
    if m < 1:
        raise InsufficientRowsError(
            f"need n2 >= 2 and n1 >= 1, got n1={x_1.shape[0]}, n2={x_2.shape[0]}"
        )
    g = stream.generator()
    perm_2 = g.permutation(x_2.shape[0])
    keep, donor = perm_2[:m], perm_2[m : 2 * m]
    sub_1 = g.permutation(x_1.shape[0])[:m]
    n_cols = int(np.floor(gamma * p + 1e-9))
    cols = g.permutation(p)[:n_cols]
    x_1_tilde = x_1[sub_1].copy()
    x_1_tilde[:, cols] = x_2[donor][:, cols]
    return x_1_tilde, x_2[keep].copy()


def _check_gamma(gamma: float) -> None:
    """The one rule for an overlap fraction (``column_overlap``, sweep configs)."""
    if not 0.0 <= gamma <= 1.0:
        raise ConfigError("gamma", f"overlap fractions must lie in [0, 1], got {gamma!r}")


def _column_subsample(
    x_1: np.ndarray, x_2: np.ndarray, p: int | None, gamma: float, stream: RngStream
) -> tuple[np.ndarray, np.ndarray]:
    """The two groups on p feature columns drawn from ``stream.child(0)``
    (all of them when p is None), then through ``column_overlap`` with
    ``stream.child(1)``: the empirical family's step from a dataset to a
    pair of groups, in sweeps and in ``covproj eval``."""
    if p is not None:
        cols = stream.child(0).generator().permutation(x_1.shape[1])[:p]
        x_1, x_2 = x_1[:, cols], x_2[:, cols]
    return column_overlap(x_1, x_2, gamma, stream.child(1))


def empirical_cov_pair(
    x_1: np.ndarray, x_2: np.ndarray
) -> tuple[SpdMatrix, SpdMatrix]:
    """Column-centered empirical covariances (divisor n); may be rank deficient."""
    return mixture_covariance(x_1), mixture_covariance(x_2)


def sample_gaussian(
    mean: np.ndarray, cov: SpdMatrix, n: int, stream: RngStream
) -> np.ndarray:
    """n rows of mean + L z with L the Cholesky factor of cov, z iid normal."""
    mean = np.asarray(mean, dtype=np.float64)
    if mean.shape != (cov.dim,):
        raise ConfigError("mean", "mean length must match covariance order")
    ell = cov.cholesky()
    z = stream.generator().standard_normal((n, cov.dim))
    return mean + z @ ell.T


def sample_two_class(
    model: TwoClassGaussian, n_1: int, n_2: int, stream: RngStream
) -> LabeledDataset:
    """Labeled sample with n_k rows drawn from class k of the model."""
    x_1 = sample_gaussian(model.mean_1, model.cov_1, n_1, stream.child(0))
    x_2 = sample_gaussian(model.mean_2, model.cov_2, n_2, stream.child(1))
    return _labeled(x_1, x_2)


def _labeled(x_1: np.ndarray, x_2: np.ndarray) -> LabeledDataset:
    """The rows of x_1, labelled 1, stacked over the rows of x_2, labelled 2."""
    labels = np.repeat(np.array([1, 2], dtype=np.int64), [x_1.shape[0], x_2.shape[0]])
    return LabeledDataset(np.vstack([x_1, x_2]), labels)


def _spiked_class_1(p: int, block: int, alpha: float, delta: float) -> SpdMatrix:
    """The fixtures' shared C1 = diag(alpha I_block, delta I_rest), after the
    one check of their parameters."""
    _check_spike_levels(alpha, delta)
    if not 1 <= block < p:
        raise ConfigError("q", f"block size must satisfy 1 <= q < p, got {block}")
    diag = np.concatenate([np.full(block, alpha), np.full(p - block, delta)])
    return _derived_spd(np.diag(diag))


def pca_favorable_pair(
    p: int, block: int, alpha: float, delta: float
) -> tuple[SpdMatrix, SpdMatrix]:
    """Axis-aligned pair where PCA keeps exactly the discriminating block.

    C1 = diag(alpha I_block, delta I_rest), C2 = delta I_p with
    0 < delta < alpha: the leading eigenvectors of C1 + C2 are the block
    coordinates, where the class variances differ by the ratio alpha/delta,
    so the PCA choice coincides with the overlap-optimal one.
    """
    return _spiked_class_1(p, block, alpha, delta), _derived_spd(delta * np.eye(p))


def pca_adversarial_pair(
    p: int, block: int, alpha: float, delta: float
) -> tuple[SpdMatrix, SpdMatrix]:
    """Axis-aligned pair where PCA keeps only directions the classes share.

    C1 = diag(alpha I_block, delta I_rest), C2 = alpha I_p with
    0 < delta < alpha and block <= p/2: the top eigenvectors of C1 + C2 are
    the block coordinates, where both classes have variance alpha, so any
    classifier in the PCA subspace is blind; the discriminating directions
    live entirely in the remaining coordinates.
    """
    c1 = _spiked_class_1(p, block, alpha, delta)
    if 2 * block > p:
        raise ConfigError("q", "the adversarial pair requires block <= p/2")
    return c1, _derived_spd(alpha * np.eye(p))


def _check_spike_levels(alpha: float, delta: float) -> None:
    """The one rule for the fixtures' variance levels (the fixture pairs,
    sweep configs)."""
    if not 0 < delta < alpha < math.inf:
        raise ConfigError("alpha/delta", "need 0 < delta < alpha < inf")


# fixture family -> pair of (p, q, alpha, delta); example1 favours PCA, example2 defeats it
_FIXTURES = {"example1": pca_favorable_pair, "example2": pca_adversarial_pair}
