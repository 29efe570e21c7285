"""Core numeric types, deterministic RNG streams, and the error hierarchy.

All types are immutable after construction and safe to share across threads.
Randomness is always routed through :class:`RngStream`, which derives
statistically independent generators from a master seed and an integer path,
so results never depend on thread scheduling or worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SYMMETRY_RTOL = 1e-10
PSD_RTOL = 1e-8
RANK_RTOL = 1e-10
ORTHONORMAL_TOL = 1e-10


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class CovProjError(Exception):
    """Base class for every error raised by this package."""


class NotSquareError(CovProjError):
    """A square matrix was expected."""


class NotPositiveDefiniteError(CovProjError):
    """Matrix failed the positive (semi-)definiteness check."""


class DimensionMismatchError(CovProjError):
    """Shapes of the inputs are incompatible."""


class RankDeficientError(CovProjError):
    """Projection matrix does not have full column rank."""


class RankDeficientAfterRetriesError(CovProjError):
    """Random projection stayed rank deficient after the retry cap."""


class SingularBlendError(CovProjError):
    """A covariance (or covariance blend) is numerically singular.

    Carries the dimension at which the Cholesky factorization failed, to aid
    diagnosis of rank-deficient empirical covariances.
    """

    def __init__(self, message: str, dim: int | None = None):
        super().__init__(message)
        self.dim = dim


class NonPositiveEigenvalueError(CovProjError):
    """An eigenvalue expected to be strictly positive was not."""


class SingularAfterRidgeError(CovProjError):
    """Covariance remained singular even after ridge regularization."""


class EmptyClassError(CovProjError):
    """A per-class computation received no observations for some class."""


class DegreesOfFreedomError(CovProjError):
    """Degrees of freedom too small for the requested matrix dimension."""


class InsufficientRowsError(CovProjError):
    """Not enough rows to perform the column-overlap resampling."""


class SingularEmbeddedCovarianceError(CovProjError):
    """Embedded class covariance is singular (embedding dimension too large
    for the class sample size)."""


class ConfigError(CovProjError):
    """Invalid configuration value; carries the offending field name."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class EmptyGridError(CovProjError):
    """Grid expansion produced no cells."""


class MixedModesError(CovProjError):
    """Records passed to a summary do not share a single metric mode."""


class DatasetFormatError(CovProjError):
    """Malformed dataset file; carries the 1-based line number if known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


# ---------------------------------------------------------------------------
# RNG streams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RngStream:
    """Deterministic, splittable random stream keyed by (master_seed, path).

    Two distinct paths yield statistically independent streams; an identical
    (seed, path) yields bit-identical draws across runs and thread schedules.
    Forking a child stream never mutates the parent.
    """

    master_seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        if self.master_seed < 0 or self.master_seed >= 2**64:
            raise ConfigError("master_seed", "must be a 64-bit unsigned integer")
        if any((not isinstance(i, (int, np.integer))) or i < 0 for i in self.path):
            raise ConfigError("path", "entries must be non-negative integers")
        object.__setattr__(self, "path", tuple(int(i) for i in self.path))

    def child(self, *indices: int) -> "RngStream":
        """Fork an independent child stream by appending to the path."""
        return RngStream(self.master_seed, self.path + tuple(indices))

    def generator(self) -> np.random.Generator:
        """Fresh generator for this stream; repeated calls restart the draws."""
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(seq))


def derive_stream(master_seed: int, path: tuple[int, ...] | list[int] = ()) -> RngStream:
    """Build the stream identified by a master seed and a task path."""
    return RngStream(int(master_seed), tuple(path))


# ---------------------------------------------------------------------------
# Matrix types
# ---------------------------------------------------------------------------


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class SpdMatrix:
    """Symmetric positive semi-definite matrix; construct via :func:`make_spd`."""

    entries: np.ndarray

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def cholesky(self) -> np.ndarray:
        """Lower Cholesky factor; raises if not strictly positive definite."""
        try:
            return np.linalg.cholesky(self.entries)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(
                f"Cholesky failed for {self.dim}x{self.dim} matrix"
            ) from exc


def make_spd(raw: np.ndarray, strict: bool = False) -> SpdMatrix:
    """Check a square matrix and wrap it as an :class:`SpdMatrix`.

    The entries must be finite. The input is replaced by (A + A^T)/2, which
    makes repeated application bit-stable. The result must be positive
    semi-definite: its smallest eigenvalue may not fall below ``-PSD_RTOL``
    times the largest one (exact rank deficiency, e.g. sample covariances
    with n < p, is representable). With ``strict`` the matrix must
    additionally admit a Cholesky factorization, i.e. be strictly positive
    definite. Matrices the package derives from checked ones skip this test.
    """
    a = np.asarray(raw, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NotPositiveDefiniteError(f"matrix of order {a.shape[0]} has non-finite entries")
    spd = _derived_spd(a)
    if strict:
        try:
            np.linalg.cholesky(spd.entries)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(
                f"matrix of order {a.shape[0]} is not strictly positive definite"
            ) from exc
    else:
        w = np.linalg.eigvalsh(spd.entries)
        if w[0] < -PSD_RTOL * w[-1]:
            raise NotPositiveDefiniteError(
                f"smallest eigenvalue {w[0]:.3e} below PSD tolerance "
                f"(largest {w[-1]:.3e})"
            )
    return spd


def _derived_spd(a: np.ndarray) -> SpdMatrix:
    """Symmetrize and wrap a float matrix that is PSD by construction from
    checked inputs (a Gram matrix, a sum or a congruence W^T C W), untested."""
    return SpdMatrix(_as_readonly((a + a.T) / 2.0))


@dataclass(frozen=True, eq=False)
class ProjectionMatrix:
    """A p x q full-column-rank linear map used as x -> W^T x.

    ``orthonormal_columns`` asserts W^T W = I_q to within ORTHONORMAL_TOL;
    rank is validated through the singular value ratio on construction.
    """

    entries: np.ndarray
    orthonormal_columns: bool = False

    def __post_init__(self):
        a = _as_readonly(self.entries)
        if a.ndim != 2:
            raise DimensionMismatchError("projection must be a 2-d array")
        p, q = a.shape
        if q < 1 or q > p:
            raise DimensionMismatchError(
                f"embedding dimension q={q} must satisfy 1 <= q <= p={p}"
            )
        s = np.linalg.svd(a, compute_uv=False)
        if s[-1] <= RANK_RTOL * s[0]:
            ratio = s[-1] / s[0] if s[0] > 0 else 0.0
            raise RankDeficientError(
                f"projection {p}x{q} is rank deficient "
                f"(singular value ratio {ratio:.3e})"
            )
        if self.orthonormal_columns:
            gram = a.T @ a
            if np.max(np.abs(gram - np.eye(q))) > ORTHONORMAL_TOL:
                raise NotPositiveDefiniteError(
                    "columns flagged orthonormal are not orthonormal"
                )
        object.__setattr__(self, "entries", a)

    @property
    def ambient_dim(self) -> int:
        return self.entries.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True, eq=False)
class TwoClassGaussian:
    """Population model: mixture of two Gaussians with weights (pi1, 1-pi1).

    Ambient-space metrics require strictly positive definite covariances and
    raise :class:`SingularBlendError` otherwise; the container itself accepts
    semi-definite matrices so that rank-deficient empirical covariances can be
    carried to embedded-space computations.
    """

    weight_1: float
    mean_1: np.ndarray
    mean_2: np.ndarray
    cov_1: SpdMatrix
    cov_2: SpdMatrix

    def __post_init__(self):
        if not 0.0 < self.weight_1 < 1.0:
            raise ConfigError("weight_1", "must lie strictly between 0 and 1")
        m1 = _as_readonly(np.atleast_1d(self.mean_1))
        m2 = _as_readonly(np.atleast_1d(self.mean_2))
        p = self.cov_1.dim
        if self.cov_2.dim != p or m1.shape != (p,) or m2.shape != (p,):
            raise DimensionMismatchError(
                "means and covariances must share one ambient dimension"
            )
        object.__setattr__(self, "mean_1", m1)
        object.__setattr__(self, "mean_2", m2)

    @property
    def weight_2(self) -> float:
        return 1.0 - self.weight_1

    @property
    def dim(self) -> int:
        return self.cov_1.dim

    @classmethod
    def zero_mean(
        cls, cov_1: SpdMatrix, cov_2: SpdMatrix, weight_1: float = 0.5
    ) -> "TwoClassGaussian":
        zero = np.zeros(cov_1.dim)
        return cls(weight_1, zero, zero, cov_1, cov_2)


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """n x p observations with labels in {1, 2}."""

    X: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        x = _as_readonly(np.atleast_2d(self.X))
        z = np.array(self.z, dtype=np.int64, copy=True)
        z.setflags(write=False)
        if x.ndim != 2 or z.ndim != 1 or x.shape[0] != z.shape[0]:
            raise DimensionMismatchError("X must be n x p with one label per row")
        if not np.all((z == 1) | (z == 2)):
            raise ConfigError("labels", "labels must take values in {1, 2}")
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "z", z)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def class_rows(self, label: int) -> np.ndarray:
        return self.X[self.z == label]

    def split(self, train_frac: float, stream: RngStream):
        """Stratified train/validation split, deterministic given the stream.

        Each class is permuted independently and split at
        round(train_frac * n_k), clamped so both sides keep at least one
        observation per class. Classes with fewer than two rows are rejected.
        """
        if not 0.0 < train_frac < 1.0:
            raise ConfigError("train_frac", "must lie strictly between 0 and 1")
        g = stream.generator()
        train_idx, val_idx = [], []
        for label in (1, 2):
            idx = np.flatnonzero(self.z == label)
            if idx.size < 2:
                raise EmptyClassError(
                    f"class {label} has {idx.size} rows; need at least 2 to split"
                )
            perm = idx[g.permutation(idx.size)]
            k = int(round(train_frac * idx.size))
            k = min(max(k, 1), idx.size - 1)
            train_idx.append(perm[:k])
            val_idx.append(perm[k:])
        tr = np.concatenate(train_idx)
        va = np.concatenate(val_idx)
        return (
            LabeledDataset(self.X[tr], self.z[tr]),
            LabeledDataset(self.X[va], self.z[va]),
        )
