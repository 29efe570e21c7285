"""Core numeric types, RNG streams, the error hierarchy and the input line reader.

All types are immutable after construction and safe to share across threads.
Randomness is always routed through :class:`RngStream`, which derives
statistically independent generators from a master seed and an integer path,
so results never depend on thread scheduling or worker count.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

PSD_RTOL = 1e-8
RANK_RTOL = 1e-10


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class CovProjError(Exception):
    """Base class for every error raised by this package."""


class NotPositiveDefiniteError(CovProjError):
    """Matrix failed the positive (semi-)definiteness check."""


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


class SingularAfterRidgeError(CovProjError):
    """Covariance remained singular even after ridge regularization."""


class EmptyClassError(CovProjError):
    """A per-class computation received no observations for some class."""


class InsufficientRowsError(CovProjError):
    """Not enough rows to perform the column-overlap resampling."""


class SingularEmbeddedCovarianceError(CovProjError):
    """Embedded class covariance is singular (embedding dimension too large
    for the class sample size)."""


class ConfigError(CovProjError):
    """A value outside its domain (type, shape, range or finiteness); carries
    the name of the argument or config field that holds it. A numerical
    property that fails on a value in its domain has its own error."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class DatasetFormatError(CovProjError):
    """Malformed dataset file; carries the 1-based line number if known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _check_ridge(ridge: float) -> None:
    """The one rule for a ridge wherever one enters: 0 <= ridge < inf."""
    if not 0.0 <= ridge < math.inf:
        raise ConfigError("ridge", f"must be finite and non-negative, got {ridge!r}")


def _check_fraction(field: str, value: float) -> None:
    """The one rule for a fraction of a whole: a class weight, a train
    fraction."""
    if not 0.0 < value < 1.0:
        raise ConfigError(field, "must lie strictly between 0 and 1")


def _check_count(field: str, value: int, least: int = 1) -> None:
    """The one rule for a count: replicates, workers, samples, dimensions."""
    if not isinstance(value, (int, np.integer)):
        raise ConfigError(field, f"must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(field, f"must be at least {least}")


def _check_seed(field: str, seed: int) -> None:
    """The one rule for a master seed: a 64-bit unsigned integer."""
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise ConfigError(field, "must be a 64-bit unsigned integer")


def _check_embed_dim(field: str, q: int, p: int) -> None:
    """The one rule for an embedding dimension in ambient dimension p: a
    frame's columns, PCA's q, the eigenpairs kept."""
    if not isinstance(q, (int, np.integer)) or not 1 <= q <= p:
        raise ConfigError(
            field, f"embedding dimension {field}={q} must satisfy 1 <= {field} <= p={p}"
        )


def _check_finite(field: str, a) -> np.ndarray:
    """The one rule and conversion for entries from outside the package: finite float64."""
    try:
        a = np.asarray(a, dtype=np.float64)
    except (TypeError, ValueError):
        raise ConfigError(field, "entries must be numbers") from None
    if not np.isfinite(a).all():
        raise ConfigError(field, "entries must be finite")
    return a


def _text_lines(fh, path, error: Callable[[str], CovProjError]) -> Iterator[str]:
    """The UTF-8 text lines of a binary file. A line ends at any of
    str.splitlines' breaks, not only at a newline; bytes that are not UTF-8
    raise ``error(message)``, the message naming the file and the line."""
    lineno = 0
    for raw in fh:
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            # breaks other than a newline may precede the bad byte in this chunk
            lineno += len((raw[: exc.start].decode("utf-8") + "x").splitlines())
            raise error(f"{path} line {lineno}: not UTF-8 text ({exc.reason})")
        for line in text.splitlines():
            lineno += 1
            yield line


# ---------------------------------------------------------------------------
# RNG streams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RngStream:
    """Deterministic, splittable random stream keyed by (master_seed, path).

    ``RngStream(seed, path)`` is the one way to name a stream; ``path`` may
    be a tuple or a list. Two distinct paths yield statistically independent
    streams; an identical (seed, path) yields bit-identical draws across runs
    and thread schedules. Forking a child stream never mutates the parent.
    """

    master_seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        _check_seed("master_seed", self.master_seed)
        object.__setattr__(self, "path", _path_entries(self.path))

    def child(self, *indices: int) -> "RngStream":
        """Fork an independent child stream by appending to the path. Only
        the appended indices are checked: the parent's seed and path were
        checked when it was built."""
        child = object.__new__(type(self))
        object.__setattr__(child, "master_seed", self.master_seed)
        object.__setattr__(child, "path", self.path + _path_entries(indices))
        return child

    def generator(self) -> np.random.Generator:
        """Fresh generator for this stream; repeated calls restart the draws."""
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(seq))


def _path_entries(indices) -> tuple[int, ...]:
    if any((not isinstance(i, (int, np.integer))) or i < 0 for i in indices):
        raise ConfigError("path", "entries must be non-negative integers")
    return tuple(int(i) for i in indices)


# ---------------------------------------------------------------------------
# Matrix types
# ---------------------------------------------------------------------------


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class SpdMatrix:
    """Symmetric positive semi-definite matrix, checked on construction.

    The entries must form a square matrix of order at least 1 with finite
    entries; a read-only copy of (A + A^T)/2 is stored, which makes repeated
    construction bit-stable. Its smallest eigenvalue may not fall below
    ``-PSD_RTOL`` times the largest one (exact rank deficiency, e.g. sample
    covariances with n < p, is representable); a singular matrix fails where
    it is factored. Matrices the package builds itself skip these checks.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = _check_finite("matrix", self.entries)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise ConfigError("matrix", f"expected a non-empty square matrix, got shape {a.shape}")
        sym = _as_readonly(_sym(a))
        w = np.linalg.eigvalsh(sym)
        if w[0] < -PSD_RTOL * w[-1]:
            raise NotPositiveDefiniteError(
                f"smallest eigenvalue {w[0]:.3e} below PSD tolerance (largest {w[-1]:.3e})"
            )
        object.__setattr__(self, "entries", sym)

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


def make_spd(raw: np.ndarray) -> SpdMatrix:
    """Check a square matrix from outside the package; see :class:`SpdMatrix`."""
    return SpdMatrix(raw)


def _derived_spd(a: np.ndarray) -> SpdMatrix:
    """Symmetrize and wrap a float matrix that is PSD by construction (a
    random draw, a Gram matrix, a sum or a congruence W^T C W), untested."""
    spd = object.__new__(SpdMatrix)
    object.__setattr__(spd, "entries", _as_readonly(_sym(a)))
    return spd


def _sym(a: np.ndarray) -> np.ndarray:
    """(A + A^T) / 2 of a matrix, or of each matrix of a stack."""
    return (a + np.swapaxes(a, -1, -2)) / 2.0


@dataclass(frozen=True, eq=False)
class ProjectionMatrix:
    """A p x q full-column-rank linear map used as x -> W^T x.

    Construction checks 1 <= q <= p, finite entries and full column rank by
    the singular value ratio (a random frame is redrawn when it fails).
    Frames the package builds orthonormal (PCA, optimal) skip the checks.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = _as_readonly(_check_finite("projection", self.entries))
        if a.ndim != 2:
            raise ConfigError("projection", "projection must be a 2-d array")
        p, q = a.shape
        _check_embed_dim("q", q, p)
        s = np.linalg.svd(a, compute_uv=False)
        if s[-1] <= RANK_RTOL * s[0]:
            ratio = s[-1] / s[0] if s[0] > 0 else 0.0
            raise RankDeficientError(
                f"projection {p}x{q} is rank deficient "
                f"(singular value ratio {ratio:.3e})"
            )
        object.__setattr__(self, "entries", a)

    @property
    def ambient_dim(self) -> int:
        return self.entries.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.entries.shape[1]


def _derived_frame(a: np.ndarray) -> ProjectionMatrix:
    """Wrap a frame the package built orthonormal (eigh or QR columns), untested."""
    frame = object.__new__(ProjectionMatrix)
    object.__setattr__(frame, "entries", _as_readonly(a))
    return frame


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
        _check_fraction("weight_1", self.weight_1)
        m1 = _as_readonly(np.atleast_1d(_check_finite("mean_1", self.mean_1)))
        m2 = _as_readonly(np.atleast_1d(_check_finite("mean_2", self.mean_2)))
        for field in ("cov_1", "cov_2"):
            if not isinstance(getattr(self, field), SpdMatrix):
                raise ConfigError(field, "covariances must be SpdMatrix (see make_spd)")
        p = self.cov_1.dim
        dims = {"cov_2": (self.cov_2.dim,), "mean_1": m1.shape, "mean_2": m2.shape}
        for field, shape in dims.items():
            if shape != (p,):
                raise ConfigError(field, "means and covariances must share one ambient dimension")
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
    """n x p finite observations with labels in {1, 2}."""

    X: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        x = _as_readonly(np.atleast_2d(_check_finite("X", self.X)))
        z = _check_finite("labels", self.z)
        if x.ndim != 2 or z.ndim != 1 or x.shape[0] != z.shape[0]:
            raise ConfigError("X", "X must be n x p with one label per row")
        if not np.all((z == 1) | (z == 2)):
            raise ConfigError("labels", "labels must take values in {1, 2}")
        z = z.astype(np.int64)
        z.setflags(write=False)
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
        _check_fraction("train_frac", train_frac)
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
