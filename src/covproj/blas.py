"""numpy's bundled OpenBLAS: one thread per sweep worker, and the triangular solve.

numpy's wheels bundle an OpenBLAS build (``numpy.libs``) that this module
drives through ctypes. It is ILP64: integers are 64-bit and symbols end in
``64_``. It is the package's only BLAS dependency: a numpy without such a
build (conda-forge, distro, MKL or Accelerate builds) is refused with
``ConfigError`` naming ``dtrtrs``, the one LAPACK routine the package calls
itself.

- **Threads.** On the p x p matrices a sweep factorizes, extra OpenBLAS
  threads mostly spin, so the engine runs BLAS on one thread and takes its
  parallelism from its worker pool. ``single_thread`` pins numpy's build
  and yields one object describing it, the run manifest's ``blas`` entry.
- **Start-up.** OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when numpy
  loads it; unset, it starts a second thread that spin-waits through the
  rest of the imports. The ``covproj`` command sets the variable to 1
  (unless it is already set) before numpy loads, so its OpenBLAS starts on
  one thread and its child processes inherit that. ``import covproj``
  leaves the variable alone: a library caller keeps its own threading until
  ``single_thread`` pins it.
- **Solves.** ``solve_triangular`` calls LAPACK ``dtrtrs`` in numpy's build,
  with scipy's memory layout, so its results equal
  ``scipy.linalg.solve_triangular``'s bit for bit and the runtime needs no
  scipy. Unlike scipy's, it does not scan its inputs for NaN or infinity:
  data are checked where they enter the package.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable

import numpy as np

from .core import ConfigError

_INT = ctypes.POINTER(ctypes.c_int64)
# UPLO, TRANS, DIAG, N, NRHS, A, LDA, B, LDB, INFO, then the hidden lengths
# of the three character arguments
_TRTRS_ARGTYPES = [ctypes.c_char_p] * 3 + [_INT, _INT, ctypes.c_void_p, _INT]
_TRTRS_ARGTYPES += [ctypes.c_void_p, _INT, _INT] + [ctypes.c_size_t] * 3


@dataclass(frozen=True)
class OpenBlas:
    """numpy's bundled OpenBLAS: its thread-count entry points and its ILP64
    ``dtrtrs``."""

    library: str
    config: str
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]
    trtrs: Callable


_SYMBOLS = (
    "openblas_get_num_threads64_",
    "openblas_set_num_threads64_",
    "openblas_get_config64_",
    "dtrtrs_64_",
)


def _bind(lib: ctypes.CDLL, path: Path) -> OpenBlas | None:
    # numpy 2 wheels prefix every symbol with scipy_ (their build is
    # scipy-openblas64); older wheels export the bare names
    for prefix in ("scipy_", ""):
        try:
            get, put, config, trtrs = (getattr(lib, prefix + name) for name in _SYMBOLS)
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        config.argtypes, config.restype = [], ctypes.c_char_p
        trtrs.argtypes, trtrs.restype = _TRTRS_ARGTYPES, None
        return OpenBlas(path.name, config().decode(), get, put, trtrs)
    return None


@cache
def numpy_openblas() -> OpenBlas:
    """numpy's bundled OpenBLAS; ``ConfigError`` when numpy bundles no build
    that exports the ILP64 ``dtrtrs``."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        build = _bind(ctypes.CDLL(str(path)), path)
        if build is not None:
            return build
    raise ConfigError(
        "blas",
        f"numpy {np.__version__} bundles no OpenBLAS exporting dtrtrs (ILP64), "
        "which covproj solves with; install numpy's wheel from PyPI",
    )


def solve_triangular(a, b, lower: bool = False) -> np.ndarray:
    """Solve ``a x = b`` for triangular ``a``, as ``scipy.linalg.solve_triangular``.

    Only the ``lower`` (or upper) triangle of ``a`` is read. ``b`` is 1-D
    (one right-hand side) or 2-D, and ``x`` has its shape; a NaN or infinity
    is not scanned for and goes into ``x``. Raises ``ValueError`` on
    mismatched shapes, ``numpy.linalg.LinAlgError`` when ``a`` has a zero on
    its diagonal, and ``ConfigError`` when numpy bundles no OpenBLAS.
    """
    trtrs = numpy_openblas().trtrs
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected square matrix")
    if b.ndim not in (1, 2) or a.shape[0] != b.shape[0]:
        raise ValueError(f"shapes of a {a.shape} and b {b.shape} are incompatible")
    if b.size == 0:
        return np.empty_like(b)
    # scipy's rule: a Fortran-ordered a goes in as it is; any other a is
    # solved as the transposed system of its C-ordered copy
    if a.flags.f_contiguous:
        uplo, trans = (b"L" if lower else b"U"), b"N"
    else:
        a = np.ascontiguousarray(a).T
        uplo, trans = (b"U" if lower else b"L"), b"T"
    x = np.array(b, order="F")
    n = ctypes.c_int64(a.shape[0])
    nrhs = ctypes.c_int64(1 if x.ndim == 1 else x.shape[1])
    info = ctypes.c_int64()
    trtrs(uplo, trans, b"N", n, nrhs, a.ctypes.data, n, x.ctypes.data, n, info, 1, 1, 1)
    if info.value > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info.value - 1}"
        )
    if info.value < 0:
        raise ValueError(f"illegal value in {-info.value}-th argument of internal trtrs")
    return x


@contextmanager
def single_thread():
    """Run the block with numpy's OpenBLAS on one thread.

    Raises ``ConfigError`` before the block runs when numpy bundles no
    OpenBLAS (see ``numpy_openblas``). Yields the manifest's ``blas``
    object: the build's file name, config string and thread counts before
    and during the block. The caller's thread count is restored on exit,
    whether the block returns or raises. The count is process-wide, so pins
    nest but must not overlap from concurrent Python threads.
    """
    build = numpy_openblas()
    before = build.get_threads()
    try:
        build.set_threads(1)
        yield {
            "library": build.library,
            "config": build.config,
            "threads_before": before,
            "threads_during": build.get_threads(),
        }
    finally:
        build.set_threads(before)
