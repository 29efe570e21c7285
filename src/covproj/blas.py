"""numpy's bundled OpenBLAS: one thread per sweep worker, and the triangular solve.

numpy bundles an OpenBLAS build (``numpy.libs``) that this module drives
through ctypes. It is ILP64: integers are 64-bit and symbols end in ``64_``.

- **Threads.** On the p x p matrices a sweep factorizes, extra OpenBLAS
  threads mostly spin, so the engine runs BLAS on one thread and takes its
  parallelism from its worker pool. ``single_thread`` pins numpy's build,
  and scipy's too (LP64, its own thread pool) when scipy is already
  imported. Another BLAS is left alone and reported as unmanaged.
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
  scipy. When numpy bundles no OpenBLAS exporting ``dtrtrs`` (MKL,
  Accelerate), the solve falls back to ``scipy.linalg``, imported on first
  use.
"""

from __future__ import annotations

import ctypes
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable

import numpy as np

_INT = ctypes.POINTER(ctypes.c_int64)
# UPLO, TRANS, DIAG, N, NRHS, A, LDA, B, LDB, INFO, then the hidden lengths
# of the three character arguments
_TRTRS_ARGTYPES = [ctypes.c_char_p] * 3 + [_INT, _INT, ctypes.c_void_p, _INT]
_TRTRS_ARGTYPES += [ctypes.c_void_p, _INT, _INT] + [ctypes.c_size_t] * 3


@dataclass(frozen=True)
class OpenBlas:
    """A bundled OpenBLAS build: its thread-count entry points and its
    ILP64 ``dtrtrs``, when it exports one."""

    library: str
    config: str
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]
    trtrs: Callable | None


def _bind(lib: ctypes.CDLL, path: Path) -> OpenBlas | None:
    for prefix in ("scipy_", ""):
        for suffix in ("64_", ""):
            try:
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
                put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")
                config = getattr(lib, f"{prefix}openblas_get_config{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            config.argtypes, config.restype = [], ctypes.c_char_p
            trtrs = None
            # ILP64 only; older numpy wheels export the LAPACK name unprefixed
            for name in ("scipy_dtrtrs_64_", "dtrtrs_64_") if suffix else ():
                if hasattr(lib, name):
                    trtrs = getattr(lib, name)
                    trtrs.argtypes, trtrs.restype = _TRTRS_ARGTYPES, None
                    break
            return OpenBlas(path.name, config().decode(), get, put, trtrs)
    return None


def _bundled(package_file: str, bundle: str) -> OpenBlas | None:
    libs = Path(package_file).resolve().parent.parent / bundle
    for path in sorted(libs.glob("*openblas*.so*")):
        build = _bind(ctypes.CDLL(str(path)), path)
        if build is not None:
            return build
    return None


@cache
def _numpy_openblas() -> OpenBlas | None:
    return _bundled(np.__file__, "numpy.libs")


def find_openblas() -> list[OpenBlas]:
    """numpy's bundled OpenBLAS, and scipy's when scipy is already imported."""
    found = [_numpy_openblas()]
    scipy = sys.modules.get("scipy")
    if scipy is not None:
        found.append(_bundled(scipy.__file__, "scipy.libs"))
    return [build for build in found if build is not None]


def _dtrtrs() -> Callable | None:
    build = _numpy_openblas()
    return None if build is None else build.trtrs


def solve_path() -> str:
    """The path ``solve_triangular`` takes: ``"numpy-openblas"`` or ``"scipy"``."""
    return "scipy" if _dtrtrs() is None else "numpy-openblas"


def _scipy_solve() -> Callable:
    """scipy's ``solve_triangular``, the fallback, imported on first use."""
    from scipy.linalg import solve_triangular

    return solve_triangular


def solve_triangular(a, b, lower: bool = False) -> np.ndarray:
    """Solve ``a x = b`` for triangular ``a``, as ``scipy.linalg.solve_triangular``.

    Only the ``lower`` (or upper) triangle of ``a`` is read. ``b`` is 1-D
    (one right-hand side) or 2-D, and ``x`` has its shape. Raises
    ``ValueError`` on a non-finite input or mismatched shapes, and
    ``numpy.linalg.LinAlgError`` when ``a`` has a zero on its diagonal.
    """
    trtrs = _dtrtrs()
    if trtrs is None:
        return _scipy_solve()(a, b, lower=lower)
    a = np.asarray_chkfinite(a, dtype=np.float64)
    b = np.asarray_chkfinite(b, dtype=np.float64)
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
    """Run the block with every managed OpenBLAS on one thread.

    Yields the manifest entry: per build, its file name, config string,
    thread counts before and during the block, and the ``solve`` path (see
    ``solve_path``); or ``"unmanaged"`` when no build was found. On the
    scipy path scipy is imported first, so that its build is pinned too.
    The caller's thread counts are restored on exit, whether the block
    returns or raises. The counts are process-wide, so pins nest but must
    not overlap from concurrent Python threads.
    """
    solve = solve_path()
    if solve == "scipy":
        _scipy_solve()  # loads scipy's OpenBLAS, so that it is pinned below
    builds = find_openblas()
    before = [build.get_threads() for build in builds]
    try:
        for build in builds:
            build.set_threads(1)
        yield [
            {
                "library": build.library,
                "config": build.config,
                "threads_before": threads,
                "threads_during": build.get_threads(),
                "solve": solve,
            }
            for build, threads in zip(builds, before)
        ] or "unmanaged"
    finally:
        for build, threads in zip(builds, before):
            build.set_threads(threads)
