"""One BLAS thread per sweep worker.

numpy and scipy each bundle their own OpenBLAS (``numpy.libs``,
``scipy.libs``), with separate thread pools. On the p x p matrices a sweep
factorizes, extra OpenBLAS threads mostly spin, so the engine runs BLAS on
one thread and takes its parallelism from its worker pool. Both builds are
driven through ctypes: numpy's is ILP64 and its symbols end in ``64_``,
scipy's is LP64 and its symbols do not. Another BLAS is left alone and
reported as unmanaged.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy
import scipy

_BUNDLES = ((numpy, "numpy.libs"), (scipy, "scipy.libs"))


@dataclass(frozen=True)
class OpenBlas:
    """A bundled OpenBLAS build and its thread-count entry points."""

    library: str
    config: str
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]


def _bind(lib: ctypes.CDLL, path: Path) -> OpenBlas | None:
    for suffix in ("64_", ""):
        try:
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            config = getattr(lib, f"scipy_openblas_get_config{suffix}")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        config.argtypes, config.restype = [], ctypes.c_char_p
        return OpenBlas(path.name, config().decode(), get, put)
    return None


def find_openblas() -> list[OpenBlas]:
    """The OpenBLAS builds bundled with numpy and scipy, at most one each."""
    found = []
    for package, bundle in _BUNDLES:
        libs = Path(package.__file__).resolve().parent.parent / bundle
        for path in sorted(libs.glob("*openblas*.so*")):
            build = _bind(ctypes.CDLL(str(path)), path)
            if build is not None:
                found.append(build)
                break
    return found


@contextmanager
def single_thread():
    """Run the block with every bundled OpenBLAS on one thread.

    Yields the manifest entry: per build, its file name, config string and
    thread counts before and during the block, or ``"unmanaged"`` when no
    build was found. The caller's thread counts are restored on exit,
    whether the block returns or raises. The counts are process-wide, so
    pins nest but must not overlap from concurrent Python threads.
    """
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
            }
            for build, threads in zip(builds, before)
        ] or "unmanaged"
    finally:
        for build, threads in zip(builds, before):
            build.set_threads(threads)
