"""Environment record attached to every benchmark result.

Both OpenBLAS builds are read through ctypes: numpy and scipy each bundle
their own (``numpy.libs``, ``scipy.libs``), with separate thread pools, and
threadpoolctl is not a dependency. The sweep processes inherit the
benchmark's environment unchanged, so the thread counts read here are the
ones they start with.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

BLAS_ENV_PREFIXES = ("OPENBLAS", "OMP_", "MKL_", "BLIS_", "GOTO", "VECLIB", "NUMEXPR")


def _symbol(lib, names, restype):
    for name in names:
        try:
            fn = getattr(lib, name)
        except AttributeError:
            continue
        fn.argtypes = []
        fn.restype = restype
        return fn()
    return None


def _openblas(package, libs_dir: str) -> dict:
    libs = Path(package.__file__).resolve().parent.parent / libs_dir
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        config = _symbol(
            lib,
            (
                "scipy_openblas_get_config64_",
                "scipy_openblas_get_config",
                "openblas_get_config64_",
                "openblas_get_config",
            ),
            ctypes.c_char_p,
        )
        threads = _symbol(
            lib,
            (
                "scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ),
            ctypes.c_int,
        )
        return {
            "bundle": libs_dir,
            "library": path.name,
            "config": config.decode() if config else None,
            "threads": threads,
        }
    return {"bundle": libs_dir, "library": None, "config": None, "threads": None}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

    nproc = len(os.sched_getaffinity(0))
    return {
        "host": platform.node(),
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": [_openblas(numpy, "numpy.libs"), _openblas(scipy, "scipy.libs")],
        "blas_env": {
            key: value
            for key, value in sorted(os.environ.items())
            if key.startswith(BLAS_ENV_PREFIXES)
        },
        "scaling_note": f"workers <= {nproc}; scaling beyond {nproc} cores is not "
        "measured on this host",
    }
