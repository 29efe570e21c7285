"""Shared helpers for the test suite."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from covproj import (
    ProjectionMatrix,
    SpdMatrix,
    SweepRecord,
    TwoClassGaussian,
    make_spd,
    project_model,
    read_records_csv,
    run_sweep,
)
from covproj.blas import numpy_openblas, single_thread, solve_triangular


def rand_spd(g: np.random.Generator, p: int, jitter: float = 0.1) -> SpdMatrix:
    """Random strictly positive definite matrix of order p."""
    a = g.standard_normal((p, p))
    return make_spd(a @ a.T / p + jitter * np.eye(p))


def rand_orthonormal(g: np.random.Generator, p: int, q: int) -> np.ndarray:
    """Random p x q frame with orthonormal columns (Haar via QR)."""
    qmat, rmat = np.linalg.qr(g.standard_normal((p, q)))
    return qmat * np.sign(np.diag(rmat))


def sweep_records(config) -> list[SweepRecord]:
    """Run a sweep into a scratch directory and read back the records it
    wrote, for tests that inspect records rather than files."""
    with tempfile.TemporaryDirectory() as out:
        run_sweep(config, out)
        return list(read_records_csv(Path(out) / "records.csv"))


def two_class_csv(directory: Path) -> Path:
    """``two_class.csv`` in ``directory``: a label column and 4 features, 100
    rows of class 1 and 100 of class 2 with twice its spread."""
    g = np.random.default_rng(0)
    x = g.standard_normal((200, 4)) * np.repeat([[1.0], [2.0]], 100, axis=0)
    lines = ["label,x0,x1,x2,x3"]
    lines += [f"{label}," + ",".join(f"{v:.6f}" for v in row)
              for label, row in zip(np.repeat([1, 2], 100), x)]
    path = directory / "two_class.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def reference_chernoff_distance(model: TwoClassGaussian, s: float) -> float:
    """The Chernoff distance of one model, factor by factor: three Cholesky
    factorizations, their log-dets and one triangular solve of d, even when
    d = 0. The reference the stacked kernel is held to, bit for bit."""
    c1, c2 = model.cov_1.entries, model.cov_2.entries
    l_blend, l1, l2 = (np.linalg.cholesky(m) for m in (s * c1 + (1.0 - s) * c2, c1, c2))
    u = solve_triangular(l_blend, model.mean_2 - model.mean_1, lower=True)
    quad = float(u @ u)
    ld_blend, ld_1, ld_2 = (2.0 * float(np.sum(np.log(np.diag(f)))) for f in (l_blend, l1, l2))
    logdet_term = ld_blend - s * ld_1 - (1.0 - s) * ld_2
    return max(0.0, s * (1.0 - s) / 2.0 * quad + 0.5 * logdet_term)


def reference_embedded_overlap(model: TwoClassGaussian, w: ProjectionMatrix) -> float:
    """The embedded overlap one projection at a time: project the model, then
    apply the formula at s = 1/2."""
    delta = reference_chernoff_distance(project_model(model, w), 0.5)
    return math.sqrt(model.weight_1 * model.weight_2) * math.exp(-delta)


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """Run the whole session on one BLAS thread, as every sweep does."""
    with single_thread():
        yield


@pytest.fixture
def openblas_at_two():
    """numpy's bundled OpenBLAS, set to two threads for the test."""
    build = numpy_openblas()
    before = build.get_threads()
    build.set_threads(2)
    yield build
    build.set_threads(before)


@pytest.fixture
def g():
    return np.random.default_rng(20260810)
