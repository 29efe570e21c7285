"""Shared helpers for the test suite."""

import numpy as np
import pytest

from covproj import SpdMatrix, make_spd
from covproj.blas import single_thread


def rand_spd(g: np.random.Generator, p: int, jitter: float = 0.1) -> SpdMatrix:
    """Random strictly positive definite matrix of order p."""
    a = g.standard_normal((p, p))
    return make_spd(a @ a.T / p + jitter * np.eye(p), strict=True)


def rand_orthonormal(g: np.random.Generator, p: int, q: int) -> np.ndarray:
    """Random p x q frame with orthonormal columns (Haar via QR)."""
    qmat, rmat = np.linalg.qr(g.standard_normal((p, q)))
    return qmat * np.sign(np.diag(rmat))


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """Run the whole session on one BLAS thread, as every sweep does."""
    with single_thread():
        yield


@pytest.fixture
def g():
    return np.random.default_rng(20260810)
