"""numpy's bundled OpenBLAS: the triangular solve, and the host a sweep's
manifest names.

scipy is the reference here: ``blas.solve_triangular`` must return
``scipy.linalg.solve_triangular``'s bits. The checks that start a fresh
interpreter are in ``test_command.py``.
"""

import json
import os
import platform
import sys

import numpy as np
import pytest
import scipy.linalg

from covproj import SweepConfig, blas, run_sweep


def _layouts(m: np.ndarray) -> dict[str, np.ndarray]:
    """``m`` C-ordered, Fortran-ordered, and as a strided view of neither."""
    strided = np.repeat(m, 2, axis=0)[::2]
    assert not (strided.flags.c_contiguous or strided.flags.f_contiguous)
    return {"C": np.ascontiguousarray(m), "F": np.asfortranarray(m), "strided": strided}


def _triangle(g: np.random.Generator, p: int, lower: bool) -> np.ndarray:
    a = g.standard_normal((p, p))
    ell = np.linalg.cholesky(a @ a.T + p * np.eye(p))
    return ell if lower else ell.T


class TestSolveTriangular:
    @pytest.mark.parametrize("p", [5, 20, 50, 200, 1000])
    @pytest.mark.parametrize("lower", [True, False])
    def test_bits_equal_scipy(self, g, p, lower):
        """Every layout of a and b, one to p right-hand sides, 1-D and 2-D."""
        # the other triangle holds noise, which neither solve may read
        noise = g.standard_normal((p, p))
        tri = _triangle(g, p, lower) + (np.triu(noise, 1) if lower else np.tril(noise, -1))
        mismatched = []
        for k in (None, 1, 2, 5, p):
            rhs = g.standard_normal(p if k is None else (p, k))
            for a_name, a in _layouts(tri).items():
                b_layouts = {"1-D": rhs} if k is None else _layouts(rhs)
                if k is None:
                    b_layouts["strided"] = np.repeat(rhs, 2)[::2]
                for b_name, b in b_layouts.items():
                    b_before = b.copy()
                    got = blas.solve_triangular(a, b, lower=lower)
                    want = scipy.linalg.solve_triangular(a, b, lower=lower)
                    assert np.array_equal(b, b_before)
                    if got.shape != want.shape or got.tobytes() != want.tobytes():
                        mismatched.append((k, a_name, b_name))
        assert mismatched == []

    @pytest.mark.parametrize("lower", [True, False])
    def test_zero_diagonal_raises_linalg_error(self, g, lower):
        a = _triangle(g, 6, lower)
        a[3, 3] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="diagonal 3"):
            blas.solve_triangular(a, np.ones(6), lower=lower)

    @pytest.mark.parametrize("where", ["a", "b"])
    def test_non_finite_input_is_not_scanned(self, g, where):
        """A NaN goes through the solve into x; the inputs are checked where
        they enter the package, not here."""
        a, b = _triangle(g, 6, lower=True), np.ones((6, 2))
        (a if where == "a" else b)[2, 1] = np.nan
        x = blas.solve_triangular(a, b, lower=True)
        assert np.isnan(x[2:, 1]).all() and np.isfinite(x[:2]).all()

    def test_mismatched_shapes_raise_value_error(self, g):
        with pytest.raises(ValueError, match="incompatible"):
            blas.solve_triangular(_triangle(g, 6, lower=True), np.ones(5), lower=True)
        with pytest.raises(ValueError, match="square"):
            blas.solve_triangular(np.ones((6, 5)), np.ones(6), lower=True)

    def test_empty_right_hand_side(self, g):
        x = blas.solve_triangular(_triangle(g, 4, lower=True), np.ones((4, 0)), lower=True)
        assert x.shape == (4, 0) and x.dtype == np.float64


def test_manifest_names_the_host(tmp_path):
    config = SweepConfig(family="example1", p=(3,), q=(1,))
    run_sweep(config, out_dir=tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["host"] == {
        "node": platform.node(),
        "cpu_count": os.cpu_count(),
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
    }
    assert "host" not in manifest["config"]
