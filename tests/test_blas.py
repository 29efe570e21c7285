"""numpy's bundled OpenBLAS: the triangular solve, the scipy fallback, the
import footprint and the thread count the command starts OpenBLAS with.

scipy is the reference here: ``blas.solve_triangular`` must return
``scipy.linalg.solve_triangular``'s bits, which is what keeps the records
of a sweep unchanged whichever path solves.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.linalg

from covproj import SweepConfig, blas, run_sweep

needs_numpy_solve = pytest.mark.skipif(
    blas.solve_path() != "numpy-openblas", reason="numpy bundles no OpenBLAS dtrtrs here"
)

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def scipy_build():
    """scipy's bundled OpenBLAS, which the fallback path solves with."""
    build = blas._bundled(scipy.__file__, "scipy.libs")
    if build is None:
        pytest.skip("scipy bundles no OpenBLAS here")
    return build


def _layouts(m: np.ndarray) -> dict[str, np.ndarray]:
    """``m`` C-ordered, Fortran-ordered, and as a strided view of neither."""
    strided = np.repeat(m, 2, axis=0)[::2]
    assert not (strided.flags.c_contiguous or strided.flags.f_contiguous)
    return {"C": np.ascontiguousarray(m), "F": np.asfortranarray(m), "strided": strided}


def _triangle(g: np.random.Generator, p: int, lower: bool) -> np.ndarray:
    a = g.standard_normal((p, p))
    ell = np.linalg.cholesky(a @ a.T + p * np.eye(p))
    return ell if lower else ell.T


@needs_numpy_solve
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["a", "b"])
    def test_non_finite_input_raises_value_error(self, g, bad, where):
        a, b = _triangle(g, 6, lower=True), np.ones((6, 2))
        (a if where == "a" else b)[2, 1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            blas.solve_triangular(a, b, lower=True)

    def test_mismatched_shapes_raise_value_error(self, g):
        with pytest.raises(ValueError, match="incompatible"):
            blas.solve_triangular(_triangle(g, 6, lower=True), np.ones(5), lower=True)
        with pytest.raises(ValueError, match="square"):
            blas.solve_triangular(np.ones((6, 5)), np.ones(6), lower=True)

    def test_empty_right_hand_side(self, g):
        x = blas.solve_triangular(_triangle(g, 4, lower=True), np.ones((4, 0)), lower=True)
        assert x.shape == (4, 0) and x.dtype == np.float64


def _run_python(code: str, **overrides: str | None) -> list[str]:
    """Run ``code`` in a fresh interpreter; an override of None unsets the variable."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    env.update(overrides)
    env = {name: value for name, value in env.items() if value is not None}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


GUARD = """
import sys
import covproj, covproj.cli
from covproj import SweepConfig, blas, run_sweep
config = SweepConfig(
    family="inverse_wishart", p_grid=(8,), q_grid=(2,), df1_over_p=(2.0,),
    df2_over_p=(2.0,), projections=("pca", "rp", "bhatt_optimal"), mode="oos_loss",
    n_per_class=30, n_simu=2, master_seed=5,
)
records = run_sweep(config)
assert records and all(r.status == "ok" for r in records), records
print(blas.solve_path())
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


@needs_numpy_solve
def test_package_and_sweep_import_no_scipy():
    assert _run_python(GUARD) == ["numpy-openblas", "[]"]


FRESH_FALLBACK = """
import json, sys
from covproj import blas
blas._dtrtrs = lambda: None
assert "scipy" not in sys.modules
with blas.single_thread() as entries:
    print(json.dumps(entries))
"""


@needs_numpy_solve
def test_fallback_pins_scipy_in_a_process_without_it(scipy_build):
    """On the scipy path the pin imports scipy first, so its build is pinned too."""
    entries = json.loads(_run_python(FRESH_FALLBACK)[0])
    assert scipy_build.library in [e["library"] for e in entries]
    assert {(e["threads_during"], e["solve"]) for e in entries} == {(1, "scipy")}


SOLVED_EVERYWHERE = (
    # IW draws, the optimal projection's whitening and the overlap's
    # distances all solve
    SweepConfig(
        family="inverse_wishart", p_grid=(10, 20), q_grid=(1, 3), df1_over_p=(1.0, 2.0),
        projections=("pca", "rp", "bhatt_optimal"), n_simu=2, master_seed=41,
    ),
    # and so does the trained classifier's predict
    SweepConfig(
        family="inverse_wishart", p_grid=(12,), q_grid=(2,), df1_over_p=(2.0,),
        projections=("pca", "bhatt_optimal"), mode="oos_loss", n_per_class=40,
        n_simu=2, master_seed=42,
    ),
)


@needs_numpy_solve
@pytest.mark.parametrize("config", SOLVED_EVERYWHERE, ids=["overlap", "oos_loss"])
def test_scipy_fallback_writes_the_same_records(tmp_path, monkeypatch, scipy_build, config):
    run_sweep(config, out_dir=tmp_path / "numpy")

    scipy_solve = scipy.linalg.solve_triangular
    threads_at_solve = []

    def spy(*args, **kwargs):
        threads_at_solve.append(scipy_build.get_threads())
        return scipy_solve(*args, **kwargs)

    monkeypatch.setattr(blas, "_dtrtrs", lambda: None)
    monkeypatch.setattr(scipy.linalg, "solve_triangular", spy)
    before = scipy_build.get_threads()
    scipy_build.set_threads(2)
    try:
        run_sweep(config, out_dir=tmp_path / "scipy")
        assert scipy_build.get_threads() == 2
    finally:
        scipy_build.set_threads(before)

    assert threads_at_solve and set(threads_at_solve) == {1}
    assert (tmp_path / "scipy" / "records.csv").read_bytes() == (
        tmp_path / "numpy" / "records.csv"
    ).read_bytes()
    for path, solve in (("numpy", "numpy-openblas"), ("scipy", "scipy")):
        entries = json.loads((tmp_path / path / "manifest.json").read_text())["blas"]
        assert [e["solve"] for e in entries] == [solve] * len(entries)
        assert scipy_build.library in [e["library"] for e in entries]


def test_manifest_names_the_host(tmp_path):
    config = SweepConfig(family="example1", p_grid=(3,), q_grid=(1,))
    run_sweep(config, out_dir=tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["host"] == {
        "node": platform.node(),
        "cpu_count": os.cpu_count(),
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
    }
    assert "host" not in manifest["config"]


# every public name of the package, eager or lazy
PUBLIC_NAMES = """
Cell ConfigError CovProjError DatasetFormatError DegreesOfFreedomError
DimensionMismatchError EmbeddedQda EmptyClassError EmptyGridError
InsufficientRowsError LabeledDataset MixedModesError
NonFiniteProjectionError NonPositiveEigenvalueError NotPositiveDefiniteError
NotSquareError PROJECTIONS ProjectionMatrix
RankDeficientAfterRetriesError RankDeficientError RiskEstimate RngStream
SingularAfterRidgeError SingularBlendError SingularEmbeddedCovarianceError
SpdMatrix SummaryTable SweepConfig SweepRecord TwoClassGaussian
bhattacharyya_optimal_projection bhattacharyya_overlap blas build_projection
chernoff_distance classify column_overlap config_from_mapping core datasets
derive_stream embedded_overlap embedded_overlaps empirical_cov_pair
empirical_covariances expand_grid fit_embedded_qda gen_iw_pair gen_latent_pair
generalized_eigenpairs generators latent_rank load_dataset load_matrix
load_vector make_spd mc_bayes_risk metrics mixture_covariance oos_error
optimal_overlap_closed_form optimal_projection_auto_ridge parse_config_file
pca_adversarial_pair pca_favorable_pair pca_projection project_model
projections random_projection read_records_csv reconstruction_error run_sweep
sample_gaussian sample_inverse_wishart sample_scaled_inverse_wishart
sample_two_class sample_wishart sparse_random_projection summarize sweep
""".split()

LIBRARY_IMPORT = """
import os, sys
import covproj
print("numpy" in sys.modules, "OPENBLAS_NUM_THREADS" in os.environ)
print(" ".join(covproj.__all__))
print(" ".join(dir(covproj)))
"""


def test_library_import_loads_no_numpy_and_lists_every_name():
    loaded, exported, listed = _run_python(LIBRARY_IMPORT, OPENBLAS_NUM_THREADS=None)
    assert loaded == "False False"
    assert sorted(exported.split()) == sorted(PUBLIC_NAMES)
    assert set(PUBLIC_NAMES) <= set(listed.split())


def test_every_public_name_resolves():
    import covproj

    namespace = {}
    exec("from covproj import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        covproj.nonexistent


COMMAND_START = """
from covproj import cli
from covproj import blas
print([build.get_threads() for build in blas.find_openblas()])
"""


@pytest.mark.skipif(blas._numpy_openblas() is None, reason="numpy bundles no OpenBLAS here")
@pytest.mark.parametrize("preset, threads", [(None, 1), ("2", 2)])
def test_command_starts_openblas_on_one_thread_unless_set(preset, threads):
    """Importing ``covproj.cli`` before numpy sets the variable numpy's
    OpenBLAS reads when it loads; a value already set wins."""
    assert _run_python(COMMAND_START, OPENBLAS_NUM_THREADS=preset) == [f"[{threads}]"]
