"""numpy's bundled OpenBLAS: the triangular solve, the refusal of a numpy
without it, the import footprint and the thread count the command starts
OpenBLAS with.

scipy is the reference here: ``blas.solve_triangular`` must return
``scipy.linalg.solve_triangular``'s bits.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from covproj import SweepConfig, blas, run_sweep

SRC = Path(__file__).resolve().parent.parent / "src"


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


def _python(code: str, *argv: str, **overrides: str | None) -> subprocess.CompletedProcess:
    """Run ``code`` with ``argv`` in a fresh interpreter; an override of None
    unsets the variable."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    env.update(overrides)
    env = {name: value for name, value in env.items() if value is not None}
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120
    )


def _run_python(code: str, **overrides: str | None) -> list[str]:
    done = _python(code, **overrides)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


GUARD = """
import sys, tempfile
from pathlib import Path
import covproj, covproj.cli
from covproj import SweepConfig, read_records_csv, run_sweep
config = SweepConfig(
    family="inverse_wishart", p=(8,), q=(2,), df1_over_p=(2.0,),
    df2_over_p=(2.0,), projections=("pca", "rp", "bhatt_optimal"),
    mode="finite_sample_curve", sample_grid=(30,), n_simu=2, seed=5,
)
with tempfile.TemporaryDirectory() as out:
    run_sweep(config, out)
    records = list(read_records_csv(Path(out) / "records.csv"))
assert records and all(r.status == "ok" for r in records), records
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_package_and_sweep_import_no_scipy():
    assert _run_python(GUARD) == ["[]"]


# the command in a process where numpy bundles no OpenBLAS exporting the
# ILP64 dtrtrs (as in conda-forge, distro, MKL and Accelerate builds) and
# scipy is not installed
WITHOUT_OPENBLAS = """
import sys
sys.modules["scipy"] = None
from covproj import blas, cli
blas._bind = lambda lib, path: None
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "example1", "--p", "6", "--q", "2"],
        ["sweep", "--config", "{cfg}", "--out", "{out}"],
    ],
    ids=["oracle", "sweep"],
)
def test_numpy_without_bundled_openblas_exits_2(tmp_path, argv):
    """One error line that names dtrtrs, no traceback, and no output directory."""
    cfg, out = tmp_path / "tiny.cfg", tmp_path / "run"
    cfg.write_text("family = example1\np = 6\nq = 2\n")
    done = _python(WITHOUT_OPENBLAS, *(arg.format(cfg=cfg, out=out) for arg in argv))
    assert done.returncode == 2, done.stderr
    assert (done.stdout, len(done.stderr.splitlines())) == ("", 1), done.stderr
    assert done.stderr.startswith("error: blas: ") and "dtrtrs" in done.stderr
    assert not out.exists()


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


SWEEP_COMMAND = """
import sys
from covproj import cli
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(platform.machine() != "x86_64", reason="forces x86-64 OpenBLAS kernels")
def test_resume_under_another_kernel_exits_2_untouched(tmp_path):
    """The kernel alone moves bits, so a partial run made under one OpenBLAS
    kernel is not extended under another: the resume exits 2 naming both and
    leaves the directory as it was."""
    cfg, out = tmp_path / "tiny.cfg", tmp_path / "run"
    cfg.write_text("family = inverse_wishart\np = 6,8\nq = 2\ndf1_over_p = 2\ndf2_over_p = 2\n")
    argv = ["sweep", "--config", str(cfg), "--out", str(out)]
    first = _python(SWEEP_COMMAND, *argv, OPENBLAS_CORETYPE="Sandybridge")
    assert first.returncode == 0, first.stderr
    records = out / "records.csv"
    header_and_first_cell = records.read_bytes().splitlines(keepends=True)[:4]
    records.write_bytes(b"".join(header_and_first_cell))
    files = {path.name: path.read_bytes() for path in out.iterdir()}
    assert "Sandybridge" in json.loads(files["manifest.json"])["blas"]["config"]
    second = _python(SWEEP_COMMAND, *argv, OPENBLAS_CORETYPE="Nehalem")
    assert second.returncode == 2, second.stderr
    assert second.stderr.startswith("error: blas: ")
    assert "Sandybridge" in second.stderr and "Nehalem" in second.stderr
    assert {path.name: path.read_bytes() for path in out.iterdir()} == files


PREFIX_UNDER_KERNEL = """
import numpy as np
from covproj import blas, generalized_eigenpairs, make_spd
print(blas.numpy_openblas().config)
g = np.random.default_rng(32)
for p in (20, 200):
    c1, c2 = (make_spd(a @ a.T / p + 0.1 * np.eye(p)) for a in g.standard_normal((2, p, p)))
    full_values, full_vectors = generalized_eigenpairs(c1, c2)
    values, vectors = generalized_eigenpairs(c1, c2, k=5)
    print(p, values.tobytes() == full_values[:5].tobytes(),
          vectors.tobytes() == full_vectors[:, :5].tobytes())
"""


@pytest.mark.skipif(platform.machine() != "x86_64", reason="forces x86-64 OpenBLAS kernels")
@pytest.mark.parametrize("core", ["Haswell", "Sandybridge", "Nehalem"])
def test_k_pairs_are_the_leading_pairs_under_every_kernel(core):
    """The optimal frame for k is the first k columns of the frame for p, to
    the bit, under each forced kernel, not just the one the CPU picks: a
    solve of k columns alone rounds differently under Haswell and Nehalem."""
    config, *prefixes = _run_python(PREFIX_UNDER_KERNEL, OPENBLAS_CORETYPE=core)
    assert core in config
    assert prefixes == ["20 True True", "200 True True"]


# every public name of the package, eager or lazy
PUBLIC_NAMES = """
Cell ConfigError CovProjError DatasetFormatError EmbeddedQda EmptyClassError
InsufficientRowsError LabeledDataset NotPositiveDefiniteError PROJECTIONS
ProjectionMatrix
RankDeficientAfterRetriesError RankDeficientError RiskEstimate RngStream
SingularAfterRidgeError SingularBlendError SingularEmbeddedCovarianceError
SpdMatrix SummaryTable SweepConfig SweepRecord TwoClassGaussian
bhattacharyya_optimal_projection bhattacharyya_overlap blas build_projection
classify column_overlap config_from_mapping core datasets
embedded_overlap embedded_overlaps empirical_cov_pair
empirical_covariances expand_grid fit_embedded_qda gen_iw_pair gen_latent_pair
generalized_eigenpairs generators latent_rank load_dataset load_matrix
load_vector make_spd mc_bayes_risk metrics mixture_covariance oos_error
optimal_overlap_closed_form optimal_projection_auto_ridge parse_config_file
pca_adversarial_pair pca_favorable_pair pca_projection project_model
projections random_projection read_records_csv reconstruction_error run_sweep
sample_gaussian sample_inverse_wishart sample_two_class
sparse_random_projection summarize sweep
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
print(blas.numpy_openblas().get_threads())
"""


@pytest.mark.parametrize("preset, threads", [(None, 1), ("2", 2)])
def test_command_starts_openblas_on_one_thread_unless_set(preset, threads):
    """Importing ``covproj.cli`` before numpy sets the variable numpy's
    OpenBLAS reads when it loads; a value already set wins."""
    assert _run_python(COMMAND_START, OPENBLAS_NUM_THREADS=preset) == [str(threads)]



@pytest.mark.parametrize("preset, threads", [(None, 1), ("2", 2)])
def test_command_sweep_manifest_records_the_starting_thread_count(tmp_path, preset, threads):
    """Under the command only ``run_sweep`` pins BLAS, so the manifest's
    ``threads_before`` is the count OpenBLAS started with."""
    cfg, out = tmp_path / "tiny.cfg", tmp_path / "run"
    cfg.write_text("family = example1\np = 3,4\nq = 1\nprojections = pca,rp\n")
    argv = ["sweep", "--config", str(cfg), "--out", str(out)]
    done = _python(SWEEP_COMMAND, *argv, OPENBLAS_NUM_THREADS=preset)
    assert done.returncode == 0, done.stderr
    assert json.loads((out / "manifest.json").read_text())["blas"]["threads_before"] == threads
