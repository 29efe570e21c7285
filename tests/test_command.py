"""The command and the package in fresh interpreters: the import footprint,
the thread count the command starts OpenBLAS with, the refusal of a numpy
without its bundled OpenBLAS, a resume under another OpenBLAS kernel, and
each command run end to end where scipy cannot be imported.

Each child imports the package this module imported, from the directory
that holds it: ``src/`` in a checkout, site-packages in an install. Only the
standard library, pytest, numpy and covproj are imported here and in
``conftest.py``, so the module also runs against an install without the
test extra: ``python -m pytest -o pythonpath= tests/test_command.py``.
"""

import ast
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import covproj
from covproj import SweepConfig, run_sweep

from conftest import two_class_csv

TESTS = Path(__file__).resolve().parent
# the directory holding the covproj package this module imported
PACKAGE_ROOT = Path(covproj.__file__).resolve().parents[1]


def _python(code: str, *argv: str, **overrides: str | None) -> subprocess.CompletedProcess:
    """Run ``code`` with ``argv`` in a fresh interpreter; an override of None
    unsets the variable."""
    path = os.pathsep.join([str(PACKAGE_ROOT), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
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


# the command in a process where scipy cannot be imported, as in an install
# without the test extra
COMMAND = """
import sys
sys.modules["scipy"] = None
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
    first = _python(COMMAND, *argv, OPENBLAS_CORETYPE="Sandybridge")
    assert first.returncode == 0, first.stderr
    records = out / "records.csv"
    header_and_first_cell = records.read_bytes().splitlines(keepends=True)[:4]
    records.write_bytes(b"".join(header_and_first_cell))
    files = {path.name: path.read_bytes() for path in out.iterdir()}
    assert "Sandybridge" in json.loads(files["manifest.json"])["blas"]["config"]
    second = _python(COMMAND, *argv, OPENBLAS_CORETYPE="Nehalem")
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
    done = _python(COMMAND, *argv, OPENBLAS_NUM_THREADS=preset)
    assert done.returncode == 0, done.stderr
    assert json.loads((out / "manifest.json").read_text())["blas"]["threads_before"] == threads


_FRAMES = "projections = pca,rp,sparse_rp,bhatt_optimal\n"
CONFIGS = {
    "risk_mc.cfg": "family = inverse_wishart\nmode = risk_mc\np = 8\nq = 2\n"
    "df1_over_p = 2\ndf2_over_p = 2\nn_simu = 2\nmc_samples = 2000\n" + _FRAMES,
    "latent.cfg": "family = latent_low_dim\np = 20\nq = 2\nshare = none,q,theta\n"
    "q_density = dense,sparse\n" + _FRAMES,
    "empirical.cfg": "family = empirical_cov\ndataset = {dir}/two_class.csv\n"
    "label_column = label\np = 4\nq = 2\ngamma = 0,0.5,1\nn_simu = 2\n" + _FRAMES,
}

# argv, the files the command writes and the files it leaves byte-equal, in
# a directory holding two_class.csv, the configs above and a finished sweep
# in run/; every row exits 0 with nothing on stderr
ROWS = {
    "oracle": (["oracle", "example1", "--p", "6", "--q", "2", "--mc-samples", "2000"], [], []),
    "oracle_identity": (
        ["oracle", "example1", "--p", "6", "--q", "2", "--mc-samples", "2000",
         "--projection", "identity"],
        [],
        [],
    ),
    "oracle_bhatt_optimal": (
        ["oracle", "example2", "--p", "6", "--q", "3", "--mc-samples", "2000",
         "--projection", "bhatt_optimal"],
        [],
        [],
    ),
    "eval": (
        ["eval", "{dir}/two_class.csv", "--label-column", "label", "--q", "2",
         "--projections", "pca,rp,sparse_rp,bhatt_optimal"],
        [],
        [],
    ),
    "sweep_risk_mc": (
        ["sweep", "--config", "{dir}/risk_mc.cfg", "--out", "{dir}/out"],
        ["out/records.csv", "out/manifest.json"],
        [],
    ),
    "sweep_latent": (
        ["sweep", "--config", "{dir}/latent.cfg", "--out", "{dir}/out"],
        ["out/records.csv", "out/manifest.json"],
        [],
    ),
    "sweep_empirical": (
        ["sweep", "--config", "{dir}/empirical.cfg", "--out", "{dir}/out"],
        ["out/records.csv", "out/manifest.json"],
        [],
    ),
    "summarize": (
        ["summarize", "{dir}/run/records.csv", "--group-by", "p,q"],
        ["run/summary.csv"],
        ["run/records.csv", "run/manifest.json"],
    ),
}


@pytest.mark.parametrize("row", list(ROWS))
def test_command_runs_without_scipy(tmp_path, row):
    """Each command runs end to end on the numpy-only runtime."""
    argv, written, unchanged = ROWS[row]
    two_class_csv(tmp_path)
    for name, text in CONFIGS.items():
        (tmp_path / name).write_text(text.format(dir=tmp_path))
    run_sweep(SweepConfig(family="example1", p=(3, 4, 5), q=(1, 2)), tmp_path / "run")
    before = {name: (tmp_path / name).read_bytes() for name in unchanged}
    done = _python(COMMAND, *(arg.format(dir=tmp_path) for arg in argv))
    assert (done.returncode, done.stderr) == (0, "")
    assert [name for name in written if not (tmp_path / name).is_file()] == []
    assert {name: (tmp_path / name).read_bytes() for name in unchanged} == before


# what this module and conftest.py may import: an install without the test
# extra has no scipy and no hypothesis
ALLOWED_IMPORTS = {*sys.stdlib_module_names, "pytest", "numpy", "covproj", "conftest"}


@pytest.mark.parametrize("module", ["test_command.py", "conftest.py"])
def test_imports_need_no_test_extra(module):
    """A scipy or hypothesis import here would fail only where the test
    extra is not installed, which no tier-1 run sees."""
    tree = ast.parse((TESTS / module).read_text(), module)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module.split(".")[0])
    assert imported - ALLOWED_IMPORTS == set()
