"""The benchmark's four sweep workloads, their expected sizes and probes.

Each workload is a flat ``covproj sweep`` config (without ``seed``; the
benchmark supplies it). ``probe`` overrides a few keys to give a small grid
that is run once per invocation at a fixed seed and compared with the
reference records in ``perfbench/reference/``. Why each workload exists is
recorded in ``BENCHMARK.json`` and ``perfbench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

ORACLE = "pca,rp,sparse_rp,bhatt_optimal"
EMPIRICAL = "empirical_pca,empirical_rp,empirical_sparse_rp,empirical_bhatt_optimal"

# Shape of the generated two-class dataset of ``empirical_risk_mc``.
DATASET_ROWS_PER_CLASS = 1000
DATASET_COLUMNS = 300
DATASET_FACTORS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict[str, str]
    probe: dict[str, str]
    # When set, each invocation also runs the sweep once, untimed, with this
    # worker count and requires byte-identical records. It is not timed:
    # with default BLAS threads a 2-worker sweep is bimodal per process.
    invariance_workers: int | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="iw_overlap",
            config={
                "family": "inverse_wishart",
                "mode": "overlap",
                "p": "100,200",
                "q": "1,2,5,10",
                "df1_over_p": "1,2,5",
                "df2_over_p": "1,2,5",
                "projections": ORACLE,
                "n_simu": "1",
                "workers": "1",
            },
            probe={"q": "1,10", "df1_over_p": "1,5", "df2_over_p": "2"},
        ),
        Workload(
            name="latent_small_p",
            config={
                "family": "latent_low_dim",
                "mode": "overlap",
                "p": "20,50",
                "q": "1,2,5",
                "share": "none,q,theta",
                "q_density": "dense,sparse",
                "projections": ORACLE,
                "n_simu": "5",
                "workers": "1",
            },
            probe={"q": "1,5", "n_simu": "1"},
            invariance_workers=2,
        ),
        Workload(
            name="finite_sample_p200",
            config={
                "family": "inverse_wishart",
                "mode": "finite_sample_curve",
                "p": "200",
                "q": "5",
                "df1_over_p": "2",
                "df2_over_p": "2",
                "sample_grid": "20,40,80,160,320",
                "projections": ORACLE + "," + EMPIRICAL,
                "n_simu": "1",
                "workers": "1",
            },
            probe={"sample_grid": "20,320"},
        ),
        Workload(
            name="empirical_risk_mc",
            config={
                "family": "empirical_cov",
                "mode": "risk_mc",
                "p": "50,200",
                "q": "5",
                "gamma": "0,0.5,1",
                "label_column": "label",
                "projections": "pca",
                "mc_samples": "65536",
                "n_simu": "1",
                "workers": "1",
            },
            probe={"gamma": "0,1", "mc_samples": "4096"},
        ),
    )
}


def _items(value: str) -> list[str]:
    return [tok.strip() for tok in value.split(",") if tok.strip()]


def expected_rows(config: dict[str, str]) -> int:
    """Rows a complete sweep must write, from the documented grid semantics.

    Cells are every (p, q, family parameters) combination with q < p; each
    cell writes ``n_simu`` x (sample-grid points in ``finite_sample_curve``)
    x projections rows. This restates the README contract independently of
    the package, so a lost or duplicated cell shows as a count mismatch.
    """
    ps = [int(v) for v in _items(config["p"])]
    qs = [int(v) for v in _items(config["q"])]
    combos = {
        "inverse_wishart": lambda: len(_items(config["df1_over_p"]))
        * len(_items(config["df2_over_p"])),
        "latent_low_dim": lambda: len(_items(config["share"]))
        * len(_items(config["q_density"])),
        "empirical_cov": lambda: len(_items(config["gamma"])),
    }[config["family"]]()
    cells = sum(1 for p in ps for q in qs if q < p) * combos
    points = (
        len(_items(config["sample_grid"]))
        if config["mode"] == "finite_sample_curve"
        else 1
    )
    return cells * int(config["n_simu"]) * points * len(_items(config["projections"]))


def write_config(path: Path, config: dict[str, str], seed: int) -> Path:
    lines = [f"{key} = {value}" for key, value in config.items()]
    lines.append(f"seed = {seed}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_two_class_csv(path: Path, seed: int) -> dict:
    """Write the ``empirical_risk_mc`` dataset; same seed, same bytes.

    Both classes are zero-mean Gaussian with covariance F_k F_k^T + D_k, from
    independent factor loadings F_k (columns x 5) and diagonal noise D_k drawn
    uniformly from [0.5, 1.5]. The classes differ only in covariance because
    the empirical family scores each pair as a zero-mean two-class model: a
    mean shift would be invisible to every metric the sweep computes, while a
    covariance difference is exactly the second-order signal covproj
    measures. It also makes gamma = 1 two identically distributed groups.
    """
    g = np.random.default_rng([seed, 1])
    n, p, k = DATASET_ROWS_PER_CLASS, DATASET_COLUMNS, DATASET_FACTORS
    blocks = []
    for label in (1, 2):
        loadings = g.standard_normal((p, k))
        noise_sd = np.sqrt(g.uniform(0.5, 1.5, p))
        x = g.standard_normal((n, k)) @ loadings.T + g.standard_normal((n, p)) * noise_sd
        blocks.append(np.column_stack([np.full(n, label), x]))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("label," + ",".join(f"x{j}" for j in range(p)) + "\n")
        np.savetxt(fh, np.vstack(blocks), fmt=["%d"] + ["%.6f"] * p, delimiter=",")
    return {"bytes": path.stat().st_size, "rows": 2 * n, "columns": p + 1}
