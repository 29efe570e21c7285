"""Sweep engine: grid arithmetic, determinism, checkpointing, summaries."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from covproj import (
    ConfigError,
    EmptyGridError,
    MixedModesError,
    SweepConfig,
    SweepRecord,
    config_from_mapping,
    expand_grid,
    parse_config_file,
    read_records_csv,
    run_sweep,
    summarize,
)
from covproj import blas, projections, sweep
from covproj.projections import PROJECTIONS
from covproj.sweep import rows_per_cell

PAPER_IW = SweepConfig(
    family="inverse_wishart",
    p_grid=(20, 50, 100, 200),
    q_grid=(1, 2, 5, 10, 50),
    df1_over_p=(1, 1.5, 2, 3, 4, 5, 10),
    df2_over_p=(1, 1.5, 2, 3, 4, 5, 10),
    n_simu=100,
)

PAPER_LATENT = SweepConfig(
    family="latent_low_dim",
    p_grid=(20, 50, 100, 200),
    q_grid=(1, 2, 5, 10, 50),
    share_modes=("none", "q", "theta"),
    q_densities=("dense", "sparse"),
    n_simu=100,
)

PAPER_EMPIRICAL = SweepConfig(
    family="empirical_cov",
    p_grid=(100, 500, 1000),
    q_grid=(2, 5, 10, 20),
    gamma_grid=(0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1),
    n_simu=20,
)

SMALL_IW = SweepConfig(
    family="inverse_wishart",
    p_grid=(10, 20),
    q_grid=(1, 3),
    df1_over_p=(1.0, 2.0),
    df2_over_p=(1.0,),
    n_simu=2,
    master_seed=77,
)


class TestExpandGrid:
    def test_iw_grid_combination_count(self):
        cells = expand_grid(PAPER_IW)
        assert len(cells) == 882
        assert len(cells) * PAPER_IW.n_simu == 88_200

    def test_latent_grid_combination_count(self):
        cells = expand_grid(PAPER_LATENT)
        assert len(cells) == 108
        assert len(cells) * PAPER_LATENT.n_simu == 10_800

    def test_empirical_grid_combination_count(self):
        cells = expand_grid(PAPER_EMPIRICAL)
        assert len(cells) == 108
        assert len(cells) * PAPER_EMPIRICAL.n_simu == 2_160

    def test_q_must_be_below_p(self):
        for cell in expand_grid(PAPER_IW):
            assert cell.q < cell.p

    def test_indices_are_contiguous(self):
        cells = expand_grid(SMALL_IW)
        assert [c.index for c in cells] == list(range(len(cells)))

    def test_empty_grid_rejected(self):
        cfg = dataclasses.replace(SMALL_IW, p_grid=(2,), q_grid=(5,))
        with pytest.raises(EmptyGridError):
            expand_grid(cfg)

    def test_pure_function_of_config(self):
        a = expand_grid(SMALL_IW)
        b = expand_grid(SMALL_IW)
        assert a == b


class TestConfig:
    def test_mapping_roundtrip(self):
        cfg = config_from_mapping(PAPER_IW.to_mapping())
        assert cfg == PAPER_IW

    @pytest.mark.parametrize(
        "key, value",
        [
            ("df1_over_p", "nan"),
            ("df2_over_p", "2,inf"),
            ("gamma", "0,nan"),
            ("ridge", "nan"),
            ("ridge", "inf"),
            ("sparse_q_density", "nan"),
            ("alpha", "inf"),
            ("delta", "-inf"),
            ("train_frac", "nan"),
        ],
    )
    def test_non_finite_float_rejected(self, key, value):
        """A NaN slips past every range check, since each comparison with it
        is false; the field table refuses it where the value is read."""
        with pytest.raises(ConfigError) as err:
            config_from_mapping({"family": "inverse_wishart", key: value})
        assert err.value.field == key

    @pytest.mark.parametrize(
        "family, field, value, key",
        [
            ("inverse_wishart", "df1_over_p", (math.nan,), "df1_over_p"),
            ("inverse_wishart", "df1_over_p", (math.inf,), "df1_over_p"),
            ("inverse_wishart", "df2_over_p", (2.0, math.nan), "df2_over_p"),
            ("inverse_wishart", "ridge", math.nan, "ridge"),
            ("inverse_wishart", "ridge", math.inf, "ridge"),
            ("example1", "alpha", math.inf, "alpha/delta"),
        ],
    )
    def test_validate_rejects_non_finite(self, family, field, value, key):
        """A config built in Python never passes through the field table, so
        ``validate`` itself must refuse NaN and infinities."""
        config = SweepConfig(family=family, p_grid=(6,), q_grid=(2,), **{field: value})
        with pytest.raises(ConfigError) as err:
            config.validate()
        assert err.value.field == key

    def test_mapping_golden_every_field_non_default(self):
        """The manifest echo of a config whose every field differs from its
        default, spelled out: resume compares this echo byte for byte."""
        cfg = SweepConfig(
            family="latent_low_dim",
            p_grid=(12, 30),
            q_grid=(2, 3),
            mode="finite_sample_curve",
            projections=("pca", "empirical_bhatt_optimal"),
            n_simu=3,
            master_seed=11,
            n_workers=2,
            df1_over_p=(1.5, 2),
            df2_over_p=(3.0,),
            share_modes=("q", "theta"),
            q_densities=("sparse",),
            sparse_q_density=0.3,
            gamma_grid=(0.25, 1.0),
            dataset="data.csv",
            label_column="label",
            alpha=5.5,
            delta=0.5,
            train_frac=0.6,
            mc_samples=500,
            ridge=1e-4,
            n_per_class=50,
            sample_grid=(10, 30),
            record_timings=True,
        )
        assert cfg.to_mapping() == {
            "family": "latent_low_dim",
            "mode": "finite_sample_curve",
            "p": "12,30",
            "q": "2,3",
            "projections": "pca,empirical_bhatt_optimal",
            "n_simu": "3",
            "seed": "11",
            "workers": "2",
            "df1_over_p": "1.5,2",
            "df2_over_p": "3",
            "share": "q,theta",
            "q_density": "sparse",
            "sparse_q_density": "0.29999999999999999",
            "gamma": "0.25,1",
            "dataset": "data.csv",
            "label_column": "label",
            "alpha": "5.5",
            "delta": "0.5",
            "train_frac": "0.59999999999999998",
            "mc_samples": "500",
            "ridge": "0.0001",
            "n_per_class": "50",
            "sample_grid": "10,30",
            "record_timings": "true",
        }
        assert config_from_mapping(cfg.to_mapping()) == cfg

    def test_parse_file_with_comments(self, tmp_path):
        text = (
            "# overlap sweep\n"
            "family = inverse_wishart\n"
            "mode = overlap\n"
            "p = 20, 50\n"
            "q = 1,2\n"
            "df1_over_p = 1,2  # multiples of p\n"
            "df2_over_p = 1\n"
            "n_simu = 3\n"
            "seed = 9\n"
        )
        path = tmp_path / "sweep.cfg"
        path.write_text(text)
        cfg = parse_config_file(path)
        assert cfg.p_grid == (20, 50)
        assert cfg.df1_over_p == (1.0, 2.0)
        assert cfg.master_seed == 9

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"family": "inverse_wishart", "p": "10", "q": "2", "frobnicate": "1"})

    def test_df_multiple_below_one_rejected(self):
        with pytest.raises(ConfigError) as err:
            config_from_mapping(
                {"family": "inverse_wishart", "p": "20", "q": "2", "df1_over_p": "0.5"}
            )
        assert "df1_over_p" in str(err.value)

    def test_empirical_projection_needs_data_mode(self):
        cfg = dataclasses.replace(SMALL_IW, projections=("pca", "empirical_pca"))
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_record_timings_accepts_only_boolean_words(self):
        base = {"family": "inverse_wishart", "p": "10", "q": "2"}
        for text, value in (("1", True), ("TRUE", True), ("Yes", True),
                            ("0", False), ("false", False), ("NO", False)):
            cfg = config_from_mapping({**base, "record_timings": text})
            assert cfg.record_timings is value
        for text in ("ture", "", "2", "on"):
            with pytest.raises(ConfigError) as err:
                config_from_mapping({**base, "record_timings": text})
            assert "record_timings" in str(err.value)

    def test_projection_names_are_the_registry(self):
        data_mode = dataclasses.replace(SMALL_IW, mode="oos_loss")
        for name in PROJECTIONS:
            dataclasses.replace(SMALL_IW, projections=(name,)).validate()
            dataclasses.replace(data_mode, projections=(f"empirical_{name}",)).validate()
        for name in ("identity", "bogus", "empirical_identity", "empirical_empirical_pca"):
            with pytest.raises(ConfigError) as err:
                dataclasses.replace(data_mode, projections=(name,)).validate()
            assert "projections" in str(err.value)

    def test_manifest_rerun_config(self, tmp_path):
        run_sweep(SMALL_IW, out_dir=tmp_path / "run")
        cfg = parse_config_file(tmp_path / "run" / "manifest.json")
        assert cfg == SMALL_IW


class TestRunSweep:
    def test_record_count_conservation(self):
        records = run_sweep(SMALL_IW)
        cells = expand_grid(SMALL_IW)
        expected = len(cells) * SMALL_IW.n_simu * len(SMALL_IW.projections)
        assert len(records) == expected

    def test_failures_recorded_in_band(self):
        """An oos run with q above the training class size keeps one failed
        record per projection instead of dropping the cell."""
        cfg = SweepConfig(
            family="inverse_wishart",
            p_grid=(10,),
            q_grid=(6,),
            df1_over_p=(2.0,),
            df2_over_p=(2.0,),
            n_simu=2,
            mode="oos_loss",
            n_per_class=6,
            ridge=0.0,
            projections=("pca", "rp"),
            master_seed=5,
        )
        records = run_sweep(cfg)
        assert len(records) == 4
        assert all(not r.ok for r in records)
        assert all(r.status == "failed:SingularEmbeddedCovarianceError" for r in records)

    def test_worker_count_invariance(self):
        rows_1 = [r.to_csv_row() for r in run_sweep(SMALL_IW)]
        rows_8 = [
            r.to_csv_row()
            for r in run_sweep(dataclasses.replace(SMALL_IW, n_workers=8))
        ]
        assert rows_1 == rows_8

    def test_csv_byte_identity_and_roundtrip(self, tmp_path):
        run_sweep(SMALL_IW, out_dir=tmp_path / "a")
        run_sweep(dataclasses.replace(SMALL_IW, n_workers=4), out_dir=tmp_path / "b")
        blob_a = (tmp_path / "a" / "records.csv").read_bytes()
        blob_b = (tmp_path / "b" / "records.csv").read_bytes()
        assert blob_a == blob_b
        records = read_records_csv(tmp_path / "a" / "records.csv")
        assert [r.to_csv_row() for r in records] == [
            r.to_csv_row() for r in run_sweep(SMALL_IW)
        ]

    def test_resume_from_checkpoint(self, tmp_path):
        full_dir, part_dir = tmp_path / "full", tmp_path / "part"
        run_sweep(SMALL_IW, out_dir=full_dir)
        full_lines = (full_dir / "records.csv").read_text().splitlines()
        per_cell = rows_per_cell(SMALL_IW)
        keep_cells = 3
        part_dir.mkdir()
        (part_dir / "records.csv").write_text(
            "\n".join(full_lines[: 1 + keep_cells * per_cell]) + "\n"
        )
        (part_dir / "checkpoint.txt").write_text(
            "".join(f"{i}\n" for i in range(keep_cells))
        )
        new_records = run_sweep(SMALL_IW, out_dir=part_dir)
        n_cells = len(expand_grid(SMALL_IW))
        assert len(new_records) == (n_cells - keep_cells) * per_cell
        assert (part_dir / "records.csv").read_bytes() == (
            full_dir / "records.csv"
        ).read_bytes()

    def test_resume_trims_partial_cell(self, tmp_path):
        """Rows written after the last checkpointed cell are discarded."""
        full_dir, part_dir = tmp_path / "full", tmp_path / "part"
        run_sweep(SMALL_IW, out_dir=full_dir)
        full_lines = (full_dir / "records.csv").read_text().splitlines()
        per_cell = rows_per_cell(SMALL_IW)
        part_dir.mkdir()
        (part_dir / "records.csv").write_text(
            "\n".join(full_lines[: 1 + 2 * per_cell + 1]) + "\n"
        )
        (part_dir / "checkpoint.txt").write_text("0\n1\n")
        run_sweep(SMALL_IW, out_dir=part_dir)
        assert (part_dir / "records.csv").read_bytes() == (
            full_dir / "records.csv"
        ).read_bytes()

    def test_resume_after_torn_checkpoint_line(self, tmp_path):
        """A checkpoint line cut short by a kill is dropped, not refused."""
        cfg = dataclasses.replace(SMALL_IW, df1_over_p=(1.0, 2.0, 3.0), n_simu=1)
        n_cells = len(expand_grid(cfg))
        assert n_cells >= 12
        full_dir, part_dir = tmp_path / "full", tmp_path / "part"
        run_sweep(cfg, out_dir=full_dir)
        full_lines = (full_dir / "records.csv").read_text().splitlines()
        part_dir.mkdir()
        (part_dir / "records.csv").write_text(
            "\n".join(full_lines[: 1 + 11 * rows_per_cell(cfg)]) + "\n"
        )
        (part_dir / "checkpoint.txt").write_text(
            "".join(f"{i}\n" for i in range(11)) + "1"
        )
        run_sweep(cfg, out_dir=part_dir)
        assert (part_dir / "records.csv").read_bytes() == (
            full_dir / "records.csv"
        ).read_bytes()
        assert (part_dir / "checkpoint.txt").read_text() == "".join(
            f"{i}\n" for i in range(n_cells)
        )

    def test_resume_without_manifest_rejects_other_seed(self, tmp_path):
        """Without a manifest, the last checkpointed cell is recomputed and a
        different seed is caught before any row is appended or trimmed."""
        cfg = SweepConfig(
            family="latent_low_dim", p_grid=(10,), q_grid=(1, 2, 3), master_seed=1
        )
        out = tmp_path / "run"
        run_sweep(cfg, out_dir=out)
        blob = (out / "records.csv").read_bytes()
        (out / "checkpoint.txt").write_text("0\n")
        (out / "manifest.json").unlink()
        with pytest.raises(ConfigError):
            run_sweep(dataclasses.replace(cfg, master_seed=2), out_dir=out)
        assert (out / "records.csv").read_bytes() == blob

    def test_resume_with_other_config_rejected(self, tmp_path):
        out = tmp_path / "run"
        run_sweep(SMALL_IW, out_dir=out)
        per_cell = rows_per_cell(SMALL_IW)
        lines = (out / "records.csv").read_text().splitlines()
        (out / "records.csv").write_text("\n".join(lines[: 1 + 2 * per_cell]) + "\n")
        (out / "checkpoint.txt").write_text("0\n1\n")
        other = dataclasses.replace(SMALL_IW, master_seed=123)
        with pytest.raises(ConfigError):
            run_sweep(other, out_dir=out)

    def test_completed_run_is_a_no_op(self, tmp_path):
        out = tmp_path / "run"
        run_sweep(SMALL_IW, out_dir=out)
        blob = (out / "records.csv").read_bytes()
        again = run_sweep(SMALL_IW, out_dir=out)
        assert again == []
        assert (out / "records.csv").read_bytes() == blob

    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "run"
        run_sweep(SMALL_IW, out_dir=out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        assert manifest["master_seed"] == SMALL_IW.master_seed
        assert manifest["n_cells"] == len(expand_grid(SMALL_IW))
        assert "finished_at" in manifest

    def test_fixture_family_injection(self):
        """The adversarial fixture run as a degenerate family: PCA records
        carry overlap exactly 0.5 while the optimal matches the closed form."""
        cfg = SweepConfig(
            family="example2",
            p_grid=(8,),
            q_grid=(2,),
            alpha=4.0,
            delta=1.0,
            n_simu=2,
            mode="overlap",
            projections=("pca", "bhatt_optimal"),
            master_seed=1,
        )
        records = run_sweep(cfg)
        pca = [r.metric_overlap for r in records if r.projection == "pca"]
        opt = [r.metric_overlap for r in records if r.projection == "bhatt_optimal"]
        assert pca == [0.5, 0.5]
        expected = 0.5 * ((2.0 + 0.5) / 2.0) ** -1.0
        assert all(abs(v - expected) <= 1e-9 for v in opt)

    def test_record_timings_flag(self, tmp_path):
        cfg = dataclasses.replace(SMALL_IW, record_timings=True)
        run_sweep(cfg, out_dir=tmp_path / "timed")
        records = read_records_csv(tmp_path / "timed" / "records.csv")
        assert all(r.ms >= 0 for r in records)

    def test_finite_sample_records_carry_n(self):
        cfg = SweepConfig(
            family="inverse_wishart",
            p_grid=(12,),
            q_grid=(2,),
            df1_over_p=(2.0,),
            df2_over_p=(2.0,),
            n_simu=2,
            mode="finite_sample_curve",
            sample_grid=(10, 20),
            projections=("pca", "empirical_pca"),
            master_seed=4,
        )
        records = run_sweep(cfg)
        assert len(records) == 2 * 2 * 2
        assert {r.param3 for r in records} == {"10", "20"}
        ok = [r for r in records if r.ok]
        assert ok and all(
            r.metric_oos is not None and r.metric_recon is not None for r in ok
        )

    def test_finite_sample_estimates_once_per_point(self, monkeypatch):
        """Each (replicate, sample size) point computes three sample
        covariances, the two class estimates and the pooled one empirical PCA
        decomposes, however many projections build and fit from them."""
        original = projections.mixture_covariance
        calls = []

        def counting(x):
            calls.append(x.shape)
            return original(x)

        monkeypatch.setattr(projections, "mixture_covariance", counting)
        cfg = SweepConfig(
            family="inverse_wishart",
            p_grid=(12,),
            q_grid=(2,),
            df1_over_p=(2.0,),
            df2_over_p=(2.0,),
            n_simu=2,
            mode="finite_sample_curve",
            sample_grid=(10, 20),
            projections=PROJECTIONS + tuple(f"empirical_{name}" for name in PROJECTIONS),
            master_seed=4,
        )
        records = run_sweep(cfg)
        assert len(records) == 2 * 2 * 8 and all(r.ok for r in records)
        assert len(calls) == 3 * 2 * 2

    def _count_factorizations(self, monkeypatch, p):
        """Patch numpy's eigvalsh and cholesky to log the order of every
        call; returns the log of eigvalsh calls and that of p x p Choleskys."""
        eigvalsh, cholesky = np.linalg.eigvalsh, np.linalg.cholesky
        eig_calls, chol_calls = [], []

        def counting_eigvalsh(a, *args, **kwargs):
            eig_calls.append(a.shape[0])
            return eigvalsh(a, *args, **kwargs)

        def counting_cholesky(a, *args, **kwargs):
            if a.shape[0] == p:
                chol_calls.append(p)
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
        return eig_calls, chol_calls

    def test_overlap_sweep_checks_each_draw_once(self, monkeypatch):
        """A scaled inverse Wishart draw gets one strict Cholesky, and the
        optimal projection factors C1 once: three p x p factorizations per
        pair. Matrices built from the draws (C1 + C2 for PCA, W^T C W for the
        overlap) are not re-checked, so no eigvalsh runs."""
        eig_calls, chol_calls = self._count_factorizations(monkeypatch, 40)
        cfg = SweepConfig(
            family="inverse_wishart",
            p_grid=(40,),
            q_grid=(3,),
            df1_over_p=(2.0,),
            df2_over_p=(2.0,),
            projections=PROJECTIONS,
            n_simu=2,
            master_seed=5,
        )
        records = run_sweep(cfg)
        assert len(records) == 2 * len(PROJECTIONS) and all(r.ok for r in records)
        assert eig_calls == []
        assert len(chol_calls) == 3 * 2

    def test_finite_sample_sweep_runs_no_eigvalsh(self, monkeypatch):
        """With the default QDA ridge, sample covariances and embedded fits
        are factored by Cholesky alone."""
        eig_calls, _ = self._count_factorizations(monkeypatch, 12)
        cfg = SweepConfig(
            family="inverse_wishart",
            p_grid=(12,),
            q_grid=(2,),
            df1_over_p=(2.0,),
            df2_over_p=(2.0,),
            mode="finite_sample_curve",
            sample_grid=(10, 20),
            projections=PROJECTIONS + tuple(f"empirical_{name}" for name in PROJECTIONS),
            master_seed=4,
        )
        records = run_sweep(cfg)
        assert len(records) == 2 * 8 and all(r.ok for r in records)
        assert eig_calls == []


def _threads(builds):
    return [build.get_threads() for build in builds]


@pytest.fixture
def openblas_at_two():
    """The bundled OpenBLAS builds, set to two threads for the test."""
    builds = blas.find_openblas()
    if not builds:
        pytest.skip("numpy and scipy bundle no OpenBLAS here")
    before = _threads(builds)
    for build in builds:
        build.set_threads(2)
    yield builds
    for build, threads in zip(builds, before):
        build.set_threads(threads)


IW_P100 = SweepConfig(
    family="inverse_wishart",
    p_grid=(100,),
    q_grid=(1, 5),
    df1_over_p=(1.0, 2.0),
    df2_over_p=(1.0,),
    projections=("pca", "rp", "sparse_rp", "bhatt_optimal"),
    n_simu=2,
    master_seed=31,
)


class TestBlasPolicy:
    def test_thread_counts_restored_after_sweep(self, openblas_at_two):
        run_sweep(SMALL_IW)
        assert _threads(openblas_at_two) == [2] * len(openblas_at_two)

    def test_thread_counts_restored_when_sweep_raises(self, openblas_at_two, monkeypatch):
        seen = []

        def failing_cell(*args):
            seen.append(_threads(openblas_at_two))
            raise RuntimeError("cell failed")

        monkeypatch.setattr(sweep, "_eval_cell", failing_cell)
        with pytest.raises(RuntimeError):
            run_sweep(SMALL_IW)
        assert seen == [[1] * len(openblas_at_two)]
        assert _threads(openblas_at_two) == [2] * len(openblas_at_two)

    def test_manifest_records_one_thread_during_sweep(self, openblas_at_two, tmp_path):
        run_sweep(SMALL_IW, out_dir=tmp_path / "run")
        entries = json.loads((tmp_path / "run" / "manifest.json").read_text())["blas"]
        assert [e["library"] for e in entries] == [b.library for b in openblas_at_two]
        assert [e["config"] for e in entries] == [b.config for b in openblas_at_two]
        assert all(e["threads_before"] == 2 and e["threads_during"] == 1 for e in entries)

    def test_unmanaged_blas_still_runs(self, monkeypatch, tmp_path):
        monkeypatch.setattr(blas, "find_openblas", lambda: [])
        records = run_sweep(SMALL_IW, out_dir=tmp_path / "run")
        assert len(records) == len(expand_grid(SMALL_IW)) * rows_per_cell(SMALL_IW)
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["blas"] == "unmanaged"
        assert manifest["config"] == SMALL_IW.to_mapping()

    def test_records_independent_of_workers_and_caller_threads(
        self, openblas_at_two, tmp_path
    ):
        """At p=100 OpenBLAS blocks its kernels, so the records would follow
        the BLAS thread count if the sweep did not fix it."""
        run_sweep(IW_P100, out_dir=tmp_path / "w1")
        for build in openblas_at_two:
            build.set_threads(1)
        run_sweep(dataclasses.replace(IW_P100, n_workers=2), out_dir=tmp_path / "w2")
        assert (tmp_path / "w1" / "records.csv").read_bytes() == (
            tmp_path / "w2" / "records.csv"
        ).read_bytes()


class TestRecordSchema:
    """The record columns are derived from ``SweepRecord``; these pin the file format."""

    HEADER = (
        "family,p,q,param1,param2,param3,replicate,projection,metric_overlap,"
        "metric_oos,metric_mc,metric_mc_se,metric_recon,status,ms"
    )

    def test_header_is_the_fixed_fifteen_columns(self):
        assert sweep.CSV_HEADER == self.HEADER

    def test_readme_documents_the_header(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        assert [ln for ln in readme.splitlines() if ln.startswith("family,")] == [
            sweep.CSV_HEADER
        ]

    def test_groupable_columns_precede_replicate(self):
        assert sweep.GROUPABLE_FIELDS == ("family", "p", "q", "param1", "param2", "param3")

    def test_ms_is_zero_in_memory_without_record_timings(self):
        assert all(r.ms == 0 for r in run_sweep(SMALL_IW))


def _toy_record(projection, value, replicate=0, status="ok", q=2):
    return SweepRecord(
        family="inverse_wishart",
        p=10,
        q=q,
        param1="1",
        param2="1",
        param3="",
        replicate=replicate,
        projection=projection,
        metric_overlap=value if status == "ok" else None,
        status=status,
    )


class TestSummarize:
    def test_two_record_regret(self):
        records = [_toy_record("pca", 0.2), _toy_record("rp", 0.3)]
        table = summarize(records, ["q"], "pca")
        row = dict(zip(table.columns, table.rows[0]))
        assert row["mean_pca"] == pytest.approx(0.2)
        assert row["regret_rp"] == pytest.approx(0.1)
        assert row["freq_positive_rp"] == 1.0
        assert row["n_pairs"] == 1

    def test_baseline_regret_against_itself_is_zero(self):
        records = run_sweep(SMALL_IW)
        table = summarize(records, ["p"], "pca")
        assert "regret_pca" not in table.columns
        multi = summarize(records + records, ["p"], "pca")
        assert multi.columns == table.columns

    def test_ties_count_as_not_positive(self):
        records = [_toy_record("pca", 0.2), _toy_record("rp", 0.2)]
        table = summarize(records, ["q"], "pca")
        row = dict(zip(table.columns, table.rows[0]))
        assert row["freq_positive_rp"] == 0.0

    def test_failed_records_excluded_but_counted(self):
        records = [
            _toy_record("pca", 0.2),
            _toy_record("rp", 0.5),
            _toy_record("pca", 0.3, replicate=1),
            _toy_record("rp", None, replicate=1, status="failed:SingularBlendError"),
        ]
        table = summarize(records, ["q"], "pca")
        row = dict(zip(table.columns, table.rows[0]))
        assert row["n_failed"] == 1
        assert row["mean_rp"] == pytest.approx(0.5)
        assert row["regret_rp"] == pytest.approx(0.3)

    def test_mixed_modes_rejected(self):
        a = _toy_record("pca", 0.2)
        b = _toy_record("pca", None, replicate=1)
        b.metric_oos = 0.4
        with pytest.raises(MixedModesError):
            summarize([a, b], ["q"], "pca")

    @pytest.mark.parametrize(
        "metrics, summarized",
        [
            ({"metric_overlap": 0.2}, 0.2),
            ({"metric_mc": 0.3, "metric_mc_se": 0.01}, 0.3),
            ({"metric_oos": 0.4}, 0.4),
            ({"metric_oos": 0.5, "metric_recon": 7.0}, 0.5),
        ],
        ids=["overlap", "risk_mc", "oos_loss", "finite_sample_curve"],
    )
    def test_each_mode_summarizes_its_headline_metric(self, metrics, summarized):
        record = dataclasses.replace(_toy_record("pca", None), **metrics)
        table = summarize([record], ["q"], "pca")
        assert dict(zip(table.columns, table.rows[0]))["mean_pca"] == summarized

    def test_unknown_group_column(self):
        with pytest.raises(ConfigError):
            summarize([_toy_record("pca", 0.2)], ["nope"], "pca")

    def test_unknown_baseline(self):
        with pytest.raises(ConfigError):
            summarize([_toy_record("pca", 0.2)], ["q"], "rp")

    def test_group_sorting_numeric(self):
        records = [
            _toy_record("pca", 0.2, q=10),
            _toy_record("pca", 0.1, q=2),
        ]
        table = summarize(records, ["q"], "pca")
        assert [row[0] for row in table.rows] == [2, 10]

    def test_csv_text_layout(self):
        records = [_toy_record("pca", 0.25), _toy_record("rp", 0.375)]
        text = summarize(records, ["q"], "pca").to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0].startswith("q,n_pairs,n_failed,mean_pca,mean_rp")
        assert "0.25" in lines[1] and "0.125" in lines[1]
