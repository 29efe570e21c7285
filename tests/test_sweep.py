"""Sweep engine: grid arithmetic, determinism, resume, summaries."""

import dataclasses
import json
import math
import shutil
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from covproj import (
    ConfigError,
    CovProjError,
    LabeledDataset,
    ProjectionMatrix,
    RngStream,
    SingularBlendError,
    SweepConfig,
    SweepRecord,
    config_from_mapping,
    expand_grid,
    parse_config_file,
    TwoClassGaussian,
    column_overlap,
    embedded_overlap,
    gen_latent_pair,
    pca_adversarial_pair,
    pca_favorable_pair,
    read_records_csv,
    run_sweep,
    summarize,
)
from covproj import projections, sweep
from covproj.cli import main
from covproj.projections import PROJECTIONS
from covproj.sweep import rows_per_cell

from conftest import sweep_records, two_class_csv

PAPER_IW = SweepConfig(
    family="inverse_wishart",
    p=(20, 50, 100, 200),
    q=(1, 2, 5, 10, 50),
    df1_over_p=(1, 1.5, 2, 3, 4, 5, 10),
    df2_over_p=(1, 1.5, 2, 3, 4, 5, 10),
    n_simu=100,
)

PAPER_LATENT = SweepConfig(
    family="latent_low_dim",
    p=(20, 50, 100, 200),
    q=(1, 2, 5, 10, 50),
    share=("none", "q", "theta"),
    q_density=("dense", "sparse"),
    n_simu=100,
)

PAPER_EMPIRICAL = SweepConfig(
    family="empirical_cov",
    p=(100, 500, 1000),
    q=(2, 5, 10, 20),
    gamma=(0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1),
    n_simu=20,
)

SMALL_IW = SweepConfig(
    family="inverse_wishart",
    p=(10, 20),
    q=(1, 3),
    df1_over_p=(1.0, 2.0),
    df2_over_p=(1.0,),
    n_simu=2,
    seed=77,
)


# one tiny sweep of each mode and family, as the command runs them
_IW_TINY = dict(
    family="inverse_wishart", p=(8,), q=(2,), df1_over_p=(2.0,), df2_over_p=(2.0,),
    n_simu=2, mc_samples=2000,
)
_ALL_FRAMES = ("pca", "rp", "sparse_rp", "bhatt_optimal")
WORKER_CONFIGS = {
    "small_iw": SMALL_IW,
    "example1": SweepConfig(family="example1", p=(3, 4, 5, 6, 7, 8), q=(1, 2),
                            projections=("pca", "rp")),
    "overlap": SweepConfig(**_IW_TINY, projections=_ALL_FRAMES),
    "risk_mc": SweepConfig(**_IW_TINY, mode="risk_mc", projections=_ALL_FRAMES),
    "finite_sample_curve": SweepConfig(
        **_IW_TINY, mode="finite_sample_curve", sample_grid=(40,),
        projections=("pca", "bhatt_optimal", "empirical_pca", "empirical_bhatt_optimal"),
    ),
    "latent": SweepConfig(family="latent_low_dim", p=(20,), q=(2,), share=("none", "q", "theta"),
                          q_density=("dense", "sparse"), projections=_ALL_FRAMES),
    "empirical": SweepConfig(family="empirical_cov", dataset="two_class.csv",
                             label_column="label", p=(4,), q=(2,), gamma=(0.0, 0.5, 1.0),
                             n_simu=2, projections=_ALL_FRAMES),
}


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
        cfg = dataclasses.replace(SMALL_IW, p=(2,), q=(5,))
        with pytest.raises(ConfigError) as err:
            expand_grid(cfg)
        assert err.value.field == "q"

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
        its construction itself must refuse NaN and infinities."""
        with pytest.raises(ConfigError) as err:
            SweepConfig(family=family, p=(6,), q=(2,), **{field: value})
        assert err.value.field == key

    @pytest.mark.parametrize(
        "family, field, value, call",
        [
            ("latent_low_dim", "share", ("none", "both"),
             lambda: gen_latent_pair(6, "both", None, RngStream(0))),
            ("latent_low_dim", "sparse_q_density", 0.0,
             lambda: gen_latent_pair(6, "none", 0.0, RngStream(0))),
            ("latent_low_dim", "sparse_q_density", math.nan,
             lambda: gen_latent_pair(6, "none", math.nan, RngStream(0))),
            ("latent_low_dim", "sparse_q_density", 1.5,
             lambda: gen_latent_pair(6, "none", 1.5, RngStream(0))),
            ("empirical_cov", "gamma", (0.5, 1.5),
             lambda: column_overlap(np.ones((4, 3)), np.ones((4, 3)), 1.5, RngStream(0))),
            ("example1", "alpha", 1.0, lambda: pca_favorable_pair(6, 2, 1.0, 1.0)),
            ("example2", "delta", 0.0, lambda: pca_adversarial_pair(6, 2, 4.0, 0.0)),
            ("inverse_wishart", "train_frac", 1.0,
             lambda: LabeledDataset(np.zeros((4, 2)), [1, 1, 2, 2]).split(1.0, RngStream(0))),
        ],
        ids=["share", "density_0", "density_nan", "density_1.5", "gamma", "alpha", "delta",
             "train_frac"],
    )
    def test_config_calls_the_public_functions_rule(self, family, field, value, call):
        """Each family parameter has one rule, in the public function that
        uses the value: the config refuses a bad value with that function's
        error, field and message."""
        with pytest.raises(CovProjError) as by_config:
            SweepConfig(family=family, p=(6,), q=(2,), **{field: value})
        with pytest.raises(CovProjError) as by_function:
            call()
        assert type(by_config.value) is type(by_function.value) is ConfigError
        assert by_config.value.field == by_function.value.field
        assert str(by_config.value) == str(by_function.value)

    @pytest.mark.parametrize(
        "field, value, key", [("n_simu", 0, "n_simu"), ("seed", -1, "seed")]
    )
    def test_replace_is_checked(self, field, value, key):
        """``dataclasses.replace``, which ``covproj sweep --seed`` and
        ``--workers`` use, builds a new config and so checks it too."""
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(SMALL_IW, **{field: value})
        assert err.value.field == key

    def test_mapping_golden_every_field_non_default(self):
        """The manifest echo of a config whose every field differs from its
        default, spelled out: resume compares this echo byte for byte."""
        cfg = SweepConfig(
            family="latent_low_dim",
            p=(12, 30),
            q=(2, 3),
            mode="finite_sample_curve",
            projections=("pca", "empirical_bhatt_optimal"),
            n_simu=3,
            seed=11,
            workers=2,
            df1_over_p=(1.5, 2),
            df2_over_p=(3.0,),
            share=("q", "theta"),
            q_density=("sparse",),
            sparse_q_density=0.3,
            gamma=(0.25, 1.0),
            dataset="data.csv",
            label_column="label",
            alpha=5.5,
            delta=0.5,
            train_frac=0.6,
            mc_samples=500,
            ridge=1e-4,
            sample_grid=(10, 30),
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
            "sample_grid": "10,30",
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
        assert cfg.p == (20, 50)
        assert cfg.df1_over_p == (1.0, 2.0)
        assert cfg.seed == 9

    def test_hash_inside_a_value_is_not_a_comment(self, tmp_path, capsys):
        """A comment starts a line or follows whitespace, so a dataset in a
        ``run#1`` directory is read from there."""
        data = tmp_path / "run#1" / "d.csv"
        data.parent.mkdir()
        g = np.random.default_rng(11)
        rows = [f"{label},{x[0]:.6f},{x[1]:.6f},{x[2]:.6f}"
                for label in (1, 2) for x in g.standard_normal((20, 3))]
        data.write_text("label,x0,x1,x2\n" + "\n".join(rows) + "\n")
        path = tmp_path / "sweep.cfg"
        path.write_text(
            "family = empirical_cov\np = 2\nq = 1\n"
            f"dataset = {data}  # holds #1 too\nlabel_column = label\t# the class column\n"
        )
        cfg = parse_config_file(path)
        assert (cfg.dataset, cfg.label_column) == (str(data), "label")
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert "(3 new records, 0 failed records" in capsys.readouterr().out

    def test_repeated_key_in_file_rejected(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text("family = inverse_wishart\np = 20\nq = 2\n# later\np = 30\n")
        with pytest.raises(ConfigError, match="repeats key 'p'") as err:
            parse_config_file(path)
        assert err.value.field == "line 5"

    @pytest.mark.parametrize(
        "key, value",
        [
            ("p", "20,20"),
            ("q", "1, 2, 1"),
            ("df1_over_p", "1,1.0"),
            ("df2_over_p", "2,2"),
            ("share", "q,q"),
            ("q_density", "dense,dense"),
            ("gamma", "0,0.0"),
            ("sample_grid", "20,20"),
            ("projections", "pca,rp,rp"),
        ],
    )
    def test_repeated_list_value_rejected(self, key, value):
        """Two equal values give two cells, or two projections, one record
        identity, so a summary would keep only one of them."""
        with pytest.raises(ConfigError, match="more than once") as err:
            config_from_mapping({"family": "inverse_wishart", "p": "20", "q": "2", key: value})
        assert err.value.field == key

    def test_repeated_grid_value_rejected_before_any_cell(self):
        with pytest.raises(ConfigError, match="p: lists 20 more than once"):
            sweep_records(
                SweepConfig(family="inverse_wishart", p=(20, 20), q=(2,), n_simu=3)
            )

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
        with pytest.raises(ConfigError):
            dataclasses.replace(SMALL_IW, projections=("pca", "empirical_pca"))

    def test_projection_names_are_the_registry(self):
        data_mode = dataclasses.replace(SMALL_IW, mode="finite_sample_curve")
        for name in PROJECTIONS:
            dataclasses.replace(SMALL_IW, projections=(name,))
            dataclasses.replace(data_mode, projections=(f"empirical_{name}",))
        for name in ("identity", "bogus", "empirical_identity", "empirical_empirical_pca"):
            with pytest.raises(ConfigError) as err:
                dataclasses.replace(data_mode, projections=(name,))
            assert "projections" in str(err.value)

    def test_manifest_rerun_config(self, tmp_path):
        run_sweep(SMALL_IW, out_dir=tmp_path / "run")
        cfg = parse_config_file(tmp_path / "run" / "manifest.json")
        assert cfg == SMALL_IW


class TestRunSweep:
    def test_record_count_conservation(self):
        records = sweep_records(SMALL_IW)
        cells = expand_grid(SMALL_IW)
        expected = len(cells) * SMALL_IW.n_simu * len(SMALL_IW.projections)
        assert len(records) == expected

    def test_memory_does_not_grow_with_the_records_written(self, tmp_path):
        """A sweep writes each cell's records and keeps none: ten times the
        replicates (12,000 records against 1,200) leave the traced peaks
        within 1 MB, while holding the records took about 2.6 MB more."""
        config = SweepConfig(family="example1", p=tuple(range(3, 13)), q=(1, 2))
        # the first sweep of a process also allocates its lazy imports
        run_sweep(config, out_dir=tmp_path / "warm")

        def peak(n_simu):
            tracemalloc.start()
            try:
                run_sweep(dataclasses.replace(config, n_simu=n_simu), tmp_path / str(n_simu))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(20), peak(200)
        assert large < small + 1_000_000, (small, large)

    def test_failures_recorded_in_band(self):
        """A one-point curve with q above the training class size keeps one
        failed record per projection instead of dropping the cell."""
        cfg = SweepConfig(
            family="inverse_wishart",
            p=(10,),
            q=(6,),
            df1_over_p=(2.0,),
            df2_over_p=(2.0,),
            n_simu=2,
            mode="finite_sample_curve",
            sample_grid=(6,),
            ridge=0.0,
            projections=("pca", "rp"),
            seed=5,
        )
        records = sweep_records(cfg)
        assert len(records) == 4
        assert all(not r.ok for r in records)
        assert all(r.status == "failed:SingularEmbeddedCovarianceError" for r in records)

    def test_ridge_is_the_qda_ridge_alone(self):
        """With n <= p the sample C1 is singular and the optimal frame comes
        from the fallback, which no config key reaches: two ridges give the
        same frames, so metric_recon, which no classifier enters, is equal."""
        cfg = SweepConfig(
            family="inverse_wishart",
            p=(30,),
            q=(3,),
            df1_over_p=(2.0,),
            df2_over_p=(2.0,),
            n_simu=2,
            mode="finite_sample_curve",
            sample_grid=(10, 40),
            projections=("empirical_bhatt_optimal",),
            seed=6,
        )
        recons = [
            [r.metric_recon for r in sweep_records(dataclasses.replace(cfg, ridge=ridge))]
            for ridge in (1e-6, 1e-3)
        ]
        assert len(recons[0]) == 4 and None not in recons[0]
        assert recons[0] == recons[1]

    def test_one_point_curve_is_the_first_point_of_a_longer_curve(self, tmp_path):
        """A one-value sample_grid, which replaced the oos_loss mode, draws the
        pair, the data and the projections of a longer grid's first point."""
        one = SweepConfig(
            family="inverse_wishart",
            p=(10,),
            q=(2,),
            df1_over_p=(2.0,),
            mode="finite_sample_curve",
            sample_grid=(40,),
            projections=("pca", "rp", "empirical_pca", "empirical_bhatt_optimal"),
            n_simu=2,
            seed=8,
        )
        two = dataclasses.replace(one, sample_grid=(40, 80))
        run_sweep(one, out_dir=tmp_path / "one")
        run_sweep(two, out_dir=tmp_path / "two")
        one_rows, two_rows = (
            (tmp_path / name / "records.csv").read_text().splitlines()[1:]
            for name in ("one", "two")
        )
        k = len(one.projections)
        first_points = two_rows[:k] + two_rows[2 * k : 3 * k]
        assert one_rows == first_points
        records = list(read_records_csv(tmp_path / "one" / "records.csv"))
        assert all(r.ok and r.param3 == "40" and r.metric_oos is not None for r in records)

    def test_singular_projection_fails_alone(self, monkeypatch):
        """One projection whose embedded blend is singular fails the stacked
        scoring of its replicate; its record gets the status the
        per-projection path gives, and the other records keep the values of a
        run without it."""
        # W^T C W rounds to an exactly singular matrix for the diagonal pair
        degenerate = np.zeros((8, 2))
        degenerate[0] = 1.0
        degenerate[1, 1] = 1e-9
        cfg = SweepConfig(
            family="example1",
            p=(8,),
            q=(2,),
            projections=PROJECTIONS,
            n_simu=2,
            seed=3,
        )
        clean = sweep_records(cfg)
        real = sweep.build_projection

        def build(name, *args, **kwargs):
            if name == "rp":
                return ProjectionMatrix(degenerate)
            return real(name, *args, **kwargs)

        monkeypatch.setattr(sweep, "build_projection", build)
        records = sweep_records(cfg)
        model = TwoClassGaussian.zero_mean(*pca_favorable_pair(8, 2, cfg.alpha, cfg.delta))
        with pytest.raises(SingularBlendError) as err:
            embedded_overlap(model, ProjectionMatrix(degenerate))
        for before, after in zip(clean, records):
            if after.projection == "rp":
                assert after.status == f"failed:{type(err.value).__name__}"
                assert after.metric_overlap is None
            else:
                assert after == before and after.ok

    def test_two_singular_projections_fail_alone(self, monkeypatch):
        """Two singular projections in one stack: both records fail and the
        others keep the bits of a run without them."""
        degenerate = np.zeros((8, 2))
        degenerate[0] = 1.0
        degenerate[1, 1] = 1e-9
        cfg = SweepConfig(
            family="example2",
            p=(8,),
            q=(2,),
            projections=PROJECTIONS,
            n_simu=2,
            seed=3,
        )
        clean = sweep_records(cfg)
        real = sweep.build_projection

        def build(name, *args, **kwargs):
            if name in ("rp", "sparse_rp"):
                return ProjectionMatrix(degenerate)
            return real(name, *args, **kwargs)

        monkeypatch.setattr(sweep, "build_projection", build)
        for before, after in zip(clean, sweep_records(cfg), strict=True):
            if after.projection in ("rp", "sparse_rp"):
                assert after.status == "failed:SingularBlendError"
                assert after.metric_overlap is None
            else:
                assert after == before and after.ok

    @pytest.mark.parametrize(
        "defect, statuses",
        [
            ("one class-2 row", ["InsufficientRowsError"] * 3),
            (
                "constant class 1",
                ["SingularBlendError", "SingularBlendError", "SingularAfterRidgeError"],
            ),
        ],
    )
    def test_failed_draw_and_build_are_recorded_in_band(self, tmp_path, capsys, defect, statuses):
        """A pair that cannot be drawn fails every record of its point; a
        projection that cannot be built fails its own (here ``bhatt_optimal``
        on a zero C1, while ``pca`` and ``rp`` build and fail their scoring).
        The sweep exits 0 and both counts see the failures."""
        g = np.random.default_rng(11)
        if defect == "one class-2 row":
            x_1, x_2 = g.standard_normal((20, 4)), g.standard_normal((1, 4))
        else:
            x_1, x_2 = np.tile([1.0, 2.0, 3.0, 4.0], (20, 1)), g.standard_normal((20, 4))
        labels = np.repeat([1, 2], [len(x_1), len(x_2)])
        data = tmp_path / "data.csv"
        np.savetxt(
            data, np.column_stack([labels, np.vstack([x_1, x_2])]), fmt="%.9g",
            delimiter=",", header="label,x0,x1,x2,x3", comments="",
        )
        cfg = SweepConfig(
            family="empirical_cov",
            dataset=str(data),
            label_column="label",
            p=(4,),
            q=(1,),
            projections=("pca", "rp", "bhatt_optimal"),
        )
        assert run_sweep(cfg, tmp_path / "lib") == (3, 3)
        records = list(read_records_csv(tmp_path / "lib" / "records.csv"))
        assert [r.status for r in records] == [f"failed:{name}" for name in statuses]
        assert all(r.metric_overlap is None for r in records)
        assert summarize(records, ["q"], "pca").rows == [[1, 1, 3, "", "", "", "", "", "", ""]]
        config = tmp_path / "sweep.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in cfg.to_mapping().items()))
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "cli")]) == 0
        assert "(3 new records, 3 failed records" in capsys.readouterr().out

    def test_worker_count_invariance(self, tmp_path):
        """Two and eight workers write one worker's records, and none of them
        failed, in each mode and family: a bad draw or frame built where
        nothing checks it would show as a failed record or a worker split."""
        dataset = str(two_class_csv(tmp_path))
        for name, config in WORKER_CONFIGS.items():
            if config.family == "empirical_cov":
                config = dataclasses.replace(config, dataset=dataset)
            records = sweep_records(config)
            assert records and all(r.ok for r in records), name
            rows_1 = [r.to_csv_row() for r in records]
            for workers in (2, 8):
                rows_n = [
                    r.to_csv_row()
                    for r in sweep_records(dataclasses.replace(config, workers=workers))
                ]
                assert rows_1 == rows_n, (name, workers)

    def test_csv_byte_identity_and_roundtrip(self, tmp_path):
        run_sweep(SMALL_IW, out_dir=tmp_path / "a")
        run_sweep(dataclasses.replace(SMALL_IW, workers=4), out_dir=tmp_path / "b")
        blob_a = (tmp_path / "a" / "records.csv").read_bytes()
        blob_b = (tmp_path / "b" / "records.csv").read_bytes()
        assert blob_a == blob_b
        records = read_records_csv(tmp_path / "a" / "records.csv")
        assert [r.to_csv_row() for r in records] == [
            r.to_csv_row() for r in sweep_records(SMALL_IW)
        ]

    def test_resume_from_checkpoint(self, tmp_path):
        """The complete cells of the records file are its checkpoint."""
        full_dir, part_dir = tmp_path / "full", tmp_path / "part"
        run_sweep(SMALL_IW, out_dir=full_dir)
        full_lines = (full_dir / "records.csv").read_text().splitlines()
        per_cell = rows_per_cell(SMALL_IW)
        keep_cells = 3
        part_dir.mkdir()
        shutil.copy(full_dir / "manifest.json", part_dir)
        (part_dir / "records.csv").write_text(
            "\n".join(full_lines[: 1 + keep_cells * per_cell]) + "\n"
        )
        n_new, _ = run_sweep(SMALL_IW, out_dir=part_dir)
        n_cells = len(expand_grid(SMALL_IW))
        assert n_new == (n_cells - keep_cells) * per_cell
        assert (part_dir / "records.csv").read_bytes() == (
            full_dir / "records.csv"
        ).read_bytes()

    def test_resume_trims_partial_cell(self, tmp_path):
        """Rows written after the last complete cell are discarded."""
        full_dir, part_dir = tmp_path / "full", tmp_path / "part"
        run_sweep(SMALL_IW, out_dir=full_dir)
        full_lines = (full_dir / "records.csv").read_text().splitlines()
        per_cell = rows_per_cell(SMALL_IW)
        part_dir.mkdir()
        shutil.copy(full_dir / "manifest.json", part_dir)
        (part_dir / "records.csv").write_text(
            "\n".join(full_lines[: 1 + 2 * per_cell + 1]) + "\n"
        )
        run_sweep(SMALL_IW, out_dir=part_dir)
        assert (part_dir / "records.csv").read_bytes() == (
            full_dir / "records.csv"
        ).read_bytes()

    def test_resume_without_manifest_rejects_other_seed(self, tmp_path):
        """A partial run without a manifest is refused before any row is
        appended or trimmed, whatever the resuming configuration."""
        cfg = SweepConfig(
            family="latent_low_dim", p=(10,), q=(1, 2, 3), seed=1
        )
        out = tmp_path / "run"
        run_sweep(cfg, out_dir=out)
        blob = (out / "records.csv").read_bytes()
        (out / "manifest.json").unlink()
        with pytest.raises(ConfigError):
            run_sweep(dataclasses.replace(cfg, seed=2), out_dir=out)
        assert (out / "records.csv").read_bytes() == blob

    def test_resume_with_other_config_rejected(self, tmp_path):
        out = tmp_path / "run"
        run_sweep(SMALL_IW, out_dir=out)
        per_cell = rows_per_cell(SMALL_IW)
        lines = (out / "records.csv").read_text().splitlines()
        (out / "records.csv").write_text("\n".join(lines[: 1 + 2 * per_cell]) + "\n")
        other = dataclasses.replace(SMALL_IW, seed=123)
        with pytest.raises(ConfigError):
            run_sweep(other, out_dir=out)

    def test_completed_run_is_a_no_op(self, tmp_path):
        out = tmp_path / "run"
        run_sweep(SMALL_IW, out_dir=out)
        blob = (out / "records.csv").read_bytes()
        again = run_sweep(SMALL_IW, out_dir=out)
        assert again == (0, 0)
        assert (out / "records.csv").read_bytes() == blob

    def test_completed_run_leaves_the_manifest_untouched(self, tmp_path):
        """The manifest keeps the run and host that made the records: a rerun
        of a finished directory rewrites neither timestamps nor host."""
        out = tmp_path / "run"
        run_sweep(SMALL_IW, out_dir=out)
        manifest = out / "manifest.json"
        blob = manifest.read_bytes()
        assert run_sweep(SMALL_IW, out_dir=out) == (0, 0)
        assert manifest.read_bytes() == blob
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "records.csv"]

    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "run"
        run_sweep(SMALL_IW, out_dir=out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        assert manifest["config"]["seed"] == str(SMALL_IW.seed)
        assert manifest["n_cells"] == len(expand_grid(SMALL_IW))
        assert "finished_at" in manifest

    def test_fixture_family_injection(self):
        """The adversarial fixture run as a degenerate family: PCA records
        carry overlap exactly 0.5 while the optimal matches the closed form."""
        cfg = SweepConfig(
            family="example2",
            p=(8,),
            q=(2,),
            alpha=4.0,
            delta=1.0,
            n_simu=2,
            mode="overlap",
            projections=("pca", "bhatt_optimal"),
            seed=1,
        )
        records = sweep_records(cfg)
        pca = [r.metric_overlap for r in records if r.projection == "pca"]
        opt = [r.metric_overlap for r in records if r.projection == "bhatt_optimal"]
        assert pca == [0.5, 0.5]
        expected = 0.5 * ((2.0 + 0.5) / 2.0) ** -1.0
        assert all(abs(v - expected) <= 1e-9 for v in opt)

    def test_finite_sample_records_carry_n(self):
        cfg = SweepConfig(
            family="inverse_wishart",
            p=(12,),
            q=(2,),
            df1_over_p=(2.0,),
            df2_over_p=(2.0,),
            n_simu=2,
            mode="finite_sample_curve",
            sample_grid=(10, 20),
            projections=("pca", "empirical_pca"),
            seed=4,
        )
        records = sweep_records(cfg)
        assert len(records) == 2 * 2 * 2
        assert {r.param3 for r in records} == {"10", "20"}
        ok = [r for r in records if r.ok]
        assert ok and all(
            r.metric_oos is not None and r.metric_recon is not None for r in ok
        )

    def test_finite_sample_estimates_once_per_point(self, monkeypatch):
        """Each (replicate, sample size) point computes two sample
        covariances, the class estimates, however many projections build and
        fit from them: empirical PCA decomposes the estimates' mixture."""
        original = projections.mixture_covariance
        calls = []

        def counting(x):
            calls.append(x.shape)
            return original(x)

        monkeypatch.setattr(projections, "mixture_covariance", counting)
        cfg = SweepConfig(
            family="inverse_wishart",
            p=(12,),
            q=(2,),
            df1_over_p=(2.0,),
            df2_over_p=(2.0,),
            n_simu=2,
            mode="finite_sample_curve",
            sample_grid=(10, 20),
            projections=PROJECTIONS + tuple(f"empirical_{name}" for name in PROJECTIONS),
            seed=4,
        )
        records = sweep_records(cfg)
        assert len(records) == 2 * 2 * 8 and all(r.ok for r in records)
        assert len(calls) == 2 * 2 * 2

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
        """A draw is not checked where it is made: the one p x p
        factorization per pair is the optimal projection's Cholesky of C1.
        Matrices built from the draws (C1 + C2 for PCA, W^T C W for the
        overlap) are not re-checked either, so no eigvalsh runs."""
        eig_calls, chol_calls = self._count_factorizations(monkeypatch, 40)
        cfg = SweepConfig(
            family="inverse_wishart",
            p=(40,),
            q=(3,),
            df1_over_p=(2.0,),
            df2_over_p=(2.0,),
            projections=PROJECTIONS,
            n_simu=2,
            seed=5,
        )
        records = sweep_records(cfg)
        assert len(records) == 2 * len(PROJECTIONS) and all(r.ok for r in records)
        assert eig_calls == []
        assert len(chol_calls) == 2

    def test_latent_sweep_checks_each_draw_once(self, monkeypatch):
        """As for the inverse Wishart family: neither the inverse Wishart
        noise M_k nor the mixed covariance is factored where it is drawn."""
        eig_calls, chol_calls = self._count_factorizations(monkeypatch, 40)
        cfg = SweepConfig(
            family="latent_low_dim",
            p=(40,),
            q=(3,),
            share=("none", "q", "theta"),
            q_density=("dense", "sparse"),
            projections=PROJECTIONS,
            seed=5,
        )
        records = sweep_records(cfg)
        assert len(records) == 6 * len(PROJECTIONS) and all(r.ok for r in records)
        assert eig_calls == []
        assert len(chol_calls) == 6

    def test_finite_sample_sweep_runs_no_eigvalsh(self, monkeypatch):
        """With the default QDA ridge, sample covariances and embedded fits
        are factored by Cholesky alone."""
        eig_calls, _ = self._count_factorizations(monkeypatch, 12)
        cfg = SweepConfig(
            family="inverse_wishart",
            p=(12,),
            q=(2,),
            df1_over_p=(2.0,),
            df2_over_p=(2.0,),
            mode="finite_sample_curve",
            sample_grid=(10, 20),
            projections=PROJECTIONS + tuple(f"empirical_{name}" for name in PROJECTIONS),
            seed=4,
        )
        records = sweep_records(cfg)
        assert len(records) == 2 * 8 and all(r.ok for r in records)
        assert eig_calls == []


# 48 cells, evaluated by two workers
POOLED = SweepConfig(
    family="inverse_wishart",
    p=(6, 8),
    q=(1, 2),
    df1_over_p=(1.0, 2.0, 3.0),
    df2_over_p=(1.0, 2.0, 3.0, 5.0),
    projections=("pca", "rp"),
    workers=2,
)


class TestFailureStopsPool:
    """With several workers a failure cancels the cells not yet started, as
    one worker stops at the failing cell."""

    FAILING = 1
    # the cells before and at the failure, those running, and two of slack
    BOUND = FAILING + 2 * POOLED.workers + 2

    @pytest.fixture
    def started(self, monkeypatch):
        """Indices of the cells evaluated; each cell first sleeps, so that the
        consumer outpaces the workers whatever the thread scheduling."""
        seen = []
        original = sweep._eval_cell

        def counted(config, cell, source):
            seen.append(cell.index)
            time.sleep(0.02)
            return original(config, cell, source)

        monkeypatch.setattr(sweep, "_eval_cell", counted)
        assert len(expand_grid(POOLED)) >= 40
        return seen

    def _fail_sink(self, monkeypatch, exc):
        original = sweep.CsvSink.write_cell
        written = []

        # a fresh run writes cell i on the sink's call i
        def write_cell(sink, rows):
            if len(written) == self.FAILING:
                raise exc
            written.append(rows)
            original(sink, rows)

        monkeypatch.setattr(sweep.CsvSink, "write_cell", write_cell)

    @pytest.mark.parametrize(
        "exc",
        [OSError(28, "No space left on device"), KeyboardInterrupt()],
        ids=["sink_oserror", "sink_interrupt"],
    )
    def test_sink_failure(self, tmp_path, monkeypatch, started, exc):
        self._fail_sink(monkeypatch, exc)
        with pytest.raises(type(exc)):
            run_sweep(POOLED, out_dir=tmp_path / "run")
        assert len(started) <= self.BOUND

    def test_cell_failure(self, monkeypatch, started):
        counted = sweep._eval_cell

        def failing(config, cell, source):
            records = counted(config, cell, source)
            if cell.index == self.FAILING:
                raise RuntimeError("cell failed")
            return records

        monkeypatch.setattr(sweep, "_eval_cell", failing)
        with pytest.raises(RuntimeError, match="cell failed"):
            sweep_records(POOLED)
        assert len(started) <= self.BOUND

    def test_sink_error_exits_3(self, tmp_path, monkeypatch, capsys, started):
        self._fail_sink(monkeypatch, OSError(28, "No space left on device"))
        config = tmp_path / "pooled.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in POOLED.to_mapping().items()))
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "run")]) == 3
        assert "No space left on device" in capsys.readouterr().err
        assert len(started) <= self.BOUND


# a 12-cell grid of two rows per cell that runs in milliseconds: small enough
# to resume from hundreds of byte cuts of its records file
TINY = SweepConfig(
    family="example1", p=(3, 4, 5, 6, 7, 8), q=(1, 2), projections=("pca", "rp")
)
OUTPUTS = ("records.csv",)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """The bytes of a complete ``TINY`` run's two files."""
    out = tmp_path_factory.mktemp("tiny")
    run_sweep(TINY, out_dir=out)
    return {name: (out / name).read_bytes() for name in (*OUTPUTS, "manifest.json")}


def _write_files(out, files):
    out.mkdir(exist_ok=True)
    for name, blob in files.items():
        (out / name).write_bytes(blob)


def _read_files(out, names):
    return {name: (out / name).read_bytes() for name in names}


def _cells_prefix(records, n_cells, per_cell):
    """Byte length of the header and the first ``n_cells`` cells' rows."""
    lines = records.splitlines(keepends=True)
    return len(b"".join(lines[: 1 + n_cells * per_cell]))


class TestResume:
    """Resume is judged on the manifest, counts the complete cells of the
    records file, and reproduces the full run's bytes."""

    def test_every_records_cut_resumes_to_the_full_bytes(self, tmp_path, tiny_run):
        """Cuts at every byte of the header, of the first cell and of the last
        cell, and at every line boundary and one byte either side of it."""
        records = tiny_run["records.csv"]
        per_cell = rows_per_cell(TINY)
        n_cells = len(expand_grid(TINY))
        assert records.count(b"\n") == 1 + n_cells * per_cell and n_cells >= 12
        ends = np.cumsum([len(line) for line in records.splitlines(keepends=True)])
        cuts = {*range(_cells_prefix(records, 1, per_cell) + 1)}
        cuts |= {*range(_cells_prefix(records, n_cells - 1, per_cell), len(records) + 1)}
        cuts |= {int(end) + d for end in ends for d in (-1, 0, 1) if end + d <= len(records)}
        for cut in sorted(cuts):
            _write_files(tmp_path, {**tiny_run, "records.csv": records[:cut]})
            run_sweep(TINY, out_dir=tmp_path)
            assert _read_files(tmp_path, OUTPUTS) == {"records.csv": records}, cut

    def test_resume_across_hosts(self, tmp_path, tiny_run):
        """The manifest's host entry is a record of the run, not compared on resume."""
        manifest = json.loads(tiny_run["manifest.json"])
        here = manifest["host"]
        assert set(here) == {"node", "cpu_count", "python", "numpy"}
        manifest["host"] = {"node": "elsewhere", "cpu_count": 512, "python": "3.10.0", "numpy": "1.24.0"}
        records = tiny_run["records.csv"]
        _write_files(
            tmp_path,
            {
                "manifest.json": json.dumps(manifest).encode(),
                "records.csv": records[: _cells_prefix(records, 2, rows_per_cell(TINY))],
            },
        )
        run_sweep(TINY, out_dir=tmp_path)
        assert _read_files(tmp_path, OUTPUTS) == {name: tiny_run[name] for name in OUTPUTS}
        assert json.loads((tmp_path / "manifest.json").read_text())["host"] == here

    @pytest.mark.parametrize(
        "first_line",
        [b"\n", sweep.CSV_HEADER.encode()[:-3] + b"\n", sweep.CSV_HEADER.encode() + b"\r\n",
         b"x,y\n", b"x,y"],
        ids=["blank", "short_header", "crlf_header", "foreign", "foreign_torn"],
    )
    def test_foreign_first_line_is_refused(self, tmp_path, tiny_run, first_line):
        """A file that does not start with the record header, or a prefix of
        it, is not a sweep's records file: it is refused, not overwritten."""
        rows = tiny_run["records.csv"].split(b"\n", 1)[1]
        files = {**tiny_run, "records.csv": first_line + rows}
        _write_files(tmp_path, files)
        with pytest.raises(ConfigError, match="sweep record header"):
            run_sweep(TINY, out_dir=tmp_path)
        assert _read_files(tmp_path, files) == files

    def test_more_cells_than_the_grid_is_refused(self, tmp_path, tiny_run):
        records = tiny_run["records.csv"]
        per_cell = rows_per_cell(TINY)
        last_cell = records[_cells_prefix(records, len(expand_grid(TINY)) - 1, per_cell):]
        files = {**tiny_run, "records.csv": records + last_cell}
        _write_files(tmp_path, files)
        with pytest.raises(ConfigError, match="13 complete cells; the grid has 12"):
            run_sweep(TINY, out_dir=tmp_path)
        assert _read_files(tmp_path, files) == files

    def test_stale_checkpoint_file_is_ignored(self, tmp_path, tiny_run):
        """A ``checkpoint.txt`` left by an earlier version is neither read nor
        removed."""
        records = tiny_run["records.csv"]
        stale = {"checkpoint.txt": b"0\n1\n2\n3\n4\n5\n6\n"}
        _write_files(tmp_path, {**tiny_run, **stale, "records.csv": records[:300]})
        run_sweep(TINY, out_dir=tmp_path)
        assert _read_files(tmp_path, ["records.csv", *stale]) == {"records.csv": records, **stale}

    def test_resume_with_other_worker_count(self, tmp_path):
        """Records do not depend on the worker count, so neither does resume."""
        full_dir, part_dir = tmp_path / "full", tmp_path / "part"
        run_sweep(SMALL_IW, out_dir=full_dir)
        run_sweep(SMALL_IW, out_dir=part_dir)
        assert SMALL_IW.workers == 1
        records = (part_dir / "records.csv").read_bytes()
        keep = _cells_prefix(records, 2, rows_per_cell(SMALL_IW))
        (part_dir / "records.csv").write_bytes(records[: keep + 30])
        run_sweep(dataclasses.replace(SMALL_IW, workers=2), out_dir=part_dir)
        assert _read_files(part_dir, OUTPUTS) == _read_files(full_dir, OUTPUTS)

    @pytest.mark.parametrize(
        "manifest",
        [
            lambda blob: blob[:50],
            lambda blob: b"[]",
            lambda blob: json.dumps({**json.loads(blob), "config": 5}).encode(),
            lambda blob: json.dumps({**json.loads(blob), "config": {}}).encode(),
        ],
        ids=["torn", "not_an_object", "config_not_a_mapping", "config_empty"],
    )
    def test_unusable_manifest_is_refused(self, tmp_path, tiny_run, manifest):
        records = tiny_run["records.csv"]
        files = {
            "records.csv": records[: _cells_prefix(records, 2, rows_per_cell(TINY)) + 7],
            "manifest.json": manifest(tiny_run["manifest.json"]),
        }
        _write_files(tmp_path, files)
        with pytest.raises(ConfigError, match="partial run"):
            run_sweep(TINY, out_dir=tmp_path)
        assert _read_files(tmp_path, files) == files

    def test_run_leaves_no_staged_manifest(self, tmp_path):
        run_sweep(TINY, out_dir=tmp_path)
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "manifest.json",
            "records.csv",
        ]

    def test_trim_reads_records_in_bounded_memory(self, tmp_path):
        """Trimming a records file of several MB traces a small fraction of it."""
        per_cell, n_cells = 300, 200
        row = _toy_record("bhatt_optimal", 0.12345678901234567).to_csv_row() + "\n"
        records = tmp_path / "records.csv"
        with open(records, "w", encoding="utf-8", newline="") as fh:
            fh.write(sweep.CSV_HEADER + "\n")
            fh.writelines(row for _ in range(n_cells * per_cell))
            fh.write(row[:20])
        size = records.stat().st_size
        assert size >= 4_000_000
        tracemalloc.start()
        try:
            sink = sweep.CsvSink(records, per_cell)
            sink.open()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sink.n_done == n_cells
        assert records.stat().st_size == size - 20
        assert peak < size / 50


IW_P100 = SweepConfig(
    family="inverse_wishart",
    p=(100,),
    q=(1, 5),
    df1_over_p=(1.0, 2.0),
    df2_over_p=(1.0,),
    projections=("pca", "rp", "sparse_rp", "bhatt_optimal"),
    n_simu=2,
    seed=31,
)


class TestBlasPolicy:
    def test_thread_counts_restored_after_sweep(self, openblas_at_two):
        sweep_records(SMALL_IW)
        assert openblas_at_two.get_threads() == 2

    def test_thread_counts_restored_when_sweep_raises(self, openblas_at_two, monkeypatch):
        seen = []

        def failing_cell(*args):
            seen.append(openblas_at_two.get_threads())
            raise RuntimeError("cell failed")

        monkeypatch.setattr(sweep, "_eval_cell", failing_cell)
        with pytest.raises(RuntimeError):
            sweep_records(SMALL_IW)
        assert seen == [1]
        assert openblas_at_two.get_threads() == 2

    def test_manifest_records_one_thread_during_sweep(self, openblas_at_two, tmp_path):
        run_sweep(SMALL_IW, out_dir=tmp_path / "run")
        blas = json.loads((tmp_path / "run" / "manifest.json").read_text())["blas"]
        assert blas == {
            "library": openblas_at_two.library,
            "config": openblas_at_two.config,
            "threads_before": 2,
            "threads_during": 1,
        }

    def test_records_independent_of_workers_and_caller_threads(
        self, openblas_at_two, tmp_path
    ):
        """At p=100 OpenBLAS blocks its kernels, so the records would follow
        the BLAS thread count if the sweep did not fix it."""
        run_sweep(IW_P100, out_dir=tmp_path / "w1")
        openblas_at_two.set_threads(1)
        run_sweep(dataclasses.replace(IW_P100, workers=2), out_dir=tmp_path / "w2")
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
        assert all(r.ms == 0 for r in sweep_records(SMALL_IW))

    @pytest.mark.parametrize(
        "family, keys, params",
        [
            ("inverse_wishart", {"df1_over_p": "1", "df2_over_p": "2"}, ("1", "2", "")),
            ("latent_low_dim", {"share": "none", "q_density": "dense"}, ("none", "dense", "")),
            ("empirical_cov", {"gamma": "0.5"}, ("0.5", "", "")),
            ("example1", {"alpha": "4", "delta": "1"}, ("4", "1", "")),
            ("example2", {"alpha": "4", "delta": "1"}, ("4", "1", "")),
            (
                "inverse_wishart",
                {"df1_over_p": "1", "df2_over_p": "2", "mode": "finite_sample_curve",
                 "sample_grid": "10", "projections": "pca,empirical_pca"},
                ("1", "2", "10"),
            ),
        ],
        ids=["iw", "latent", "empirical", "example1", "example2", "curve"],
    )
    def test_param_columns_of_each_family(self, tmp_path, family, keys, params):
        """param1 and param2 are the cell's family parameters, a string as
        written and a number by its shortest round-trip form, "" where the
        family has one; param3 is a curve point's per-class sample size."""
        mapping = {"family": family, "p": "4", "q": "1", **keys}
        if family == "empirical_cov":
            data = tmp_path / "data.csv"
            x = np.random.default_rng(12).standard_normal((40, 4))
            np.savetxt(
                data, np.column_stack([np.repeat([1, 2], 20), x]), fmt="%.9g",
                delimiter=",", header="label,x0,x1,x2,x3", comments="",
            )
            mapping |= {"dataset": str(data), "label_column": "label"}
        records = sweep_records(config_from_mapping(mapping))
        assert records and all(r.ok for r in records)
        assert {(r.param1, r.param2, r.param3) for r in records} == {params}


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
        records = sweep_records(SMALL_IW)
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
        with pytest.raises(ConfigError) as err:
            summarize([a, b], ["q"], "pca")
        assert err.value.field == "records"

    @pytest.mark.parametrize(
        "metrics, summarized",
        [
            ({"metric_overlap": 0.2}, 0.2),
            ({"metric_mc": 0.3, "metric_mc_se": 0.01}, 0.3),
            # as the oos_loss mode wrote them before it became a one-point curve
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

    def test_one_pass_over_an_iterator(self):
        records = sweep_records(dataclasses.replace(SMALL_IW, n_simu=3))
        for group_by in (["q"], ["p", "q"], list(sweep.GROUPABLE_FIELDS)):
            want = summarize(records, group_by, "pca").to_csv_text()
            assert summarize(iter(records), group_by, "pca").to_csv_text() == want

    def test_summarizes_a_records_file_in_bounded_memory(self, tmp_path):
        """Reading and summarizing 50k rows keeps each pair's values, not the
        rows or the records parsed from them."""
        path = tmp_path / "records.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(sweep.CSV_HEADER + "\n")
            for i in range(17_000):
                for j, name in enumerate(("pca", "rp", "sparse_rp")):
                    record = _toy_record(name, (i * 7919 + j) % 1009 / 1009, replicate=i)
                    fh.write(record.to_csv_row() + "\n")
        size = path.stat().st_size
        assert size >= 3_000_000
        tracemalloc.start()
        try:
            table = summarize(read_records_csv(path), ["q"], "pca")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [row[:2] for row in table.rows] == [[2, 17_000]]
        assert peak < 5 * size
