"""Command-line surface: exit codes, reproducibility, printed results."""

import json
import math

import numpy as np
import pytest

from covproj import (
    RngStream,
    SweepConfig,
    TwoClassGaussian,
    bhattacharyya_overlap,
    load_matrix,
    load_vector,
    mc_bayes_risk,
    pca_adversarial_pair,
    pca_favorable_pair,
    sample_two_class,
)
from covproj import cli
from covproj.cli import build_parser, main
from covproj.projections import PROJECTIONS

IW_CFG = """
family = inverse_wishart
mode = overlap
p = 10,20
q = 1,2
df1_over_p = 1,2
df2_over_p = 1
n_simu = 2
projections = pca,rp,sparse_rp
seed = 13
"""


@pytest.fixture
def iw_cfg(tmp_path):
    path = tmp_path / "iw.cfg"
    path.write_text(IW_CFG)
    return path


def write_labeled_csv(path, data):
    header = ",".join([f"f{i}" for i in range(data.dim)] + ["label"])
    rows = [
        ",".join([f"{v:.10g}" for v in x] + [str(z)]) for x, z in zip(data.X, data.z)
    ]
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


@pytest.fixture
def separable_csv(tmp_path):
    """Sampled from a pair whose covariance signal is strong in 5 directions."""
    c1, c2 = pca_favorable_pair(30, 5, 25.0, 1.0)
    model = TwoClassGaussian.zero_mean(c1, c2)
    data = sample_two_class(model, 400, 400, RngStream(900))
    path = tmp_path / "separable.csv"
    write_labeled_csv(path, data)
    return path, model


# Each command's options, positionals by name. A knob is added or removed
# here in the same change that adds or removes it from the parser.
OPTIONS = {
    "sweep": {"-h", "--help", "--config", "--seed", "--workers", "--out"},
    "summarize": {"-h", "--help", "records", "--group-by", "--baseline", "--out"},
    "eval": {
        "-h", "--help", "dataset", "--label-column", "--gamma", "--p", "--q",
        "--projections", "--seed", "--train-frac", "--ridge",
    },
    "oracle": {
        "-h", "--help", "fixture", "--cov1", "--cov2", "--mean1", "--mean2", "--weight1",
        "--p", "--alpha", "--delta", "--q", "--projection", "--mc-samples", "--seed",
    },
}


def test_each_command_has_exactly_its_options():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    found = {
        name: {s for action in parser._actions for s in action.option_strings or [action.dest]}
        for name, parser in sub.choices.items()
    }
    assert found == OPTIONS


class TestSweepCommand:
    def test_runs_and_is_reproducible(self, iw_cfg, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", str(iw_cfg), "--out", str(out_a)]) == 0
        assert (
            main(
                ["sweep", "--config", str(iw_cfg), "--out", str(out_b), "--workers", "8"]
            )
            == 0
        )
        assert (out_a / "records.csv").read_bytes() == (out_b / "records.csv").read_bytes()

    def test_seed_override_changes_records(self, iw_cfg, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["sweep", "--config", str(iw_cfg), "--out", str(out_a)])
        main(["sweep", "--config", str(iw_cfg), "--out", str(out_b), "--seed", "99"])
        assert (out_a / "records.csv").read_bytes() != (out_b / "records.csv").read_bytes()

    def test_counts_failed_records(self, tmp_path, capsys):
        """One cell whose two replicates both fail for both projections:
        q above the training class size."""
        cfg = tmp_path / "oos.cfg"
        cfg.write_text(
            "family = inverse_wishart\nmode = finite_sample_curve\np = 10\nq = 6\n"
            "df1_over_p = 2\ndf2_over_p = 2\nn_simu = 2\nsample_grid = 6\nridge = 0\n"
            "projections = pca,rp\nseed = 5\n"
        )
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        assert "(4 new records, 4 failed records recorded in-band)" in capsys.readouterr().out

    def test_malformed_df_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("family = inverse_wishart\np = 20\nq = 2\ndf1_over_p = 0.5\n")
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "df1_over_p" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["df1_over_p", "ridge"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_exits_2_before_any_output(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"family = inverse_wishart\np = 10\nq = 2\n{key} = {value}\n")
        out = tmp_path / "run"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "via, seed",
        [("config", str(2**64)), ("override", str(2**64)), ("config", "-1"), ("override", "-1")],
        ids=["config", "override", "config_negative", "override_negative"],
    )
    def test_seed_beyond_64_bits_exits_2_before_any_output(
        self, iw_cfg, tmp_path, capsys, via, seed
    ):
        argv = ["sweep", "--config", str(iw_cfg), "--out", str(tmp_path / "run")]
        if via == "config":
            iw_cfg.write_text(IW_CFG.replace("seed = 13", f"seed = {seed}"))
        else:
            argv += ["--seed", seed]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: seed: must be a 64-bit unsigned integer\n")
        assert not (tmp_path / "run").exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["sweep", "--config", str(tmp_path / "absent.cfg")]) == 2

    def test_truncated_manifest_exits_2(self, iw_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["sweep", "--config", str(iw_cfg), "--out", str(out)]) == 0
        manifest = out / "manifest.json"
        manifest.write_text(manifest.read_text()[:40])
        assert main(["sweep", "--config", str(manifest), "--out", str(tmp_path / "b")]) == 2
        assert "config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "defect",
        [
            lambda out: (out / "manifest.json").unlink(),
            lambda out: (out / "manifest.json").write_bytes(
                (out / "manifest.json").read_bytes()[:50]
            ),
            lambda out: (out / "records.csv").write_bytes(
                b"x" + (out / "records.csv").read_bytes()
            ),
        ],
        ids=["missing_manifest", "torn_manifest", "foreign_header"],
    )
    def test_unresumable_directory_exits_2_untouched(self, iw_cfg, tmp_path, capsys, defect):
        out = tmp_path / "run"
        assert main(["sweep", "--config", str(iw_cfg), "--out", str(out)]) == 0
        defect(out)
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert main(["sweep", "--config", str(iw_cfg), "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @pytest.mark.parametrize(
        "edit",
        [lambda section: {**section, "n_simu": 3}, lambda section: 5],
        ids=["number_value", "number_section"],
    )
    def test_manifest_config_not_strings_exits_2(self, iw_cfg, tmp_path, capsys, edit):
        out = tmp_path / "run"
        assert main(["sweep", "--config", str(iw_cfg), "--out", str(out)]) == 0
        manifest = out / "manifest.json"
        payload = json.loads(manifest.read_text())
        payload["config"] = edit(payload["config"])
        manifest.write_text(json.dumps(payload))
        assert main(["sweep", "--config", str(manifest), "--out", str(tmp_path / "b")]) == 2
        assert "config" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("mode", "oos_loss"), ("n_per_class", "100")])
    @pytest.mark.parametrize("form", ["config", "manifest"])
    def test_folded_oos_loss_exits_2_naming_the_curve(self, tmp_path, capsys, key, value, form):
        """The oos_loss mode became a one-point finite_sample_curve; a config
        or a manifest echo that still names it is refused with the way over."""
        mapping = {"family": "inverse_wishart", "p": "10", "q": "2", key: value}
        cfg, out = tmp_path / "old.cfg", tmp_path / "run"
        if form == "manifest":
            cfg.write_text(json.dumps({"config": mapping}))
        else:
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in mapping.items()))
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {key}: " in err
        assert "mode = finite_sample_curve with a one-value sample_grid" in err
        assert not out.exists()

    def test_unknown_flag_exits_2(self, iw_cfg):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--config", str(iw_cfg), "--frobnicate"])
        assert err.value.code == 2


class TestSummarizeCommand:
    def test_table_written_and_printed(self, iw_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        main(["sweep", "--config", str(iw_cfg), "--out", str(out)])
        code = main(
            [
                "summarize",
                str(out / "records.csv"),
                "--group-by",
                "p,q",
                "--baseline",
                "pca",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "regret_rp" in printed and "freq_positive_sparse_rp" in printed
        assert (out / "summary.csv").exists()

    @pytest.mark.parametrize("records", ["absent.csv", "."], ids=["missing", "directory"])
    def test_unreadable_records_exit_2(self, tmp_path, capsys, records):
        assert main(["summarize", str(tmp_path / records)]) == 2
        assert "records: cannot read" in capsys.readouterr().err

    def test_unwritable_summary_exits_3(self, iw_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        main(["sweep", "--config", str(iw_cfg), "--out", str(out)])
        assert main(["summarize", str(out / "records.csv"), "--out", str(tmp_path)]) == 3
        assert "sink error" in capsys.readouterr().err

    def test_unknown_column_exits_2(self, iw_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        main(["sweep", "--config", str(iw_cfg), "--out", str(out)])
        assert (
            main(["summarize", str(out / "records.csv"), "--group-by", "bogus"]) == 2
        )

    @pytest.mark.parametrize(
        "index, edit",
        [
            (-1, lambda row: row[: len(row) // 2]),
            (1, lambda row: row.rsplit(",", 1)[0]),
            (1, lambda row: row + ",0"),
            (3, lambda row: row.replace("inverse_wishart,10,", "inverse_wishart,ten,")),
            (3, lambda row: row.replace(",,1,pca,", ",,0.5,pca,")),
        ],
        ids=["torn_last_row", "14_fields", "16_fields", "word_in_int", "fraction_in_int"],
    )
    def test_malformed_records_exit_2_naming_the_line(self, iw_cfg, tmp_path, capsys, index, edit):
        out = tmp_path / "run"
        main(["sweep", "--config", str(iw_cfg), "--out", str(out)])
        path = out / "records.csv"
        header, *rows = path.read_text().splitlines()
        edited = edit(rows[index])
        assert edited != rows[index]
        rows[index] = edited
        # no final newline, as a kill mid-write leaves the file
        path.write_text("\n".join([header, *rows]))
        capsys.readouterr()
        assert main(["summarize", str(path)]) == 2
        assert f"line {2 + index % len(rows)}:" in capsys.readouterr().err
        assert not (out / "summary.csv").exists()

    def test_non_utf8_records_exit_2_naming_the_line(self, iw_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        main(["sweep", "--config", str(iw_cfg), "--out", str(out)])
        path = out / "records.csv"
        lines = path.read_bytes().splitlines(keepends=True)
        tokens = lines[3].split(b",")
        tokens[7] += b"\xe9"  # the projection name
        lines[3] = b",".join(tokens)
        path.write_bytes(b"".join(lines))
        capsys.readouterr()
        assert main(["summarize", str(path)]) == 2
        assert "line 4: not UTF-8 text" in capsys.readouterr().err
        assert not (out / "summary.csv").exists()


class TestEvalCommand:
    def test_strong_covariance_signal_gives_low_pca_loss(self, separable_csv, capsys):
        """The population Bayes risk is far below 0.2, so the trained PCA
        classifier at q = 5 must stay below 0.2 as well."""
        path, model = separable_csv
        oracle = mc_bayes_risk(model, None, 20_000, RngStream(901))
        assert oracle.estimate < 0.1
        code = main(
            ["eval", str(path), "--label-column", "label", "--q", "5", "--seed", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        pca_loss = float(
            [ln for ln in out.splitlines() if ln.strip().startswith("pca")][0].split(
                "oos_loss="
            )[1]
        )
        assert pca_loss < 0.2

    def test_gamma_one_makes_all_losses_chance(self, separable_csv, capsys):
        path, _ = separable_csv
        code = main(
            [
                "eval",
                str(path),
                "--label-column",
                "label",
                "--q",
                "5",
                "--gamma",
                "1",
                "--seed",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        n_val = int(out.splitlines()[0].split("n_val=")[1].split()[0])
        band = 3.0 * math.sqrt(0.25 / n_val)
        losses = [
            float(ln.split("oos_loss=")[1])
            for ln in out.splitlines()
            if "oos_loss=" in ln
        ]
        assert len(losses) == 3
        assert all(abs(loss - 0.5) <= band for loss in losses)

    @pytest.mark.parametrize(
        "args,expected",
        [
            (
                ["--q", "5", "--seed", "2"],
                "n_train=280 n_val=120 p=30 q=5 gamma=0.0\n"
                "             pca  oos_loss=0.016667\n"
                "              rp  oos_loss=0.116667\n"
                "       sparse_rp  oos_loss=0.158333\n"
                "   bhatt_optimal  oos_loss=0.016667\n",
            ),
            (
                ["--q", "3", "--p", "12", "--gamma", "0.5", "--seed", "7"],
                "n_train=280 n_val=120 p=12 q=3 gamma=0.5\n"
                "             pca  oos_loss=0.166667\n"
                "              rp  oos_loss=0.200000\n"
                "       sparse_rp  oos_loss=0.216667\n"
                "   bhatt_optimal  oos_loss=0.208333\n",
            ),
        ],
        ids=["all_columns", "subsample_overlap"],
    )
    def test_output_is_pinned(self, separable_csv, capsys, args, expected):
        """Every loss is a count over 120 validation rows, so the table is
        exact; it pins the split, the frames, the fits and the predictions."""
        path, _ = separable_csv
        projections = ["--projections", "pca,rp,sparse_rp,bhatt_optimal"]
        assert main(["eval", str(path), "--label-column", "label", *args, *projections]) == 0
        assert capsys.readouterr().out == expected

    def test_q_above_class_size_exits_4(self, tmp_path, capsys):
        g = np.random.default_rng(0)
        from covproj import LabeledDataset

        data = LabeledDataset(
            g.standard_normal((20, 12)), np.array([1] * 10 + [2] * 10)
        )
        path = tmp_path / "tiny.csv"
        write_labeled_csv(path, data)
        code = main(
            ["eval", str(path), "--label-column", "label", "--q", "8", "--seed", "1"]
        )
        assert code == 4
        assert "singular" in capsys.readouterr().out

    def test_missing_label_column_exits_2(self, separable_csv, capsys):
        path, _ = separable_csv
        assert (
            main(["eval", str(path), "--label-column", "nope", "--q", "2"]) == 2
        )

    def test_unknown_projection_exits_2_before_any_output(self, separable_csv, capsys):
        path, _ = separable_csv
        argv = ["eval", str(path), "--label-column", "label", "--q", "2"]
        assert main(argv + ["--projections", "pca,bogus"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bogus" in captured.err

    @pytest.mark.parametrize("names", ["", " , ", "pca,pca", "pca,rp,pca"])
    def test_empty_or_repeated_projections_exit_2_before_any_output(
        self, separable_csv, capsys, names
    ):
        path, _ = separable_csv
        argv = ["eval", str(path), "--label-column", "label", "--q", "2"]
        assert main(argv + ["--projections", names]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "projections:" in captured.err

    @pytest.mark.parametrize("p", ["0", "-3", "31"])
    def test_p_outside_the_columns_exits_2_before_any_output(self, separable_csv, capsys, p):
        path, _ = separable_csv
        argv = ["eval", str(path), "--label-column", "label", "--q", "2", "--p", p]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "p: must lie in [1, 30]" in captured.err

    @pytest.mark.parametrize("p_grid", ["31", "2,31"])
    def test_sweep_p_grid_has_the_eval_rule_and_message(
        self, separable_csv, tmp_path, capsys, p_grid
    ):
        """A sweep's p grid and ``eval --p`` share one rule and one message;
        the sweep creates no output directory."""
        path, _ = separable_csv
        cfg = tmp_path / "empirical.cfg"
        cfg.write_text(
            f"family = empirical_cov\ndataset = {path}\nlabel_column = label\n"
            f"p = {p_grid}\nq = 1\n"
        )
        code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: p: must lie in [1, 30], the dataset's feature columns\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_exits_2_naming_the_option(self, separable_csv, capsys, seed):
        """Under the option's own name rather than RngStream's ``master_seed``."""
        path, _ = separable_csv
        argv = ["eval", str(path), "--label-column", "label", "--q", "2", "--seed", seed]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: seed: must be a 64-bit unsigned integer\n"

    @pytest.mark.parametrize("ridge", ["-1", "nan", "inf"])
    def test_invalid_ridge_exits_2_before_any_output(self, separable_csv, capsys, ridge):
        path, _ = separable_csv
        argv = ["eval", str(path), "--label-column", "label", "--q", "2"]
        assert main(argv + ["--ridge", ridge]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ridge" in captured.err

    def test_bad_value_reported_with_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,label\n1,2,1\n1,oops,2\n")
        assert main(["eval", str(path), "--label-column", "label", "--q", "1"]) == 2
        assert "line 3" in capsys.readouterr().err


class TestOracleCommand:
    def _run(self, capsys, *argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        overlap = float(out.split("embedded_overlap=")[1].split()[0])
        risk = float(out.split("mc_bayes_risk=")[1].split()[0])
        se = float(out.split("+-")[1].split()[0])
        return code, overlap, risk, se

    def test_favorable_fixture_overlap(self, capsys):
        code, overlap, risk, se = self._run(
            capsys,
            "oracle",
            "example1",
            "--q",
            "1",
            "--mc-samples",
            "20000",
            "--seed",
            "3",
        )
        assert code == 0
        assert overlap == pytest.approx(0.4472135954999579, rel=1e-9)
        assert risk <= overlap + 3 * se

    def test_adversarial_fixture_pca_is_blind(self, capsys):
        code, overlap, risk, se = self._run(
            capsys,
            "oracle",
            "example2",
            "--q",
            "2",
            "--projection",
            "pca",
            "--mc-samples",
            "20000",
            "--seed",
            "3",
        )
        assert code == 0
        assert overlap == 0.5
        assert abs(risk - 0.5) <= 3 * se

    def test_matrix_file_model(self, tmp_path, capsys):
        (tmp_path / "c1.csv").write_text("1.0,0.0\n0.0,1.0\n")
        (tmp_path / "c2.csv").write_text("4.0,0.0\n0.0,4.0\n")
        code, overlap, risk, se = self._run(
            capsys,
            "oracle",
            "--cov1",
            str(tmp_path / "c1.csv"),
            "--cov2",
            str(tmp_path / "c2.csv"),
            "--q",
            "2",
            "--projection",
            "identity",
            "--mc-samples",
            "20000",
            "--seed",
            "4",
        )
        assert code == 0
        expected = 0.5 * (2.5 / 2.0) ** -1.0  # two variance-4 directions
        assert overlap == pytest.approx(expected, rel=1e-9)
        assert risk <= overlap + 3 * se

    @pytest.mark.parametrize(
        "weight, means, expected",
        [
            # mixture diag(1.6, 2.6): e2, class variances 1 and 3, sqrt(pi1 pi2) = 0.4
            ("0.2", None, 0.4 * (math.sqrt(3) / 2) ** 0.5),
            # mixture diag(2.5, 4.25): e2, and a mean gap of 3 along it
            ("0.5", ("0,0\n", "0,3\n"), 0.5 * math.exp(-9 / 16) * (math.sqrt(3) / 2) ** 0.5),
        ],
        ids=["weight1", "means"],
    )
    def test_pca_keeps_the_mixture_covariances_lead(
        self, tmp_path, capsys, weight, means, expected
    ):
        """PCA sees no labels, so it decomposes pi1 C1 + pi2 C2 + pi1 pi2 d d^T
        (d the mean gap). For C1 = diag(4, 1) and C2 = diag(1, 3), C1 + C2
        leads along e1, but the weights, or the means, turn the mixture's
        lead to e2, whose overlap has the closed form."""
        (tmp_path / "c1.csv").write_text("4,0\n0,1\n")
        (tmp_path / "c2.csv").write_text("1,0\n0,3\n")
        argv = ["oracle", "--cov1", str(tmp_path / "c1.csv"), "--cov2", str(tmp_path / "c2.csv")]
        if means is not None:
            for name, text in zip(("mean1", "mean2"), means):
                (tmp_path / f"{name}.csv").write_text(text)
                argv += [f"--{name}", str(tmp_path / f"{name}.csv")]
        argv += ["--weight1", weight, "--q", "1", "--projection", "pca", "--mc-samples", "2000"]
        code, overlap, risk, se = self._run(capsys, *argv)
        assert code == 0
        assert overlap == pytest.approx(expected, rel=1e-9)

    def test_projection_choices_are_the_registry(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if a.dest == "command")
        oracle = sub.choices["oracle"]
        choice = next(a for a in oracle._actions if a.dest == "projection")
        assert choice.choices == [*PROJECTIONS, "identity"]
        help_text = sub.choices["eval"].format_help()
        assert "{" + ",".join(PROJECTIONS) + "}" in help_text

    def test_unknown_fixture_exits_2(self, capsys):
        assert main(["oracle", "whatever", "--q", "1"]) == 2

    @pytest.mark.parametrize("alias", ["pca-favorable", "pca-adversarial"])
    def test_fixtures_have_one_spelling(self, capsys, alias):
        """The sweep's family names; the old aliases are unknown."""
        assert main(["oracle", alias, "--q", "1"]) == 2
        assert f"unknown fixture {alias!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_mc_samples_below_one_exits_2_naming_the_option(self, capsys, n):
        """Checked before the model is built, under the option's own name
        rather than mc_bayes_risk's ``n_samples``."""
        code = main(["oracle", "example1", "--p", "6", "--q", "2", "--mc-samples", n])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: mc_samples: must be at least 1\n"

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_exits_2_naming_the_option(self, capsys, seed):
        code = main(["oracle", "example1", "--p", "6", "--q", "2", "--seed", seed])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: seed: must be a 64-bit unsigned integer\n"

    @pytest.mark.parametrize("weight", ["0", "1", "1.5", "nan"])
    def test_weight_outside_the_unit_interval_exits_2_naming_the_option(self, capsys, weight):
        """Checked up front under the option's own name, not the model's
        ``weight_1``."""
        code = main(["oracle", "example1", "--p", "6", "--q", "2", "--weight1", weight])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: weight1: must lie strictly between 0 and 1\n"

    @pytest.mark.parametrize("option", ["--cov1", "--cov2", "--mean1", "--mean2"])
    def test_fixture_with_a_model_file_exits_2(self, tmp_path, capsys, option):
        """A fixture builds the whole model, so a file given with it would be
        ignored; the file need not exist to be refused."""
        argv = ["oracle", "example1", "--p", "6", "--q", "2", "--mc-samples", "100"]
        code = main(argv + [option, str(tmp_path / "missing.csv")])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: fixture: ") and err.count("\n") == 1

    def test_ridge_is_not_an_option(self, capsys):
        """bhatt_optimal's fallback is a constant that no option reaches."""
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "example1", "--q", "1", "--ridge", "0"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert "unrecognized arguments: --ridge 0" in err

    @pytest.mark.parametrize("option, value", [("--p", "50"), ("--alpha", "7"), ("--delta", "3")])
    def test_covariance_file_model_refuses_a_fixture_option(
        self, tmp_path, capsys, option, value
    ):
        """--p, --alpha and --delta shape a fixture only; with covariance
        files they would be ignored, so they are refused before any file is
        read."""
        argv = ["oracle", "--cov1", str(tmp_path / "c1.csv"), "--cov2", str(tmp_path / "c2.csv")]
        code = main(argv + ["--q", "1", "--mc-samples", "100", option, value])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == f"error: {option[2:]}: a covariance-file model takes no {option}\n"

    @pytest.mark.parametrize("q", ["1", "9"])
    def test_identity_frame_of_a_file_model_refuses_another_q(self, tmp_path, capsys, q):
        """The identity frame of a 3-dim model has q = 3; any other --q would
        be unused."""
        (tmp_path / "c1.csv").write_text("2,0,0\n0,1,0\n0,0,1\n")
        (tmp_path / "c2.csv").write_text("1,0,0\n0,3,0\n0,0,1\n")
        argv = ["oracle", "--cov1", str(tmp_path / "c1.csv"), "--cov2", str(tmp_path / "c2.csv")]
        code = main(argv + ["--q", q, "--projection", "identity", "--mc-samples", "100"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == f"error: q: the identity frame has q = p = 3, got {q}\n"

    @pytest.mark.parametrize("source", ["example1", "example2", "file"])
    def test_identity_lines_are_the_ambient_scores(self, tmp_path, capsys, source):
        """--projection identity prints the ambient overlap and the ambient
        Monte Carlo risk (no frame) exactly; a fixture takes its defaults,
        p = 10 and the sweep's alpha and delta, and --q as its block size."""
        if source == "file":
            (tmp_path / "c1.csv").write_text("2.0,0.3,0.1\n0.3,1.0,0.2\n0.1,0.2,0.5\n")
            (tmp_path / "c2.csv").write_text("1.0,0.0,0.1\n0.0,3.0,0.4\n0.1,0.4,1.5\n")
            (tmp_path / "m1.csv").write_text("0.1,0.2,0.3\n")
            files = [str(tmp_path / name) for name in ("c1.csv", "c2.csv", "m1.csv")]
            argv = ["--cov1", files[0], "--cov2", files[1], "--mean1", files[2], "--q", "3"]
            cov_1, cov_2 = load_matrix(files[0]), load_matrix(files[1])
            model = TwoClassGaussian(0.5, load_vector(files[2]), np.zeros(3), cov_1, cov_2)
        else:
            argv = [source, "--q", "2"]
            pair = {"example1": pca_favorable_pair, "example2": pca_adversarial_pair}[source]
            model = TwoClassGaussian.zero_mean(*pair(10, 2, SweepConfig.alpha, SweepConfig.delta))
        argv = ["oracle", *argv, "--projection", "identity", "--mc-samples", "3000", "--seed", "5"]
        assert main(argv) == 0
        risk = mc_bayes_risk(model, None, 3000, RngStream(5).child(1))
        assert capsys.readouterr().out == (
            f"embedded_overlap={bhattacharyya_overlap(model):.12g}\n"
            f"mc_bayes_risk={risk.estimate:.6f} +- {risk.std_error:.6f} (n=3000)\n"
        )

    @pytest.mark.parametrize("fixture", ["example1", "example2"])
    def test_infinite_alpha_exits_2(self, capsys, fixture):
        """The fixtures' diagonal covariances are built from alpha and delta
        without a spectral test, so both must be finite."""
        assert main(["oracle", fixture, "--q", "1", "--alpha", "inf"]) == 2
        assert "alpha/delta" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, scored_by",
    [
        (["eval", "{csv}", "--label-column", "label", "--q", "2"], "oos_error"),
        (["oracle", "example1", "--q", "2", "--mc-samples", "1000"], "mc_bayes_risk"),
    ],
    ids=["eval", "oracle"],
)
def test_command_runs_on_one_blas_thread(
    openblas_at_two, separable_csv, monkeypatch, capsys, argv, scored_by
):
    """As a sweep does, so that the printed numbers do not follow the
    caller's thread count; the caller's count is restored afterwards."""
    seen = []
    score = getattr(cli, scored_by)

    def spy(*args, **kwargs):
        seen.append(openblas_at_two.get_threads())
        return score(*args, **kwargs)

    monkeypatch.setattr(cli, scored_by, spy)
    path, _ = separable_csv
    assert main([arg.format(csv=path) for arg in argv]) == 0
    assert seen and set(seen) == {1}
    assert openblas_at_two.get_threads() == 2


# a Latin-1 byte (0xe9, "é") on line 3 of each input file: in a config
# comment (lines ended by LF, or by CR alone), a manifest string, a dataset
# row and a matrix row
LATIN_1 = {
    "config": b"family = example1\np = 4\n# r\xe9sum\xe9\nq = 1\n",
    "config_cr": b"family = example1\rp = 4\r# r\xe9sum\xe9\rq = 1\r",
    "manifest": b'{"config": {\n"family": "example1",\n"p": "4\xe9", "q": "1"}}\n',
    "dataset": b"x0,x1,label\n1,2,1\n3,4\xe9,2\n5,6,1\n7,8,2\n",
    "matrix": b"1,0\n0,1\n0\xe9,1\n",
}
EMPIRICAL_CFG = "family = empirical_cov\np = 2\nq = 1\ndataset = {data}\nlabel_column = label\n"


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["sweep", "--config", "{config}", "--out", "{out}"], "config"),
        (["sweep", "--config", "{config_cr}", "--out", "{out}"], "config_cr"),
        (["sweep", "--config", "{manifest}", "--out", "{out}"], "manifest"),
        (["sweep", "--config", "{empirical}", "--out", "{out}"], "dataset"),
        (["eval", "{dataset}", "--label-column", "label", "--q", "1"], "dataset"),
        (["oracle", "--cov1", "{matrix}", "--cov2", "{matrix}", "--q", "1"], "matrix"),
    ],
    ids=["sweep_config", "sweep_config_cr_lines", "sweep_manifest", "sweep_dataset", "eval", "oracle_cov1"],
)
def test_non_utf8_input_exits_2_naming_file_and_line(tmp_path, capsys, argv, bad):
    """Bytes that are not UTF-8 in any input file give exit 2 and one
    ``error:`` line naming the file and its line; nothing is written."""
    paths = {name: tmp_path / f"{name}.txt" for name in LATIN_1}
    for name, path in paths.items():
        path.write_bytes(LATIN_1[name])
    paths["empirical"] = tmp_path / "empirical.cfg"
    paths["empirical"].write_text(EMPIRICAL_CFG.format(data=paths["dataset"]))
    paths["out"] = tmp_path / "out"
    assert main([arg.format(**paths) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{paths[bad]} line 3: not UTF-8 text" in err
    assert not paths["out"].exists()
