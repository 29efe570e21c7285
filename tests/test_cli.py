"""Command-line surface: exit codes, reproducibility, printed results."""

import json
import math

import numpy as np
import pytest

from covproj import (
    TwoClassGaussian,
    derive_stream,
    mc_bayes_risk,
    pca_favorable_pair,
    sample_two_class,
)
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
    data = sample_two_class(model, 400, 400, derive_stream(900))
    path = tmp_path / "separable.csv"
    write_labeled_csv(path, data)
    return path, model


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


class TestEvalCommand:
    def test_strong_covariance_signal_gives_low_pca_loss(self, separable_csv, capsys):
        """The population Bayes risk is far below 0.2, so the trained PCA
        classifier at q = 5 must stay below 0.2 as well."""
        path, model = separable_csv
        oracle = mc_bayes_risk(model, None, 20_000, derive_stream(901))
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

    @pytest.mark.parametrize("ridge", ["-1", "nan", "inf"])
    def test_invalid_ridge_exits_2_before_printing(self, capsys, ridge):
        code = main(["oracle", "example1", "--q", "1", "--mc-samples", "100", "--ridge", ridge])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "ridge" in err

    @pytest.mark.parametrize("fixture", ["example1", "example2"])
    def test_infinite_alpha_exits_2(self, capsys, fixture):
        """The fixtures' diagonal covariances are built from alpha and delta
        without a spectral test, so both must be finite."""
        assert main(["oracle", fixture, "--q", "1", "--alpha", "inf"]) == 2
        assert "alpha/delta" in capsys.readouterr().err
