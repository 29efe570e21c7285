"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n>: PASS/FAIL` line (visible with
`pytest tests/test_acceptance.py -v -s`). The criteria are deliberately
reduced-scale versions of the full enumeration experiments, with frequency
thresholds widened accordingly; tolerances are fixed here, not tuned.
"""

import dataclasses
import math
import time

import numpy as np

from covproj import (
    ProjectionMatrix,
    RngStream,
    SweepConfig,
    TwoClassGaussian,
    bhattacharyya_optimal_projection,
    embedded_overlap,
    expand_grid,
    gen_iw_pair,
    generalized_eigenpairs,
    make_spd,
    mc_bayes_risk,
    optimal_overlap_closed_form,
    parse_config_file,
    pca_adversarial_pair,
    pca_favorable_pair,
    pca_projection,
    run_sweep,
    sample_two_class,
)
from covproj.cli import main as cli_main

from conftest import sweep_records


def check(num, label: str, fn):
    start = time.perf_counter()
    try:
        fn()
    except Exception as exc:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {num}: FAIL  {label}  ({elapsed:.1f}s)  {type(exc).__name__}: {exc}")
        raise
    print(f"ACCEPTANCE {num}: PASS  {label}  ({time.perf_counter() - start:.1f}s)")


def spike_overlap(alpha, delta, q):
    """Closed-form overlap of the axis-aligned fixtures: every retained
    direction contributes a factor (sqrt(r) + 1/sqrt(r))/2 with r = alpha/delta."""
    r = alpha / delta
    factor = (math.sqrt(r) + 1.0 / math.sqrt(r)) / 2.0
    return 0.5 * factor ** (-q / 2.0)


def pair_values(records, metric):
    """Map (p, q, param1, param2, param3, replicate) -> {projection: value}."""
    table = {}
    for r in records:
        if not r.ok:
            continue
        key = (r.p, r.q, r.param1, r.param2, r.param3, r.replicate)
        table.setdefault(key, {})[r.projection] = getattr(r, metric)
    return table


def test_criterion_1_closed_form_fixtures():
    def body():
        p = 8
        for alpha, delta, q in ((4.0, 1.0, 1), (4.0, 1.0, 2), (100.0, 1.0, 2)):
            c1, c2 = pca_favorable_pair(p, q, alpha, delta)
            model = TwoClassGaussian.zero_mean(c1, c2)
            w_pca = pca_projection(make_spd(c1.entries + c2.entries), q)
            w_opt = bhattacharyya_optimal_projection(c1, c2, q)
            gap = np.max(
                np.abs(
                    w_pca.entries @ w_pca.entries.T - w_opt.entries @ w_opt.entries.T
                )
            )
            assert gap <= 1e-9, f"favorable pair: PCA and optimal subspaces differ by {gap}"
            expected = spike_overlap(alpha, delta, q)
            for w in (w_pca, w_opt):
                got = embedded_overlap(model, w)
                assert abs(got - expected) <= 1e-9 * expected, (
                    f"favorable ({alpha},{delta},{q}): overlap {got} != {expected}"
                )
        c1, c2 = pca_adversarial_pair(p, 2, 4.0, 1.0)
        model = TwoClassGaussian.zero_mean(c1, c2)
        w_pca = pca_projection(make_spd(c1.entries + c2.entries), 2)
        assert embedded_overlap(model, w_pca) == 0.5, "adversarial PCA overlap not exactly 0.5"
        w_opt = bhattacharyya_optimal_projection(c1, c2, 2)
        expected = spike_overlap(4.0, 1.0, 2)
        got = embedded_overlap(model, w_opt)
        assert abs(got - expected) <= 1e-9 * expected
        risk = mc_bayes_risk(model, w_pca, 100_000, RngStream(9001))
        assert abs(risk.estimate - 0.5) <= 3.0 * risk.std_error

    check(1, "closed-form fixtures (favorable & adversarial spikes)", body)


def test_criterion_2_bound_dominance():
    def body():
        g = np.random.default_rng(777)
        for k in range(200):
            p = 2 + k % 5
            a1 = g.standard_normal((p, p))
            a2 = g.standard_normal((p, p))
            model = TwoClassGaussian(
                float(g.uniform(0.2, 0.8)),
                g.standard_normal(p),
                g.standard_normal(p),
                make_spd(a1 @ a1.T / p + 0.05 * np.eye(p)),
                make_spd(a2 @ a2.T / p + 0.05 * np.eye(p)),
            )
            q = int(g.integers(1, p + 1))
            w = ProjectionMatrix(g.standard_normal((p, q)))
            bound = embedded_overlap(model, w)
            risk = mc_bayes_risk(model, w, 100_000, RngStream(9002, [k]))
            assert risk.estimate <= bound + 3.0 * risk.std_error, (
                f"model {k}: risk {risk.estimate} exceeds bound {bound} + 3se"
            )

    check(2, "bound dominance over 200 random embedded models", body)


def test_criterion_3_reduced_iw_sweep():
    def body():
        config = SweepConfig(
            family="inverse_wishart",
            p=(20, 50),
            q=(1, 2, 5),
            df1_over_p=(1.0, 2.0, 5.0),
            df2_over_p=(1.0, 2.0, 5.0),
            n_simu=20,
            mode="overlap",
            projections=("pca", "rp", "sparse_rp"),
            seed=9003,
        )
        sweep_start = time.perf_counter()
        records = sweep_records(config)
        sweep_elapsed = time.perf_counter() - sweep_start
        assert sweep_elapsed < 300.0, f"reduced sweep took {sweep_elapsed:.0f}s"
        ok = [r for r in records if r.ok]
        assert len(ok) == 3240, f"expected 3240 embedded evaluations, got {len(ok)}"
        table = pair_values(records, "metric_overlap")
        assert len(table) == 1080
        for rival in ("rp", "sparse_rp"):
            wins = [
                values["pca"] < values[rival]
                for values in table.values()
                if "pca" in values and rival in values
            ]
            frequency = float(np.mean(wins))
            assert frequency >= 0.90, f"PCA beat {rival} in only {frequency:.3f}"

    check(3, "reduced inverse Wishart sweep: PCA beats both RPs >= 90%", body)


def test_criterion_4_reduced_latent_sweep():
    def body():
        config = SweepConfig(
            family="latent_low_dim",
            p=(50, 100),
            q=(2, 5),
            share=("none", "q", "theta"),
            q_density=("dense", "sparse"),
            n_simu=20,
            mode="overlap",
            projections=("pca", "rp", "sparse_rp"),
            seed=9004,
        )
        records = sweep_records(config)
        table = pair_values(records, "metric_overlap")
        assert len(table) == 480
        for rival in ("rp", "sparse_rp"):
            wins = [v["pca"] < v[rival] for v in table.values()]
            frequency = float(np.mean(wins))
            assert frequency >= 0.85, f"PCA beat {rival} in only {frequency:.3f}"

    check(4, "reduced latent low-dimension sweep: PCA beats both RPs >= 85%", body)


def test_criterion_5_monotone_in_q():
    def body():
        stream = RngStream(9005)
        for i in range(50):
            c1, c2 = gen_iw_pair(30, 60, 60, stream.child(i))
            values = generalized_eigenpairs(c1, c2)[0]
            overlaps = [
                optimal_overlap_closed_form(values[:q]) for q in range(1, 11)
            ]
            for q in range(9):
                assert overlaps[q + 1] <= overlaps[q], (
                    f"pair {i}: optimal overlap rose from q={q + 1} to q={q + 2}"
                )
        # oracle Monte Carlo risk along nested PCA directions, shared draws
        for i in range(50):
            c1, c2 = gen_iw_pair(30, 60, 60, RngStream(9006, [i]))
            model = TwoClassGaussian.zero_mean(c1, c2)
            base = pca_projection(make_spd(c1.entries + c2.entries), 10)
            mc_stream = RngStream(9007, [i])
            previous = None
            for q in range(1, 11):
                w = ProjectionMatrix(base.entries[:, :q])
                risk = mc_bayes_risk(model, w, 20_000, mc_stream)
                if previous is not None:
                    slack = 3.0 * math.hypot(previous.std_error, risk.std_error)
                    assert risk.estimate <= previous.estimate + slack, (
                        f"pair {i}: MC risk rose at q={q} beyond 3 combined SE"
                    )
                previous = risk

    check(5, "overlap exactly non-increasing in q; nested MC risk within 3 SE", body)


def test_criterion_6_finite_sample_curve():
    def body():
        config = SweepConfig(
            family="inverse_wishart",
            p=(200,),
            q=(5,),
            df1_over_p=(2.0,),
            df2_over_p=(2.0,),
            n_simu=20,
            mode="finite_sample_curve",
            sample_grid=(20, 40, 80, 160, 320),
            projections=(
                "pca",
                "rp",
                "sparse_rp",
                "bhatt_optimal",
                "empirical_pca",
                "empirical_rp",
                "empirical_sparse_rp",
                "empirical_bhatt_optimal",
            ),
            ridge=1e-6,
            seed=9008,
        )
        records = sweep_records(config)
        losses: dict[tuple, list] = {}
        recons: dict[tuple, list] = {}
        for r in records:
            if not r.ok:
                continue
            losses.setdefault((int(r.param3), r.projection), []).append(r.metric_oos)
            recons.setdefault((int(r.param3), r.projection), []).append(r.metric_recon)
        grid = config.sample_grid
        for n in (20, 40):
            med_opt = np.median(losses[(n, "empirical_bhatt_optimal")])
            med_pca = np.median(losses[(n, "empirical_pca")])
            assert med_opt >= med_pca, (
                f"n={n}: empirical optimal ({med_opt}) beat empirical PCA ({med_pca})"
            )
        for n in grid:
            mean_opt = np.mean(losses[(n, "bhatt_optimal")])
            mean_pca = np.mean(losses[(n, "pca")])
            assert mean_opt <= mean_pca + 0.02, (
                f"n={n}: oracle optimal {mean_opt} above oracle PCA {mean_pca} + 0.02"
            )
        for n in grid:
            if 2 * n >= 400:
                gap = abs(
                    np.mean(losses[(n, "empirical_pca")]) - np.mean(losses[(n, "pca")])
                )
                assert gap < 0.05, f"n={n}: empirical vs oracle PCA gap {gap}"
        recon_first = np.median(recons[(grid[0], "empirical_bhatt_optimal")])
        recon_last = np.median(recons[(grid[-1], "empirical_bhatt_optimal")])
        assert recon_last < recon_first, "empirical optimal reconstruction did not improve"

    check(6, "finite-sample curve: empirical optimal no better than PCA at small n", body)


def _dimension_trend_curves(df_multiple: float, seed: int):
    config = SweepConfig(
        family="inverse_wishart",
        p=(20, 50, 100, 200),
        q=(5,),
        df1_over_p=(df_multiple,),
        df2_over_p=(df_multiple,),
        n_simu=50,
        mode="overlap",
        projections=("pca", "rp"),
        seed=seed,
    )
    records = sweep_records(config)
    means: dict[str, dict[int, float]] = {"pca": {}, "rp": {}}
    for name in means:
        for p in config.p:
            values = [
                r.metric_overlap
                for r in records
                if r.ok and r.projection == name and r.p == p
            ]
            assert len(values) == 50
            means[name][p] = float(np.mean(values))
    return config.p, means


def test_criterion_7_blessing_of_dimensionality():
    """Dimension trend at df/p = (2, 2): RP gains nothing with p, PCA stays
    below RP at every p, and the mean PCA overlap rises with p.

    At df1 = df2 = 2p the two scaled inverse Wishart draws are iid from an
    orthogonally invariant law whose spectrum does not spread out as p grows.
    The PCA frame is symmetric in the two classes, so the projected q x q
    blocks drift together and the overlap climbs towards its ceiling
    sqrt(pi1 * pi2) = 0.5; each step along the p grid is about 5-7 standard
    errors at 50 replicates. The law itself is cross-checked against
    scipy.stats.invwishart in tests/test_generators.py. The falling PCA trend
    lives at the heavy-spectrum end, df/p = (1, 1), checked below.
    """

    def body():
        p_grid, means = _dimension_trend_curves(2.0, 9009)
        pca_curve = [means["pca"][p] for p in p_grid]
        rp_curve = [means["rp"][p] for p in p_grid]
        rp_drop = rp_curve[0] - rp_curve[-1]
        assert rp_drop <= 0.02, f"RP overlap mean dropped by {rp_drop} > 0.02"
        assert all(a < b for a, b in zip(pca_curve, rp_curve)), (
            f"PCA overlap means {pca_curve} not below RP means {rp_curve} at every p"
        )
        assert all(a < b for a, b in zip(pca_curve, pca_curve[1:])), (
            f"PCA overlap means not strictly increasing in p: {pca_curve}"
        )

    check(
        7,
        "df/p = (2, 2): PCA below RP at every p, PCA overlap rises with p, RP gains nothing",
        body,
    )


def test_criterion_7_companion_trend_at_heavy_spectrum():
    """Dimension trend at df/p = (1, 1): the mean PCA overlap falls with p
    while RP gains nothing. Here the upper spectral edge of the inverse
    Wishart draws diverges with p; criterion 7 checks the opposite PCA trend
    at (2, 2)."""

    def body():
        p_grid, means = _dimension_trend_curves(1.0, 9019)
        pca_curve = [means["pca"][p] for p in p_grid]
        assert all(b < a for a, b in zip(pca_curve, pca_curve[1:])), (
            f"PCA overlap means not strictly decreasing in p: {pca_curve}"
        )
        rp_drop = means["rp"][p_grid[0]] - means["rp"][p_grid[-1]]
        assert rp_drop <= 0.02, f"RP overlap mean dropped by {rp_drop} > 0.02"

    check("7b", "df/p = (1, 1): PCA overlap falls with p, RP gains nothing", body)


def test_criterion_8_grid_arithmetic():
    def body():
        iw = SweepConfig(
            family="inverse_wishart",
            p=(20, 50, 100, 200),
            q=(1, 2, 5, 10, 50),
            df1_over_p=(1, 1.5, 2, 3, 4, 5, 10),
            df2_over_p=(1, 1.5, 2, 3, 4, 5, 10),
            n_simu=100,
        )
        assert len(expand_grid(iw)) == 882
        assert len(expand_grid(iw)) * iw.n_simu == 88_200
        latent = SweepConfig(
            family="latent_low_dim",
            p=(20, 50, 100, 200),
            q=(1, 2, 5, 10, 50),
            share=("none", "q", "theta"),
            q_density=("dense", "sparse"),
            n_simu=100,
        )
        assert len(expand_grid(latent)) == 108
        assert len(expand_grid(latent)) * latent.n_simu == 10_800
        empirical = SweepConfig(
            family="empirical_cov",
            p=(100, 500, 1000),
            q=(2, 5, 10, 20),
            gamma=(0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1),
            n_simu=20,
        )
        assert len(expand_grid(empirical)) == 108
        assert len(expand_grid(empirical)) * empirical.n_simu == 2_160

    check(8, "grid arithmetic golden counts: 882/88200, 108/10800, 108/2160", body)


def test_criterion_9_byte_identical_reruns(tmp_path):
    def body():
        config = SweepConfig(
            family="inverse_wishart",
            p=(10, 20),
            q=(1, 3),
            df1_over_p=(1.0, 2.0),
            df2_over_p=(1.0, 2.0),
            n_simu=3,
            mode="overlap",
            seed=9010,
        )
        run_sweep(config, out_dir=tmp_path / "a")
        rerun_config = parse_config_file(tmp_path / "a" / "manifest.json")
        assert rerun_config == config
        run_sweep(dataclasses.replace(rerun_config, workers=8), out_dir=tmp_path / "b")
        run_sweep(rerun_config, out_dir=tmp_path / "c")
        blob_a = (tmp_path / "a" / "records.csv").read_bytes()
        assert blob_a == (tmp_path / "b" / "records.csv").read_bytes(), "1 vs 8 workers differ"
        assert blob_a == (tmp_path / "c" / "records.csv").read_bytes(), "rerun differs"

    check(9, "byte-identical records across reruns and worker counts", body)


def test_gamma_one_degenerate_eval(tmp_path, capsys):
    """Companion degenerate check: with full column overlap every projection's
    out-of-sample loss is chance level on any ingested dataset."""

    def body():
        c1, c2 = pca_favorable_pair(30, 5, 25.0, 1.0)
        model = TwoClassGaussian.zero_mean(c1, c2)
        data = sample_two_class(model, 400, 400, RngStream(9011))
        path = tmp_path / "data.csv"
        header = ",".join([f"f{i}" for i in range(30)] + ["label"])
        rows = [
            ",".join([f"{v:.10g}" for v in x] + [str(z)])
            for x, z in zip(data.X, data.z)
        ]
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        code = cli_main(
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
                "6",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        n_val = int(out.splitlines()[0].split("n_val=")[1].split()[0])
        band = 3.0 * math.sqrt(0.25 / n_val)
        losses = [
            float(ln.split("oos_loss=")[1]) for ln in out.splitlines() if "oos_loss=" in ln
        ]
        assert losses and all(abs(v - 0.5) <= band for v in losses), (
            f"losses {losses} not within {band} of 0.5"
        )

    with capsys.disabled():
        pass
    check(10, "gamma = 1 column overlap drives every projection to chance", body)
