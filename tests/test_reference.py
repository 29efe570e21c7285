"""Every records column of small sweeps against independent numerics.

Each point's pair, sample, split and streams come from
``covproj.sweep._draw_point``, the engine's one step from a record's stream
key to what the record is computed from. Everything computed from them is
recomputed here without the engine's numerics:

- PCA from ``scipy.linalg.eigh(C1 + C2, subset_by_index=...)``;
- the optimal frame from the generalized ``scipy.linalg.eigh(C2, C1)``,
  ranked by lam + 1/lam, with no whitening;
- the random frames from the engine's own draw, because the stream defines
  the draw, not the numerics;
- the overlap sqrt(pi1 pi2) exp(-delta(1/2)) from ``np.linalg.slogdet`` of
  the embedded pair and of their blend.

The overlap's relative tolerance was set from the engine's gaps when this
module was written: at most 1.0e-11 on the inverse Wishart sweep (in ``rp``,
at p = 50 and df2 = p), 1.9e-12 on the latent one (in ``pca``) and 1.4e-14
on the empirical one (in ``rp``), so 1e-8 leaves a margin of about a thousand.

``metric_recon`` is recomputed from its definition with the class estimates
from ``np.cov``, the empirical PCA frame from ``scipy.linalg.eigh`` of the
pooled training rows and the optimal frame orthonormalized by
``np.linalg.qr``. ``metric_oos`` and ``metric_mc`` are recomputed as
misclassification counts, with each class score
ln(pi_k) - 1/2 ln det(C_k) - 1/2 (y - m_k)^T C_k^{-1} (y - m_k) from
``np.linalg.slogdet`` and ``np.linalg.solve`` and ties going to class 1, and
must match exactly. Rank-deficient optimal fits (``empirical_bhatt_optimal``
with at most p training rows in a class) get an identity and status check
only. The fixture families' overlaps must equal the closed form of their
analytic generalized eigenvalues.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from covproj import (
    SweepConfig,
    expand_grid,
    optimal_overlap_closed_form,
    random_projection,
    sparse_random_projection,
)
from covproj.sweep import _draw_point, _load_source

from conftest import sweep_records

RTOL = 1e-8
# metric_recon's worst gap was 7.6e-15 (in empirical_pca) when this check was
# added, so 1e-10 leaves a margin of about ten thousand
RECON_RTOL = 1e-10
# the fixture overlaps' worst gap to the closed form was 5.8e-16
FIXTURE_RTOL = 1e-12
ORACLE = ("pca", "rp", "sparse_rp", "bhatt_optimal")

CONFIGS = {
    "inverse_wishart": SweepConfig(
        family="inverse_wishart",
        p=(20, 50),
        q=(1, 2, 5),
        df1_over_p=(1.0, 2.0, 5.0),
        df2_over_p=(1.0, 2.0, 5.0),
        projections=ORACLE,
        seed=301,
    ),
    # the benchmark's latent_small_p grid at one replicate
    "latent_low_dim": SweepConfig(
        family="latent_low_dim",
        p=(20, 50),
        q=(1, 2, 5),
        share=("none", "q", "theta"),
        q_density=("dense", "sparse"),
        projections=ORACLE,
        seed=302,
    ),
    # the dataset is written by _two_class_csv when the test runs
    "empirical_cov": SweepConfig(
        family="empirical_cov",
        p=(4, 10),
        q=(1, 2, 3),
        gamma=(0.0, 0.5, 1.0),
        label_column="label",
        n_simu=2,
        projections=ORACLE,
        seed=303,
    ),
}


def _two_class_csv(path):
    """150 rows per class of 12 zero-mean Gaussian features whose classes
    differ in covariance (independent two-factor loadings)."""
    g = np.random.default_rng(20261019)
    blocks = []
    for label in (1, 2):
        loadings = g.standard_normal((12, 2))
        x = g.standard_normal((150, 2)) @ loadings.T + g.standard_normal((150, 12))
        blocks.append(np.column_stack([np.full(150, label), x]))
    header = "label," + ",".join(f"x{j}" for j in range(12))
    np.savetxt(path, np.vstack(blocks), fmt="%.9g", delimiter=",", header=header, comments="")
    return str(path)


def _points(config, source=None):
    """Each (cell, draw, records) point of the sweep in file order, checking
    the identity of every record on the way."""
    records = iter(sweep_records(config))
    grid = config.sample_grid if config.mode == "finite_sample_curve" else (None,)
    for cell in expand_grid(config):
        for rep in range(config.n_simu):
            for idx, n_pc in enumerate(grid):
                point = [next(records) for _ in config.projections]
                assert [(r.p, r.q, r.replicate, r.param3, r.projection) for r in point] == [
                    (cell.p, cell.q, rep, "" if n_pc is None else str(n_pc), name)
                    for name in config.projections
                ]
                yield cell, _draw_point(config, cell, rep, idx, source), point
    assert next(records, None) is None


def _top(c, q):
    p = c.shape[0]
    return scipy.linalg.eigh(c, subset_by_index=[p - q, p - 1])[1]


def _frame(name, q, c1, c2, stream):
    if name == "pca":
        return _top(c1 + c2, q)
    if name == "bhatt_optimal":
        lam, phi = scipy.linalg.eigh(c2, c1)
        return phi[:, np.argsort(-(lam + 1.0 / lam), kind="stable")[:q]]
    draw = random_projection if name == "rp" else sparse_random_projection
    return draw(c1.shape[0], q, stream).entries


def _overlap(w, c1, c2):
    a, b = w.T @ c1 @ w, w.T @ c2 @ w
    logdets = [np.linalg.slogdet(m)[1] for m in ((a + b) / 2.0, a, b)]
    delta = 0.5 * (logdets[0] - 0.5 * logdets[1] - 0.5 * logdets[2])
    return 0.5 * np.exp(-delta)


def _gaps(config, source=None):
    """The relative gap of every record to its independent overlap."""
    gaps = {name: [] for name in config.projections}
    for cell, draw, point in _points(config, source):
        c1, c2 = draw.model.cov_1.entries, draw.model.cov_2.entries
        for j, record in enumerate(point):
            assert record.status == "ok"
            expected = _overlap(_frame(record.projection, cell.q, c1, c2, draw.build[j]), c1, c2)
            gaps[record.projection].append(abs(record.metric_overlap - expected) / expected)
    return gaps


@pytest.mark.parametrize("family", sorted(CONFIGS))
def test_every_overlap_record_matches_independent_numerics(family, tmp_path):
    config, source = CONFIGS[family], None
    if family == "empirical_cov":
        config = replace(config, dataset=_two_class_csv(tmp_path / "two_class.csv"))
        source = _load_source(config)
    gaps = _gaps(config, source)
    worst = {name: max(values) for name, values in gaps.items()}
    assert all(gap <= RTOL for gap in worst.values()), worst


# a small inverse Wishart finite_sample_curve sweep, for metric_recon
RECON = SweepConfig(
    family="inverse_wishart",
    mode="finite_sample_curve",
    p=(20,),
    q=(2, 5),
    df1_over_p=(2.0,),
    df2_over_p=(2.0,),
    sample_grid=(40, 160),
    projections=(*ORACLE, "empirical_pca", "empirical_rp"),
    seed=301,
)


def _class_estimates(train):
    return [np.cov(train.class_rows(k), rowvar=False, bias=True) for k in (1, 2)]


def _data_frame(name, q, draw, est, stream):
    """The frame of a data-mode projection: ``empirical_<name>`` from the
    training rows and their class estimates ``est``, the others from the
    pair; optimal frames are orthonormalized, as the engine's are."""
    if name == "empirical_pca":
        return _top(np.cov(draw.train.X, rowvar=False, bias=True), q)
    base = name.removeprefix("empirical_")
    covs = (draw.model.cov_1.entries, draw.model.cov_2.entries) if base == name else est
    w = _frame(base, q, *covs, stream)
    return np.linalg.qr(w)[0] if base == "bhatt_optimal" else w


def _recon_gaps(config):
    """The relative gap of every metric_recon record to its definition
    1/2 sum_k |W^T (S_k - C_k) W|_F^2, with the sample covariances S_k from
    ``np.cov`` and every frame orthonormal or the engine's random draw (the
    value does not change under W -> W Q for orthogonal Q)."""
    gaps = {name: [] for name in config.projections}
    for cell, draw, point in _points(config):
        est = _class_estimates(draw.train)
        diffs = [s - c.entries for s, c in zip(est, (draw.model.cov_1, draw.model.cov_2))]
        for j, record in enumerate(point):
            assert record.status == "ok"
            w = _data_frame(record.projection, cell.q, draw, est, draw.build[j])
            expected = 0.5 * sum(float(np.sum((w.T @ d @ w) ** 2)) for d in diffs)
            gaps[record.projection].append(abs(record.metric_recon - expected) / expected)
    return gaps


def test_every_recon_record_matches_independent_numerics():
    gaps = _recon_gaps(RECON)
    worst = {name: max(values) for name, values in gaps.items()}
    assert all(gap <= RECON_RTOL for gap in worst.values()), worst


def _count_errors(y, labels, weights, means, covs):
    """Rows of y that the Gaussian rule of (weights, means, covs) labels
    wrongly, scoring through slogdet and solve; ties go to class 1."""
    scores = []
    for weight, mean, cov in zip(weights, means, covs):
        d = (y - mean).T
        quad = np.sum(d * np.linalg.solve(cov, d), axis=0)
        scores.append(math.log(weight) - 0.5 * np.linalg.slogdet(cov)[1] - 0.5 * quad)
    return int(np.count_nonzero(np.where(scores[1] > scores[0], 2, 1) != labels))


# a small inverse Wishart finite_sample_curve sweep over all eight
# projections, for metric_oos; n = 20 leaves 14 training rows per class
OOS = SweepConfig(
    family="inverse_wishart",
    mode="finite_sample_curve",
    p=(20,),
    q=(2, 5),
    df1_over_p=(2.0,),
    df2_over_p=(2.0,),
    sample_grid=(20, 40, 160),
    n_simu=2,
    projections=(*ORACLE, *(f"empirical_{name}" for name in ORACLE)),
    seed=301,
)


def test_every_oos_record_matches_an_independent_count():
    checked = ridge_fits = 0
    for cell, draw, point in _points(OOS):
        train, val = draw.train, draw.val
        rows = [train.class_rows(k) for k in (1, 2)]
        est = _class_estimates(train)
        ridge = OOS.ridge * (np.trace(est[0]) + np.trace(est[1])) / (2.0 * cell.p)
        for j, record in enumerate(point):
            assert record.status == "ok"
            if record.projection == "empirical_bhatt_optimal" and min(map(len, rows)) <= cell.p:
                ridge_fits += 1  # rank-deficient: only its identity and status
                continue
            w = _data_frame(record.projection, cell.q, draw, est, draw.build[j])
            errors = _count_errors(
                val.X @ w,
                val.z,
                [len(x) / train.n for x in rows],
                [x.mean(axis=0) @ w for x in rows],
                [w.T @ s @ w + ridge * np.eye(cell.q) for s in est],
            )
            assert record.metric_oos == errors / val.n, (record, errors)
            checked += 1
    assert (checked, ridge_fits) == (92, 4)


# a small inverse Wishart risk_mc sweep of the oracle projections, for
# metric_mc; 4096 samples are one block of the engine's Monte Carlo loop
MC = SweepConfig(
    family="inverse_wishart",
    mode="risk_mc",
    p=(8, 20),
    q=(1, 3),
    df1_over_p=(1.0, 2.0),
    df2_over_p=(2.0,),
    mc_samples=4096,
    n_simu=2,
    projections=ORACLE,
    seed=301,
)


def test_every_mc_record_matches_an_independent_count():
    n = MC.mc_samples
    count = 0
    for cell, draw, point in _points(MC):
        covs = (draw.model.cov_1.entries, draw.model.cov_2.entries)
        factors = [np.linalg.cholesky(c) for c in covs]
        for j, record in enumerate(point):
            assert record.status == "ok"
            g = draw.mc[j].child(0).generator()
            labels = np.where(g.random(n) < draw.model.weight_1, 1, 2)
            z = g.standard_normal((n, cell.p))
            x = np.where((labels == 1)[:, None], *(z @ f.T for f in factors))
            w = _frame(record.projection, cell.q, *covs, draw.build[j])
            m = draw.model
            errors = _count_errors(
                x @ w,
                labels,
                (m.weight_1, m.weight_2),
                (m.mean_1 @ w, m.mean_2 @ w),
                [w.T @ c @ w for c in covs],
            )
            estimate = errors / n
            assert record.metric_mc == estimate, (record, errors)
            assert record.metric_mc_se == math.sqrt(estimate * (1.0 - estimate) / n)
            count += 1
    assert count == 64


@pytest.mark.parametrize("family", ["example1", "example2"])
def test_fixture_overlaps_match_the_closed_form(family):
    """example1: every projection sees the block's generalized eigenvalue
    delta/alpha; example2: PCA sees only eigenvalue 1 (the classes agree on
    the block) and the optimal frame alpha/delta."""
    config = SweepConfig(
        family=family,
        p=(6, 10, 40),
        q=(1, 2, 3, 5),
        projections=("pca", "bhatt_optimal"),
    )
    alpha, delta = config.alpha, config.delta
    lam = {
        "example1": {"pca": delta / alpha, "bhatt_optimal": delta / alpha},
        "example2": {"pca": 1.0, "bhatt_optimal": alpha / delta},
    }[family]
    records = sweep_records(config)
    assert len(records) == 2 * len(expand_grid(config))
    worst = 0.0
    for record in records:
        assert record.status == "ok"
        expected = optimal_overlap_closed_form([lam[record.projection]] * record.q)
        worst = max(worst, abs(record.metric_overlap - expected) / expected)
    assert worst <= FIXTURE_RTOL
