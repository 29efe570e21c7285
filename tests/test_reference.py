"""Every overlap record of two small sweeps, and every reconstruction-error
record of a small finite-sample sweep, against independent numerics.

For each record the pair is drawn again from the record's stream key, the
frame is rebuilt and the overlap recomputed without the engine's own
numerics:

- PCA from ``scipy.linalg.eigh(C1 + C2, subset_by_index=...)``;
- the optimal frame from the generalized ``scipy.linalg.eigh(C2, C1)``,
  ranked by lam + 1/lam, with no whitening;
- the random frames from the engine's own draw, because the stream defines
  the draw, not the numerics;
- the overlap sqrt(pi1 pi2) exp(-delta(1/2)) from ``np.linalg.slogdet`` of
  the embedded pair and of their blend.

The relative tolerance was set from the engine's gaps when this module was
written: at most 1.0e-11 on the inverse Wishart sweep (in ``rp``, at p = 50
and df2 = p) and 1.9e-12 on the latent one (in ``pca``), so 1e-8 leaves a
margin of about a thousand.

``metric_recon`` is recomputed from its definition on the sample, split and
frames drawn again from each record's stream key, with the class estimates
from ``np.cov``, the empirical PCA frame from ``scipy.linalg.eigh`` of the
pooled training rows and the optimal frame orthonormalized by
``np.linalg.qr``. Rank-deficient optimal fits (``empirical_bhatt_optimal``)
are left out: they need an identity check, not a value check.
"""

import numpy as np
import pytest
import scipy.linalg

from covproj import (
    RngStream,
    SweepConfig,
    TwoClassGaussian,
    expand_grid,
    gen_iw_pair,
    gen_latent_pair,
    random_projection,
    run_sweep,
    sample_two_class,
    sparse_random_projection,
)
from covproj.sweep import _CTX_DATA, _CTX_PAIR, _CTX_PROJ, _CTX_SPLIT

RTOL = 1e-8
# metric_recon's worst gap was 7.6e-15 (in empirical_pca) when this check was
# added, so 1e-10 leaves a margin of about ten thousand
RECON_RTOL = 1e-10
ORACLE = ("pca", "rp", "sparse_rp", "bhatt_optimal")

CONFIGS = {
    "inverse_wishart": SweepConfig(
        family="inverse_wishart",
        p_grid=(20, 50),
        q_grid=(1, 2, 5),
        df1_over_p=(1.0, 2.0, 5.0),
        df2_over_p=(1.0, 2.0, 5.0),
        projections=ORACLE,
        master_seed=301,
    ),
    # the benchmark's latent_small_p grid at one replicate
    "latent_low_dim": SweepConfig(
        family="latent_low_dim",
        p_grid=(20, 50),
        q_grid=(1, 2, 5),
        share_modes=("none", "q", "theta"),
        q_densities=("dense", "sparse"),
        projections=ORACLE,
        master_seed=302,
    ),
}


def _pair(config, cell, stream):
    if config.family == "inverse_wishart":
        d1, d2 = cell.params
        return gen_iw_pair(cell.p, d1 * cell.p, d2 * cell.p, stream)
    share, density = cell.params
    sparse = config.sparse_q_density if density == "sparse" else None
    return gen_latent_pair(cell.p, share, sparse, stream)


def _frame(name, p, q, c1, c2, stream):
    if name == "pca":
        return scipy.linalg.eigh(c1 + c2, subset_by_index=[p - q, p - 1])[1]
    if name == "bhatt_optimal":
        lam, phi = scipy.linalg.eigh(c2, c1)
        return phi[:, np.argsort(-(lam + 1.0 / lam), kind="stable")[:q]]
    draw = random_projection if name == "rp" else sparse_random_projection
    return draw(p, q, stream).entries


def _overlap(w, c1, c2):
    a, b = w.T @ c1 @ w, w.T @ c2 @ w
    logdets = [np.linalg.slogdet(m)[1] for m in ((a + b) / 2.0, a, b)]
    delta = 0.5 * (logdets[0] - 0.5 * logdets[1] - 0.5 * logdets[2])
    return 0.5 * np.exp(-delta)


def _gaps(config):
    """The relative gap of every record to its independent overlap."""
    records = run_sweep(config)
    cells = expand_grid(config)
    assert len(records) == len(cells) * config.n_simu * len(config.projections)
    gaps = {name: [] for name in config.projections}
    it = iter(records)
    for cell in cells:
        for rep in range(config.n_simu):
            base = RngStream(config.master_seed, (cell.index, rep))
            c1, c2 = (c.entries for c in _pair(config, cell, base.child(_CTX_PAIR, 0)))
            for j, name in enumerate(config.projections):
                record = next(it)
                assert (record.p, record.q, record.replicate, record.projection) == (
                    cell.p, cell.q, rep, name
                )
                assert record.status == "ok"
                w = _frame(name, cell.p, cell.q, c1, c2, base.child(_CTX_PROJ, 0, j))
                expected = _overlap(w, c1, c2)
                gaps[name].append(abs(record.metric_overlap - expected) / expected)
    return gaps


@pytest.mark.parametrize("family", sorted(CONFIGS))
def test_every_overlap_record_matches_independent_numerics(family):
    gaps = _gaps(CONFIGS[family])
    worst = {name: max(values) for name, values in gaps.items()}
    assert all(gap <= RTOL for gap in worst.values()), worst


# a small inverse Wishart finite_sample_curve sweep, for metric_recon
RECON = SweepConfig(
    family="inverse_wishart",
    mode="finite_sample_curve",
    p_grid=(20,),
    q_grid=(2, 5),
    df1_over_p=(2.0,),
    df2_over_p=(2.0,),
    sample_grid=(40, 160),
    projections=(*ORACLE, "empirical_pca", "empirical_rp"),
    master_seed=301,
)


def _recon_gaps(config):
    """The relative gap of every metric_recon record to its definition
    1/2 sum_k |W^T (S_k - C_k) W|_F^2, with the sample covariances S_k from
    ``np.cov`` and every frame orthonormal or the engine's random draw (the
    value does not change under W -> W Q for orthogonal Q)."""
    records = iter(run_sweep(config))
    gaps = {name: [] for name in config.projections}
    for cell in expand_grid(config):
        for rep in range(config.n_simu):
            base = RngStream(config.master_seed, (cell.index, rep))
            for idx, n_pc in enumerate(config.sample_grid):
                covs = _pair(config, cell, base.child(_CTX_PAIR, idx))
                data = sample_two_class(
                    TwoClassGaussian.zero_mean(*covs), n_pc, n_pc, base.child(_CTX_DATA, idx)
                )
                train, _ = data.split(config.train_frac, base.child(_CTX_SPLIT, idx))
                diffs = [
                    np.cov(train.class_rows(k), rowvar=False, bias=True) - c.entries
                    for k, c in zip((1, 2), covs)
                ]
                c1, c2 = (c.entries for c in covs)
                for j, name in enumerate(config.projections):
                    record = next(records)
                    assert (record.q, record.param3, record.projection) == (
                        cell.q, str(n_pc), name
                    )
                    assert record.status == "ok"
                    stream = base.child(_CTX_PROJ, idx, j)
                    if name == "empirical_pca":
                        pooled = np.cov(train.X, rowvar=False, bias=True)
                        top = [cell.p - cell.q, cell.p - 1]
                        w = scipy.linalg.eigh(pooled, subset_by_index=top)[1]
                    else:
                        w = _frame(name.removeprefix("empirical_"), cell.p, cell.q, c1, c2, stream)
                    if name == "bhatt_optimal":
                        w = np.linalg.qr(w)[0]
                    expected = 0.5 * sum(float(np.sum((w.T @ d @ w) ** 2)) for d in diffs)
                    gaps[name].append(abs(record.metric_recon - expected) / expected)
    assert next(records, None) is None
    return gaps


def test_every_recon_record_matches_independent_numerics():
    gaps = _recon_gaps(RECON)
    worst = {name: max(values) for name, values in gaps.items()}
    assert all(gap <= RECON_RTOL for gap in worst.values()), worst
