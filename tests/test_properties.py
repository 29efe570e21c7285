"""Property-based invariants of the record and config formats, the row
parser and the C reader, the overlap of an embedding and of a stack of
embeddings, and exact metamorphic relations of a sweep point's overlaps and
reconstruction errors.

Examples are derandomized and no example database is kept, so every run
checks the same cases.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covproj import (
    ConfigError,
    DatasetFormatError,
    ProjectionMatrix,
    RngStream,
    SweepConfig,
    SweepRecord,
    LabeledDataset,
    TwoClassGaussian,
    bhattacharyya_optimal_projection,
    build_projection,
    config_from_mapping,
    datasets,
    embedded_overlap,
    embedded_overlaps,
    empirical_covariances,
    expand_grid,
    fit_embedded_qda,
    generalized_eigenpairs,
    make_spd,
    oos_error,
    optimal_overlap_closed_form,
    read_records_csv,
    reconstruction_error,
    sample_two_class,
)
from covproj.datasets import _parse_row
from covproj.metrics import _embedded_overlaps
from covproj.projections import PROJECTIONS
from covproj.sweep import CSV_HEADER, DATA_MODE, EMPIRICAL, FAMILIES, MODES, _draw_point
from conftest import reference_embedded_overlap

FIXED = settings(derandomize=True, database=None, max_examples=100, deadline=None)

# a records.csv cell holds any text without the delimiter or a line break
_LINE_BREAKS = ",\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
cells = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=_LINE_BREAKS))
metrics = st.none() | st.floats(allow_nan=False, allow_infinity=False)

records = st.builds(
    SweepRecord,
    family=cells,
    p=st.integers(),
    q=st.integers(),
    param1=cells,
    param2=cells,
    param3=cells,
    replicate=st.integers(),
    projection=cells,
    metric_overlap=metrics,
    metric_oos=metrics,
    metric_mc=metrics,
    metric_mc_se=metrics,
    metric_recon=metrics,
    status=cells,
    ms=st.integers(),
)


@FIXED
@given(st.lists(records, min_size=1, max_size=5))
def test_records_survive_the_csv_round_trip(written):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.csv"
        text = "".join(f"{line}\n" for line in [CSV_HEADER, *(r.to_csv_row() for r in written)])
        path.write_text(text, encoding="utf-8", newline="")
        assert list(read_records_csv(path)) == written


def _grid(elements):
    # a config list names each value once (SweepConfig checks it when built)
    return st.lists(elements, min_size=1, max_size=4, unique=True).map(tuple)


def _unit(**bounds):
    return st.floats(0.0, 1.0, **bounds)


@st.composite
def configs(draw):
    mode = draw(st.sampled_from(MODES))
    names = list(PROJECTIONS)
    if mode == DATA_MODE:
        names += [EMPIRICAL + name for name in PROJECTIONS]
    alpha = draw(st.floats(1e-3, 1e3))
    return SweepConfig(
        family=draw(st.sampled_from(FAMILIES)),
        p=draw(_grid(st.integers(1, 2000))),
        q=draw(_grid(st.integers(1, 2000))),
        mode=mode,
        projections=draw(_grid(st.sampled_from(names))),
        n_simu=draw(st.integers(1, 10**6)),
        seed=draw(st.integers(0, 2**63)),
        workers=draw(st.integers(1, 64)),
        df1_over_p=draw(_grid(st.floats(1.0, 1e6))),
        df2_over_p=draw(_grid(st.floats(1.0, 1e6))),
        share=draw(_grid(st.sampled_from(("none", "q", "theta")))),
        q_density=draw(_grid(st.sampled_from(("dense", "sparse")))),
        sparse_q_density=draw(_unit(exclude_min=True)),
        gamma=draw(_grid(_unit())),
        dataset=draw(st.none() | st.from_regex(r"[A-Za-z0-9_./-]+", fullmatch=True)),
        label_column=draw(st.none() | st.from_regex(r"[A-Za-z0-9_]+", fullmatch=True)),
        alpha=alpha,
        delta=alpha * draw(st.floats(0.01, 0.99)),
        train_frac=draw(_unit(exclude_min=True, exclude_max=True)),
        mc_samples=draw(st.integers(1, 10**7)),
        ridge=draw(st.floats(0.0, 1.0)),
        sample_grid=draw(_grid(st.integers(2, 10**5))),
    )


@FIXED
@given(configs())
def test_config_survives_the_mapping_round_trip(config):
    assert config_from_mapping(config.to_mapping()) == config


@st.composite
def overlap_cases(draw):
    """A two-class model with distinct means, a p x q frame W and an
    invertible q x q R = U diag(s) V^T whose condition number is at most 100."""
    p = draw(st.integers(2, 12))
    q = draw(st.integers(1, p))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    covs = []
    for _ in range(2):
        a = g.standard_normal((p, p))
        covs.append(make_spd(a @ a.T / p + 0.1 * np.eye(p)))
    model = TwoClassGaussian(0.5, g.standard_normal(p), g.standard_normal(p), *covs)
    w = g.standard_normal((p, q))
    u, _ = np.linalg.qr(g.standard_normal((q, q)))
    v, _ = np.linalg.qr(g.standard_normal((q, q)))
    s = draw(st.lists(st.floats(0.1, 10.0), min_size=q, max_size=q))
    return model, w, u @ np.diag(s) @ v.T


@FIXED
@given(overlap_cases())
def test_embedded_overlap_invariant_under_right_factor(case):
    model, w, r = case
    a = embedded_overlap(model, ProjectionMatrix(w))
    b = embedded_overlap(model, ProjectionMatrix(w @ r))
    assert b == pytest.approx(a, rel=1e-9)


@st.composite
def stacked_cases(draw):
    """A two-class model, with equal or distinct means, and one to six p x q
    frames of one shape."""
    p = draw(st.integers(2, 60))
    q = draw(st.integers(1, min(10, p - 1)))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    covs = []
    for _ in range(2):
        a = g.standard_normal((p, p))
        covs.append(make_spd(a @ a.T / p + 0.1 * np.eye(p)))
    if draw(st.booleans()):
        model = TwoClassGaussian(0.5, g.standard_normal(p), g.standard_normal(p), *covs)
    else:
        model = TwoClassGaussian.zero_mean(*covs)
    ws = [ProjectionMatrix(g.standard_normal((p, q))) for _ in range(draw(st.integers(1, 6)))]
    return model, ws


@FIXED
@given(stacked_cases())
def test_stacked_overlaps_equal_the_per_projection_formula(case):
    model, ws = case
    assert embedded_overlaps(model, ws) == [reference_embedded_overlap(model, w) for w in ws]


@st.composite
def optimal_cases(draw):
    """A zero-mean class pair, q <= p and a random p x q W of rank q."""
    p = draw(st.integers(2, 12))
    q = draw(st.integers(1, p))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    covs = []
    for _ in range(2):
        a = g.standard_normal((p, p))
        covs.append(make_spd(a @ a.T / p + 0.1 * np.eye(p)))
    return TwoClassGaussian.zero_mean(*covs), q, ProjectionMatrix(g.standard_normal((p, q)))


@FIXED
@given(optimal_cases())
def test_optimal_projection_attains_its_closed_form_and_beats_random_w(case):
    model, q, w = case
    optimal = bhattacharyya_optimal_projection(model.cov_1, model.cov_2, q)
    achieved = embedded_overlap(model, optimal)
    values = generalized_eigenpairs(model.cov_1, model.cov_2, k=q)[0]
    closed_form = optimal_overlap_closed_form(values)
    assert achieved == pytest.approx(closed_form, rel=1e-9)
    assert achieved <= embedded_overlap(model, w) * (1 + 1e-9)


@st.composite
def sweep_points(draw):
    """An inverse Wishart overlap point as ``_draw_point`` draws it, with
    every projection, a class-1 weight, a Haar rotation Q and a scale c.

    df/p >= 1.5 and q <= p/2 keep the pair and a random frame well
    conditioned, so the relations below hold to round-off. At df = p, or
    with q near p, the conditioning amplifies round-off past 1e-12 (up to
    1.6e-9 measured) although each relation still holds; latent pairs, with
    their heavy-tailed factor, likewise.
    """
    p = draw(st.integers(2, 24))
    config = SweepConfig(
        family="inverse_wishart",
        p=(p,),
        q=(draw(st.integers(1, p // 2)),),
        projections=PROJECTIONS,
        df1_over_p=(draw(st.sampled_from((1.5, 2.0, 5.0))),),
        df2_over_p=(draw(st.sampled_from((1.5, 2.0, 5.0))),),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    (cell,) = expand_grid(config)
    point = _draw_point(config, cell, 0, 0, None)
    weighted = TwoClassGaussian.zero_mean(
        point.model.cov_1, point.model.cov_2, draw(st.floats(0.1, 0.9))
    )
    rot, r = np.linalg.qr(np.random.default_rng(config.seed).standard_normal((p, p)))
    rot *= np.sign(np.diag(r))
    return config, cell.q, point.build, weighted, rot, draw(st.floats(0.1, 10.0))


def _frames(config, q, build, model):
    """Each projection of the point built on ``model``, as the sweep builds
    it; the random frames depend on their streams alone."""
    return [
        build_projection(name, q, model, stream)
        for name, stream in zip(config.projections, build)
    ]


def _overlaps(model, frames):
    """The frames' overlaps scored as one stack, as the sweep scores them."""
    return pytest.approx(_embedded_overlaps(model, frames), rel=1e-12, abs=0)


def _mapped(model, f):
    """``model`` with f applied to both covariances."""
    covs = (make_spd(f(model.cov_1.entries)), make_spd(f(model.cov_2.entries)))
    return TwoClassGaussian.zero_mean(*covs, model.weight_1)


@FIXED
@given(sweep_points())
def test_joint_rotation_leaves_a_points_overlaps_unchanged(case):
    """(Q C1 Q^T, Q C2 Q^T) gives the PCA and optimal overlaps of (C1, C2),
    and a random frame W turned into QW gives W's overlap on (C1, C2)."""
    config, q, build, model, rot, _ = case
    rotated = _mapped(model, lambda c: rot @ c @ rot.T)
    frames = _frames(config, q, build, model)
    turned = _frames(config, q, build, rotated)
    for j, name in enumerate(config.projections):
        if name in ("rp", "sparse_rp"):
            turned[j] = ProjectionMatrix(rot @ frames[j].entries)
    assert _embedded_overlaps(rotated, turned) == _overlaps(model, frames)


@FIXED
@given(sweep_points())
def test_class_swap_leaves_a_points_overlaps_unchanged(case):
    """Swapping the classes and their weights leaves every overlap unchanged:
    the optimal frame spans the same space, since lam + 1/lam is symmetric
    in lam <-> 1/lam."""
    config, q, build, model, _, _ = case
    swapped = TwoClassGaussian.zero_mean(model.cov_2, model.cov_1, model.weight_2)
    got = _embedded_overlaps(swapped, _frames(config, q, build, swapped))
    assert got == _overlaps(model, _frames(config, q, build, model))


@FIXED
@given(sweep_points())
def test_common_scale_leaves_a_points_overlaps_unchanged(case):
    """c C_k leaves every overlap unchanged; with sample covariances S_k
    scaled to c S_k too, each frame's reconstruction error scales by c^2.

    The reconstruction errors are compared on the same frames: one built on
    the scaled pair differs in its last bits, which a small error, the
    difference of close S_k and C_k, amplifies past 1e-12 (1.1e-12 measured
    under OpenBLAS's Sandybridge kernel)."""
    config, q, build, model, _, c = case
    scaled = _mapped(model, lambda cov: c * cov)
    frames = _frames(config, q, build, model)
    got = _embedded_overlaps(scaled, _frames(config, q, build, scaled))
    assert got == _overlaps(model, frames)
    p = model.cov_1.dim
    sample = empirical_covariances(sample_two_class(model, p, p, RngStream(config.seed)))
    scaled_sample = _mapped(sample, lambda cov: c * cov)
    for frame in frames:
        want = reconstruction_error(frame, sample, model)
        got = reconstruction_error(frame, scaled_sample, scaled)
        assert got == pytest.approx(c * c * want, rel=1e-12, abs=0)


@st.composite
def curve_points(draw):
    """An inverse Wishart ``finite_sample_curve`` point as ``_draw_point``
    draws it, with the parameter-oracle and empirical PCA and optimal
    frames, and a Haar rotation Q.

    Each class samples 4p + 4 to 8p + 40 rows, so it keeps more than p
    (at least 2.8p) training rows: the sample covariances have full rank,
    and the empirical optimal frame is determined by the data (at p rows
    or fewer it is an arbitrary pick from a cluster of zero eigenvalues).
    With df/p >= 2 the rebuilt frames' round-off stays below 1e-12; at
    about 1.4p training rows or df/p = 1.5 it reached 2e-11.
    """
    p = draw(st.integers(2, 12))
    config = SweepConfig(
        family="inverse_wishart",
        p=(p,),
        q=(draw(st.integers(1, p // 2)),),
        mode=DATA_MODE,
        projections=("pca", "bhatt_optimal", "empirical_pca", "empirical_bhatt_optimal"),
        df1_over_p=(draw(st.sampled_from((2.0, 5.0))),),
        df2_over_p=(draw(st.sampled_from((2.0, 5.0))),),
        sample_grid=(draw(st.integers(4 * p + 4, 8 * p + 40)),),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    (cell,) = expand_grid(config)
    point = _draw_point(config, cell, 0, 0, None)
    rot, r = np.linalg.qr(np.random.default_rng(config.seed).standard_normal((p, p)))
    rot *= np.sign(np.diag(r))
    return config, cell.q, point, rot


def _curve_fits(config, q, build, model, train, val):
    """(frame, classifier, metric_oos, metric_recon) of each projection of a
    curve point, as the sweep evaluates it."""
    est = empirical_covariances(train)
    fits = []
    for name, stream in zip(config.projections, build):
        base = name.removeprefix(EMPIRICAL)
        on = model if base == name else est
        w = build_projection(base, q, on, stream)
        qda = fit_embedded_qda(est, w, ridge=config.ridge)
        recon = reconstruction_error(w, est, model)
        fits.append((w, qda, oos_error(qda, val), recon))
    return fits


def _rotated(data, rot):
    return LabeledDataset(data.X @ rot.T, data.z)


@FIXED
@given(curve_points())
def test_data_rotation_leaves_a_curve_points_fits_unchanged(case):
    """Rows XQ^T with the pair (Q C1 Q^T, Q C2 Q^T) turn each PCA and
    optimal frame W into QW up to column signs D, so the embedded classifier
    is the same up to D, and metric_oos and metric_recon are unchanged.

    Each classifier parameter is compared at 1e-12 of its largest entry; an
    embedded mean W^T m, which cancels, at 1e-12 of |m|. Over 2000 draws on
    three OpenBLAS kernels the worst were 4e-13 and 1.5e-13, and 9.7e-13
    relative for metric_recon."""
    config, q, point, rot = case
    model = point.model
    rotated = _mapped(model, lambda c: rot @ c @ rot.T)
    fits = _curve_fits(config, q, point.build, model, point.train, point.val)
    turned = _curve_fits(
        config, q, point.build, rotated, _rotated(point.train, rot), _rotated(point.val, rot)
    )
    est = empirical_covariances(point.train)
    for (w, qda, oos, recon), (w_rot, qda_rot, oos_rot, recon_rot) in zip(fits, turned):
        signs = np.sign(np.sum((rot @ w.entries) * w_rot.entries, axis=0))
        flip = np.outer(signs, signs)
        emb, emb_rot = qda.model, qda_rot.model
        assert emb_rot.weight_1 == emb.weight_1
        for got, want, scale in [
            (emb_rot.mean_1 * signs, emb.mean_1, np.linalg.norm(est.mean_1)),
            (emb_rot.mean_2 * signs, emb.mean_2, np.linalg.norm(est.mean_2)),
            (emb_rot.cov_1.entries * flip, emb.cov_1.entries, None),
            (emb_rot.cov_2.entries * flip, emb.cov_2.entries, None),
            *((l_rot * flip, l, None) for l_rot, l in zip(qda_rot.chol_factors, qda.chol_factors)),
            (np.array(qda_rot.log_dets), np.array(qda.log_dets), None),
        ]:
            scale = np.max(np.abs(want)) if scale is None else scale
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)
        assert oos_rot == oos
        assert recon_rot == pytest.approx(recon, rel=1e-12, abs=0)


def _float_or_none(token):
    try:
        return float(token)
    except ValueError:
        return None


number_tokens = st.floats().map(repr) | st.integers().map(str)
odd_tokens = st.sampled_from(
    ["nan", "-inf", "Infinity", "1e400", "-1e-400", "1_000", " 2.5 ", "0x10", "", "+", "1,5"]
)
tokens = number_tokens | odd_tokens | st.text(max_size=6)


@FIXED
@given(st.lists(tokens, min_size=1, max_size=5), st.integers(1, 10**6))
def test_parse_row_accepts_exactly_the_finite_floats(row, lineno):
    """A token is accepted iff ``float`` parses it to a finite value; any
    other token rejects the row with an error naming the line."""
    values = [_float_or_none(tok) for tok in row]
    if all(v is not None and math.isfinite(v) for v in values):
        assert _parse_row(row, lineno) == values
    else:
        with pytest.raises(DatasetFormatError) as err:
            _parse_row(row, lineno)
        assert err.value.line == lineno
        assert str(err.value).startswith(f"line {lineno}: ")


table_tokens = (
    st.floats(allow_nan=False, allow_infinity=False).map(repr)
    | st.integers(-(10**20), 10**20).map(str)
    | st.sampled_from(["-0.0", "+2", " 3.5 ", "\t1e-320 ", "1E3", ".5", "-7.", "5e-324"])
    | odd_tokens
    | st.sampled_from(["1_0", "inf", "١٢", "\xa01"])
)
label_tokens = st.sampled_from(["x", "y", " y ", "1", "2", "nan", ""])


@st.composite
def delimited_files(draw):
    """A table as text: a label column anywhere or none, comma or tab,
    LF or CRLF, blank and whitespace-only lines, odd tokens and ragged rows."""
    delimiter = draw(st.sampled_from([",", "\t"]))
    width = draw(st.integers(1, 4))
    label_idx = draw(st.none() | st.integers(0, width - 1))
    lines = []
    if label_idx is not None:
        lines.append(delimiter.join("label" if j == label_idx else f"c{j}" for j in range(width)))
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", " \t "])))
        n = width + draw(st.sampled_from([0] * 8 + [-1, 1]))
        tokens = [
            draw(label_tokens if j == label_idx else table_tokens) for j in range(max(n, 1))
        ]
        lines.append(delimiter.join(tokens))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + newline, label_idx is not None


def _read_outcome(path, label_column):
    try:
        table = datasets._read_table(path, label_column)
    except (ConfigError, DatasetFormatError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    if table.error is not None:
        # the values are not read once a token is bad (the loaders raise it)
        values = type(table.error), str(table.error), table.error.line
    else:
        values = table.values.shape, table.values.tobytes()
    return table.header, values, table.labels, table.line_numbers


@settings(FIXED, max_examples=400)
@given(delimited_files())
def test_c_reader_matches_the_row_parser(case):
    """The same bits, labels and line numbers, or the same first error, with
    numpy's C reader on as with the row loop alone."""
    text, labeled = case
    label_column = "label" if labeled else None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.txt"
        path.write_bytes(text.encode("utf-8"))
        fast = _read_outcome(path, label_column)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(datasets, "_parse_fast", lambda *args: None)
            rows = _read_outcome(path, label_column)
    assert fast == rows
