"""Property-based invariants of the record and config formats.

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
    DatasetFormatError,
    ProjectionMatrix,
    SweepConfig,
    SweepRecord,
    TwoClassGaussian,
    config_from_mapping,
    embedded_overlap,
    make_spd,
    read_records_csv,
)
from covproj.datasets import _parse_row
from covproj.projections import PROJECTIONS
from covproj.sweep import CSV_HEADER, DATA_MODES, EMPIRICAL, FAMILIES, MODES

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
        assert read_records_csv(path) == written


def _grid(elements):
    return st.lists(elements, min_size=1, max_size=4).map(tuple)


def _unit(**bounds):
    return st.floats(0.0, 1.0, **bounds)


@st.composite
def configs(draw):
    mode = draw(st.sampled_from(MODES))
    names = list(PROJECTIONS)
    if mode in DATA_MODES:
        names += [EMPIRICAL + name for name in PROJECTIONS]
    alpha = draw(st.floats(1e-3, 1e3))
    return SweepConfig(
        family=draw(st.sampled_from(FAMILIES)),
        p_grid=draw(_grid(st.integers(1, 2000))),
        q_grid=draw(_grid(st.integers(1, 2000))),
        mode=mode,
        projections=draw(_grid(st.sampled_from(names))),
        n_simu=draw(st.integers(1, 10**6)),
        master_seed=draw(st.integers(0, 2**63)),
        n_workers=draw(st.integers(1, 64)),
        df1_over_p=draw(_grid(st.floats(1.0, 1e6))),
        df2_over_p=draw(_grid(st.floats(1.0, 1e6))),
        share_modes=draw(_grid(st.sampled_from(("none", "q", "theta")))),
        q_densities=draw(_grid(st.sampled_from(("dense", "sparse")))),
        sparse_q_density=draw(_unit(exclude_min=True)),
        gamma_grid=draw(_grid(_unit())),
        dataset=draw(st.none() | st.from_regex(r"[A-Za-z0-9_./-]+", fullmatch=True)),
        label_column=draw(st.none() | st.from_regex(r"[A-Za-z0-9_]+", fullmatch=True)),
        alpha=alpha,
        delta=alpha * draw(st.floats(0.01, 0.99)),
        train_frac=draw(_unit(exclude_min=True, exclude_max=True)),
        mc_samples=draw(st.integers(1, 10**7)),
        ridge=draw(st.floats(0.0, 1.0)),
        n_per_class=draw(st.integers(2, 10**5)),
        sample_grid=draw(_grid(st.integers(2, 10**5))),
        record_timings=draw(st.booleans()),
    )


@FIXED
@given(configs())
def test_config_survives_the_mapping_round_trip(config):
    config.validate()
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
        covs.append(make_spd(a @ a.T / p + 0.1 * np.eye(p), strict=True))
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
