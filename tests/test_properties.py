"""Property-based invariants of the record and config formats.

Examples are derandomized and no example database is kept, so every run
checks the same cases.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from covproj import SweepConfig, SweepRecord, config_from_mapping, read_records_csv
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
