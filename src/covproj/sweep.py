"""Quasi-exhaustive enumeration engine over covariance-pair families.

A sweep expands a parameter grid into cells (one per combination of ambient
dimension p, embedding dimension q, and family parameters), generates
``n_simu`` covariance pairs per cell, builds the requested projections for
each pair, and evaluates one metric mode:

* ``overlap``             closed-form embedded overlap per projection, all
                          projections of a replicate scored as one stack;
* ``risk_mc``             Monte Carlo Bayes risk in the embedding;
* ``finite_sample_curve`` 0-1 loss of an embedded classifier trained on a
                          split of sampled Gaussian data, and covariance
                          reconstruction error, at each per-class sample
                          size of ``sample_grid``, with both parameter-oracle
                          and empirical projections. A one-value grid is the
                          loss at one sample size.

Randomness is keyed on ``RngStream(seed, (cell index, replicate))`` and a
context under it. BLAS runs on one thread in numpy's bundled OpenBLAS
(``covproj.blas``; the manifest's ``blas`` object), which the run refuses to
start without, so results are identical for any worker count, across runs
and across hosts with the same BLAS build running the same kernel (the core
named in ``blas.config``, which OpenBLAS picks per CPU; a resume checks
both). ``records.csv`` is a sweep's one output: each cell's records stream
to it in cell order and are dropped, so memory does not grow with the
number of records. Cell order makes the file byte-stable, and every cell
writes the same number of rows, so its complete lines are its own
checkpoint: a rerun resumes after the last complete cell. The per-record
``ms`` column is always 0, kept for format compatibility, because wall
times would break that byte stability; aggregate timing lives in the run
manifest. The columns of ``records.csv`` are the fields of
``SweepRecord``, in order, and the keys of a config file are the fields of
``SweepConfig``: one codec per annotation reads and writes both.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import time
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from functools import partial
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from .blas import single_thread
from .classify import fit_embedded_qda, mc_bayes_risk, oos_error, reconstruction_error
from .core import (
    ConfigError,
    CovProjError,
    LabeledDataset,
    RngStream,
    TwoClassGaussian,
    _check_count,
    _check_fraction,
    _check_ridge,
    _check_seed,
    _text_lines,
)
from .datasets import _class_blocks
from .generators import (
    _FIXTURES,
    _check_gamma,
    _check_share,
    _check_sparse_density,
    _check_spike_levels,
    _column_subsample,
    empirical_cov_pair,
    gen_iw_pair,
    gen_latent_pair,
    sample_two_class,
)
from .metrics import _embedded_overlaps
from .projections import PROJECTIONS, build_projection, empirical_covariances

FAMILIES = ("inverse_wishart", "latent_low_dim", "empirical_cov", *_FIXTURES)
MODES = ("overlap", "risk_mc", "finite_sample_curve")
# the one mode that samples data; "empirical_<name>" is projection <name>
# fitted to its training split
DATA_MODE = "finite_sample_curve"
EMPIRICAL = "empirical_"
# the mode and key folded into finite_sample_curve, refused with this hint
_FOLDED = (
    "mode oos_loss and its n_per_class are gone: "
    "use mode = finite_sample_curve with a one-value sample_grid"
)

# path categories under the (cell index, replicate) stream; _draw_point is
# their one reader
_CTX_PAIR, _CTX_PROJ, _CTX_DATA, _CTX_SPLIT, _CTX_MC = 0, 1, 2, 3, 4


def _fmt(x) -> str:
    """A record or summary value as text: a string as is, None as ""."""
    if x is None or isinstance(x, str):
        return x or ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _items(text: str) -> list[str]:
    """The items of a comma list, stripped, blank ones dropped: the one reading
    of a list in config files, the manifest echo and command-line options."""
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _refuse_repeats(key: str, values) -> None:
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(key, f"lists {value!r} more than once")


def check_projections(names, mode: str | None = None) -> None:
    """The one rule for a list of projection names, in sweep configs and in
    ``covproj eval``: at least one, none repeated, each in ``PROJECTIONS``;
    ``empirical_<name>`` only in the data ``mode``."""
    if not names:
        raise ConfigError("projections", "need at least one projection")
    _refuse_repeats("projections", names)
    for name in names:
        if name.removeprefix(EMPIRICAL) not in PROJECTIONS:
            raise ConfigError("projections", f"unknown projection {name!r}")
        if name.startswith(EMPIRICAL) and mode != DATA_MODE:
            raise ConfigError("projections", f"{name!r} is valid only in mode {DATA_MODE}")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    """Full description of one sweep (modes: see the module docstring), checked
    when it is built, ``dataclasses.replace`` included."""

    family: str
    p: tuple[int, ...]
    q: tuple[int, ...]
    mode: str = "overlap"
    projections: tuple[str, ...] = ("pca", "rp", "sparse_rp")
    n_simu: int = 1
    seed: int = 0
    workers: int = 1
    # inverse Wishart family: degrees of freedom as multiples of p
    df1_over_p: tuple[float, ...] = (1.0,)
    df2_over_p: tuple[float, ...] = (1.0,)
    # latent low-dimension family
    share: tuple[str, ...] = ("none",)
    q_density: tuple[str, ...] = ("dense",)
    sparse_q_density: float = 0.1
    # empirical covariance family
    gamma: tuple[float, ...] = (0.0,)
    dataset: str | None = None
    label_column: str | None = None
    # fixture families
    alpha: float = 4.0
    delta: float = 1.0
    # per-mode knobs
    train_frac: float = 0.7
    mc_samples: int = 20000
    ridge: float = 1e-6
    sample_grid: tuple[int, ...] = (20, 40, 80, 160, 320)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError("family", f"must be one of {FAMILIES}, got {self.family!r}")
        if self.mode not in MODES:
            hint = f"; {_FOLDED}" if self.mode == "oos_loss" else ""
            raise ConfigError("mode", f"must be one of {MODES}, got {self.mode!r}{hint}")
        grids = {"p": 1, "q": 1, **({"sample_grid": 2} if self.mode == DATA_MODE else {})}
        for key, least in grids.items():
            if not getattr(self, key):
                raise ConfigError(key, "need at least one value")
            for value in getattr(self, key):
                _check_count(key, value, least)
        _check_count("n_simu", self.n_simu)
        _check_count("workers", self.workers)
        check_projections(self.projections, self.mode)
        # a repeated value would give two cells, or two projections, one
        # record identity, and the summary would keep only one of them
        for f in fields(self):
            if f.type.startswith("tuple["):
                _refuse_repeats(f.name, getattr(self, f.name))
        if self.family == "inverse_wishart":
            for key, grid in (("df1_over_p", self.df1_over_p), ("df2_over_p", self.df2_over_p)):
                if not grid or not all(1.0 <= m < math.inf for m in grid):
                    raise ConfigError(key, "df/p multiples must all be finite and >= 1")
        # each family's parameters under the rules of the function they feed
        if self.family == "latent_low_dim":
            for share in self.share:
                _check_share(share)
            for dens in self.q_density:
                if dens not in ("dense", "sparse"):
                    raise ConfigError("q_density", f"must be dense or sparse, got {dens!r}")
            _check_sparse_density(self.sparse_q_density)
        if self.family == "empirical_cov":
            for gamma in self.gamma:
                _check_gamma(gamma)
        if self.family in _FIXTURES:
            _check_spike_levels(self.alpha, self.delta)
        _check_fraction("train_frac", self.train_frac)
        _check_count("mc_samples", self.mc_samples)
        _check_ridge(self.ridge)
        _check_seed("seed", self.seed)

    def to_mapping(self) -> dict[str, str]:
        """Flat key=value echo of every field, suitable for a manifest."""
        return {name: fmt(getattr(self, name)) for name, (_, fmt) in _FIELDS.items()}


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


# (parse, format) of each field annotation, shared by config files, the
# manifest echo and records.csv; parse raises ValueError on a bad token, and
# a missing value is an empty token
_CODECS = {
    "str": (str, str),
    "int": (int, str),
    "float": (_finite, _fmt),
    "str | None": (lambda tok: tok or None, _fmt),
    "float | None": (lambda tok: float(tok) if tok else None, _fmt),
}


def _codec(annotation: str):
    """(parse, format) of an annotation; ``tuple[T, ...]`` is a comma list of T."""
    item = annotation.removeprefix("tuple[").removesuffix(", ...]")
    if item == annotation:
        return _CODECS[annotation]
    parse, fmt = _CODECS[item]
    return (
        lambda text: tuple(map(parse, _items(text))),
        lambda xs: ",".join(fmt(x) for x in xs),
    )


# each SweepConfig field's codec; its name is its key in configs and manifests
_FIELDS = {f.name: _codec(f.type) for f in fields(SweepConfig)}


def config_from_mapping(mapping: dict[str, str]) -> SweepConfig:
    """Build a config from flat string key=value pairs, parsing each field."""
    if "family" not in mapping:
        raise ConfigError("family", "missing required key")
    kwargs = {}
    for key, value in mapping.items():
        if key not in _FIELDS:
            raise ConfigError(
                key, _FOLDED if key == "n_per_class" else "unknown configuration key"
            )
        try:
            kwargs[key] = _FIELDS[key][0](value.strip())
        except ValueError:
            raise ConfigError(key, f"cannot parse value {value!r}")
    return SweepConfig(**kwargs)


def parse_config_file(path: str | Path) -> SweepConfig:
    """Read a key=value config file, or a run manifest (JSON) echoing one.
    Bytes that are not UTF-8 raise ``ConfigError`` naming their line."""
    try:
        with open(path, "rb") as fh:
            lines = list(_text_lines(fh, path, partial(ConfigError, "config")))
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}")
    text = "\n".join(lines)
    if text.lstrip().startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"{path} is not valid JSON: {exc}")
        if "config" not in payload:
            raise ConfigError("config", "manifest JSON lacks a 'config' section")
        section = payload["config"]
        if not isinstance(section, dict) or not all(
            isinstance(value, str) for value in section.values()
        ):
            raise ConfigError("config", "the manifest's 'config' section must map keys to strings")
        return config_from_mapping(section)
    mapping: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        # a comment starts a line or follows whitespace: "run#1" is a value
        body = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}", f"expected key = value, got {line!r}")
        key, value = (tok.strip() for tok in body.split("=", 1))
        if key in mapping:
            raise ConfigError(f"line {lineno}", f"repeats key {key!r}")
        mapping[key] = value
    return config_from_mapping(mapping)


# ---------------------------------------------------------------------------
# Grid expansion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One evaluated grid combination; ``params`` is family-specific."""

    index: int
    p: int
    q: int
    params: tuple


def _family_param_combos(config: SweepConfig) -> list[tuple]:
    if config.family == "inverse_wishart":
        return [(d1, d2) for d1 in config.df1_over_p for d2 in config.df2_over_p]
    if config.family == "latent_low_dim":
        return [(s, d) for s in config.share for d in config.q_density]
    if config.family == "empirical_cov":
        return [(g,) for g in config.gamma]
    return [(config.alpha, config.delta)]


def expand_grid(config: SweepConfig) -> list[Cell]:
    """All grid cells in canonical order; combinations with q >= p are dropped
    (the embedding must strictly reduce the dimension)."""
    combos = _family_param_combos(config)
    cells: list[Cell] = []
    for p in config.p:
        for q in config.q:
            if q >= p:
                continue
            if config.family == "example2" and 2 * q > p:
                continue
            for params in combos:
                cells.append(Cell(len(cells), p, q, params))
    if not cells:
        raise ConfigError("q", "grid expansion produced no cells")
    return cells


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


@dataclass
class SweepRecord:
    """One evaluated (cell, replicate, projection) combination.

    Its fields, in order, are the columns of ``records.csv``: this class is
    the one definition of the record format.
    """

    family: str
    p: int
    q: int
    param1: str
    param2: str
    param3: str
    replicate: int
    projection: str
    metric_overlap: float | None = None
    metric_oos: float | None = None
    metric_mc: float | None = None
    metric_mc_se: float | None = None
    metric_recon: float | None = None
    status: str = "ok"
    ms: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_csv_row(self) -> str:
        return ",".join(fmt(getattr(self, name)) for name, (_, fmt) in _COLUMNS)


_COLUMNS = tuple((f.name, _codec(f.type)) for f in fields(SweepRecord))
CSV_HEADER = ",".join(name for name, _ in _COLUMNS)


def read_records_csv(path: str | Path) -> Iterator[SweepRecord]:
    """Yield the records of a records file, reading it one line at a time.

    Nothing is read until the first record is asked for. An unreadable file,
    a wrong header or a malformed row raises ``ConfigError``; a row's error
    names its line.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ConfigError("records", f"cannot read {path}: {exc}")
    with fh:
        lines = _text_lines(fh, path, partial(ConfigError, "records"))
        if next(lines, None) != CSV_HEADER:
            raise ConfigError("records", f"{path} does not carry the sweep record header")
        for lineno, line in enumerate(lines, start=2):
            if not line.strip():
                continue
            tokens = line.split(",")
            if len(tokens) != len(_COLUMNS):
                raise ConfigError(
                    "records",
                    f"{path} line {lineno}: expected {len(_COLUMNS)} fields, found {len(tokens)}",
                )
            values = {}
            for (name, (parse, _)), tok in zip(_COLUMNS, tokens):
                try:
                    values[name] = parse(tok)
                except ValueError:
                    raise ConfigError("records", f"{path} line {lineno}: bad {name} value {tok!r}")
            yield SweepRecord(**values)


# ---------------------------------------------------------------------------
# Cell evaluation
# ---------------------------------------------------------------------------


def _param_strings(cell: Cell, n_pc: int | None) -> tuple[str, str, str]:
    """A record's param1-param3: the cell's parameters padded with "" to two,
    then the point's sample size, each formatted by its type."""
    first, second = (*cell.params, "")[:2]
    return _fmt(first), _fmt(second), _fmt(n_pc)


@dataclass(frozen=True)
class _Draw:
    """What the stream fixes at one point: the pair, the data mode's split and
    estimates, and projection j's build and Monte Carlo streams at index j."""

    model: TwoClassGaussian
    train: LabeledDataset | None
    val: LabeledDataset | None
    est: TwoClassGaussian | None
    build: tuple[RngStream, ...]
    mc: tuple[RngStream, ...]


def _draw_point(config: SweepConfig, cell: Cell, rep: int, idx: int, source) -> _Draw:
    """Point ``idx`` of replicate ``rep`` of ``cell``, drawn under the stream
    key ``RngStream(seed, (cell index, rep))``; a failing draw raises."""
    base = RngStream(config.seed, (cell.index, rep))
    stream = base.child(_CTX_PAIR, idx)
    if config.family == "inverse_wishart":
        d1, d2 = cell.params
        covs = gen_iw_pair(cell.p, d1 * cell.p, d2 * cell.p, stream)
    elif config.family == "latent_low_dim":
        share, density = cell.params
        sparse_density = config.sparse_q_density if density == "sparse" else None
        covs = gen_latent_pair(cell.p, share, sparse_density, stream)
    elif config.family == "empirical_cov":
        covs = empirical_cov_pair(*_column_subsample(*source, cell.p, cell.params[0], stream))
    else:
        covs = _FIXTURES[config.family](cell.p, cell.q, config.alpha, config.delta)
    model = TwoClassGaussian.zero_mean(*covs)
    train = val = est = None
    if config.mode == DATA_MODE:
        n_pc = _points(config)[idx]
        data = sample_two_class(model, n_pc, n_pc, base.child(_CTX_DATA, idx))
        train, val = data.split(config.train_frac, base.child(_CTX_SPLIT, idx))
        est = empirical_covariances(train)
    js = range(len(config.projections))
    build = tuple(base.child(_CTX_PROJ, idx, j) for j in js)
    return _Draw(model, train, val, est, build, tuple(base.child(_CTX_MC, idx, j) for j in js))


def _failed(exc: CovProjError) -> str:
    return f"failed:{type(exc).__name__}"


def _score_overlaps(model, built) -> None:
    """Score every built projection of a point as one stack; a projection
    whose embedded covariances are singular fails its own record alone."""
    values = _embedded_overlaps(model, [w for _, _, w in built])
    for (_, record, _), value in zip(built, values):
        if isinstance(value, CovProjError):
            record.status = _failed(value)
        else:
            record.metric_overlap = value


def _eval_point(config: SweepConfig, cell: Cell, rep: int, idx: int, source) -> list[SweepRecord]:
    """The records of one (cell, replicate, point), one per projection."""
    params = _param_strings(cell, _points(config)[idx])
    records = [
        SweepRecord(config.family, cell.p, cell.q, *params, rep, name)
        for name in config.projections
    ]
    try:
        draw = _draw_point(config, cell, rep, idx, source)
    except CovProjError as exc:
        for record in records:
            record.status = _failed(exc)
        return records
    model, est = draw.model, draw.est
    built = []  # (index, record, projection) of every projection that built
    for j, record in enumerate(records):
        name = record.projection.removeprefix(EMPIRICAL)
        on = model if name == record.projection else est
        try:
            w = build_projection(name, cell.q, on, draw.build[j])
            built.append((j, record, w))
        except CovProjError as exc:
            record.status = _failed(exc)
    if config.mode == "overlap":
        _score_overlaps(model, built)
        return records
    for j, record, w in built:
        try:
            if config.mode == "risk_mc":
                risk = mc_bayes_risk(model, w, config.mc_samples, draw.mc[j])
                record.metric_mc = risk.estimate
                record.metric_mc_se = risk.std_error
            else:
                qda = fit_embedded_qda(est, w, ridge=config.ridge)
                record.metric_oos = oos_error(qda, draw.val)
                record.metric_recon = reconstruction_error(w, est, model)
        except CovProjError as exc:
            record.status = _failed(exc)
    return records


def _points(config: SweepConfig) -> tuple[int | None, ...]:
    """Each point's per-class sample size (the one reader of ``sample_grid``):
    the curve's grid; the other modes sample no data and evaluate one point (None)."""
    return config.sample_grid if config.mode == DATA_MODE else (None,)


def _eval_cell(config: SweepConfig, cell: Cell, source) -> list[SweepRecord]:
    records = []
    for rep in range(config.n_simu):
        for idx in range(len(_points(config))):
            records.extend(_eval_point(config, cell, rep, idx, source))
    return records


def rows_per_cell(config: SweepConfig) -> int:
    return config.n_simu * len(_points(config)) * len(config.projections)


# ---------------------------------------------------------------------------
# Sink and manifest
# ---------------------------------------------------------------------------


class CsvSink:
    """Cell-ordered append sink whose complete rows are its own checkpoint.

    Every cell appends exactly ``rows_per_cell`` rows, in cell-index order,
    so the complete lines after the header count the cells already done. The
    constructor reads the records file one line at a time and keeps only that
    count, ``n_done``, and the byte offset where the last complete cell ends;
    ``open`` cuts the file there, dropping a partial cell and a torn line. A
    missing or empty file, or a header cut short, starts fresh; a first line
    that is not (a prefix of) the record header is refused. Nothing is
    written before ``open``, so a resume can be refused first.
    """

    def __init__(self, records_path: Path, rows_per_cell: int):
        self.records_path = Path(records_path)
        self.n_done = self._keep_bytes = 0
        if not self.records_path.exists():
            return
        with open(self.records_path, "rb") as fh:
            header = fh.readline()
            if not (CSV_HEADER + "\n").encode().startswith(header):
                raise ConfigError(
                    "records", f"{self.records_path} does not carry the sweep record header"
                )
            # after a header cut short nothing is left to read; only the last
            # line read can lack its newline
            end, lines = len(header), 0
            for line in fh:
                if not line.endswith(b"\n"):
                    break
                end += len(line)
                lines += 1
                if lines % rows_per_cell == 0:
                    self.n_done, self._keep_bytes = lines // rows_per_cell, end

    def open(self):
        """Cut the records file after its complete cells, or start it fresh."""
        if self.n_done:
            os.truncate(self.records_path, self._keep_bytes)
        else:
            self.records_path.write_text(CSV_HEADER + "\n", encoding="utf-8", newline="")

    def write_cell(self, rows: list[str]):
        with open(self.records_path, "a", encoding="utf-8", newline="") as fh:
            fh.write("".join(row + "\n" for row in rows))


def _write_manifest(path: Path, config: SweepConfig, payload_extra: dict):
    payload = {
        "artifact": "covproj",
        "version": __version__,
        "config": config.to_mapping(),
    }
    payload.update(payload_extra)
    # written aside and renamed over, so a kill mid-write cannot tear it
    staged = path.with_name(path.name + ".tmp")
    staged.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(staged, path)


def _load_source(config: SweepConfig):
    if config.family != "empirical_cov":
        return None
    if not config.dataset:
        raise ConfigError("dataset", "the empirical family requires a dataset path")
    if not config.label_column:
        raise ConfigError("label_column", "the empirical family requires a label column")
    return _class_blocks(config.dataset, config.label_column, config.p)


def _check_resume(config: SweepConfig, out_dir: Path, blas: dict):
    """Refuse to extend a partial run unless its manifest echoes this config
    and names this run's BLAS build and kernel (``blas``'s ``library`` and
    ``config``): the kernel alone moves bits.

    The worker count and the thread counts are left out of the comparison:
    records do not depend on them.
    """
    try:
        manifest = json.loads((out_dir / "manifest.json").read_bytes())
    except (OSError, ValueError) as exc:
        raise ConfigError(
            "config",
            f"{out_dir} holds a partial run without a readable manifest.json ({exc}); "
            "use a fresh output directory",
        )
    echo = manifest.get("config") if isinstance(manifest, dict) else None
    ours = config.to_mapping()
    if not isinstance(echo, dict) or {**echo, "workers": ""} != {**ours, "workers": ""}:
        raise ConfigError(
            "config",
            f"{out_dir} holds a partial run with a different configuration; "
            "use a fresh output directory",
        )
    made_with = manifest["blas"] if isinstance(manifest.get("blas"), dict) else {}
    theirs = (made_with.get("library"), made_with.get("config"))
    ours = (blas["library"], blas["config"])
    if theirs != ours:
        raise ConfigError(
            "blas",
            f"{out_dir} holds a partial run made with BLAS {theirs[0]!r} ({theirs[1]!r}); "
            f"this run has {ours[0]!r} ({ours[1]!r}); use a fresh output directory",
        )


def run_sweep(config: SweepConfig, out_dir: str | Path) -> tuple[int, int]:
    """Run every cell of the sweep, writing ``records.csv`` and
    ``manifest.json`` to ``out_dir``; return how many records this call
    wrote and how many of them failed. No record is kept: read them back
    with ``read_records_csv``. A directory whose records file holds complete
    cells is resumed after the last of them (see ``CsvSink``), provided its
    manifest echoes this configuration (the worker count may differ) and
    names this run's BLAS build and kernel, and the grid has that many
    cells; otherwise ``ConfigError`` is raised and nothing is written. A
    finished directory passes the same checks and is then left untouched,
    manifest included: the call returns ``(0, 0)``.

    The whole run uses one BLAS thread (see ``covproj.blas``); a numpy
    without its bundled OpenBLAS is refused with ``ConfigError`` before
    anything is written. The worker pool is its only parallelism, and the
    caller's BLAS thread count is restored when it returns or raises. One
    worker evaluates the cells in this thread; more evaluate them in a
    thread pool, and cells are still written in index order. A failure in
    a cell, in the sink or in the caller (Ctrl-C) cancels the cells not yet
    started and propagates once the running ones finish.
    """
    cells = expand_grid(config)
    out_dir = Path(out_dir)
    with single_thread() as blas, ThreadPoolExecutor(config.workers) as pool:
        source = _load_source(config)
        started = datetime.now(timezone.utc).isoformat()
        t_start = time.perf_counter()

        out_dir.mkdir(parents=True, exist_ok=True)
        sink = CsvSink(out_dir / "records.csv", rows_per_cell(config))
        if sink.n_done > len(cells):
            raise ConfigError(
                "records",
                f"{sink.records_path} holds {sink.n_done} complete cells; "
                f"the grid has {len(cells)}",
            )
        if sink.n_done:
            _check_resume(config, out_dir, blas)
        if sink.n_done == len(cells):
            return 0, 0
        sink.open()
        run_info = {
            "records_csv": str(sink.records_path),
            "n_cells": len(cells),
            "rows_per_cell": rows_per_cell(config),
            "started_at": started,
            "blas": blas,
            # what ran the sweep; a resume compares none of it
            "host": {
                "node": platform.node(),
                "cpu_count": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
        }
        _write_manifest(out_dir / "manifest.json", config, {**run_info, "status": "running"})

        # a one-thread pool would move every allocation into a second malloc arena
        evaluate = pool.map if config.workers > 1 else map
        n_new = n_failed = 0
        # the map's iterator lives only in this loop: an exception that leaves
        # the loop closes it, which cancels the cells not yet started
        for records in evaluate(_eval_cell, repeat(config), cells[sink.n_done:], repeat(source)):
            sink.write_cell([r.to_csv_row() for r in records])
            n_new += len(records)
            n_failed += sum(not r.ok for r in records)

        _write_manifest(
            out_dir / "manifest.json",
            config,
            {
                **run_info,
                "finished_at": datetime.now(timezone.utc).isoformat(),
                "total_ms": int(round((time.perf_counter() - t_start) * 1000)),
                "status": "complete",
            },
        )
    return n_new, n_failed


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

# the columns before ``replicate`` name a record's cell; with it, its pair
_COLUMN_NAMES = CSV_HEADER.split(",")
_IDENTITY_FIELDS = tuple(_COLUMN_NAMES[: _COLUMN_NAMES.index("replicate") + 1])
GROUPABLE_FIELDS = _IDENTITY_FIELDS[:-1]


# the first metric column a record fills is the one its mode is summarized by
_METRIC_FIELDS = tuple(f.name for f in fields(SweepRecord) if f.type == "float | None")


def _record_metric_field(record: SweepRecord) -> str | None:
    return next((name for name in _METRIC_FIELDS if getattr(record, name) is not None), None)


@dataclass
class SummaryTable:
    columns: list[str]
    rows: list[list]

    def to_csv_text(self) -> str:
        return "".join(",".join(map(_fmt, row)) + "\n" for row in [self.columns, *self.rows])

    def format_text(self) -> str:
        def show(v):
            if isinstance(v, float):
                return f"{v:.4f}"
            return str(v)

        table = [self.columns] + [[show(v) for v in row] for row in self.rows]
        widths = [max(len(r[i]) for r in table) for i in range(len(self.columns))]
        lines = ["  ".join(v.rjust(w) for v, w in zip(row, widths)) for row in table]
        return "\n".join(lines)


def _sort_key(value):
    try:
        return (0, float(value), "")
    except (TypeError, ValueError):
        return (1, 0.0, str(value))


def summarize(
    records: Iterable[SweepRecord], group_by: list[str], baseline: str
) -> SummaryTable:
    """Per-group projection means, regrets against a baseline, and sign rates.

    The regret of projection W in a group is the average over matched
    (cell, replicate) pairs of metric(W) - metric(baseline); positive regret
    means W did worse than the baseline, and exact ties count as
    not-positive. Failed records are excluded from every average but counted
    in the ``n_failed`` column, so silent exclusion cannot bias sign rates
    unnoticed.

    ``records`` is iterated once, so a ``read_records_csv`` generator is
    summarized without holding its records; only each pair's metric values
    are kept, for the means.
    """
    for name in group_by:
        if name not in GROUPABLE_FIELDS:
            raise ConfigError("group_by", f"unknown column {name!r}")
    metric_field = None
    # insertion-ordered: projections by first appearance, groups by first record
    projections: dict[str, None] = {}
    groups: dict[tuple, dict[tuple, dict[str, float | None]]] = {}
    failed_by_group: dict[tuple, int] = {}
    for record in records:
        gkey = tuple(getattr(record, f) for f in group_by)
        value = None
        if record.ok:
            this = _record_metric_field(record)
            if metric_field is None:
                metric_field = this
            elif this not in (None, metric_field):
                raise ConfigError(
                    "records",
                    f"records mix metrics {metric_field} and {this}; summarize one mode at a time",
                )
            value = getattr(record, this) if this else None
        else:
            failed_by_group[gkey] = failed_by_group.get(gkey, 0) + 1
        projections[record.projection] = None
        identity = tuple(getattr(record, f) for f in _IDENTITY_FIELDS)
        groups.setdefault(gkey, {}).setdefault(identity, {})[record.projection] = value
    if baseline not in projections:
        raise ConfigError("baseline", f"projection {baseline!r} absent from records")

    columns = list(group_by) + ["n_pairs", "n_failed", f"mean_{baseline}"]
    others = [name for name in projections if name != baseline]
    for name in others:
        columns += [f"mean_{name}", f"regret_{name}", f"freq_positive_{name}"]

    rows = []
    for gkey in sorted(groups, key=lambda k: tuple(_sort_key(v) for v in k)):
        pairs = groups[gkey].values()
        row: list = [*gkey, len(pairs), failed_by_group.get(gkey, 0)]
        base_values = [pair[baseline] for pair in pairs if pair.get(baseline) is not None]
        row.append(float(np.mean(base_values)) if base_values else "")
        for name in others:
            values = [pair[name] for pair in pairs if pair.get(name) is not None]
            regrets = [
                pair[name] - pair[baseline]
                for pair in pairs
                if pair.get(name) is not None and pair.get(baseline) is not None
            ]
            row.append(float(np.mean(values)) if values else "")
            row.append(float(np.mean(regrets)) if regrets else "")
            row.append(float(np.mean([r > 0 for r in regrets])) if regrets else "")
        rows.append(row)
    return SummaryTable(columns=columns, rows=rows)
