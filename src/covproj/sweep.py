"""Quasi-exhaustive enumeration engine over covariance-pair families.

A sweep expands a parameter grid into cells (one per combination of ambient
dimension p, embedding dimension q, and family parameters), generates
``n_simu`` covariance pairs per cell, builds the requested projections for
each pair, and evaluates one metric mode:

* ``overlap``             closed-form embedded overlap per projection;
* ``risk_mc``             Monte Carlo Bayes risk in the embedding;
* ``oos_loss``            0-1 loss of a trained embedded classifier on a
                          held-out split of sampled Gaussian data;
* ``finite_sample_curve`` 0-1 loss and covariance reconstruction error as a
                          function of the per-class sample size, with both
                          parameter-oracle and empirical projections.

Randomness is keyed on (master seed, cell index, replicate, context) and BLAS
runs on one thread (``covproj.blas``), so results are identical for any
worker count, across runs and across hosts with the same BLAS build. Records
stream to a CSV sink with resume-from-checkpoint at cell granularity; rows
are written in cell order, which makes the file byte-stable. The per-record
``ms`` column is 0 unless timing capture is enabled, because wall times
would break that byte stability; aggregate timing lives in the run manifest
instead. The columns of ``records.csv`` are the fields of ``SweepRecord``, in
order.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .blas import single_thread
from .classify import fit_embedded_qda, mc_bayes_risk, oos_error, reconstruction_error
from .core import (
    ConfigError,
    CovProjError,
    EmptyGridError,
    MixedModesError,
    RngStream,
    SpdMatrix,
    TwoClassGaussian,
    derive_stream,
)
from .datasets import load_dataset
from .generators import (
    LatentConfig,
    column_overlap,
    empirical_cov_pair,
    gen_iw_pair,
    gen_latent_pair,
    pca_adversarial_pair,
    pca_favorable_pair,
    sample_two_class,
)
from .metrics import embedded_overlap
from .projections import PROJECTIONS, build_projection, empirical_covariances

FAMILIES = ("inverse_wishart", "latent_low_dim", "empirical_cov", "example1", "example2")
MODES = ("overlap", "risk_mc", "oos_loss", "finite_sample_curve")
# "empirical_<name>" is projection <name> fitted to the training split
EMPIRICAL = "empirical_"
DATA_MODES = ("oos_loss", "finite_sample_curve")

# path categories under the (cell index, replicate) stream
_CTX_PAIR, _CTX_PROJ, _CTX_DATA, _CTX_SPLIT, _CTX_MC = 0, 1, 2, 3, 4


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    """Full description of one sweep; see module docstring for the modes."""

    family: str
    p_grid: tuple[int, ...]
    q_grid: tuple[int, ...]
    mode: str = "overlap"
    projections: tuple[str, ...] = ("pca", "rp", "sparse_rp")
    n_simu: int = 1
    master_seed: int = 0
    n_workers: int = 1
    # inverse Wishart family: degrees of freedom as multiples of p
    df1_over_p: tuple[float, ...] = (1.0,)
    df2_over_p: tuple[float, ...] = (1.0,)
    # latent low-dimension family
    share_modes: tuple[str, ...] = ("none",)
    q_densities: tuple[str, ...] = ("dense",)
    sparse_q_density: float = 0.1
    # empirical covariance family
    gamma_grid: tuple[float, ...] = (0.0,)
    dataset: str | None = None
    label_column: str | None = None
    # fixture families
    alpha: float = 4.0
    delta: float = 1.0
    # per-mode knobs
    train_frac: float = 0.7
    mc_samples: int = 20000
    ridge: float = 1e-6
    n_per_class: int = 100
    sample_grid: tuple[int, ...] = (20, 40, 80, 160, 320)
    record_timings: bool = False

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise ConfigError("family", f"must be one of {FAMILIES}, got {self.family!r}")
        if self.mode not in MODES:
            raise ConfigError("mode", f"must be one of {MODES}, got {self.mode!r}")
        if not self.p_grid or any(p < 1 for p in self.p_grid):
            raise ConfigError("p", "need at least one positive ambient dimension")
        if not self.q_grid or any(q < 1 for q in self.q_grid):
            raise ConfigError("q", "need at least one positive embedding dimension")
        if self.n_simu < 1:
            raise ConfigError("n_simu", "must be at least 1")
        if self.n_workers < 1:
            raise ConfigError("workers", "must be at least 1")
        if not self.projections:
            raise ConfigError("projections", "need at least one projection")
        for name in self.projections:
            if name.removeprefix(EMPIRICAL) not in PROJECTIONS:
                raise ConfigError("projections", f"unknown projection {name!r}")
            if name.startswith(EMPIRICAL) and self.mode not in DATA_MODES:
                raise ConfigError(
                    "projections",
                    f"{name!r} needs sampled data; valid only in modes {DATA_MODES}",
                )
        if self.family == "inverse_wishart":
            for key, grid in (("df1_over_p", self.df1_over_p), ("df2_over_p", self.df2_over_p)):
                if not grid or not all(1.0 <= m < math.inf for m in grid):
                    raise ConfigError(key, "df/p multiples must all be finite and >= 1")
        if self.family == "latent_low_dim":
            for mode in self.share_modes:
                if mode not in ("none", "q", "theta"):
                    raise ConfigError("share", f"must be none, q or theta, got {mode!r}")
            for dens in self.q_densities:
                if dens not in ("dense", "sparse"):
                    raise ConfigError("q_density", f"must be dense or sparse, got {dens!r}")
            if not 0.0 < self.sparse_q_density <= 1.0:
                raise ConfigError("sparse_q_density", "must lie in (0, 1]")
        if self.family == "empirical_cov":
            if any(not 0.0 <= g <= 1.0 for g in self.gamma_grid):
                raise ConfigError("gamma", "overlap fractions must lie in [0, 1]")
        if self.family in ("example1", "example2") and not 0 < self.delta < self.alpha < math.inf:
            raise ConfigError("alpha/delta", "need 0 < delta < alpha < inf")
        if not 0.0 < self.train_frac < 1.0:
            raise ConfigError("train_frac", "must lie strictly between 0 and 1")
        if self.mc_samples < 1:
            raise ConfigError("mc_samples", "must be at least 1")
        if not 0 <= self.ridge < math.inf:
            raise ConfigError("ridge", "must be finite and non-negative")
        if self.n_per_class < 2:
            raise ConfigError("n_per_class", "need at least 2 observations per class")
        if self.mode == "finite_sample_curve":
            if not self.sample_grid or any(n < 2 for n in self.sample_grid):
                raise ConfigError("sample_grid", "per-class sizes must all be >= 2")
        if self.master_seed < 0:
            raise ConfigError("seed", "must be non-negative")

    def to_mapping(self) -> dict[str, str]:
        """Flat key=value echo of every field, suitable for a manifest."""
        return {key: fmt(getattr(self, name)) for key, name, (_, fmt) in _FIELDS}


def _scalar(parse, fmt=_fmt):
    """(parse, format) pair of a single value."""

    def read(key: str, text: str):
        try:
            return parse(text.strip())
        except ValueError:
            raise ConfigError(key, f"cannot parse value {text!r}")

    return read, fmt


def _listed(parse, fmt=_fmt):
    """(parse, format) pair of a comma-separated list."""

    def read(key: str, text: str):
        items = [tok.strip() for tok in text.split(",") if tok.strip() != ""]
        try:
            return tuple(parse(tok) for tok in items)
        except ValueError:
            raise ConfigError(key, f"cannot parse list value {text!r}")

    return read, lambda xs: ",".join(fmt(x) for x in xs)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _boolean(text: str) -> bool:
    word = text.lower()
    if word in ("1", "true", "yes"):
        return True
    if word in ("0", "false", "no"):
        return False
    raise ValueError(text)


_STR = _scalar(str, str)
_OPTIONAL = _scalar(lambda v: v or None, lambda v: v or "")
_INT = _scalar(int, str)
_FLOAT = _scalar(_finite)
_INTS = _listed(int)
_FLOATS = _listed(_finite)
_STRS = _listed(str, str)

# (config key, SweepConfig field, kind): the one spelling of every field in
# config files and in the manifest echo
_FIELDS = (
    ("family", "family", _STR),
    ("mode", "mode", _STR),
    ("p", "p_grid", _INTS),
    ("q", "q_grid", _INTS),
    ("projections", "projections", _STRS),
    ("n_simu", "n_simu", _INT),
    ("seed", "master_seed", _INT),
    ("workers", "n_workers", _INT),
    ("df1_over_p", "df1_over_p", _FLOATS),
    ("df2_over_p", "df2_over_p", _FLOATS),
    ("share", "share_modes", _STRS),
    ("q_density", "q_densities", _STRS),
    ("sparse_q_density", "sparse_q_density", _FLOAT),
    ("gamma", "gamma_grid", _FLOATS),
    ("dataset", "dataset", _OPTIONAL),
    ("label_column", "label_column", _OPTIONAL),
    ("alpha", "alpha", _FLOAT),
    ("delta", "delta", _FLOAT),
    ("train_frac", "train_frac", _FLOAT),
    ("mc_samples", "mc_samples", _INT),
    ("ridge", "ridge", _FLOAT),
    ("n_per_class", "n_per_class", _INT),
    ("sample_grid", "sample_grid", _INTS),
    ("record_timings", "record_timings", _scalar(_boolean)),
)


def config_from_mapping(mapping: dict[str, str]) -> SweepConfig:
    """Build a config from flat string key=value pairs, validating each field."""
    if "family" not in mapping:
        raise ConfigError("family", "missing required key")
    known = {key: (name, read) for key, name, (read, _) in _FIELDS}
    kwargs = {}
    for key, value in mapping.items():
        if key not in known:
            raise ConfigError(key, "unknown configuration key")
        name, read = known[key]
        kwargs[name] = read(key, value)
    config = SweepConfig(**kwargs)
    config.validate()
    return config


def parse_config_file(path: str | Path) -> SweepConfig:
    """Read a key=value config file, or a run manifest (JSON) echoing one."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}")
    stripped = text.lstrip()
    if stripped.startswith("{"):
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
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}", f"expected key = value, got {line!r}")
        key, value = body.split("=", 1)
        mapping[key.strip()] = value.strip()
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
        return [(s, d) for s in config.share_modes for d in config.q_densities]
    if config.family == "empirical_cov":
        return [(g,) for g in config.gamma_grid]
    return [(config.alpha, config.delta)]


def expand_grid(config: SweepConfig) -> list[Cell]:
    """All grid cells in canonical order; combinations with q >= p are dropped
    (the embedding must strictly reduce the dimension)."""
    config.validate()
    combos = _family_param_combos(config)
    cells: list[Cell] = []
    for p in config.p_grid:
        for q in config.q_grid:
            if q >= p:
                continue
            if config.family == "example2" and 2 * q > p:
                continue
            for params in combos:
                cells.append(Cell(len(cells), p, q, params))
    if not cells:
        raise EmptyGridError("grid expansion produced no cells")
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


# (parse, format) of each record field type; a missing metric is an empty cell
_CODECS = {
    "str": (str, str),
    "int": (int, str),
    "float | None": (lambda tok: float(tok) if tok else None, _fmt),
}
_COLUMNS = tuple((f.name, _CODECS[f.type]) for f in fields(SweepRecord))
CSV_HEADER = ",".join(name for name, _ in _COLUMNS)


def read_records_csv(path: str | Path) -> list[SweepRecord]:
    """Parse a records file; a malformed row raises ``ConfigError`` naming its line."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError("records", f"cannot read {path}: {exc}")
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError("records", f"{path} does not carry the sweep record header")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
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
        records.append(SweepRecord(**values))
    return records


# ---------------------------------------------------------------------------
# Cell evaluation
# ---------------------------------------------------------------------------


def _param_strings(config: SweepConfig, cell: Cell, n_pc: int | None) -> tuple[str, str, str]:
    third = str(n_pc) if n_pc is not None else ""
    if config.family == "empirical_cov":
        return _fmt(cell.params[0]), "", third
    if config.family == "latent_low_dim":
        return str(cell.params[0]), str(cell.params[1]), third
    return _fmt(cell.params[0]), _fmt(cell.params[1]), third


def _generate_pair(
    config: SweepConfig, cell: Cell, stream: RngStream, source
) -> tuple[SpdMatrix, SpdMatrix]:
    if config.family == "inverse_wishart":
        d1, d2 = cell.params
        return gen_iw_pair(cell.p, d1 * cell.p, d2 * cell.p, stream)
    if config.family == "latent_low_dim":
        share, density = cell.params
        latent = LatentConfig(
            share_q=share == "q",
            share_theta=share == "theta",
            sparse_q=density == "sparse",
            sparse_density=config.sparse_q_density,
        )
        return gen_latent_pair(cell.p, latent, stream)
    if config.family == "empirical_cov":
        x_1, x_2 = source
        gamma = cell.params[0]
        cols = stream.child(0).generator().permutation(x_1.shape[1])[: cell.p]
        x_1_tilde, x_2_tilde = column_overlap(
            x_1[:, cols], x_2[:, cols], gamma, stream.child(1)
        )
        return empirical_cov_pair(x_1_tilde, x_2_tilde)
    if config.family == "example1":
        return pca_favorable_pair(cell.p, cell.q, config.alpha, config.delta)
    return pca_adversarial_pair(cell.p, cell.q, config.alpha, config.delta)


def _point_records(config, cell, rep, n_pc, status="ok") -> list[SweepRecord]:
    """The records of one (cell, replicate, point), one per projection."""
    p1, p2, p3 = _param_strings(config, cell, n_pc)
    return [
        SweepRecord(
            family=config.family,
            p=cell.p,
            q=cell.q,
            param1=p1,
            param2=p2,
            param3=p3,
            replicate=rep,
            projection=name,
            status=status,
        )
        for name in config.projections
    ]


def _failed(exc: CovProjError) -> str:
    return f"failed:{type(exc).__name__}"


def _eval_point(
    config: SweepConfig, cell: Cell, rep: int, base: RngStream, idx: int, n_pc: int | None, source
) -> list[SweepRecord]:
    train = val = est = None
    try:
        cov_1, cov_2 = _generate_pair(config, cell, base.child(_CTX_PAIR, idx), source)
        model = TwoClassGaussian.zero_mean(cov_1, cov_2)
        if config.mode in DATA_MODES:
            per_class = n_pc if n_pc is not None else config.n_per_class
            data = sample_two_class(model, per_class, per_class, base.child(_CTX_DATA, idx))
            train, val = data.split(config.train_frac, base.child(_CTX_SPLIT, idx))
            est = empirical_covariances(train)
    except CovProjError as exc:
        return _point_records(config, cell, rep, n_pc, _failed(exc))
    records = _point_records(config, cell, rep, n_pc)
    for j, record in enumerate(records):
        started = time.perf_counter()
        try:
            stream = base.child(_CTX_PROJ, idx, j)
            base_name = record.projection.removeprefix(EMPIRICAL)
            if base_name == record.projection:
                w = build_projection(base_name, cell.q, cov_1, cov_2, stream, config.ridge)
            else:
                w = build_projection(
                    base_name, cell.q, est.cov_1, est.cov_2, stream, config.ridge, train.X
                )
            if config.mode == "overlap":
                record.metric_overlap = embedded_overlap(model, w)
            elif config.mode == "risk_mc":
                risk = mc_bayes_risk(model, w, config.mc_samples, base.child(_CTX_MC, idx, j))
                record.metric_mc = risk.estimate
                record.metric_mc_se = risk.std_error
            else:
                qda = fit_embedded_qda(est, w, ridge=config.ridge)
                record.metric_oos = oos_error(qda, val)
                if config.mode == "finite_sample_curve":
                    record.metric_recon = reconstruction_error(
                        w, est.cov_1, est.cov_2, cov_1, cov_2
                    )
        except CovProjError as exc:
            record.status = _failed(exc)
        if config.record_timings:
            record.ms = int(round((time.perf_counter() - started) * 1000))
    return records


def _eval_cell(config: SweepConfig, cell: Cell, source) -> list[SweepRecord]:
    records = []
    for rep in range(config.n_simu):
        base = derive_stream(config.master_seed, (cell.index, rep))
        if config.mode == "finite_sample_curve":
            for idx, n_pc in enumerate(config.sample_grid):
                records.extend(_eval_point(config, cell, rep, base, idx, n_pc, source))
        else:
            records.extend(_eval_point(config, cell, rep, base, 0, None, source))
    return records


def rows_per_cell(config: SweepConfig) -> int:
    points = len(config.sample_grid) if config.mode == "finite_sample_curve" else 1
    return config.n_simu * points * len(config.projections)


# ---------------------------------------------------------------------------
# Sink, checkpoint, manifest
# ---------------------------------------------------------------------------


class CsvSink:
    """Cell-ordered append sink with a completed-cell checkpoint.

    Rows are appended strictly in cell-index order and the checkpoint lists
    every fully written cell, so an interrupted run resumes by truncating any
    un-checkpointed trailing rows and continuing with the next cell. Nothing
    is written before ``open``, so a resume can be checked against the rows
    already on disk first.
    """

    def __init__(self, records_path: Path, checkpoint_path: Path, expected_rows: int):
        self.records_path = Path(records_path)
        self.checkpoint_path = Path(checkpoint_path)
        self.expected_rows = expected_rows
        self.completed, self._torn = self._load_checkpoint()
        self._lines = self._load_records()

    def _load_checkpoint(self) -> tuple[list[int], bool]:
        if not self.checkpoint_path.exists():
            return [], False
        text = self.checkpoint_path.read_text()
        # a last line without its newline is a write cut short by a kill
        done = [int(ln) for ln in text.split("\n")[:-1] if ln.strip()]
        if done != list(range(len(done))):
            raise ConfigError(
                "checkpoint", f"{self.checkpoint_path} is not a contiguous cell prefix"
            )
        return done, not text.endswith("\n")

    def _load_records(self) -> list[str] | None:
        if not self.completed or not self.records_path.exists():
            return None
        lines = self.records_path.read_text(encoding="utf-8").splitlines()
        if len(lines) < 1 + len(self.completed) * self.expected_rows or lines[0] != CSV_HEADER:
            raise ConfigError(
                "records", f"{self.records_path} inconsistent with its checkpoint"
            )
        return lines

    def cell_rows(self, cell_index: int) -> list[str]:
        """The rows a checkpointed cell left in the records file (before ``open``)."""
        start = 1 + cell_index * self.expected_rows
        return self._lines[start : start + self.expected_rows]

    def open(self):
        """Start fresh files, or trim them to the checkpointed cells."""
        if self._lines is None:
            self.records_path.write_text(CSV_HEADER + "\n", encoding="utf-8", newline="")
            self.completed = []
            if self.checkpoint_path.exists():
                self.checkpoint_path.unlink()
            return
        keep = 1 + len(self.completed) * self.expected_rows
        if len(self._lines) > keep:
            self.records_path.write_text(
                "\n".join(self._lines[:keep]) + "\n", encoding="utf-8", newline=""
            )
        if self._torn:
            self.checkpoint_path.write_text(
                "".join(f"{i}\n" for i in self.completed), encoding="utf-8", newline=""
            )
        self._lines = None

    def write_cell(self, cell_index: int, rows: list[str]):
        with open(self.records_path, "a", encoding="utf-8", newline="") as fh:
            fh.write("".join(row + "\n" for row in rows))
        with open(self.checkpoint_path, "a", encoding="utf-8", newline="") as fh:
            fh.write(f"{cell_index}\n")
        self.completed.append(cell_index)


def _write_manifest(path: Path, config: SweepConfig, payload_extra: dict):
    payload = {
        "artifact": "covproj",
        "version": __version__,
        "master_seed": config.master_seed,
        "config": config.to_mapping(),
    }
    payload.update(payload_extra)
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _load_source(config: SweepConfig):
    if config.family != "empirical_cov":
        return None
    if not config.dataset:
        raise ConfigError("dataset", "the empirical family requires a dataset path")
    if not config.label_column:
        raise ConfigError("label_column", "the empirical family requires a label column")
    data, _ = load_dataset(config.dataset, config.label_column)
    x_1, x_2 = data.class_rows(1), data.class_rows(2)
    if max(config.p_grid) > x_1.shape[1]:
        raise ConfigError(
            "p", f"dataset has {x_1.shape[1]} feature columns, cannot subsample "
            f"p={max(config.p_grid)}"
        )
    return x_1, x_2


def _check_resume(config: SweepConfig, cells: list[Cell], source, sink: CsvSink, out_dir: Path):
    """Refuse to extend a partial run that another configuration wrote.

    The manifest's configuration echo decides when it exists. Without it, the
    last checkpointed cell is recomputed and must reproduce the file's rows in
    every column but ``ms``.
    """
    if not sink.completed:
        return
    manifest_path = out_dir / "manifest.json"
    if manifest_path.exists():
        same = json.loads(manifest_path.read_text()).get("config") == config.to_mapping()
        why = "a different configuration"
    else:
        last = sink.completed[-1]
        fresh = _eval_cell(config, cells[last], source) if last < len(cells) else []
        without_ms = lambda row: row.rsplit(",", 1)[0]
        same = [without_ms(r.to_csv_row()) for r in fresh] == [
            without_ms(row) for row in sink.cell_rows(last)
        ]
        why = (
            f"no manifest, and cell {last} does not reproduce its rows (a different "
            "configuration or BLAS build)"
        )
    if not same:
        raise ConfigError(
            "config",
            f"{out_dir} holds a partial run with {why}; use a fresh output directory",
        )


def run_sweep(config: SweepConfig, out_dir: str | Path | None = None) -> list[SweepRecord]:
    """Run every cell of the sweep; optionally stream records to ``out_dir``.

    With an output directory, writes ``records.csv``, ``checkpoint.txt`` and
    ``manifest.json`` there, resuming from the checkpoint when present, and
    returns the records computed by this call (already-checkpointed cells are
    skipped). Without one, returns all records in memory.

    The whole run uses one BLAS thread (see ``covproj.blas``); the worker
    pool is its only parallelism, and the caller's BLAS thread counts are
    restored when it returns or raises.
    """
    with single_thread() as blas:
        return _run_sweep(config, out_dir, blas)


def _run_sweep(
    config: SweepConfig, out_dir: str | Path | None, blas: list[dict] | str
) -> list[SweepRecord]:
    cells = expand_grid(config)
    source = _load_source(config)
    started = datetime.now(timezone.utc).isoformat()
    t_start = time.perf_counter()

    sink = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        sink = CsvSink(
            out_dir / "records.csv", out_dir / "checkpoint.txt", rows_per_cell(config)
        )
        _check_resume(config, cells, source, sink, out_dir)
        sink.open()
        run_info = {
            "records_csv": str(out_dir / "records.csv"),
            "checkpoint": str(out_dir / "checkpoint.txt"),
            "n_cells": len(cells),
            "rows_per_cell": rows_per_cell(config),
            "started_at": started,
            "blas": blas,
        }
        _write_manifest(out_dir / "manifest.json", config, {**run_info, "status": "running"})

    done = set(sink.completed) if sink else set()
    todo = [cell for cell in cells if cell.index not in done]
    collected: list[SweepRecord] = []

    def consume(cell: Cell, records: list[SweepRecord]):
        if sink:
            sink.write_cell(cell.index, [r.to_csv_row() for r in records])
        collected.extend(records)

    if config.n_workers > 1 and len(todo) > 1:
        with ThreadPoolExecutor(max_workers=config.n_workers) as pool:
            futures = [(cell, pool.submit(_eval_cell, config, cell, source)) for cell in todo]
            for cell, future in futures:
                consume(cell, future.result())
    else:
        for cell in todo:
            consume(cell, _eval_cell(config, cell, source))

    if sink:
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
    return collected


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
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
        return "\n".join(lines) + "\n"

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
    records: list[SweepRecord], group_by: list[str], baseline: str
) -> SummaryTable:
    """Per-group projection means, regrets against a baseline, and sign rates.

    The regret of projection W in a group is the average over matched
    (cell, replicate) pairs of metric(W) - metric(baseline); positive regret
    means W did worse than the baseline, and exact ties count as
    not-positive. Failed records are excluded from every average but counted
    in the ``n_failed`` column, so silent exclusion cannot bias sign rates
    unnoticed.
    """
    for name in group_by:
        if name not in GROUPABLE_FIELDS:
            raise ConfigError("group_by", f"unknown column {name!r}")
    metric_field = None
    for record in records:
        if not record.ok:
            continue
        this = _record_metric_field(record)
        if this is None:
            continue
        if metric_field is None:
            metric_field = this
        elif metric_field != this:
            raise MixedModesError(
                f"records mix metrics {metric_field} and {this}; summarize one mode at a time"
            )
    projections: list[str] = []
    for record in records:
        if record.projection not in projections:
            projections.append(record.projection)
    if baseline not in projections:
        raise ConfigError("baseline", f"projection {baseline!r} absent from records")

    pairs: dict[tuple, dict[str, float | None]] = {}
    failed_by_group: dict[tuple, int] = {}
    group_of_pair: dict[tuple, tuple] = {}
    for record in records:
        identity = tuple(getattr(record, f) for f in _IDENTITY_FIELDS)
        gkey = tuple(getattr(record, f) for f in group_by)
        group_of_pair[identity] = gkey
        value = getattr(record, metric_field) if (record.ok and metric_field) else None
        pairs.setdefault(identity, {})[record.projection] = value
        if not record.ok:
            failed_by_group[gkey] = failed_by_group.get(gkey, 0) + 1

    by_group: dict[tuple, dict] = {}
    for identity, proj_values in pairs.items():
        gkey = group_of_pair[identity]
        acc = by_group.setdefault(
            gkey,
            {
                "n_pairs": 0,
                "values": {name: [] for name in projections},
                "regrets": {name: [] for name in projections},
            },
        )
        acc["n_pairs"] += 1
        base_value = proj_values.get(baseline)
        for name in projections:
            value = proj_values.get(name)
            if value is not None:
                acc["values"][name].append(value)
                if base_value is not None:
                    acc["regrets"][name].append(value - base_value)

    columns = list(group_by) + ["n_pairs", "n_failed", f"mean_{baseline}"]
    others = [name for name in projections if name != baseline]
    for name in others:
        columns += [f"mean_{name}", f"regret_{name}", f"freq_positive_{name}"]

    rows = []
    for gkey in sorted(by_group, key=lambda k: tuple(_sort_key(v) for v in k)):
        acc = by_group[gkey]
        row: list = list(gkey)
        row.append(acc["n_pairs"])
        row.append(failed_by_group.get(gkey, 0))
        base_values = acc["values"][baseline]
        row.append(float(np.mean(base_values)) if base_values else "")
        for name in others:
            values = acc["values"][name]
            regrets = acc["regrets"][name]
            row.append(float(np.mean(values)) if values else "")
            row.append(float(np.mean(regrets)) if regrets else "")
            row.append(float(np.mean([r > 0 for r in regrets])) if regrets else "")
        rows.append(row)
    return SummaryTable(columns=columns, rows=rows)
