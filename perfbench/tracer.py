"""Outside-in layer tracer for the sweep benchmark.

``Tracer.install`` runs inside the sweep process, after ``covproj`` is
imported and before the sweep starts. It wraps each layer's public entry
points and rebinds every ``covproj`` module attribute that refers to the
same object, because the modules import one another's functions by name
(``covproj.sweep.gen_iw_pair``, each module's ``make_spd``). Nothing under
``src/`` is edited.

A span is (id, parent id, cell index, name, tag, start, end, self seconds).
Self time is the span's duration minus the durations of the traced spans
directly inside it, so nested ``make_spd`` calls are not counted twice.
Spans stay in memory until the sweep ends; the launcher writes them out.
``layer_metrics`` turns the spans of one traced run into per-layer numbers.
"""

from __future__ import annotations

import importlib
import itertools
import os
import sys
import threading
import time
from collections import Counter


def _arg(args, kwargs, index, name, default):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _make_spd_tag(args, kwargs):
    return "strict" if _arg(args, kwargs, 1, "strict", False) else "psd"


def _ridge_tag(args, kwargs):
    return "ridge" if _arg(args, kwargs, 3, "ridge", 0.0) > 0 else "plain"


def _samples_tag(args, kwargs):
    return int(_arg(args, kwargs, 2, "n_samples", 0))


def _bytes_tag(args, kwargs):
    return os.path.getsize(_arg(args, kwargs, 0, "path", ""))


# (module, attribute, span name, tag function); methods are "Class.method".
TARGETS = (
    ("covproj.core", "make_spd", "core.make_spd", _make_spd_tag),
    ("covproj.core", "RngStream.generator", "core.rng", None),
    ("covproj.core", "ProjectionMatrix.__post_init__", "core.projection_matrix", None),
    ("covproj.generators", "gen_iw_pair", "generators.pair", None),
    ("covproj.generators", "gen_latent_pair", "generators.pair", None),
    ("covproj.generators", "column_overlap", "generators.pair", None),
    ("covproj.generators", "empirical_cov_pair", "generators.pair", None),
    ("covproj.generators", "sample_two_class", "generators.sample", None),
    ("covproj.projections", "pca_projection", "projections.pca", None),
    ("covproj.projections", "optimal_projection_auto_ridge", "projections.optimal", None),
    (
        "covproj.projections",
        "bhattacharyya_optimal_projection",
        "projections.optimal.attempt",
        _ridge_tag,
    ),
    ("covproj.projections", "random_projection", "projections.random", None),
    ("covproj.projections", "sparse_random_projection", "projections.random", None),
    ("covproj.projections", "empirical_covariances", "projections.estimates", None),
    ("covproj.projections", "mixture_covariance", "projections.estimates", None),
    ("covproj.metrics", "embedded_overlap", "metrics.overlap", None),
    ("covproj.classify", "fit_embedded_qda", "classify.qda_fit", None),
    ("covproj.classify", "oos_error", "classify.predict", None),
    ("covproj.classify", "reconstruction_error", "classify.recon", None),
    ("covproj.classify", "mc_bayes_risk", "classify.mc", _samples_tag),
    ("covproj.datasets", "load_dataset", "datasets.load", _bytes_tag),
    ("covproj.sweep", "_eval_cell", "sweep.cell", None),
    ("covproj.sweep", "CsvSink.write_cell", "sweep.sink", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _frames(self) -> list:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def wrap(self, name, fn, tag=None):
        """Return ``fn`` recording one span per call; an exception's type
        name replaces the tag."""

        def traced(*args, **kwargs):
            frames = self._frames()
            parent = frames[-1] if frames else None
            label = tag(args, kwargs) if tag else None
            if name == "sweep.cell":
                cell = args[1].index
            else:
                cell = parent[1] if parent else None
            frame = [next(self._ids), cell, 0.0]
            frames.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                label = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                frames.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                self.spans.append(
                    (
                        frame[0],
                        parent[0] if parent else None,
                        cell,
                        name,
                        label,
                        start,
                        end,
                        duration - frame[2],
                    )
                )

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [
            m
            for key, m in list(sys.modules.items())
            if key == "covproj" or key.startswith("covproj.")
        ]
        for module_name, attr, name, tag in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name, None)
                original = cls.__dict__.get(method) if cls is not None else None
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                setattr(cls, method, self.wrap(name, original, tag))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(name, original, tag)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)


# ---------------------------------------------------------------------------
# Parent side: spans of one traced run -> per-layer metrics
# ---------------------------------------------------------------------------

BUSY_LAYERS = (
    "core.make_spd",
    "core.rng",
    "core.projection_matrix",
    "generators.pair",
    "generators.sample",
    "projections.pca",
    "projections.optimal",
    "projections.random",
    "projections.estimates",
    "metrics.overlap",
    "classify.qda_fit",
    "classify.predict",
    "classify.recon",
    "classify.mc",
    "datasets.load",
    "sweep.sink",
)

MIB = float(1 << 20)


def _percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def call_counts(spans: list) -> dict[str, int]:
    """Calls per (span name, tag); these must repeat exactly across runs."""
    counts = Counter(f"{s[3]}|{s[4]}" for s in spans)
    return dict(sorted(counts.items()))


def layer_metrics(spans: list, rows: int, workers: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as name -> (value, unit)."""
    names = {s[0]: s[3] for s in spans}

    def select(name):
        return [s for s in spans if s[3] == name]

    def busy(layer):
        return sum(s[7] for s in spans if s[3] == layer or s[3].startswith(layer + "."))

    out: dict[str, tuple[float, str]] = {}
    for layer in BUSY_LAYERS:
        out[f"{layer}.busy_s"] = (busy(layer), "s")

    spd = select("core.make_spd")
    out["core.make_spd.calls_per_row"] = (_ratio(len(spd), rows), "1/row")
    out["core.make_spd.psd_eig_share"] = (
        _ratio(sum(1 for s in spd if s[4] == "psd"), len(spd)),
        "ratio",
    )
    out["core.rng.generator_calls_per_row"] = (_ratio(len(select("core.rng")), rows), "1/row")

    attempts = select("projections.optimal.attempt")
    out["projections.optimal.ridge_share"] = (
        _ratio(sum(1 for s in attempts if s[4] == "ridge"), len(select("projections.optimal"))),
        "ratio",
    )
    draws = [
        s
        for s in select("core.projection_matrix")
        if names.get(s[1]) == "projections.random"
    ]
    out["projections.random.redraw_share"] = (
        _ratio(sum(1 for s in draws if s[4] == "RankDeficientError"), len(draws)),
        "ratio",
    )

    samples = sum(s[4] for s in select("classify.mc") if isinstance(s[4], int))
    out["classify.mc.samples_per_s"] = (_ratio(samples, busy("classify.mc")), "1/s")
    loaded = sum(s[4] for s in select("datasets.load") if isinstance(s[4], int))
    out["datasets.load.mb_per_s"] = (_ratio(loaded / MIB, busy("datasets.load")), "MB/s")

    cells = select("sweep.cell")
    durations = [s[6] - s[5] for s in cells]
    out["sweep.cell_s.p50"] = (_percentile(durations, 50), "s")
    out["sweep.cell_s.p90"] = (_percentile(durations, 90), "s")
    window = (max(s[6] for s in cells) - min(s[5] for s in cells)) if cells else 0.0
    out["sweep.pool_busy_frac"] = (_ratio(sum(durations), workers * window), "ratio")
    out["sweep.unattributed_s"] = (sum(s[7] for s in cells), "s")
    return out
