"""Sweep benchmark for covproj.

Run from the repository root:

    python3 perfbench/run.py --workload iw_overlap --seed 1 --seconds 25 --trace 0

Each timed sample is one fresh ``covproj sweep`` process (``PYTHONPATH=src``,
started through ``perfbench/launch.py``), run one after another until
``--seconds`` have passed and at least three have run. The benchmark leaves
the BLAS environment as it finds it and records it instead.

With ``--trace 0`` it reports the end-to-end metrics (medians over the
samples). With ``--trace 1`` it alternates untraced and traced sweeps and
reports the per-layer metrics of ``perfbench/tracer.py``. Every invocation
also checks the outputs:

* each sweep writes the expected number of rows and no ``failed:*`` status;
* every sweep of the invocation writes byte-identical records;
* a small probe grid at a fixed seed matches ``perfbench/reference/``
  within BLAS reduction-order tolerance (an exact-byte change is reported
  as ``records_changed``);
* ``latent_small_p`` also runs once, untimed, with two workers and must
  write the same bytes as with one;
* with tracing, the call counts repeat exactly across traced sweeps.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (rows) and ``metrics``. Details, the environment
record and every sample go to ``.perfbench_out/results/``.

``--write-reference`` reruns the probe of ``--workload`` and rewrites its
reference file; do that only together with a declared change of the
records.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import envinfo
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
REFERENCE = BENCH / "reference"
OUT = ROOT / ".perfbench_out"
WORK = OUT / "work"
RESULTS = OUT / "results"

REFERENCE_SEED = 20220411
MIN_SAMPLES = 3
MIN_TRACED = 2
CHILD_TIMEOUT_S = 150

# Tolerances for the reference comparison. Closed-form metrics may move in
# the last bits with the BLAS thread count (measured: up to 1.8e-13 relative);
# count-based metrics (MC risk, 0-1 loss) may move by one count when a point
# sits that close to the decision boundary. Values of ill-conditioned rows
# (see ``_ill_conditioned``) are not compared at all.
CLOSED_FORM_RTOL = 1e-9
COUNT_SLACK = 1.5

CSV_COLUMNS = (
    "family,p,q,param1,param2,param3,replicate,projection,metric_overlap,"
    "metric_oos,metric_mc,metric_mc_se,metric_recon,status,ms"
).split(",")


@dataclass
class Sample:
    """One sweep process."""

    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float | None
    rows: int
    failed_rows: int
    digest: str
    text: str
    spans: list = field(default_factory=list)
    missing: list = field(default_factory=list)


@dataclass
class Tally:
    """Rows attempted and failed, and the checks that failed."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, sample: Sample, expected: int, what: str) -> bool:
        self.attempted += expected
        if sample.code != 0:
            return self.fail(expected, f"{what}: exit code {sample.code}")
        if sample.rows != expected:
            return self.fail(expected, f"{what}: {sample.rows} rows, expected {expected}")
        if sample.failed_rows:
            self.failed += sample.failed_rows
            self.problems.append(f"{what}: {sample.failed_rows} failed:* rows")
            return False
        return True

    def fail(self, rows: int, problem: str) -> bool:
        self.failed += rows
        self.problems.append(problem)
        return False


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_sweep(config_path: Path, run_dir: Path, trace: bool) -> Sample:
    """Launch one sweep process and measure it from launch to exit."""
    run_dir.mkdir(parents=True)
    marks_path = run_dir / "marks.json"
    out_dir = run_dir / "sweep"
    cmd = [
        sys.executable,
        str(BENCH / "launch.py"),
        str(marks_path),
        "1" if trace else "0",
        "sweep",
        "--config",
        str(config_path),
        "--out",
        str(out_dir),
    ]
    with open(run_dir / "stdout.txt", "wb") as out, open(run_dir / "stderr.txt", "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.monotonic() - started
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    marks = {}
    if marks_path.exists():
        marks = json.loads(marks_path.read_text(encoding="utf-8"))
    records = out_dir / "records.csv"
    text = records.read_text(encoding="utf-8") if records.exists() else ""
    lines = text.splitlines()[1:]
    status_col = CSV_COLUMNS.index("status")
    failed = sum(1 for ln in lines if ln.split(",")[status_col] != "ok")
    if code != 0:
        sys.stderr.write((run_dir / "stderr.txt").read_text(errors="replace")[-2000:])
    sample = Sample(
        code=code,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        setup_s=marks["first_cell"] - started if "first_cell" in marks else None,
        rows=len(lines),
        failed_rows=failed,
        digest=hashlib.sha256(text.encode("utf-8")).hexdigest(),
        text=text,
        spans=marks.get("spans", []),
        missing=marks.get("missing", []),
    )
    shutil.rmtree(run_dir)
    return sample


def _close(a: str, b: str, tol_abs: float, tol_rel: float) -> bool:
    if a == b:
        return True
    if not a or not b:
        return False
    return math.isclose(float(a), float(b), rel_tol=tol_rel, abs_tol=tol_abs)


def _split_sizes(config: dict[str, str], row: dict[str, str]) -> tuple[int, int]:
    """Per-class (train, validation) sizes of a data-mode row, as
    ``LabeledDataset.split`` makes them."""
    n_pc = int(row["param3"] or config.get("n_per_class", "100"))
    frac = float(config.get("train_frac", "0.7"))
    k = min(max(int(round(frac * n_pc)), 1), n_pc - 1)
    return k, n_pc - k


def _ill_conditioned(config: dict[str, str], row: dict[str, str]) -> bool:
    """An empirical optimal projection fitted on rank-deficient covariances.

    With at most p training rows per class the estimate is singular and the
    projection comes from the ridge fallback, whose generalized eigenvectors
    are not determined to working precision: one BLAS thread instead of two
    moved such a row's recon error from 18.9 to 17.2.
    """
    if row["projection"] != "empirical_bhatt_optimal":
        return False
    return _split_sizes(config, row)[0] <= int(row["p"])


def compare_records(reference: str, got: str, config: dict[str, str]) -> list[str]:
    """Differences beyond tolerance between two records CSVs, one per row."""
    ref_lines, got_lines = reference.splitlines(), got.splitlines()
    if ref_lines[:1] != got_lines[:1]:
        return ["header differs"]
    if len(ref_lines) != len(got_lines):
        return [f"{len(got_lines) - 1} rows, reference has {len(ref_lines) - 1}"]
    mc_samples = int(config.get("mc_samples", "20000"))
    diffs = []
    for i, (ref_line, got_line) in enumerate(zip(ref_lines[1:], got_lines[1:]), start=1):
        ref = dict(zip(CSV_COLUMNS, ref_line.split(",")))
        row = dict(zip(CSV_COLUMNS, got_line.split(",")))
        identity = CSV_COLUMNS[: CSV_COLUMNS.index("metric_overlap")] + ["status"]
        if any(ref[c] != row[c] for c in identity):
            diffs.append(f"row {i}: identity or status differs")
            continue
        if _ill_conditioned(config, row):
            continue
        checks = {
            "metric_overlap": (0.0, CLOSED_FORM_RTOL),
            "metric_recon": (0.0, CLOSED_FORM_RTOL),
            "metric_mc": (COUNT_SLACK / mc_samples, 0.0),
            "metric_mc_se": (COUNT_SLACK / mc_samples, 0.0),
        }
        if ref["metric_oos"] or row["metric_oos"]:
            checks["metric_oos"] = (COUNT_SLACK / (2 * _split_sizes(config, row)[1]), 0.0)
        for col, (tol_abs, tol_rel) in checks.items():
            if not _close(ref[col], row[col], tol_abs, tol_rel):
                diffs.append(f"row {i}: {col} {row[col]} vs reference {ref[col]}")
    return diffs


def prepare_config(config: dict[str, str], seed: int, tag: str) -> tuple[Path, dict]:
    """Write the inputs of one sweep config (dataset first); returns the
    config path and the dataset's size and shape."""
    config = dict(config)
    info = {}
    if config["family"] == "empirical_cov":
        dataset = WORK / f"{tag}_two_class.csv"
        info = workloads.write_two_class_csv(dataset, seed)
        config["dataset"] = str(dataset)
    path = workloads.write_config(WORK / f"{tag}.cfg", config, seed)
    return path, info


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "median": q[1], "q1": q[0], "q3": q[2]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="covproj sweep benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a non-negative 63-bit integer")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "covproj" / "cli.py").is_file():
        print(f"error: no covproj sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    env = envinfo.environment()
    tally = Tally()
    runs = itertools.count()

    # Probe at the reference seed: the first sweep, so it also warms the
    # bytecode and file caches before anything is timed.
    probe_config = {**workload.config, **workload.probe}
    probe_path, _ = prepare_config(probe_config, REFERENCE_SEED, "probe")
    probe = run_sweep(probe_path, WORK / f"run{next(runs)}", trace=False)
    reference_file = REFERENCE / f"{workload.name}.csv"
    if args.write_reference:
        if probe.code != 0 or probe.failed_rows:
            print("error: probe sweep failed; reference not written", file=sys.stderr)
            return 1
        reference_file.write_text(probe.text, encoding="utf-8", newline="")
        print(f"wrote {reference_file} ({probe.rows} rows)")
        return 0
    records_changed = None
    if tally.add(probe, workloads.expected_rows(probe_config), "probe"):
        reference = reference_file.read_text(encoding="utf-8")
        diffs = compare_records(reference, probe.text, probe_config)
        if diffs:
            tally.fail(probe.rows, f"probe differs from reference: {diffs[:3]}")
        records_changed = probe.text != reference

    config_path, dataset_info = prepare_config(workload.config, args.seed, "sweep")
    expected = workloads.expected_rows(workload.config)
    first: dict[str, str] = {}  # digest of the first good sweep, and its name

    def measured(trace: bool, what: str) -> Sample:
        sample = run_sweep(config_path, WORK / f"run{next(runs)}", trace)
        if tally.add(sample, expected, what):
            first.setdefault("digest", sample.digest)
            first.setdefault("what", what)
            if sample.digest != first["digest"]:
                tally.fail(expected, f"{what}: records differ from {first['what']}")
        return sample

    invariance = None
    if workload.invariance_workers is not None:
        workers = workload.invariance_workers
        other = dict(workload.config, workers=str(workers))
        other_path = workloads.write_config(WORK / "invariance.cfg", other, args.seed)
        invariance = run_sweep(other_path, WORK / f"run{next(runs)}", trace=False)
        if tally.add(invariance, expected, f"workers={workers} run"):
            first.update(digest=invariance.digest, what=f"the workers={workers} run")

    plain: list[Sample] = []
    traced: list[Sample] = []
    started = time.monotonic()
    while True:
        plain.append(measured(False, f"sweep {len(plain) + 1}"))
        if args.trace:
            traced.append(measured(True, f"traced sweep {len(traced) + 1}"))
        enough = len(traced) >= MIN_TRACED if args.trace else len(plain) >= MIN_SAMPLES
        crashed = plain[-1].code != 0 or (traced and traced[-1].code != 0)
        if crashed or (enough and time.monotonic() - started >= args.seconds):
            break

    walls = [s.wall_s for s in plain]
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "config": workload.config,
        "rows_per_sweep": expected,
        "dataset": dataset_info,
        "records_sha256": first.get("digest"),
        "reference_seed": REFERENCE_SEED,
        "records_changed": records_changed,
        "invariance_wall_s": invariance.wall_s if invariance else None,
        "samples": [
            {k: getattr(s, k) for k in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s", "rows")}
            for s in plain
        ],
    }
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        counts = [tracer.call_counts(s.spans) for s in traced]
        if any(c != counts[0] for c in counts[1:]):
            tally.fail(expected, "call counts differ between traced sweeps")
        per_run = [
            tracer.layer_metrics(s.spans, s.rows, int(workload.config["workers"]))
            for s in traced
        ]
        for name, (_, unit) in per_run[0].items():
            metrics[name] = (statistics.median(m[name][0] for m in per_run), unit)
        metrics["trace.overhead_ratio"] = (
            statistics.median(s.wall_s for s in traced) / statistics.median(walls),
            "ratio",
        )
        detail["call_counts"] = counts[0]
        detail["untraced_targets"] = traced[0].missing
        detail["traced_wall_s"] = [s.wall_s for s in traced]
    else:
        if any(s.setup_s is None for s in plain):
            tally.fail(0, "a sweep did not mark its first cell")
        series = {
            "wall_s": (walls, "s"),
            "rows_per_s": ([s.rows / s.wall_s for s in plain], "rows/s"),
            "setup_s": ([s.setup_s or 0.0 for s in plain], "s"),
            "cpu_s": ([s.cpu_s for s in plain], "s"),
            "peak_rss_mb": ([s.peak_rss_mb for s in plain], "MB"),
        }
        metrics = {k: (statistics.median(v), unit) for k, (v, unit) in series.items()}
        detail["quartiles"] = {k: quartiles(v) for k, (v, _) in series.items()}
    failed_frac = tally.failed / tally.attempted
    result = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail.update(result, failed_frac=failed_frac, problems=tally.problems)
    result_path = RESULTS / f"{workload.name}_seed{args.seed}_trace{args.trace}.json"
    result_path.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(WORK, ignore_errors=True)

    blas = ", ".join(f"{b['bundle']}: {b['config']} threads={b['threads']}" for b in env["blas"])
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"sweeps {len(plain)} untraced, {len(traced)} traced  rows/sweep {expected}")
    print(f"host {env['host']}  nproc {env['nproc']}  {env['cpu_model']}  "
          f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}")
    print(f"blas {blas}  env {env['blas_env'] or 'unset'}  ({env['scaling_note']})")
    if dataset_info:
        print(f"dataset {dataset_info['rows']} x {dataset_info['columns']}, "
              f"{dataset_info['bytes']} bytes")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  {'failed_frac':40s} {failed_frac:14.6g} ratio  "
          f"({tally.failed} of {tally.attempted} rows)")
    print(f"  records_changed vs reference: {records_changed}")
    for problem in tally.problems:
        print(f"  FAILED CHECK: {problem}")
    print(f"details: {result_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
