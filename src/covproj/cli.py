"""Command-line surface: sweep driver, summaries, dataset evaluation, oracle.

Every command runs with BLAS on one thread (``blas.single_thread``; a sweep
pins it in ``run_sweep``, so its manifest records the thread count the
command started with), and numpy's OpenBLAS starts on one thread unless
``OPENBLAS_NUM_THREADS`` is already set. A numpy without its bundled
OpenBLAS is refused (exit 2) before a command writes anything.

Exit codes: 0 success, 2 configuration or input errors, 3 sink (output
write) failures, 4 a projection hit a singular embedded covariance during
evaluation (remaining projections are still reported).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from contextlib import nullcontext
from pathlib import Path

# numpy's bundled OpenBLAS reads this once, when numpy loads. Unset, it
# starts a second thread that spin-waits through the rest of the imports,
# and every command then pins BLAS to one thread anyway (``single_thread``).
# A value the caller set wins; child processes inherit the variable.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .blas import single_thread
from .classify import fit_embedded_qda, mc_bayes_risk, oos_error
from .core import (
    ConfigError,
    CovProjError,
    DatasetFormatError,
    ProjectionMatrix,
    RngStream,
    SingularEmbeddedCovarianceError,
    TwoClassGaussian,
    _check_count,
    _check_fraction,
    _check_seed,
    _derived_frame,
)
from .datasets import _class_blocks, load_matrix, load_vector
from .generators import _FIXTURES, _column_subsample, _labeled
from .metrics import embedded_overlap
from .projections import PROJECTIONS, build_projection, empirical_covariances
from .sweep import (
    SweepConfig,
    _items,
    check_projections,
    parse_config_file,
    read_records_csv,
    run_sweep,
    summarize,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covproj",
        description="Second-order signal retention of unsupervised projections",
    )
    parser.add_argument("--version", action="version", version=f"covproj {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a grid sweep from a config file")
    p_sweep.add_argument("--config", required=True, help="key=value config or manifest JSON")
    p_sweep.add_argument("--seed", type=int, default=None, help="override the master seed")
    p_sweep.add_argument("--workers", type=int, default=None, help="override worker count")
    p_sweep.add_argument("--out", default="sweep_out", help="output directory")
    p_sweep.set_defaults(func=cmd_sweep)

    p_sum = sub.add_parser("summarize", help="aggregate a records CSV into a regret table")
    p_sum.add_argument("records", help="records.csv produced by a sweep")
    p_sum.add_argument("--group-by", type=_items, default="q", help="comma list of record columns")
    p_sum.add_argument("--baseline", default="pca", help="projection regrets are measured against")
    p_sum.add_argument("--out", default=None, help="summary CSV path (default: alongside records)")
    p_sum.set_defaults(func=cmd_summarize)

    p_eval = sub.add_parser("eval", help="out-of-sample loss per projection on a dataset")
    p_eval.add_argument("dataset", help="delimited text file, rows = observations")
    p_eval.add_argument("--label-column", required=True, help="name of the label column")
    p_eval.add_argument("--gamma", type=float, default=0.0, help="column overlap fraction")
    p_eval.add_argument("--p", type=int, default=None, help="subsample this many feature columns")
    p_eval.add_argument("--q", type=int, required=True, help="embedding dimension")
    p_eval.add_argument(
        "--projections",
        type=_items,
        default="pca,rp,sparse_rp",
        help=f"comma list from {{{','.join(PROJECTIONS)}}}",
    )
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--train-frac", type=float, default=0.7)
    p_eval.add_argument("--ridge", type=float, default=0.0, help="relative QDA ridge (0 = off)")
    p_eval.set_defaults(func=cmd_eval)

    p_oracle = sub.add_parser("oracle", help="overlap and Monte Carlo risk for a known model")
    p_oracle.add_argument(
        "fixture",
        nargs="?",
        default=None,
        help="named model: example1 (PCA-favorable) or example2 (PCA-adversarial)",
    )
    p_oracle.add_argument("--cov1", default=None, help="matrix file for class-1 covariance")
    p_oracle.add_argument("--cov2", default=None, help="matrix file for class-2 covariance")
    p_oracle.add_argument("--mean1", default=None, help="optional vector file")
    p_oracle.add_argument("--mean2", default=None, help="optional vector file")
    p_oracle.add_argument("--weight1", type=float, default=0.5)
    # None when left out: a fixture fills in its defaults, covariance files refuse them
    p_oracle.add_argument("--p", type=int, default=None, help="ambient dimension for fixtures")
    p_oracle.add_argument("--alpha", type=float, default=None)
    p_oracle.add_argument("--delta", type=float, default=None)
    p_oracle.add_argument("--q", type=int, required=True)
    p_oracle.add_argument(
        "--projection",
        default="pca",
        choices=[*PROJECTIONS, "identity"],
    )
    p_oracle.add_argument("--mc-samples", type=int, default=100000)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def cmd_sweep(args) -> int:
    config = parse_config_file(args.config)
    overrides = {key: getattr(args, key) for key in ("seed", "workers")}
    config = dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})
    n_new, n_failed = run_sweep(config, out_dir=args.out)
    print(f"wrote {Path(args.out) / 'records.csv'} ({n_new} new records, "
          f"{n_failed} failed records recorded in-band)")
    return 0


def cmd_summarize(args) -> int:
    records = read_records_csv(args.records)
    table = summarize(records, args.group_by, args.baseline)
    out = Path(args.out) if args.out else Path(args.records).with_name("summary.csv")
    out.write_text(table.to_csv_text(), encoding="utf-8", newline="")
    print(table.format_text())
    print(f"\nwrote {out}")
    return 0


def cmd_eval(args) -> int:
    _check_seed("seed", args.seed)
    check_projections(args.projections)
    blocks = _class_blocks(args.dataset, args.label_column, () if args.p is None else (args.p,))
    stream = RngStream(args.seed)
    balanced = _labeled(*_column_subsample(*blocks, args.p, args.gamma, stream))
    train, val = balanced.split(args.train_frac, stream.child(2))
    est = empirical_covariances(train)

    # every projection is built and fitted before the first line is printed,
    # so a failed build or a rejected ridge leaves no partial table behind; a
    # singular fit is reported in its row
    fits = []
    for j, name in enumerate(args.projections):
        w = build_projection(name, args.q, est.cov_1, est.cov_2, stream.child(3, j), x=train.X)
        try:
            fits.append(fit_embedded_qda(est, w, ridge=args.ridge))
        except SingularEmbeddedCovarianceError as exc:
            fits.append(exc)
    print(f"n_train={train.n} n_val={val.n} p={balanced.dim} q={args.q} gamma={args.gamma}")
    for name, fit in zip(args.projections, fits):
        if isinstance(fit, SingularEmbeddedCovarianceError):
            print(f"{name:>16s}  oos_loss=singular ({fit})")
        else:
            print(f"{name:>16s}  oos_loss={oos_error(fit, val):.6f}")
    return 4 if any(isinstance(fit, SingularEmbeddedCovarianceError) for fit in fits) else 0


def _oracle_model(args) -> TwoClassGaussian:
    if args.fixture is not None:
        if args.fixture not in _FIXTURES:
            raise ConfigError("fixture", f"unknown fixture {args.fixture!r}")
        if any((args.cov1, args.cov2, args.mean1, args.mean2)):
            raise ConfigError("fixture", "a fixture takes no --cov1, --cov2, --mean1 or --mean2")
        p = 10 if args.p is None else args.p
        alpha = SweepConfig.alpha if args.alpha is None else args.alpha
        delta = SweepConfig.delta if args.delta is None else args.delta
        cov_1, cov_2 = _FIXTURES[args.fixture](p, args.q, alpha, delta)
        return TwoClassGaussian.zero_mean(cov_1, cov_2, args.weight1)
    if not args.cov1 or not args.cov2:
        raise ConfigError("cov1/cov2", "provide a fixture name or both covariance files")
    for field in ("p", "alpha", "delta"):
        if getattr(args, field) is not None:
            raise ConfigError(field, f"a covariance-file model takes no --{field}")
    cov_1 = load_matrix(args.cov1)
    cov_2 = load_matrix(args.cov2)
    mean_1 = load_vector(args.mean1) if args.mean1 else np.zeros(cov_1.dim)
    mean_2 = load_vector(args.mean2) if args.mean2 else np.zeros(cov_2.dim)
    return TwoClassGaussian(args.weight1, mean_1, mean_2, cov_1, cov_2)


def _oracle_frame(args, model: TwoClassGaussian, stream: RngStream) -> ProjectionMatrix:
    """The frame ``--projection`` names; identity embeds the model exactly, with q = p."""
    if args.projection == "identity":
        if args.fixture is None and args.q != model.dim:
            raise ConfigError("q", f"the identity frame has q = p = {model.dim}, got {args.q}")
        return _derived_frame(np.eye(model.dim))
    return build_projection(args.projection, args.q, model.cov_1, model.cov_2, stream)


def cmd_oracle(args) -> int:
    _check_count("mc_samples", args.mc_samples)
    _check_seed("seed", args.seed)
    _check_fraction("weight1", args.weight1)
    model = _oracle_model(args)
    stream = RngStream(args.seed)
    w = _oracle_frame(args, model, stream.child(0))
    overlap = embedded_overlap(model, w)
    risk = mc_bayes_risk(model, w, args.mc_samples, stream.child(1))
    print(f"embedded_overlap={overlap:.12g}")
    print(
        f"mc_bayes_risk={risk.estimate:.6f} +- {risk.std_error:.6f} "
        f"(n={risk.n_samples})"
    )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # run_sweep pins BLAS itself; pinning here too would hide the count the
    # command started with from its manifest
    pin = nullcontext() if args.func is cmd_sweep else single_thread()
    try:
        with pin:
            return args.func(args)
    except (ConfigError, DatasetFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CovProjError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"sink error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
