"""Command-line surface: sweep driver, summaries, dataset evaluation, oracle.

Exit codes: 0 success, 2 configuration or input errors, 3 sink (output
write) failures, 4 a projection hit a singular embedded covariance during
evaluation (remaining projections are still reported).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .classify import fit_embedded_qda, mc_bayes_risk, oos_error
from .core import (
    ConfigError,
    CovProjError,
    DatasetFormatError,
    LabeledDataset,
    SingularEmbeddedCovarianceError,
    TwoClassGaussian,
    derive_stream,
)
from .datasets import load_dataset, load_matrix, load_vector
from .generators import column_overlap, pca_adversarial_pair, pca_favorable_pair
from .metrics import bhattacharyya_overlap, embedded_overlap
from .projections import PROJECTIONS, build_projection, empirical_covariances
from .sweep import (
    parse_config_file,
    read_records_csv,
    run_sweep,
    summarize,
)

_FIXTURES = {
    "example1": pca_favorable_pair,
    "pca-favorable": pca_favorable_pair,
    "example2": pca_adversarial_pair,
    "pca-adversarial": pca_adversarial_pair,
}


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
    p_sum.add_argument("--group-by", default="q", help="comma-separated record columns")
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
        help="named model: example1/pca-favorable or example2/pca-adversarial",
    )
    p_oracle.add_argument("--cov1", default=None, help="matrix file for class-1 covariance")
    p_oracle.add_argument("--cov2", default=None, help="matrix file for class-2 covariance")
    p_oracle.add_argument("--mean1", default=None, help="optional vector file")
    p_oracle.add_argument("--mean2", default=None, help="optional vector file")
    p_oracle.add_argument("--weight1", type=float, default=0.5)
    p_oracle.add_argument("--p", type=int, default=10, help="ambient dimension for fixtures")
    p_oracle.add_argument("--alpha", type=float, default=4.0)
    p_oracle.add_argument("--delta", type=float, default=1.0)
    p_oracle.add_argument("--q", type=int, required=True)
    p_oracle.add_argument(
        "--projection",
        default="pca",
        choices=[*PROJECTIONS, "identity"],
    )
    p_oracle.add_argument("--mc-samples", type=int, default=100000)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--ridge", type=float, default=0.0)
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def cmd_sweep(args) -> int:
    config = parse_config_file(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    if args.workers is not None:
        config = dataclasses.replace(config, n_workers=args.workers)
    try:
        records = run_sweep(config, out_dir=args.out)
    except OSError as exc:
        print(f"sink error: {exc}", file=sys.stderr)
        return 3
    n_failed = sum(1 for r in records if not r.ok)
    print(f"wrote {Path(args.out) / 'records.csv'} ({len(records)} new records, "
          f"{n_failed} failed cells recorded in-band)")
    return 0


def cmd_summarize(args) -> int:
    records = read_records_csv(args.records)
    group_by = [tok.strip() for tok in args.group_by.split(",") if tok.strip()]
    table = summarize(records, group_by, args.baseline)
    out = Path(args.out) if args.out else Path(args.records).with_name("summary.csv")
    try:
        out.write_text(table.to_csv_text(), encoding="utf-8", newline="")
    except OSError as exc:
        print(f"sink error: {exc}", file=sys.stderr)
        return 3
    print(table.format_text())
    print(f"\nwrote {out}")
    return 0


def cmd_eval(args) -> int:
    data, _ = load_dataset(args.dataset, args.label_column)
    stream = derive_stream(args.seed)
    x_1, x_2 = data.class_rows(1), data.class_rows(2)

    if args.p is not None:
        if args.p > data.dim:
            raise ConfigError("p", f"dataset has only {data.dim} feature columns")
        cols = stream.child(0).generator().permutation(data.dim)[: args.p]
        x_1, x_2 = x_1[:, cols], x_2[:, cols]
    x_1, x_2 = column_overlap(x_1, x_2, args.gamma, stream.child(1))
    m = x_1.shape[0]
    labels = np.concatenate([np.ones(m, dtype=np.int64), np.full(m, 2, dtype=np.int64)])
    balanced = LabeledDataset(np.vstack([x_1, x_2]), labels)
    train, val = balanced.split(args.train_frac, stream.child(2))
    est = empirical_covariances(train)

    names = [tok.strip() for tok in args.projections.split(",") if tok.strip()]
    # every projection is built and fitted before the first line is printed,
    # so a bad name, a failed build or a rejected ridge leaves no partial
    # table behind; a singular fit is reported in its row
    fits = []
    for j, name in enumerate(names):
        w = build_projection(name, args.q, est.cov_1, est.cov_2, stream.child(3, j), x=train.X)
        try:
            fits.append(fit_embedded_qda(est, w, ridge=args.ridge))
        except SingularEmbeddedCovarianceError as exc:
            fits.append(exc)
    print(f"n_train={train.n} n_val={val.n} p={balanced.dim} q={args.q} gamma={args.gamma}")
    for name, fit in zip(names, fits):
        if isinstance(fit, SingularEmbeddedCovarianceError):
            print(f"{name:>16s}  oos_loss=singular ({fit})")
        else:
            print(f"{name:>16s}  oos_loss={oos_error(fit, val):.6f}")
    return 4 if any(isinstance(fit, SingularEmbeddedCovarianceError) for fit in fits) else 0


def _oracle_model(args) -> TwoClassGaussian:
    if args.fixture is not None:
        if args.fixture not in _FIXTURES:
            raise ConfigError("fixture", f"unknown fixture {args.fixture!r}")
        cov_1, cov_2 = _FIXTURES[args.fixture](args.p, args.q, args.alpha, args.delta)
        return TwoClassGaussian.zero_mean(cov_1, cov_2, args.weight1)
    if not args.cov1 or not args.cov2:
        raise ConfigError("cov1/cov2", "provide a fixture name or both covariance files")
    cov_1 = load_matrix(args.cov1)
    cov_2 = load_matrix(args.cov2)
    mean_1 = load_vector(args.mean1) if args.mean1 else np.zeros(cov_1.dim)
    mean_2 = load_vector(args.mean2) if args.mean2 else np.zeros(cov_2.dim)
    return TwoClassGaussian(args.weight1, mean_1, mean_2, cov_1, cov_2)


def cmd_oracle(args) -> int:
    if not 0.0 <= args.ridge < math.inf:
        raise ConfigError("ridge", f"must be finite and non-negative, got {args.ridge!r}")
    model = _oracle_model(args)
    stream = derive_stream(args.seed)
    if args.projection == "identity":
        w = None
        overlap = bhattacharyya_overlap(model)
    else:
        w = build_projection(
            args.projection, args.q, model.cov_1, model.cov_2, stream.child(0),
            args.ridge or 1e-6,
        )
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
    try:
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
