"""covproj: do unsupervised linear projections retain covariance signal?

Library and CLI harness that scores how well PCA, dense random and very
sparse random projections preserve second-order (covariance) differences
between two latent Gaussian classes, against the supervised overlap-optimal
projection, through closed-form overlap sweeps and finite-sample 0-1 loss
experiments.

The package imports lazily (PEP 562): ``import covproj`` loads no submodule
and no numpy, and each public name below imports its submodule on first
access. So ``covproj.cli`` runs its own first lines before numpy loads, and
a library import leaves the process's BLAS environment alone.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "ConfigError",
        "CovProjError",
        "DatasetFormatError",
        "EmptyClassError",
        "InsufficientRowsError",
        "LabeledDataset",
        "NotPositiveDefiniteError",
        "ProjectionMatrix",
        "RankDeficientAfterRetriesError",
        "RankDeficientError",
        "RngStream",
        "SingularAfterRidgeError",
        "SingularBlendError",
        "SingularEmbeddedCovarianceError",
        "SpdMatrix",
        "TwoClassGaussian",
        "make_spd",
    ),
    "metrics": (
        "bhattacharyya_overlap",
        "embedded_overlap",
        "embedded_overlaps",
        "optimal_overlap_closed_form",
        "project_model",
    ),
    "projections": (
        "PROJECTIONS",
        "bhattacharyya_optimal_projection",
        "build_projection",
        "empirical_covariances",
        "generalized_eigenpairs",
        "mixture_covariance",
        "optimal_projection_auto_ridge",
        "pca_projection",
        "random_projection",
        "sparse_random_projection",
    ),
    "generators": (
        "column_overlap",
        "empirical_cov_pair",
        "gen_iw_pair",
        "gen_latent_pair",
        "latent_rank",
        "pca_adversarial_pair",
        "pca_favorable_pair",
        "sample_gaussian",
        "sample_inverse_wishart",
        "sample_two_class",
    ),
    "classify": (
        "EmbeddedQda",
        "RiskEstimate",
        "fit_embedded_qda",
        "mc_bayes_risk",
        "oos_error",
        "reconstruction_error",
    ),
    "datasets": ("load_dataset", "load_matrix", "load_vector"),
    "sweep": (
        "Cell",
        "SummaryTable",
        "SweepConfig",
        "SweepRecord",
        "config_from_mapping",
        "expand_grid",
        "parse_config_file",
        "read_records_csv",
        "run_sweep",
        "summarize",
    ),
}
# the public name -> the submodule that defines it
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("blas", *_EXPORTS)

__all__ = sorted([*_ORIGIN, *_SUBMODULES])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
