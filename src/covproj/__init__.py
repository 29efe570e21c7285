"""covproj: do unsupervised linear projections retain covariance signal?

Library and CLI harness that scores how well PCA, dense random and very
sparse random projections preserve second-order (covariance) differences
between two latent Gaussian classes, against the supervised overlap-optimal
projection, through closed-form overlap sweeps and finite-sample 0-1 loss
experiments.
"""

__version__ = "0.1.0"

from .core import (
    ConfigError,
    CovProjError,
    DatasetFormatError,
    DegreesOfFreedomError,
    DimensionMismatchError,
    EmptyClassError,
    EmptyGridError,
    InsufficientRowsError,
    LabeledDataset,
    MixedModesError,
    NonFiniteProjectionError,
    NonPositiveEigenvalueError,
    NotPositiveDefiniteError,
    NotSquareError,
    ProjectionMatrix,
    RankDeficientAfterRetriesError,
    RankDeficientError,
    RngStream,
    SingularAfterRidgeError,
    SingularBlendError,
    SingularEmbeddedCovarianceError,
    SpdMatrix,
    TwoClassGaussian,
    derive_stream,
    make_spd,
)
from .metrics import (
    bhattacharyya_overlap,
    chernoff_distance,
    embedded_overlap,
    embedded_overlaps,
    optimal_overlap_closed_form,
    project_model,
)
from .projections import (
    PROJECTIONS,
    EigPair,
    OptimalProjection,
    bhattacharyya_optimal_projection,
    build_projection,
    empirical_covariances,
    generalized_eigenpairs,
    mixture_covariance,
    optimal_projection_auto_ridge,
    pca_projection,
    random_projection,
    sparse_random_projection,
)
from .generators import (
    LatentConfig,
    column_overlap,
    empirical_cov_pair,
    gen_iw_pair,
    gen_latent_pair,
    latent_rank,
    pca_adversarial_pair,
    pca_favorable_pair,
    sample_gaussian,
    sample_inverse_wishart,
    sample_scaled_inverse_wishart,
    sample_two_class,
    sample_wishart,
)
from .classify import (
    EmbeddedQda,
    RiskEstimate,
    fit_embedded_qda,
    mc_bayes_risk,
    oos_error,
    reconstruction_error,
)
from .datasets import load_dataset, load_matrix, load_vector
from .sweep import (
    Cell,
    SummaryTable,
    SweepConfig,
    SweepRecord,
    config_from_mapping,
    expand_grid,
    parse_config_file,
    read_records_csv,
    run_sweep,
    summarize,
)

__all__ = [name for name in dir() if not name.startswith("_")]
