"""pathfuse: fuse published radio path-loss models into multi-band surfaces.

Published single-frequency path-loss fits (coefficients, distance span,
sample count, shadow sigma) are expanded back into synthetic samples,
optionally corrected for atmospheric gas absorption and cleaned of
blocker-style outliers, weighted by campaign precision, and refitted as one
log-polynomial surface over distance and frequency.
"""

from .atmosphere import (
    GasAttenuationTable,
    load_default_table,
    predict_total,
    remove_gas_loss,
)
from .errors import (
    ConfigError,
    ConsensusFailureError,
    ConvergenceError,
    DataError,
    DegenerateDataError,
    GasRangeError,
    InsufficientDataError,
    MetricError,
    NumericError,
    PathfuseError,
    SingularSystemError,
)
from .estimators import (
    DEFAULT_PENALTY_GRID,
    FitDiagnostics,
    fit_elasticnet,
    fit_lasso,
    fit_ransac,
    fit_ridge,
    fit_theilsen,
    mad_inliers,
    mad_scale,
    solve_wls,
    tune_penalty_kfold,
)
from .evaluation import (
    EvaluationReport,
    ExperimentSpec,
    StudyResult,
    error_ratio,
    evaluate_gates,
    loocv,
    run_experiment,
    run_integration_study,
    run_order_study,
    run_outlier_study,
    run_robust_study,
)
from .io import load_registry, load_samples, save_model, save_samples, sigma_map
from .models import (
    CoefficientSet,
    FittedModel,
    PathLossSample,
    SampleBatch,
    SourceModel,
    build_design_system,
    design_matrix,
    predict_abg,
)
from .pipeline import (
    WEIGHTING_POLICIES,
    PipelineConfig,
    compute_weights,
    fit_pathloss_model,
)
from .seeding import substream
from .synthesis import (
    OutlierSpec,
    SynthesisSpec,
    add_scattering_noise,
    inject_outliers,
    sample_rayleigh,
    synthesize_corpus,
    synthesize_from_model,
)

__version__ = "0.1.0"
