"""pathfuse: fuse published radio path-loss models into multi-band surfaces.

Published single-frequency path-loss fits (coefficients, distance span,
sample count, shadow sigma) are expanded back into synthetic samples,
optionally corrected for atmospheric gas absorption and cleaned of
blocker-style outliers, weighted by campaign precision, and refitted as one
log-polynomial surface over distance and frequency.

The package owns the one BLAS thread rule: every fit solves on one OpenBLAS
thread, as a woken pool's idle worker busy-waits (1.0 s of CPU in a 1.6 s
Integration study, 2-core Xeon).  Importing pathfuse sets
``OPENBLAS_NUM_THREADS`` to 1 unless it is already set, so a user's value
wins and child processes inherit it.  Only a process that loaded numpy before
pathfuse, without the variable, has its OpenBLAS put on one thread at
import, as the variable then comes too late.  The names below load their
module on first use: ``import pathfuse.io`` loads neither the estimators nor
the studies.
"""

import importlib
import os
import sys


def _single_blas_thread(np):
    """Set the OpenBLAS of the numpy module ``np``, if found, to one thread."""
    import ctypes
    import glob

    for path in glob.glob(np.__path__[0] + "/../numpy.libs/*openblas*"):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads"):
            if put := getattr(lib, name, None):
                put.argtypes, put.restype = [ctypes.c_int], None
                put(1)
                return


if "OPENBLAS_NUM_THREADS" not in os.environ and "numpy" in sys.modules:
    _single_blas_thread(sys.modules["numpy"])
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

#: the module of each public name
_EXPORTS = {
    "atmosphere": "GasAttenuationTable load_default_table predict_total "
                  "remove_gas_loss",
    "errors": "ConfigError ConsensusFailureError DataError DegenerateDataError "
              "GasRangeError InsufficientDataError MetricError NumericError "
              "PathfuseError SingularSystemError",
    "estimators": "DEFAULT_PENALTY_GRID FitDiagnostics fit_elasticnet fit_lasso "
                  "fit_ransac fit_ridge fit_theilsen mad_inliers mad_scale solve_wls "
                  "tune_penalty_kfold",
    "evaluation": "EvaluationReport ExperimentSpec StudyResult error_ratio "
                  "evaluate_gates loocv run_experiment run_integration_study "
                  "run_order_study run_outlier_study run_robust_study",
    "io": "SourceModel load_registry load_samples save_model save_samples sigma_map",
    "models": "CoefficientSet FittedModel PathLossSample SampleBatch "
              "build_design_system design_matrix predict_abg",
    "pipeline": "WEIGHTING_POLICIES PipelineConfig compute_weights fit_pathloss_model",
    "seeding": "substream",
    "synthesis": "OutlierSpec SynthesisSpec add_scattering_noise inject_outliers "
                 "sample_rayleigh synthesize_corpus synthesize_from_model",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module 'pathfuse' has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
