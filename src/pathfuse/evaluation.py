"""Benchmark studies: metrics, cross-validation, and the four experiment
runners (polynomial-order comparison, robust-estimator comparison,
multi-band integration, outlier-resilience).

Every runner follows the same discipline:

* all randomness comes from ``ExperimentSpec.seed`` via labelled substreams,
  so results are bit-reproducible;
* trial-level raw values are returned alongside the means;
* published benchmark numbers are attached to the report rows for
  juxtaposition only -- they never enter any computation;
* ``evaluate_gates`` turns a finished study into pass/fail checks against
  pinned tolerances (the CLI maps failures to exit code 5).

Each study is one row of ``_STUDY_TABLE``: a ``tasks(spec)`` list, a
function that runs one task, a ``reduce(spec, tasks, outcomes, targets)``
that builds the ``StudyResult`` with the published values of ``targets``, its
section of ``reference_targets.json`` and a rule that yields ``(name, value,
kind, bound)`` per gate; ``_GATE_KINDS`` gives each of the four kinds (within
a tolerance of a target, ordered, at most a limit, above a floor) its pass
rule and its detail wording.

:func:`run_experiment` reads the targets once, before any task, so a broken
file stops every study before its first task.  It is also the one place that
maps tasks: ``_map_tasks`` runs them on forked workers, one per CPU of the
affinity mask and at most one per task (in this process if that is one, or
off Linux).  Each task draws only from its own keyed substreams and outcomes
come back in task order, so every mean keeps its bits at any worker count and
in any task order.  The order study is one task (at 0.04-0.08 s for ten
trials, one task per trial on two workers was slower than serial); a robust
task is one trial; the integration and outlier studies share ``_cell_tasks``,
one per (scenario x band cell, trial).

The studies read the registry, the reference targets and the gas table from
one data directory: ``PATHFUSE_DATA_DIR`` if set, else the bundled data.
:mod:`pathfuse.io` checks every field of the targets and that every cell of
``SCENARIO_BANDS`` has an integration row, so the reduces and rules check none.

Protocol constants that are calibration targets (ambient scattering scale,
outlier magnitudes, the robust filter multiplier) are module constants here
or in :mod:`pathfuse.synthesis`; ``scripts/calibrate.py`` reproduces them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .atmosphere import predict_total
from .errors import ConfigError, DataError, MetricError
from .estimators import (
    DEFAULT_PENALTY_GRID,
    ELASTICNET_MIX,
    fit_elasticnet,
    fit_lasso,
    fit_ransac,
    fit_ridge,
    fit_theilsen,
    mad_inliers,
    solve_wls,
    tune_penalty_kfold,
    weighted_rms,
)
from .io import (
    COUNT,
    INTEGER,
    ORDER_ARMS,
    ROBUST_METHODS,
    SCENARIO_BANDS,
    STUDY_ARMS,
    band_label,
    check,
    load_registry,
    load_reference_targets,
    one_of,
    sigma_map,
)
from .models import build_design_system, coefficient_names, design_matrix
from .pipeline import PipelineConfig, fit_pathloss_model
from .seeding import substream
from .synthesis import (
    OutlierSpec,
    SynthesisSpec,
    add_scattering_noise,
    inject_outliers,
    synthesize_corpus,
    synthesize_from_model,
)

__all__ = [
    "STUDIES",
    "ExperimentSpec",
    "EvaluationReport",
    "StudyResult",
    "GateCheck",
    "error_ratio",
    "loocv",
    "run_order_study",
    "run_robust_study",
    "run_integration_study",
    "run_outlier_study",
    "run_experiment",
    "evaluate_gates",
]

# ---------------------------------------------------------------------------
# study protocol constants
# ---------------------------------------------------------------------------

ORDER_STUDY_SCENARIO = "UMiSC"
ORDER_STUDY_HELDOUT = "umisc-18ghz-nokia-aau"
ORDER_STUDY_POINTS = 200
#: distances are drawn uniformly in metres in every study corpus -- the
#: benchmark campaigns log measurements along drive routes, not log-spaced
STUDY_DISTANCE_SAMPLING = "UniformDistance"

#: surface-scan grid for the order study
GRID_DISTANCES_M = np.geomspace(10.0, 300.0, 60)
GRID_FREQS_GHZ = np.arange(1.0, 80.0 + 1e-9, 0.5)
LOW_BAND_SCAN_GHZ = (1.0, 18.0)

ROBUST_STUDY_SOURCE = "umisc-2.9ghz-qualcomm"
ROBUST_STUDY_POINTS = 200
ROBUST_STUDY_PINNED_GAMMA = 2.0
ROBUST_STUDY_BAND_WIDTH_M = 50.0
#: ambient small-scale scattering added to every robust-study sample;
#: calibrated so the clean-corpus OLS sigma lands inside the targets' clean
#: band [3.52, 3.72] dB (3.674 dB at the pinned seed; ``calibrate.py --section
#: ambient``)
ROBUST_STUDY_AMBIENT_SCALE = 3.03
#: residual-scale multiplier for the median-fit filter arm; calibrated so the
#: filtered refit sigma matches the benchmark (3.902 dB)
ROBUST_STUDY_FILTER_MULTIPLIER = 2.6
#: consensus inlier threshold for the subset-consensus arm; calibrated so its
#: consensus-set sigma lands second-best (benchmark 4.654 dB), clearly above
#: the median-fit arm and below the unfiltered fits
ROBUST_STUDY_RANSAC_INLIER_DB = 14.0

STUDY_RHO = 0.75
STUDY_CONTAMINATION = 0.2
#: blocker excess for the outlier-resilience study (dB added on top of the
#: Rayleigh fading draw).  Residual-based rejection catches a spike only when
#: it clears the noisiest group's threshold despite that group's own noise
#: (~3.3 sigma + a ~1.65 sigma tail at sigma 9.7), so the blocker must be
#: deliberately severe; unfiltered fits then degrade visibly while the
#: filtered pipeline stays within its resilience bound.
OUTLIER_STUDY_MAGNITUDE_DB = 55.0
#: widths (m) of the distance bands the outlier-resilience study contaminates
OUTLIER_STUDY_BANDS_M = (50.0, 30.0, 5.0)

#: the integration and outlier studies' arms; ``io`` names every study's arms
ARM_POOLED, ARM_WEIGHTED, ARM_QUADRATIC = STUDY_ARMS

#: order-study arms, of orders 1-3: surface order is the only thing that varies,
#: so the corpora are used as-is (unit weights, no gas removal, no rejection pass)
_ORDER_CONFIGS = {arm: PipelineConfig(order=k, weighting="Identity", robust=None,
                                      gas_correction=False)
                  for k, arm in enumerate(ORDER_ARMS, start=1)}


# ---------------------------------------------------------------------------
# specs and result containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    """Which study to run and with how much repetition."""

    which: str
    trials: int = 10
    seed: int = 0

    def __post_init__(self):
        check(vars(self), _SPEC_FIELDS, ConfigError)  # declared beside STUDIES


@dataclass
class EvaluationReport:
    """One method's outcome in one study cell, next to the published value."""

    study: str
    method: str
    sigma_db: float
    scenario: str | None = None
    band_ghz: tuple | None = None
    outlier_band_m: float | None = None
    sigma_published_db: float | None = None
    sigma_clean_db: float | None = None
    error_ratio_percent: float | None = None
    ratio_published_percent: float | None = None
    loocv_db: float | None = None
    loocv_published_db: float | None = None
    coefficients: dict | None = None
    n_trials: int = 0


@dataclass
class StudyResult:
    study: str
    config: dict
    reports: list
    raw: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class GateCheck:
    name: str
    passed: bool
    detail: str


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def error_ratio(sigma_contaminated: float, sigma_clean: float) -> float:
    """Percent growth of sigma under contamination, vs the clean baseline."""
    if not (np.isfinite(sigma_clean) and sigma_clean > 0.0):
        raise MetricError(f"clean baseline sigma must be > 0, got {sigma_clean!r}")
    return 100.0 * (sigma_contaminated - sigma_clean) / sigma_clean


def loocv(models, cfg, *, synthesis: SynthesisSpec, trials=1, seed=0):
    """Leave-one-sample-out cross-validation error (dB) of each trial, as a list.

    Per trial, synthesize one pooled corpus from all models, fit it with
    ``fit_pathloss_model`` and take ``provenance["loocv_db"]``: the exact
    deletion residuals from its own solve (no refitting).
    """
    models = list(models)
    if len(models) < 3:
        raise ConfigError(f"leave-one-out needs at least 3 models, got {len(models)}")
    return [_loocv_trial(models, (cfg,), synthesis, seed, t)[0] for t in range(trials)]


def _loocv_trial(models, cfgs, synthesis, seed, t):
    """Trial ``t`` of :func:`loocv` for each config: one corpus over the models
    in id order from substream ``(seed, "loocv", "synth", t)``, fitted once
    per config."""
    models = sorted(models, key=lambda m: m.id)
    corpus = synthesize_corpus(models, synthesis, substream(seed, "loocv", "synth", t))
    sigmas = sigma_map(models)
    fits = (fit_pathloss_model(corpus, c, sigma_by_source=sigmas)[0] for c in cfgs)
    return [fitted.provenance["loocv_db"] for fitted in fits]


# ---------------------------------------------------------------------------
# order study
# ---------------------------------------------------------------------------


def _count_decreasing(P, axis, tol=1e-9):
    """Adjacent grid cells where the surface strictly decreases along axis."""
    return int(np.count_nonzero(np.diff(P, axis=axis) < -tol))


def run_order_study(spec: ExperimentSpec):
    """Surface-order comparison on the small-cell scenario.

    Per trial, each order is fitted on samples from every small-cell model
    except the held-out 18 GHz campaign, then scored against that campaign:
    its curve is observed at the training corpus's own distances with its
    published shadow-fading noise (one draw per trial, shared by all arms).

    The leave-one-out column uses a pooled corpus over all six models in
    which every campaign is sampled across the scenario's full distance
    span, so the left-out samples probe the shared surface everywhere
    rather than only inside each campaign's own window; the error is the
    exact sample-level deletion residual of :func:`loocv`, with the three
    orders fitted on each trial's one corpus.  Finally the per-order mean
    coefficients are scanned on a distance x frequency grid for cells where
    predicted loss decreases as frequency or distance grows.  All trials are
    one ``_order_task``.
    """
    return run_experiment(replace(spec, which="OrderStudy"))


def _order_tasks(spec):
    models = [m for m in load_registry() if m.scenario == ORDER_STUDY_SCENARIO]
    heldout = next((m for m in models if m.id == ORDER_STUDY_HELDOUT), None)
    if heldout is None:
        raise DataError(f"registry is missing {ORDER_STUDY_HELDOUT!r}")
    span = (min(m.dist_min for m in models), max(m.dist_max for m in models))
    synth = SynthesisSpec(points_per_model=ORDER_STUDY_POINTS,
                          distance_sampling=STUDY_DISTANCE_SAMPLING)
    return [(spec.seed, spec.trials, models, heldout, span, synth)]


def _order_task(task):
    """Every trial of the order study: ``{arm: [value per trial]}`` of the
    held-out sigma, the coefficients and the leave-one-out error."""
    seed, trials, models, heldout, span, synth = task
    train_models = [m for m in models if m.id != heldout.id]
    span_models = [replace(m, dist_min=span[0], dist_max=span[1]) for m in models]
    sigmas = sigma_map(models)
    sigma18, coeffs, loocv_raw = ({arm: [] for arm in _ORDER_CONFIGS} for _ in range(3))
    for t in range(trials):
        corpus = synthesize_corpus(
            train_models, synth, substream(seed, "order", "train", t)
        )
        d = corpus.distance
        noise = substream(seed, "order", "test", t).normal(0.0, heldout.sigma, d.size)
        y18 = heldout.predict(d) + noise
        for arm, cfg in _ORDER_CONFIGS.items():
            fitted, _ = fit_pathloss_model(corpus, cfg, sigma_by_source=sigmas)
            resid = y18 - predict_total(fitted, d, heldout.frequency)
            sigma18[arm].append(weighted_rms(resid))
            coeffs[arm].append(fitted.coefficients.as_array())
        loo = _loocv_trial(span_models, _ORDER_CONFIGS.values(), synth, seed, t)
        for arm, value in zip(_ORDER_CONFIGS, loo):
            loocv_raw[arm].append(value)
    return sigma18, coeffs, loocv_raw


def _order_reduce(spec, todo, outcomes, targets):
    heldout, span = todo[0][3:5]
    sigma18, coeffs, loocv_raw = outcomes[0]
    # surface scan on the trial-mean coefficients: the polynomial alone (no
    # gas term is fitted here; resonances would be legitimately non-monotone)
    mean_coeffs = {a: sum(coeffs[a]) / spec.trials for a in _ORDER_CONFIGS}
    scan, grids = {}, {}
    lo, hi = LOW_BAND_SCAN_GHZ
    low = (GRID_FREQS_GHZ >= lo) & (GRID_FREQS_GHZ <= hi)
    for arm, cfg in _ORDER_CONFIGS.items():
        A = design_matrix(cfg.order, GRID_DISTANCES_M[:, None], GRID_FREQS_GHZ[None, :])
        P = (A @ mean_coeffs[arm]).reshape(GRID_DISTANCES_M.size, GRID_FREQS_GHZ.size)
        grids[arm] = P
        scan[arm] = {
            "freq_decreasing_cells": _count_decreasing(P, axis=1),
            "freq_decreasing_cells_low_band": _count_decreasing(P[:, low], axis=1),
            "dist_decreasing_cells": _count_decreasing(P, axis=0),
        }

    targets = targets["order_study"]
    reports = []
    for arm, cfg in _ORDER_CONFIGS.items():
        reports.append(EvaluationReport(
            study="OrderStudy", method=arm, scenario=ORDER_STUDY_SCENARIO,
            sigma_db=float(np.mean(sigma18[arm])),
            sigma_published_db=targets["sigma_18ghz_db"].get(arm),
            loocv_db=float(np.mean(loocv_raw[arm])),
            loocv_published_db=targets["loocv_db"].get(arm),
            coefficients=dict(zip(coefficient_names(cfg.order),
                                  mean_coeffs[arm].tolist())),
            n_trials=spec.trials,
        ))
    return StudyResult(
        study="OrderStudy",
        config={
            "seed": spec.seed, "trials": spec.trials,
            "points_per_model": ORDER_STUDY_POINTS, "heldout": heldout.id,
            "heldout_freq_ghz": heldout.frequency, "heldout_sigma_db": heldout.sigma,
            "distance_sampling": STUDY_DISTANCE_SAMPLING,
            "loocv_distance_span_m": list(span),
        },
        reports=reports,
        raw={"sigma_18ghz_db": sigma18, "loocv_db": loocv_raw},
        extras={"surface_scan": scan, "grid_distances_m": GRID_DISTANCES_M,
                "grid_freqs_ghz": GRID_FREQS_GHZ, "grids_db": grids},
    )


# ---------------------------------------------------------------------------
# robust study
# ---------------------------------------------------------------------------


#: the robust study's penalized methods: (tuning kind, fit at the tuned
#: penalty); each fit is looked up when called, so a wrapped one is used
_PENALIZED_METHODS = {
    "ridge": ("Ridge", lambda X, Y, lam: fit_ridge(X, Y, lam)),
    "lasso": ("Lasso", lambda X, Y, lam: fit_lasso(X, Y, lam)),
    "elastic-net": (
        "ElasticNet",
        lambda X, Y, lam: fit_elasticnet(X, Y, ELASTICNET_MIX, float(lam)),
    ),
}


def _robust_method_sigma(method, X, Y, seed, *, reject=True, lam=None):
    """Fit one method; return its sigma over its evaluation set.

    The plain fit and the shrinkage fits, at their tuned ``lam``, are scored
    over the full corpus.  With ``reject=True`` the two rejection arms are
    scored over what they keep — the median fit filters by its own residual
    scale, the consensus fit by its inlier threshold — since reject-then-refit
    is the point of those arms.  (Scoring them over the full corpus could never
    beat the plain fit, which minimises that objective by construction.)  The
    clean leg of the study passes ``reject=False``: with nothing to excise,
    every method is scored over the full corpus, which is why the benchmark's
    clean column is flat across methods.
    """
    keep = slice(None)  # the rows the method is scored over
    if method == "ols":
        coef = solve_wls(X, Y)
    elif method in _PENALIZED_METHODS:
        coef = _PENALIZED_METHODS[method][1](X, Y, lam)
    elif method == "ransac":
        fit = fit_ransac(
            X, Y, seed=seed, inlier_threshold=ROBUST_STUDY_RANSAC_INLIER_DB
        )
        coef = fit.coefficients
        if reject:
            keep = fit.inlier_mask
    elif method == "theil-sen":
        coef = fit_theilsen(X, Y).coefficients
        if reject:
            keep = mad_inliers(Y - X @ coef, ROBUST_STUDY_FILTER_MULTIPLIER)
            coef = solve_wls(X[keep], Y[keep])
    else:
        raise ConfigError(f"unknown robust-study method {method!r}")
    return weighted_rms(Y[keep] - X[keep] @ coef)


def _robust_task(task):
    """One trial of the robust study: ``{arm: {method: sigma}}`` for the clean
    and the contaminated corpus, drawn from substreams ``(seed, "robust", ...,
    t)``, with every method seeded by ``seed * 1000 + t``."""
    seed, t, model, synth = task
    rng = substream(seed, "robust", "synth", t)
    corpus = synthesize_from_model(model, synth, rng)
    corpus = add_scattering_noise(corpus, ROBUST_STUDY_AMBIENT_SCALE, STUDY_RHO,
                                  substream(seed, "robust", "ambient", t))
    outliers = OutlierSpec(rho=STUDY_RHO, band_width=ROBUST_STUDY_BAND_WIDTH_M,
                           contamination_fraction=STUDY_CONTAMINATION)
    contaminated, _ = inject_outliers(corpus, outliers,
                                      substream(seed, "robust", "inject", t))
    outcome = {}
    kinds = tuple(kind for kind, _ in _PENALIZED_METHODS.values())
    for arm, samples in (("clean", corpus), ("contaminated", contaminated)):
        X, Y = build_design_system(samples, order=1,
                                   pin_gamma=ROBUST_STUDY_PINNED_GAMMA)
        lams = dict(zip(_PENALIZED_METHODS, tune_penalty_kfold(
            X, Y, kinds, DEFAULT_PENALTY_GRID, seed=seed * 1000 + t)))
        outcome[arm] = {
            method: _robust_method_sigma(method, X, Y, seed=seed * 1000 + t,
                                         reject=(arm == "contaminated"),
                                         lam=lams.get(method))
            for method in ROBUST_METHODS
        }
    return outcome


def run_robust_study(spec: ExperimentSpec):
    """Estimator shoot-out on one single-frequency corpus.

    Samples come from the 2.9 GHz small-cell campaign with ambient Rayleigh
    scattering on every sample; the contaminated arm additionally injects
    blocker outliers into a 50 m distance band.  The frequency slope is
    pinned at 2 (single-frequency data cannot identify it), leaving a
    two-coefficient line fit per method, one ``_robust_task`` per trial.
    """
    return run_experiment(replace(spec, which="RobustStudy"))


def _robust_tasks(spec):
    if spec.trials > 1000:  # trial t seeds its methods with seed * 1000 + t
        raise ConfigError(f"the Robust study runs at most 1000 trials, got "
                          f"{spec.trials}: trial 1000 of seed s would repeat the "
                          f"fold split and RANSAC draws of trial 0 of seed s + 1")
    model = next((m for m in load_registry() if m.id == ROBUST_STUDY_SOURCE), None)
    if model is None:
        raise DataError(f"registry is missing {ROBUST_STUDY_SOURCE!r}")
    synth = SynthesisSpec(points_per_model=ROBUST_STUDY_POINTS,
                          distance_sampling=STUDY_DISTANCE_SAMPLING)
    return [(spec.seed, t, model, synth) for t in range(spec.trials)]


def _robust_reduce(spec, todo, outcomes, targets):
    raw = {arm: {m: [o[arm][m] for o in outcomes] for m in ROBUST_METHODS}
           for arm in ("clean", "contaminated")}

    targets = targets["robust_study"]
    reports = []
    for method in ROBUST_METHODS:
        pairs = zip(raw["contaminated"][method], raw["clean"][method])
        ratio = float(np.mean([error_ratio(c, cl) for c, cl in pairs]))
        reports.append(EvaluationReport(
            study="RobustStudy", method=method, scenario="UMiSC",
            sigma_db=float(np.mean(raw["contaminated"][method])),
            sigma_clean_db=float(np.mean(raw["clean"][method])),
            sigma_published_db=targets["sigma_with_outliers_db"].get(method),
            error_ratio_percent=ratio,
            n_trials=spec.trials,
        ))
    c = raw["contaminated"]
    others = [c[m] for m in ROBUST_METHODS if m != "theil-sen"]
    minimal_per_trial = [all(s < o[t] for o in others)
                         for t, s in enumerate(c["theil-sen"])]
    return StudyResult(
        study="RobustStudy",
        config={
            "seed": spec.seed, "trials": spec.trials,
            "points": ROBUST_STUDY_POINTS, "source": ROBUST_STUDY_SOURCE,
            "pinned_gamma": ROBUST_STUDY_PINNED_GAMMA,
            "ambient_scale": ROBUST_STUDY_AMBIENT_SCALE,
            "filter_multiplier": ROBUST_STUDY_FILTER_MULTIPLIER,
        },
        reports=reports,
        raw={"sigma_db": raw, "theil_sen_minimal_per_trial": minimal_per_trial},
    )


# ---------------------------------------------------------------------------
# integration and outlier studies: one scenario x band x trial loop
# ---------------------------------------------------------------------------


#: the three standing comparison arms, each fitted on one band (none reads a seed)
_ARMS = {
    ARM_POOLED: dict(order=1, weighting="Identity", robust=None, gas_correction=False),
    ARM_WEIGHTED: dict(order=1, weighting="Mixture", robust=None, gas_correction=False),
    ARM_QUADRATIC: dict(order=2, weighting="Mixture", robust="TheilSen",
                        gas_correction=True),
}


def _arm_configs(band):
    return {arm: PipelineConfig(**kw, freq_band=band) for arm, kw in _ARMS.items()}


def _cell_tasks(spec, label):
    """One task per (cell, trial) of a multi-band study: every scenario x
    band cell in report order, each cell's trials in order."""
    registry = load_registry()
    tasks = []
    for scenario, bands in SCENARIO_BANDS.items():
        scenario_models = [m for m in registry if m.scenario == scenario]
        sigmas = sigma_map(scenario_models)
        for band, points in bands.items():
            band_models = [m for m in scenario_models
                           if band[0] <= m.frequency <= band[1]]
            if not band_models:
                raise DataError(f"no source models inside band {band}")
            synth = SynthesisSpec(points_per_model=points,
                                  distance_sampling=STUDY_DISTANCE_SAMPLING)
            tasks += [(label, spec.seed, scenario, band, t, band_models, synth, sigmas)
                      for t in range(spec.trials)]
    return tasks


def _cells(spec, todo, outcomes):
    """``(scenario, band, outcomes in trial order)`` per cell of
    :func:`_cell_tasks`, in report order."""
    for i in range(0, len(todo), spec.trials):
        _, _, scenario, band, *_ = todo[i]
        yield scenario, band, outcomes[i:i + spec.trials]


def _cell_task(task):
    """One (cell, trial): the arms fitted on the corpus from substream ``(seed,
    label, scenario, lo, hi, t)`` as ``{arm: (sigma, coefficients)}``, and for
    the outlier study ``{ob: {arm: sigma}}`` after injecting each band ``ob``."""
    label, seed, scenario, band, t, models, synth, sigmas = task
    corpus = synthesize_corpus(
        models, synth, substream(seed, label, scenario, band[0], band[1], t)
    )
    clean = {arm: (fitted.sigma, fitted.coefficients.as_array())
             for arm, fitted in _fit_arms(corpus, band, sigmas).items()}
    contaminated = {}
    if label != "outlier":
        return clean, contaminated
    for ob in OUTLIER_STUDY_BANDS_M:
        outliers = OutlierSpec(rho=STUDY_RHO, band_width=float(ob),
                               contamination_fraction=STUDY_CONTAMINATION,
                               magnitude_scale=OUTLIER_STUDY_MAGNITUDE_DB)
        rng = substream(seed, "outlier", scenario, band[0], band[1], "inject", ob, t)
        fits = _fit_arms(inject_outliers(corpus, outliers, rng)[0], band, sigmas)
        contaminated[ob] = {arm: fitted.sigma for arm, fitted in fits.items()}
    return clean, contaminated


def _workers():
    """CPUs this process may run on (its affinity mask); 1 off Linux."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _init_worker():
    """A study worker's set-up: glibc keeps freed memory, since a worker lives
    for one study and trimming makes it fault the same pages in again (~60k
    faults per Integration).  Its BLAS threads are the parent's, by the
    rule that importing pathfuse applies (see :mod:`pathfuse`)."""
    import ctypes

    if mallopt := getattr(ctypes.CDLL(None), "mallopt", None):
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


def _map_tasks(fn, tasks):
    """``list(map(fn, tasks))`` on ``_workers()`` forked workers, at most one
    per task (with one, in this process).  Fork needs no new import and keeps
    this module's state; a task's exception is raised here as itself."""
    workers = min(_workers(), len(tasks))
    if workers <= 1:
        return list(map(fn, tasks))
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, context, _init_worker) as pool:
        return list(pool.map(fn, tasks))


def _fit_arms(corpus, band, sigmas):
    """The three comparison arms fitted on one corpus: ``{arm: FittedModel}``."""
    return {
        arm: fit_pathloss_model(corpus, cfg, sigma_by_source=sigmas)[0]
        for arm, cfg in _arm_configs(band).items()
    }


def _published(rows, scenario, band, **keys):
    """The first row of ``rows`` for one cell whose ``keys`` (``method``,
    ``outlier_band_m``) match too, else None: published rows and gate cells."""
    return next((row for row in rows if row["scenario"] == scenario
                 and tuple(row["band_ghz"]) == band
                 and all(row.get(key) == value for key, value in keys.items())), None)


def run_integration_study(spec: ExperimentSpec):
    """Fuse every scenario's models over low/high/full bands, three ways, one
    ``_cell_task`` per (cell, trial)."""
    return run_experiment(replace(spec, which="IntegrationStudy"))


def _integration_reduce(spec, todo, outcomes, targets):
    cells = targets["integration_study"]["cells"]
    reports = []
    raw_sigma = {}
    published_coeffs = {}
    for scenario, band, cell in _cells(spec, todo, outcomes):
        cell_key = f"{scenario}|{band_label(band)}"
        raw_sigma[cell_key] = {a: [c[a][0] for c, _ in cell] for a in STUDY_ARMS}
        published = _published(cells, scenario, band)["sigma_db"]
        for arm, cfg in _arm_configs(band).items():
            row = _published(targets["published_coefficients"], scenario, band,
                             method=arm)
            published_coeffs[f"{cell_key}|{arm}"] = row["values"] if row else None
            mean_coeffs = sum(c[arm][1] for c, _ in cell) / spec.trials
            names = coefficient_names(cfg.order)
            reports.append(EvaluationReport(
                study="IntegrationStudy", method=arm, scenario=scenario, band_ghz=band,
                sigma_db=float(np.mean(raw_sigma[cell_key][arm])),
                sigma_published_db=published[arm],
                coefficients=dict(zip(names, (float(v) for v in mean_coeffs))),
                n_trials=spec.trials,
            ))
    return StudyResult(
        study="IntegrationStudy",
        config={"seed": spec.seed, "trials": spec.trials},
        reports=reports,
        raw={"sigma_db": raw_sigma},
        extras={"published_coefficients": published_coeffs},
    )


def run_outlier_study(spec: ExperimentSpec):
    """Contamination resilience: sigma growth when a distance band is hit.

    Per cell and trial, each arm is fitted on the clean corpus and on the
    contaminated one; the per-trial ratio uses that trial's own clean sigma
    as the baseline.  The clean corpus is shared across outlier band widths.
    Tasks are those of :func:`run_integration_study`, four corpora each.
    """
    return run_experiment(replace(spec, which="OutlierStudy"))


def _outlier_reduce(spec, todo, outcomes, targets):
    published = targets["outlier_study"]["published"]
    reports = []
    raw = {}
    for scenario, band, cell in _cells(spec, todo, outcomes):
        cell_raw = {
            ob: {a: {"sigma": [], "clean": [], "ratio": []} for a in STUDY_ARMS}
            for ob in OUTLIER_STUDY_BANDS_M
        }
        for clean, contaminated in cell:
            for ob, sigmas in contaminated.items():
                for arm, sigma in sigmas.items():
                    slot = cell_raw[ob][arm]
                    slot["sigma"].append(sigma)
                    slot["clean"].append(clean[arm][0])
                    slot["ratio"].append(error_ratio(sigma, clean[arm][0]))
        raw[f"{scenario}|{band_label(band)}"] = cell_raw
        for ob in OUTLIER_STUDY_BANDS_M:
            for arm in STUDY_ARMS:
                slot = cell_raw[ob][arm]
                row = _published(published, scenario, band, method=arm)
                key = f"{ob:g}"
                reports.append(EvaluationReport(
                    study="OutlierStudy", method=arm, scenario=scenario,
                    band_ghz=band, outlier_band_m=float(ob),
                    sigma_db=float(np.mean(slot["sigma"])),
                    sigma_clean_db=float(np.mean(slot["clean"])),
                    error_ratio_percent=float(np.mean(slot["ratio"])),
                    sigma_published_db=row["sigma_db"].get(key) if row else None,
                    ratio_published_percent=(row["ratio_percent"].get(key)
                                             if row else None),
                    n_trials=spec.trials,
                ))
    return StudyResult(
        study="OutlierStudy",
        config={"seed": spec.seed, "trials": spec.trials,
                "outlier_bands_m": list(OUTLIER_STUDY_BANDS_M),
                "magnitude_db": OUTLIER_STUDY_MAGNITUDE_DB},
        reports=reports,
        raw={"cells": raw},
    )


# ---------------------------------------------------------------------------
# gates and dispatch
# ---------------------------------------------------------------------------


def _order_gates(result, t):
    by_method = {r.method: r for r in result.reports}
    for method, r in by_method.items():
        bound = (r.sigma_published_db, t["tolerance_db"])
        yield f"order/{method}/sigma18", r.sigma_db, "within", bound
        bound = (r.loocv_published_db, t["tolerance_db"])
        yield f"order/{method}/loocv", r.loocv_db, "within", bound
    ordered = [by_method[m] for m in t["require_ordering"]]
    series = {
        "sigma18": [r.sigma_db for r in ordered],
        "loocv": [r.loocv_db for r in ordered],
    }
    yield "order/ordering", series, "ordered", True
    scan = result.extras["surface_scan"]
    for method, need in t["nonmonotone_cells_required"].items():
        name = f"order/{method}/monotonicity"
        counts = scan[method]
        if need:
            yield name, counts["freq_decreasing_cells_low_band"], "above", 0
        else:
            # counts are never negative: at most 0 everywhere means none
            yield name, max(counts.values()), "at_most", 0


def _robust_gates(result, t):
    by_method = {r.method: r for r in result.reports}
    for method, tol_key in (
        ("theil-sen", "theil_sen_with_tolerance_db"),
        ("ols", "ols_with_tolerance_db"),
    ):
        bound = (t["sigma_with_outliers_db"][method], t[tol_key])
        yield f"robust/{method}/sigma", by_method[method].sigma_db, "within", bound
    lo, hi = t["clean_band_db"]
    series = {r.method: [lo, r.sigma_clean_db, hi] for r in result.reports}
    yield "robust/clean-band", series, "ordered", False
    minimal = result.raw["theil_sen_minimal_per_trial"]
    yield "robust/theil-sen-minimal", minimal.count(False), "at_most", 0


def _integration_gates(result, t):
    cells: dict = {}
    for r in result.reports:
        cells.setdefault((r.scenario, r.band_ghz), {})[r.method] = r
    for (scenario, band), methods in cells.items():
        name = f"integration/{scenario}/{band_label(band)}"
        quad = methods[ARM_QUADRATIC]
        bound = (quad.sigma_published_db, t["tolerance_quadratic_db"])
        yield f"{name}/quadratic", quad.sigma_db, "within", bound
        series = {"sigma": [methods[m].sigma_db for m in t["require_ordering"]]}
        yield f"{name}/ordering", series, "ordered", False


def _outlier_gates(result, t):
    exception = t["quadratic_exception"]
    quadratic, pooled = [], []  # every quadratic gate comes first
    for r in result.reports:
        cell = (r.scenario, r.band_ghz)
        band = {"outlier_band_m": r.outlier_band_m}
        name = f"outlier/{r.scenario}/{band_label(r.band_ghz)}/{r.outlier_band_m:g}m"
        if r.method == ARM_QUADRATIC:
            limit = t["quadratic_max_abs_ratio_percent"]
            if _published([exception], *cell, **band):
                limit = exception["max_abs_ratio_percent"]
            ratio = abs(r.error_ratio_percent)
            quadratic.append((f"{name}/quadratic", ratio, "at_most", limit))
        elif r.method == ARM_POOLED and _published(
            t["pooled_min_ratio_cells"], *cell, **band
        ):
            floor = t["pooled_min_ratio_percent"]
            ratio = r.error_ratio_percent
            pooled.append((f"{name}/pooled-degrades", ratio, "above", floor))
    return quadratic + pooled


def _increasing(series, strict):
    steps = [(a, b) for seq in series.values() for a, b in zip(seq, seq[1:])]
    return all(a < b if strict else a <= b for a, b in steps)


def _shown(series, strict):
    shown = ", ".join(f"{k} {[round(v, 3) for v in seq]}" for k, seq in series.items())
    return f"{shown} (expect {'increasing' if strict else 'nondecreasing'})"


#: gate kind -> (pass rule, detail wording), both of ``(value, bound)``; the
#: bound of ``within`` is ``(target, tolerance)``, and ``ordered`` takes a
#: dict of sequences that must each increase (``strict``) or never decrease
_GATE_KINDS = {
    "within": (
        lambda value, bound: abs(value - bound[0]) <= bound[1],
        lambda value, bound: f"{value:.3f} vs {bound[0]:.3f} (tol {bound[1]})",
    ),
    "ordered": (_increasing, _shown),
    "at_most": (
        lambda value, limit: value <= limit,
        lambda value, limit: f"{value:.4g} (limit {limit})",
    ),
    "above": (
        lambda value, floor: value > floor,
        lambda value, floor: f"{value:.4g} (must exceed {floor})",
    ),
}

#: study -> (tasks, task function, reduce, section of
#: ``reference_targets.json``, gate rules); each rule yields ``(name, value,
#: kind, bound)`` per gate from the result and the study's section
_STUDY_TABLE = {
    "OrderStudy": (_order_tasks, _order_task, _order_reduce, "order_study",
                   _order_gates),
    "RobustStudy": (_robust_tasks, _robust_task, _robust_reduce, "robust_study",
                    _robust_gates),
    "IntegrationStudy": (lambda spec: _cell_tasks(spec, "integration"), _cell_task,
                         _integration_reduce, "integration_study", _integration_gates),
    "OutlierStudy": (lambda spec: _cell_tasks(spec, "outlier"), _cell_task,
                     _outlier_reduce, "outlier_study", _outlier_gates),
}
STUDIES = tuple(_STUDY_TABLE)
#: every field of ``ExperimentSpec``, and what it must be
_SPEC_FIELDS = {"which": one_of(STUDIES), "trials": COUNT, "seed": INTEGER}


def run_experiment(spec: ExperimentSpec):
    """Run one study: the targets read, its tasks, each mapped by
    ``_map_tasks``, then its reduce."""
    tasks, task, reduce, *_ = _STUDY_TABLE[spec.which]
    targets = load_reference_targets()
    todo = tasks(spec)
    return reduce(spec, todo, _map_tasks(task, todo), targets)


def evaluate_gates(result: StudyResult):
    """Pass/fail checks of a study against the pinned published targets."""
    *_, section, rules = _STUDY_TABLE[result.study]
    gates = []
    targets = load_reference_targets()[section]
    for name, value, kind, bound in rules(result, targets):
        passes, detail = _GATE_KINDS[kind]
        gates.append(GateCheck(name, bool(passes(value, bound)), detail(value, bound)))
    return gates
