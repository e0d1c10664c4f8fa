"""Scoring metrics, leave-one-out machinery, and gate evaluation."""

import numpy as np
import pytest

from pathfuse.atmosphere import load_default_table, predict_total
from pathfuse.errors import ConfigError, MetricError
from pathfuse.estimators import solve_wls, weighted_rms
from pathfuse.evaluation import (
    EvaluationReport,
    StudyResult,
    error_ratio,
    evaluate_gates,
    loocv,
    run_robust_study,
    ExperimentSpec,
)
from pathfuse.models import (
    CoefficientSet,
    FittedModel,
    SampleBatch,
    build_design_system,
)
from pathfuse.pipeline import PipelineConfig, compute_weights
from pathfuse.seeding import substream
from pathfuse.synthesis import SynthesisSpec, synthesize_corpus

from conftest import ROBUST_SEED, make_model


def test_error_ratio_hand_value():
    assert error_ratio(8.94, 7.95) == pytest.approx(100 * 0.99 / 7.95, rel=1e-12)
    assert error_ratio(8.94, 7.95) == pytest.approx(12.4528, abs=1e-4)
    assert error_ratio(5.0, 5.0) == 0.0
    with pytest.raises(MetricError):
        error_ratio(3.0, 0.0)
    with pytest.raises(MetricError):
        error_ratio(3.0, -1.0)


def _flat_zero_model():
    return FittedModel(
        coefficients=CoefficientSet(order=1, values=(0.0, 0.0, 0.0)),
        sigma=0.0,
        freq_range=(1.0, 100.0),
        dist_range=(1.0, 1000.0),
        gas_corrected=False,
        weighting="Identity",
        provenance={},
    )


def test_weighted_std_hand_value():
    # the weighted residual std of the zero surface at d=f=1 against losses
    # {3, 0} with weights {1, 3}: sqrt((1*9 + 3*0) / 4) = 1.5
    model = _flat_zero_model()
    samples = SampleBatch([1.0, 1.0], [1.0, 1.0], [3.0, 0.0], ["a", "b"])
    pred = predict_total(model, samples.distance, samples.frequency)
    resid = samples.path_loss - pred
    assert weighted_rms(resid, np.array([1.0, 3.0])) == pytest.approx(1.5, rel=1e-12)
    assert weighted_rms(resid) == pytest.approx(np.sqrt(4.5), rel=1e-12)


def test_predict_total_adds_gas_only_when_removed():
    table = load_default_table()
    raw = _flat_zero_model()
    assert predict_total(raw, 100.0, 60.0) == raw.predict(100.0, 60.0)
    corrected = FittedModel(
        coefficients=raw.coefficients,
        sigma=0.0,
        freq_range=raw.freq_range,
        dist_range=raw.dist_range,
        gas_corrected=True,
        weighting="Identity",
        provenance={},
    )
    lifted = predict_total(corrected, 1000.0, 60.0)
    assert lifted == pytest.approx(table.gas_loss(1000.0, 60.0), rel=1e-12)
    assert lifted > 10.0


# ---------------------------------------------------------------------------
# leave-one-out
# ---------------------------------------------------------------------------


def _trio(sigma=6.0):
    return [
        make_model(id="a-2ghz", frequency=2.0, sigma=sigma),
        make_model(id="b-9ghz", frequency=9.0, sigma=sigma),
        make_model(id="c-28ghz", frequency=28.0, sigma=sigma),
    ]


def test_sample_scheme_matches_explicit_refits():
    # the closed-form deletion residuals must agree with literally
    # refitting without each sample
    models = _trio()
    spec = SynthesisSpec(points_per_model=30)
    cfg = PipelineConfig(order=1, weighting="Mixture", robust=None,
                         gas_correction=False)
    (got,) = loocv(models, cfg, synthesis=spec, trials=1, seed=5)

    corpus = synthesize_corpus(models, spec, substream(5, "loocv", "synth", 0))
    X, Y = build_design_system(corpus, order=1)
    w = compute_weights(corpus, "Mixture", {m.id: m.sigma for m in models})
    resid = np.empty(len(Y))
    for i in range(len(Y)):
        keep = np.arange(len(Y)) != i
        beta = solve_wls(X[keep], Y[keep], w[keep])
        resid[i] = Y[i] - X[i] @ beta
    assert got == pytest.approx(weighted_rms(resid, w), abs=1e-8)


def test_loocv_vanishes_on_noiseless_models():
    models = _trio(sigma=1e-9)
    cfg = PipelineConfig(order=1, weighting="Identity", robust=None,
                         gas_correction=False)
    spec = SynthesisSpec(points_per_model=40)
    per_trial = loocv(models, cfg, synthesis=spec, trials=2)
    assert len(per_trial) == 2
    assert max(per_trial) < 1e-6


def test_loocv_rejects_bad_arguments():
    cfg = PipelineConfig(order=1, robust=None, gas_correction=False)
    with pytest.raises(ConfigError):
        loocv(_trio()[:2], cfg, synthesis=SynthesisSpec())


# ---------------------------------------------------------------------------
# gate evaluation
# ---------------------------------------------------------------------------


def _fabricated_robust_result(ols_sigma=4.749):
    reports = [
        EvaluationReport(study="RobustStudy", method="theil-sen",
                         sigma_db=3.902, sigma_clean_db=3.634, n_trials=10),
        EvaluationReport(study="RobustStudy", method="ols",
                         sigma_db=ols_sigma, sigma_clean_db=3.633, n_trials=10),
        EvaluationReport(study="RobustStudy", method="ransac",
                         sigma_db=4.654, sigma_clean_db=3.631, n_trials=10),
    ]
    return StudyResult(
        study="RobustStudy",
        config={},
        reports=reports,
        raw={"theil_sen_minimal_per_trial": [True] * 10},
    )


def test_gates_pass_on_target_values():
    gates = evaluate_gates(_fabricated_robust_result())
    assert gates and all(g.passed for g in gates)


def test_single_gate_trips_on_perturbed_sigma():
    gates = evaluate_gates(_fabricated_robust_result(ols_sigma=5.2))
    failed = [g.name for g in gates if not g.passed]
    assert failed == ["robust/ols/sigma"]


def test_minimality_gate_reads_per_trial_flags():
    result = _fabricated_robust_result()
    result.raw["theil_sen_minimal_per_trial"][4] = False
    gates = evaluate_gates(result)
    failed = [g.name for g in gates if not g.passed]
    assert failed == ["robust/theil-sen-minimal"]


# ---------------------------------------------------------------------------
# stability of the headline robustness claim across seeds
# ---------------------------------------------------------------------------


def test_median_fit_stays_minimal_across_seeds():
    # the winner must not be an artifact of the pinned seed.  (The full
    # ransac < ols gap is a property of the benchmark seed -- at some seeds
    # the consensus set keeps everything and the two coincide -- so only
    # the headline minimality claim is demanded of every seed.)
    for seed in range(10):
        result = run_robust_study(
            ExperimentSpec(which="RobustStudy", trials=3, seed=seed)
        )
        assert all(result.raw["theil_sen_minimal_per_trial"]), f"seed {seed}"
        by_method = {r.method: r.sigma_db for r in result.reports}
        rest = min(v for k, v in by_method.items() if k != "theil-sen")
        assert by_method["theil-sen"] < rest, f"seed {seed}: {by_method}"
        assert by_method["ransac"] <= by_method["ols"]


def test_pinned_seed_run_passes_every_gate(robust_result):
    gates = evaluate_gates(robust_result)
    assert all(g.passed for g in gates), [g for g in gates if not g.passed]
    assert robust_result.config["seed"] == ROBUST_SEED
