"""Scoring metrics, leave-one-out machinery, gate evaluation, and the
studies' worker pool."""

import json
import multiprocessing
import re
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pathfuse
from pathfuse import cli, evaluation
from pathfuse.atmosphere import load_default_table, predict_total
from pathfuse.errors import ConfigError, DataError, MetricError
from pathfuse.estimators import solve_wls, weighted_rms
from pathfuse.io import load_registry
from pathfuse.evaluation import (
    STUDIES,
    EvaluationReport,
    StudyResult,
    error_ratio,
    evaluate_gates,
    loocv,
    run_experiment,
    run_integration_study,
    run_order_study,
    run_outlier_study,
    run_robust_study,
    ExperimentSpec,
)
from pathfuse.models import (
    CoefficientSet,
    FittedModel,
    build_design_system,
)
from pathfuse.pipeline import PipelineConfig, compute_weights, fit_pathloss_model
from pathfuse.seeding import substream
from pathfuse.synthesis import SynthesisSpec, synthesize_corpus

from conftest import ROBUST_SEED, make_model, sample_batch


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
        provenance={},
    )


def test_weighted_std_hand_value():
    # the weighted residual std of the zero surface at d=f=1 against losses
    # {3, 0} with weights {1, 3}: sqrt((1*9 + 3*0) / 4) = 1.5
    model = _flat_zero_model()
    samples = sample_batch([1.0, 1.0], [1.0, 1.0], [3.0, 0.0], ["a", "b"])
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


def test_fit_records_the_loocv_of_its_prefiltered_weighted_fit():
    # with the Theil-Sen prefilter and Mixture weights, the recorded LOOCV is
    # that of literal refits over the survivors, each left out in turn
    models = _trio()
    sigmas = {m.id: m.sigma for m in models}
    corpus = synthesize_corpus(models, SynthesisSpec(points_per_model=30),
                               substream(5, "loocv", "spikes"))
    hit = [4, 33, 71]
    loss = corpus.path_loss.copy()
    loss[hit] += 60.0
    spiked = corpus.with_path_loss(loss)
    cfg = PipelineConfig(order=1, weighting="Mixture", robust="TheilSen",
                         gas_correction=False)
    model, diag = fit_pathloss_model(spiked, cfg, sigma_by_source=sigmas)
    assert not diag.inlier_mask[hit].any()

    survivors = spiked.take(diag.inlier_mask)
    X, Y = build_design_system(survivors, order=1)
    w = compute_weights(survivors, "Mixture", sigmas)
    resid = np.empty(len(Y))
    for i in range(len(Y)):
        keep = np.arange(len(Y)) != i
        beta = solve_wls(X[keep], Y[keep], w[keep])
        resid[i] = Y[i] - X[i] @ beta
    assert model.provenance["loocv_db"] == pytest.approx(weighted_rms(resid, w),
                                                         abs=1e-8)


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


def test_order_study_loocv_is_that_of_loocv():
    # the study fits its three orders on each trial's one LOOCV corpus
    scenario = evaluation.ORDER_STUDY_SCENARIO
    models = [m for m in load_registry() if m.scenario == scenario]
    span = (min(m.dist_min for m in models), max(m.dist_max for m in models))
    span_models = [replace(m, dist_min=span[0], dist_max=span[1]) for m in models]
    synth = SynthesisSpec(points_per_model=evaluation.ORDER_STUDY_POINTS,
                          distance_sampling=evaluation.STUDY_DISTANCE_SAMPLING)
    result = run_order_study(ExperimentSpec(which="OrderStudy", trials=2, seed=3))
    assert list(result.raw["loocv_db"]) == list(evaluation._ORDER_CONFIGS)
    for arm, cfg in evaluation._ORDER_CONFIGS.items():
        want = loocv(span_models, cfg, synthesis=synth, trials=2, seed=3)
        assert result.raw["loocv_db"][arm] == want


@pytest.mark.parametrize("field, value", [
    ("trials", True), ("trials", 2.0), ("seed", 1.5), ("seed", "3"), ("seed", True),
])
def test_spec_takes_only_integer_trials_and_seed(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be an? (positive )?integer"):
        ExperimentSpec(which="RobustStudy", **{field: value})


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


def _fabricated_outlier_gates(exception_ratio):
    """Outlier gates of hand-made UMiSC reports: ``[(name, passed, detail)]``."""
    high, low = (28.0, 73.5), (2.0, 18.0)
    cells = [  # (arm, band, outlier band width, error ratio %)
        ("quadratic-abg", high, 30.0, exception_ratio),
        ("quadratic-abg", high, 50.0, 2.1),
        ("pooled-abg", high, 50.0, 12.0),
        ("pooled-abg", low, 50.0, 12.0),
        ("pooled-abg", low, 30.0, 12.0),
        ("weighted-abg", low, 50.0, 12.0),
    ]
    reports = [
        EvaluationReport(study="OutlierStudy", method=arm, sigma_db=5.0,
                         scenario="UMiSC", band_ghz=band, outlier_band_m=width,
                         error_ratio_percent=ratio, n_trials=10)
        for arm, band, width, ratio in cells
    ]
    result = StudyResult(study="OutlierStudy", config={}, reports=reports)
    return [(g.name, g.passed, g.detail) for g in evaluate_gates(result)]


def test_outlier_gates_match_cells_by_band_width():
    # only the 30 m cell of 28-73.5 GHz has the 6% exception; its 50 m cell
    # keeps the 2% limit, and only listed pooled cells get a degrade gate
    assert _fabricated_outlier_gates(5.9) == [
        ("outlier/UMiSC/28-73.5/30m/quadratic", True, "5.9 (limit 6.0)"),
        ("outlier/UMiSC/28-73.5/50m/quadratic", False, "2.1 (limit 2.0)"),
        ("outlier/UMiSC/2-18/50m/pooled-degrades", True, "12 (must exceed 10.0)"),
    ]
    assert _fabricated_outlier_gates(6.1)[0] == (
        "outlier/UMiSC/28-73.5/30m/quadratic", False, "6.1 (limit 6.0)"
    )


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


def test_robust_trials_that_would_repeat_method_seeds_are_refused(monkeypatch):
    # trial t draws its folds and RANSAC subsets from seed * 1000 + t, so a
    # 1001st trial of seed 0 would be trial 0 of seed 1 again
    def synthesize(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(evaluation, "synthesize_from_model", synthesize)
    with pytest.raises(ConfigError, match="at most 1000 trials, got 1001"):
        run_robust_study(ExperimentSpec(which="RobustStudy", trials=1001))
    assert cli.main(["experiment", "--which", "robust", "--trials", "1001"]) == 2
    tasks = evaluation._robust_tasks(ExperimentSpec(which="RobustStudy", trials=1000))
    assert [task[1] for task in tasks] == list(range(1000))


def test_pinned_seed_run_passes_every_gate(robust_result):
    gates = evaluate_gates(robust_result)
    assert all(g.passed for g in gates), [g for g in gates if not g.passed]
    assert robust_result.config["seed"] == ROBUST_SEED


# ---------------------------------------------------------------------------
# the studies' worker pool
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("runner, which", [
    (run_order_study, "OrderStudy"),
    (run_robust_study, "RobustStudy"),
    (run_integration_study, "IntegrationStudy"),
    (run_outlier_study, "OutlierStudy"),
])
def test_worker_count_changes_no_bit(runner, which, monkeypatch):
    spec = ExperimentSpec(which=which, trials=2, seed=1)
    results = []
    for workers in (1, 2):
        monkeypatch.setattr(evaluation, "_workers", lambda: workers)
        results.append(runner(spec))
    one, two = results
    assert one.reports == two.reports  # every field, compared exactly
    assert one.raw == two.raw


@pytest.mark.parametrize("which", STUDIES)
def test_no_study_encodes_source_ids(which, monkeypatch):
    # a synthesized corpus carries its group codes: no fit sorts id strings
    def refuse(*args, **kwargs):
        raise AssertionError("np.unique was called")

    monkeypatch.setattr(np, "unique", refuse)
    monkeypatch.setattr(evaluation, "_workers", lambda: 1)
    monkeypatch.setattr(evaluation, "SCENARIO_BANDS", {
        scenario: dict.fromkeys(bands, 30)
        for scenario, bands in evaluation.SCENARIO_BANDS.items()
    })
    assert run_experiment(ExperimentSpec(which=which, trials=1, seed=1)).reports


def _fail_one_cell(monkeypatch):
    """Workers forked after this inherit a synthesis that fails in one cell."""
    real = evaluation.synthesize_corpus
    points = evaluation.SCENARIO_BANDS["UMiOS"][(29.0, 60.0)]

    def synthesize(models, synth, rng):
        if synth.points_per_model == points:
            raise DataError("planted failure in one cell")
        return real(models, synth, rng)

    monkeypatch.setattr(evaluation, "synthesize_corpus", synthesize)
    monkeypatch.setattr(evaluation, "_workers", lambda: 2)


def _fail_one_robust_trial(monkeypatch, seed):
    """Workers forked after this inherit a synthesis that fails in trial 1."""
    real = evaluation.synthesize_from_model
    failing = substream(seed, "robust", "synth", 1).bit_generator.state

    def synthesize(model, synth, rng):
        if rng.bit_generator.state == failing:
            raise DataError("planted failure in one trial")
        return real(model, synth, rng)

    monkeypatch.setattr(evaluation, "synthesize_from_model", synthesize)
    monkeypatch.setattr(evaluation, "_workers", lambda: 2)


def _fail_one_order_trial(monkeypatch, seed):
    """The order study's one task fails in trial 1 of its training corpora."""
    real = evaluation.synthesize_corpus
    failing = substream(seed, "order", "train", 1).bit_generator.state

    def synthesize(models, synth, rng):
        if rng.bit_generator.state == failing:
            raise DataError("planted failure in one trial")
        return real(models, synth, rng)

    monkeypatch.setattr(evaluation, "synthesize_corpus", synthesize)
    monkeypatch.setattr(evaluation, "_workers", lambda: 2)


@pytest.mark.parametrize("which", STUDIES)
def test_a_failing_worker_raises_its_own_error(which, monkeypatch):
    trials = 1  # one trial per cell: the multi-band studies still fork
    if which == "OrderStudy":
        _fail_one_order_trial(monkeypatch, seed=1)
        trials = 2
    elif which == "RobustStudy":
        _fail_one_robust_trial(monkeypatch, seed=1)
        trials = 2  # so that two workers really fork
    else:
        _fail_one_cell(monkeypatch)
    with pytest.raises(DataError, match="planted failure"):
        run_experiment(ExperimentSpec(which=which, trials=trials, seed=1))
    assert multiprocessing.active_children() == []


def test_a_failing_worker_keeps_its_exit_code(monkeypatch, capsys):
    _fail_one_cell(monkeypatch)
    rc = cli.main(["experiment", "--which", "table4", "--trials", "1"])
    assert rc == 3
    assert "planted failure" in capsys.readouterr().err
    assert multiprocessing.active_children() == []
    _fail_one_robust_trial(monkeypatch, seed=0)
    rc = cli.main(["experiment", "--which", "table3", "--trials", "2"])
    assert rc == 3
    assert "planted failure" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("which", STUDIES)
def test_tasks_run_in_reverse_order_change_no_bit(which, monkeypatch):
    # every task draws only from its own keyed substreams, so the order the
    # tasks run in cannot matter once the outcomes are back in task order
    # (the order study is one task, which this leaves as it is)
    spec = ExperimentSpec(which=which, trials=2, seed=1)
    want = run_experiment(spec)
    real, mapped = evaluation._map_tasks, []

    def in_reverse(fn, tasks):
        mapped.append(len(tasks))
        return real(fn, tasks[::-1])[::-1]

    monkeypatch.setattr(evaluation, "_map_tasks", in_reverse)
    monkeypatch.setattr(evaluation, "_workers", lambda: 1)  # run in that order
    got = run_experiment(spec)
    # one task, one per trial, or one per (cell, trial) over the 9 cells
    assert mapped == [{"OrderStudy": 1, "RobustStudy": 2}.get(which, 2 * 9)]
    assert got.reports == want.reports  # every field, compared exactly
    np.testing.assert_equal(vars(got), vars(want))


def _break_targets(data, case):
    path = data / "reference_targets.json"
    if case == "truncated":
        path.write_text(path.read_text()[:-2])
    else:
        targets = json.loads(path.read_text())
        del targets["integration_study"]["cells"][6]  # UMa 2-18 GHz
        path.write_text(json.dumps(targets))


@pytest.mark.parametrize("case", ["truncated", "missing-cell"])
@pytest.mark.parametrize("which", STUDIES)
def test_bad_targets_stop_a_study_before_its_first_task(
    which, case, tmp_path, monkeypatch
):
    data = tmp_path / "data"
    shutil.copytree(Path(pathfuse.__file__).with_name("data"), data)
    _break_targets(data, case)
    monkeypatch.setenv("PATHFUSE_DATA_DIR", str(data))
    mapped = []
    monkeypatch.setattr(evaluation, "_map_tasks",
                        lambda fn, tasks: mapped.append(len(tasks)))
    targets = re.escape(str(data / "reference_targets.json"))
    with pytest.raises(DataError, match=targets):
        run_experiment(ExperimentSpec(which, trials=1))
    assert mapped == []
