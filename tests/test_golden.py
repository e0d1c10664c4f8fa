"""Study numbers pinned against recorded snapshots.

Order, Robust and Integration at their pinned seeds must reproduce the
benchmark's golden snapshot (``perfbench/golden.json``), and all four
studies must pass every one of their 60 gates at the pinned seeds, with
the names and details recorded in ``tests/data/golden_gates.json`` (the
lines ``pathfuse experiment`` prints).
Integration and Outlier are also pinned on a reduced protocol (one trial,
30 samples per model) recorded in ``tests/data/golden_studies_small.json``;
the test sets every cell of ``evaluation.SCENARIO_BANDS`` to the record's
``points_per_model``.  The Outlier study's full report at its pinned seed
(sigma, clean sigma and ratio of all 81 rows) is pinned in
``tests/data/golden_outlier_study.json``.
"""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from pathfuse import evaluation
from pathfuse.evaluation import (
    ExperimentSpec,
    evaluate_gates,
    run_integration_study,
    run_outlier_study,
)
from perfbench.workloads import load_golden, report_values

from conftest import INTEGRATION_SEED, ORDER_SEED, OUTLIER_SEED, ROBUST_SEED

TOLERANCE_DB = 1e-12
SMALL_GOLDEN = Path(__file__).with_name("data") / "golden_studies_small.json"
GOLDEN_GATES = Path(__file__).with_name("data") / "golden_gates.json"
OUTLIER_GOLDEN = Path(__file__).with_name("data") / "golden_outlier_study.json"


def _assert_matches(expected, actual):
    assert set(actual) == set(expected)
    for key, values in expected.items():
        assert set(actual[key]) == set(values), key
        for name, want in values.items():
            assert abs(actual[key][name] - want) <= TOLERANCE_DB, (key, name)


def _assert_gates_pass(result, count):
    gates = evaluate_gates(result)
    assert len(gates) == count
    assert all(g.passed for g in gates), [g for g in gates if not g.passed]


def _study_values(result):
    """``report_values`` with the outlier band width appended to each key."""
    out = {}
    for band in dict.fromkeys(r.outlier_band_m for r in result.reports):
        part = report_values(
            SimpleNamespace(
                reports=[r for r in result.reports if r.outlier_band_m == band]
            )
        )
        out.update(
            {key if band is None else f"{key}|{band:g}m": v for key, v in part.items()}
        )
    return out


def test_order_and_robust_match_the_benchmark_snapshot(order_result, robust_result):
    golden = load_golden()["small-studies"]
    assert golden["seed"] == ORDER_SEED == ROBUST_SEED - 1
    actual = {**_study_values(order_result), **_study_values(robust_result)}
    _assert_matches(golden["reports"], actual)
    _assert_gates_pass(order_result, 9)
    _assert_gates_pass(robust_result, 4)


def test_integration_matches_the_benchmark_snapshot(integration_result):
    golden = load_golden()["integration"]
    assert golden["seed"] == INTEGRATION_SEED
    _assert_matches(golden["reports"], report_values(integration_result))
    _assert_gates_pass(integration_result, 18)


def test_outlier_study_passes_every_gate(outlier_result):
    _assert_gates_pass(outlier_result, 29)


def test_outlier_study_matches_the_record(outlier_result):
    with open(OUTLIER_GOLDEN) as fh:
        record = json.load(fh)
    spec = {"which": "OutlierStudy", "trials": 10, "seed": OUTLIER_SEED}
    assert record["spec"] == spec
    assert len(record["reports"]) == 81
    _assert_matches(record["reports"], _study_values(outlier_result))


def test_gates_match_the_record(
    order_result, robust_result, integration_result, outlier_result
):
    with open(GOLDEN_GATES) as fh:
        record = json.load(fh)
    results = (order_result, robust_result, integration_result, outlier_result)
    actual = {
        result.study: [[g.name, g.passed, g.detail] for g in evaluate_gates(result)]
        for result in results
    }
    assert list(actual) == list(record)
    for study, gates in record.items():
        assert actual[study] == gates, study


@pytest.mark.parametrize(
    "which, runner",
    [("IntegrationStudy", run_integration_study), ("OutlierStudy", run_outlier_study)],
)
def test_reduced_multiband_studies_match_the_record(which, runner, monkeypatch):
    with open(SMALL_GOLDEN) as fh:
        record = json.load(fh)
    spec = dict(record["spec"])
    points = spec.pop("points_per_model")
    monkeypatch.setattr(evaluation, "SCENARIO_BANDS", {
        scenario: dict.fromkeys(bands, points)
        for scenario, bands in evaluation.SCENARIO_BANDS.items()
    })
    result = runner(ExperimentSpec(which=which, **spec))
    expected = {
        key: values
        for key, values in record["reports"].items()
        if key.startswith(f"{which}|")
    }
    assert expected
    _assert_matches(expected, _study_values(result))
