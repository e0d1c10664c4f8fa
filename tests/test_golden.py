"""Study numbers pinned against recorded snapshots.

Order and Robust at their pinned seeds must reproduce the benchmark's golden
snapshot (``perfbench/golden.json``) and pass every gate.  Integration and
Outlier are pinned on a reduced protocol (one trial, 30 samples per model)
recorded in ``tests/data/golden_studies_small.json``.
"""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from pathfuse.evaluation import (
    ExperimentSpec,
    evaluate_gates,
    run_integration_study,
    run_outlier_study,
)
from perfbench.workloads import load_golden, report_values

from conftest import ORDER_SEED, ROBUST_SEED

TOLERANCE_DB = 1e-12
SMALL_GOLDEN = Path(__file__).with_name("data") / "golden_studies_small.json"


def _assert_matches(expected, actual):
    assert set(actual) == set(expected)
    for key, values in expected.items():
        assert set(actual[key]) == set(values), key
        for name, want in values.items():
            assert abs(actual[key][name] - want) <= TOLERANCE_DB, (key, name)


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
    for result, count in ((order_result, 9), (robust_result, 4)):
        gates = evaluate_gates(result)
        assert len(gates) == count
        assert all(g.passed for g in gates), [g for g in gates if not g.passed]


@pytest.mark.parametrize(
    "which, runner",
    [("IntegrationStudy", run_integration_study), ("OutlierStudy", run_outlier_study)],
)
def test_reduced_multiband_studies_match_the_record(which, runner):
    with open(SMALL_GOLDEN) as fh:
        record = json.load(fh)
    result = runner(ExperimentSpec(which=which, **record["spec"]))
    expected = {
        key: values
        for key, values in record["reports"].items()
        if key.startswith(f"{which}|")
    }
    assert expected
    _assert_matches(expected, _study_values(result))
