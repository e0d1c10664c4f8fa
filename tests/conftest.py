"""Shared fixtures: the four benchmark studies run once per session.

The studies are deterministic for a fixed seed, so every test that needs one
shares the same result object.  Seeds are pinned to the values the package's
own regression baseline uses (order: 0, the rest: 1).
"""

import numpy as np
import pytest

from pathfuse.evaluation import (
    ExperimentSpec,
    run_integration_study,
    run_order_study,
    run_outlier_study,
    run_robust_study,
)
from pathfuse.io import SourceModel
from pathfuse.models import SampleBatch

ORDER_SEED = 0
ROBUST_SEED = 1
INTEGRATION_SEED = 1
OUTLIER_SEED = 1


def make_model(**overrides):
    """A valid small-cell source model; override any field for a test."""
    fields = dict(
        id="test-28ghz",
        environment="NLOS",
        scenario="UMiSC",
        frequency=28.0,
        source="unit-test",
        n_points=50,
        dist_min=30.0,
        dist_max=200.0,
        data_type="Measurement",
        alpha=3.4,
        beta=20.0,
        gamma=2.0,
        sigma=8.0,
    )
    fields.update(overrides)
    return SourceModel(**fields)


def sample_batch(distance, frequency, path_loss, source_ids):
    """A SampleBatch of the given columns and one source id per row."""
    return SampleBatch(distance, frequency, path_loss,
                       *np.unique(source_ids, return_inverse=True))


@pytest.fixture(scope="session")
def order_result():
    return run_order_study(
        ExperimentSpec(which="OrderStudy", trials=10, seed=ORDER_SEED)
    )


@pytest.fixture(scope="session")
def robust_result():
    return run_robust_study(
        ExperimentSpec(which="RobustStudy", trials=10, seed=ROBUST_SEED)
    )


@pytest.fixture(scope="session")
def integration_result():
    return run_integration_study(
        ExperimentSpec(which="IntegrationStudy", trials=10, seed=INTEGRATION_SEED)
    )


@pytest.fixture(scope="session")
def outlier_result():
    return run_outlier_study(
        ExperimentSpec(which="OutlierStudy", trials=10, seed=OUTLIER_SEED)
    )
