"""Core surface types: design columns, prediction, validation."""

import numpy as np
import pytest

from pathfuse.errors import InsufficientDataError
from pathfuse.models import (
    ORDER_SIZES,
    CoefficientSet,
    FittedModel,
    PathLossSample,
    SampleBatch,
    build_design_system,
    coefficient_names,
    column_names,
    design_matrix,
    predict_abg,
)

from conftest import make_model


def test_order_sizes():
    assert ORDER_SIZES == {1: 3, 2: 6, 3: 10}


def test_column_and_coefficient_names_align_with_sizes():
    for order, size in ORDER_SIZES.items():
        assert len(column_names(order)) == size
        assert len(coefficient_names(order)) == size
    assert column_names(1) == ("Ld", "1", "Lf")
    assert coefficient_names(1) == ("alpha", "beta", "gamma")


def test_invalid_order_rejected():
    with pytest.raises(ValueError):
        column_names(0)
    with pytest.raises(ValueError):
        design_matrix(4, [10.0], [2.0])


def design_row(order, d, f):
    """The design row of one (d, f) point: row 0 of ``design_matrix``."""
    return design_matrix(order, d, f)[0]


def test_design_row_at_ten_metres_ten_ghz():
    # both log coordinates equal exactly 10, so every quadratic column is 100
    row = design_row(2, 10.0, 10.0)
    assert row.tolist() == [10.0, 1.0, 10.0, 100.0, 100.0, 100.0]


def test_design_row_order1_at_unit_frequency():
    row = design_row(1, 100.0, 1.0)
    assert row.tolist() == [20.0, 1.0, 0.0]


def test_design_row_order3_has_cubic_columns():
    row = design_row(3, 10.0, 100.0)
    # Ld = 10, Lf = 20
    assert row.tolist() == [
        10.0, 1.0, 20.0, 100.0, 200.0, 400.0, 1000.0, 2000.0, 4000.0, 8000.0,
    ]


def test_predict_abg_hand_value():
    # 3.5*20 + 25 + 2*10*log10(2) = 101.0205999...
    val = predict_abg(3.5, 25.0, 2.0, 100.0, 2.0)
    assert val == pytest.approx(101.0206, abs=1e-4)


def test_predict_abg_rejects_nonpositive_inputs():
    with pytest.raises(ValueError):
        predict_abg(3.5, 25.0, 2.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        predict_abg(3.5, 25.0, 2.0, 100.0, -1.0)


def test_coefficient_predict_matches_design_dot_product():
    rng = np.random.default_rng(7)
    for order in (1, 2, 3):
        vals = rng.uniform(-4.0, 4.0, ORDER_SIZES[order])
        cs = CoefficientSet(order, tuple(vals))
        d = rng.uniform(10.0, 300.0, 20)
        f = rng.uniform(1.0, 80.0, 20)
        expect = design_matrix(order, d, f) @ vals
        assert np.allclose(cs.predict(d, f), expect, rtol=0, atol=1e-12)


def test_coefficient_set_validates_length_and_finiteness():
    with pytest.raises(ValueError):
        CoefficientSet(2, (1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        CoefficientSet(1, (1.0, np.nan, 3.0))


def test_source_model_validation():
    with pytest.raises(ValueError):
        make_model(scenario="Rural")
    with pytest.raises(ValueError):
        make_model(dist_min=200.0, dist_max=100.0)
    with pytest.raises(ValueError):
        make_model(sigma=0.0)
    with pytest.raises(ValueError):
        make_model(frequency=-28.0)
    with pytest.raises(ValueError):
        make_model(data_type="Simulated")
    with pytest.raises(ValueError):
        make_model(n_points=0)


def test_source_model_predict_defaults_to_own_frequency():
    m = make_model()
    assert m.predict(100.0) == m.predict(100.0, m.frequency)
    assert m.predict(100.0) == pytest.approx(
        predict_abg(m.alpha, m.beta, m.gamma, 100.0, m.frequency)
    )


def test_sample_validation_and_shift():
    with pytest.raises(ValueError):
        PathLossSample(distance=-1.0, frequency=2.0, path_loss=90.0, source_id="x")
    with pytest.raises(ValueError):
        PathLossSample(distance=10.0, frequency=2.0, path_loss=np.inf, source_id="x")
    batch = SampleBatch([10.0, 20.0], [2.0, 2.0], [90.0, 91.0], ["x", "x"])
    shifted = batch.with_path_loss(batch.path_loss + 5.0)
    assert shifted.path_loss.tolist() == [95.0, 96.0]
    assert shifted.distance.tolist() == batch.distance.tolist()
    assert batch.path_loss.tolist() == [90.0, 91.0]


@pytest.mark.parametrize(
    "column, value, reason",
    [
        ("distance", 0.0, "distance must be > 0"),
        ("distance", np.nan, "distance must be finite"),
        ("frequency", -2.0, "frequency must be > 0"),
        ("path_loss", np.inf, "path_loss must be finite"),
    ],
)
def test_sample_batch_names_its_first_bad_row(column, value, reason):
    columns = {
        "distance": [10.0, 20.0, 30.0, 40.0],
        "frequency": [2.0, 2.0, 28.0, 28.0],
        "path_loss": [80.0, 90.0, 100.0, 110.0],
        "source_id": ["a", "a", "b", "b"],
    }
    columns[column][2] = value
    columns[column][3] = value
    with pytest.raises(ValueError, match=f"^sample 2: {reason}"):
        SampleBatch(**columns)


def test_taken_batch_groups_match_its_own_ids():
    batch = SampleBatch(
        [10.0, 20.0, 30.0, 40.0], [2.0, 9.0, 28.0, 9.0], [80.0] * 4, ["c", "a", "b", "a"]
    )
    batch.groups()
    taken = batch.take(batch.frequency > 5.0)  # source "c" drops out
    ids, group = taken.groups()
    want_ids, want_group = np.unique(taken.source_id, return_inverse=True)
    assert ids.tolist() == want_ids.tolist() == ["a", "b"]
    assert group.tolist() == want_group.tolist() == [0, 1, 0]


def _samples(d, f, y, sid="m"):
    return SampleBatch(d, f, y, [sid] * len(d))


def test_build_design_system_shapes():
    d = [10.0, 50.0, 100.0, 200.0, 20.0, 80.0, 150.0, 60.0]
    f = [2.0, 2.0, 28.0, 28.0, 9.0, 9.0, 2.0, 28.0]
    y = [80.0, 95.0, 110.0, 120.0, 85.0, 102.0, 99.0, 107.0]
    X, Y = build_design_system(_samples(d, f, y), order=2)
    assert X.shape == (8, 6)
    assert Y.tolist() == y


def test_build_design_system_pinned_frequency_slope():
    # pinning the frequency slope moves its contribution into the response
    # and leaves the two-column line system
    d = [10.0, 50.0, 100.0]
    f = [4.0, 4.0, 4.0]
    y = [80.0, 95.0, 110.0]
    gamma = 2.0
    X, Y = build_design_system(_samples(d, f, y), order=1, pin_gamma=gamma)
    assert X.shape == (3, 2)
    lf = 10.0 * np.log10(4.0)
    assert np.allclose(Y, np.asarray(y) - gamma * lf)
    with pytest.raises(ValueError):
        build_design_system(_samples(d, f, y), order=2, pin_gamma=gamma)


def test_build_design_system_needs_enough_samples():
    d, f, y = [10.0, 50.0], [2.0, 2.0], [80.0, 95.0]
    with pytest.raises(InsufficientDataError):
        build_design_system(_samples(d, f, y), order=1)


def test_fitted_model_covers_is_inclusive():
    model = FittedModel(
        coefficients=CoefficientSet(1, (3.5, 25.0, 2.0)),
        sigma=1.0,
        gas_corrected=False,
        freq_range=(2.0, 28.0),
        dist_range=(10.0, 200.0),
    )
    assert model.covers(10.0, 2.0)
    assert model.covers(200.0, 28.0)
    assert not model.covers(9.99, 2.0)
    assert not model.covers(100.0, 28.01)
    assert model.order == 1
