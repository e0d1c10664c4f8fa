"""Core surface types: design columns, prediction, validation."""

from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathfuse.errors import InsufficientDataError
from pathfuse.models import (
    ORDER_SIZES,
    CoefficientSet,
    FittedModel,
    InvalidSampleError,
    PathLossSample,
    SampleBatch,
    build_design_system,
    coefficient_names,
    column_names,
    design_matrix,
    predict_abg,
)

from conftest import make_model, sample_batch


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


@pytest.mark.parametrize("order", [True, 1.0, 2.0])
def test_an_order_that_only_equals_an_int_is_rejected(order):
    # True == 1 and 2.0 == 2, but a model of such an order would be saved as
    # true or 2.0, which load_model refuses
    values = (30.0, 20.0, 2.0, 0.0, 0.0, 0.0)[:ORDER_SIZES[int(order)]]
    for call in (partial(CoefficientSet, order, values),
                 partial(design_matrix, order, [10.0], [2.0]),
                 partial(column_names, order)):
        with pytest.raises(ValueError, match="order must be one of 1, 2, 3"):
            call()


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
    batch = sample_batch([10.0, 20.0], [2.0, 2.0], [90.0, 91.0], ["x", "x"])
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
    }
    columns[column][2] = value
    columns[column][3] = value
    with pytest.raises(ValueError, match=f"^sample 2: {reason}"):
        SampleBatch(**columns, ids=["a", "b"], group=[0, 0, 1, 1])


@pytest.mark.parametrize(
    "ids, group, reason",
    [
        (["b", "a"], [0, 1], "sorted and distinct"),
        (["a", "a"], [0, 1], "sorted and distinct"),
        ([["a"], ["b"]], [0, 1], "sorted and distinct"),
        (["a", "b"], [0, 2], r"integers in \[0, 2\)"),
        (["a", "b"], [-1, 0], r"integers in \[0, 2\)"),
        (["a", "b"], [0.0, 1.0], r"integers in \[0, 2\)"),
        (["a", "b"], [0, 1, 1], "one length"),
    ],
)
def test_sample_batch_refuses_ids_and_codes_that_do_not_match(ids, group, reason):
    with pytest.raises(ValueError, match=reason):
        SampleBatch([10.0, 20.0], [2.0, 2.0], [80.0, 90.0], ids, group)


def test_sample_batch_drops_the_ids_no_row_uses():
    batch = SampleBatch([10.0, 20.0, 30.0], [2.0] * 3, [80.0] * 3,
                        ["a", "b", "c", "d"], [3, 1, 3])
    assert batch.ids.tolist() == ["b", "d"]
    assert batch.group.tolist() == [1, 0, 1]
    assert batch.group.dtype == np.int32
    assert batch.source_id.tolist() == ["d", "b", "d"]
    assert batch[0] == PathLossSample(10.0, 2.0, 80.0, "d")
    empty = SampleBatch([], [], [], ["a"], [])
    assert len(empty) == 0 and empty.ids.size == 0


@st.composite
def _batch_and_index(draw):
    """A batch of up to 3 sources and a mask, index array or slice of its rows."""
    ids = sorted(draw(st.sets(st.text("abc", min_size=1, max_size=3), min_size=1,
                              max_size=3)))
    group = draw(st.lists(st.integers(0, len(ids) - 1), max_size=12))
    n = len(group)
    index = draw(st.one_of(
        st.lists(st.booleans(), min_size=n, max_size=n).map(
            partial(np.array, dtype=bool)),
        st.lists(st.integers(0, max(n - 1, 0)), max_size=2 * n).map(
            partial(np.array, dtype=int)),
        st.builds(slice, st.integers(0, n), st.integers(0, n)),
    ))
    return ids, group, index


@settings(max_examples=200, deadline=None)
@given(_batch_and_index())
@example((["a", "b", "c"], [2, 0, 1, 0], np.array([False, True, True, True])))
def test_taken_batch_groups_match_its_own_ids(case):
    ids, group, index = case
    n = len(group)
    batch = SampleBatch(np.arange(1.0, n + 1), np.full(n, 2.0), np.full(n, 80.0),
                        ids, group)
    want = np.asarray(ids)[np.asarray(group, dtype=int)][index].tolist()
    for out in (batch.take(index), batch[index]):
        assert out.group.dtype == np.int32
        assert out.ids.tolist() == sorted(set(want))  # sorted, distinct, each used
        assert out.source_id.tolist() == want
        shifted = out.with_path_loss(out.path_loss + 1.0)
        assert shifted.ids is out.ids and shifted.group is out.group
        for derived in (out, shifted):  # as if built and checked afresh
            rebuilt = SampleBatch(*(getattr(derived, k) for k in SampleBatch.__slots__))
            for name in SampleBatch.__slots__:
                kept, fresh = getattr(derived, name), getattr(rebuilt, name)
                assert kept.dtype == fresh.dtype and np.array_equal(kept, fresh)


def test_a_new_loss_column_names_its_first_bad_row():
    batch = SampleBatch([10.0, 20.0, 30.0], [2.0] * 3, [80.0] * 3, ["a"], [0, 0, 0])
    with pytest.raises(InvalidSampleError, match="^sample 1: path_loss must be "
                                                 "finite, got nan$") as info:
        batch.with_path_loss([80.0, np.nan, np.inf])
    assert info.value.row == 1
    with pytest.raises(ValueError, match="one length"):
        batch.with_path_loss([80.0, 81.0])


def test_a_batch_holds_28_bytes_a_row_plus_its_ids():
    n = 1000
    batch = SampleBatch(np.ones(n), np.ones(n), np.ones(n), ["a", "bb"],
                        np.arange(n) % 2)
    rows = (batch.distance, batch.frequency, batch.path_loss, batch.group)
    assert sum(a.nbytes for a in rows) == 28 * n
    assert batch.ids.nbytes == 2 * 2 * 4  # two ids of at most two UCS-4 characters
    assert set(batch.__slots__) == {"distance", "frequency", "path_loss", "ids", "group"}


def _samples(d, f, y, sid="m"):
    return sample_batch(d, f, y, [sid] * len(d))


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
