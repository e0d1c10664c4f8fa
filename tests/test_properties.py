"""Randomized invariants of the numerical core."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathfuse import estimators
from pathfuse.atmosphere import load_default_table, remove_gas_loss
from pathfuse.errors import ConvergenceError, MetricError
from pathfuse.estimators import (
    ELASTICNET_MIX,
    KFOLD_K,
    fit_elasticnet,
    fit_lasso,
    fit_ridge,
    mad_scale,
    soft_threshold,
    solve_wls,
    tune_penalty_kfold,
    weighted_rms,
)
from pathfuse.evaluation import error_ratio
from pathfuse.models import ORDER_SIZES, CoefficientSet, SampleBatch, design_matrix
from pathfuse.seeding import substream
from pathfuse.synthesis import sample_rayleigh

TABLE = load_default_table()

seeds = st.integers(min_value=0, max_value=2**32 - 1)
orders = st.sampled_from([1, 2, 3])
distances = st.floats(min_value=2.0, max_value=2000.0,
                      allow_nan=False, allow_infinity=False)
freqs = st.floats(min_value=1.0, max_value=100.0,
                  allow_nan=False, allow_infinity=False)


def random_system(seed, order, n):
    """A well-spread design: log-uniform distances, uniform frequencies."""
    rng = np.random.default_rng(seed)
    d = np.exp(rng.uniform(np.log(10.0), np.log(300.0), n))
    f = rng.uniform(1.0, 80.0, n)
    X = design_matrix(order, d, f)
    Y = rng.normal(100.0, 10.0, n)
    w = rng.uniform(0.2, 5.0, n)
    return X, Y, w


@settings(max_examples=60, deadline=None)
@given(seed=seeds, order=st.sampled_from([1, 2]))
def test_wls_solution_satisfies_the_normal_equations(seed, order):
    X, Y, w = random_system(seed, order, 12 + 3 * ORDER_SIZES[order])
    beta = solve_wls(X, Y, w)
    gradient = X.T @ (w * (Y - X @ beta))
    scale = max(1.0, float(np.abs(X.T @ (w * Y)).max()))
    assert float(np.abs(gradient).max()) <= 1e-8 * scale


@settings(max_examples=60, deadline=None)
@given(seed=seeds, order=orders,
       factor=st.floats(min_value=1e-6, max_value=1e6))
def test_coefficients_ignore_overall_weight_scale(seed, order, factor):
    X, Y, w = random_system(seed, order, 12 + 3 * ORDER_SIZES[order])
    a = solve_wls(X, Y, w)
    b = solve_wls(X, Y, w * factor)
    np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_unpenalized_ridge_is_ordinary_least_squares(seed):
    X, Y, w = random_system(seed, 1, 25)
    np.testing.assert_allclose(
        fit_ridge(X, Y, lam=0.0), solve_wls(X, Y), rtol=1e-8, atol=1e-8
    )


def reference_kfold_scores(X, Y, kind, grid, seed):
    """Held-out RMSE per candidate, one public fit per fold and candidate."""
    n = Y.size
    folds = np.array_split(substream(seed, "kfold").permutation(n), KFOLD_K)
    ssq = np.zeros(len(grid))
    for fold in folds:
        train = np.setdiff1d(np.arange(n), fold)
        Xt, Yt = X[train], Y[train]
        for i, c in enumerate(grid):
            if kind == "Ridge":
                beta = fit_ridge(Xt, Yt, c)
            elif kind == "Lasso":
                beta = fit_lasso(Xt, Yt, c)
            else:
                beta = fit_elasticnet(Xt, Yt, ELASTICNET_MIX, c)
            err = Y[fold] - X[fold] @ beta
            ssq[i] += err @ err
    return np.sqrt(ssq / n)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, kind=st.sampled_from(["Ridge", "Lasso", "ElasticNet"]),
       n_pen=st.integers(min_value=0, max_value=3), intercept=st.booleans(),
       duplicate=st.booleans())
def test_batched_tuning_matches_one_fit_per_candidate(
    seed, kind, n_pen, intercept, duplicate
):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 41))
    cols = [rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 3), n)
            for _ in range(n_pen)]
    if duplicate and n_pen >= 2:
        cols[-1] = cols[0]
    if intercept:
        cols.insert(int(rng.integers(0, n_pen + 1)), np.full(n, rng.uniform(0.5, 3)))
    X = np.column_stack(cols) if cols else np.empty((n, 0))
    Y = X @ rng.uniform(-2, 2, X.shape[1]) + rng.normal(0, 1, n)
    grid = [0.0] + list(10.0 ** rng.uniform(-4, 2, 4))
    seed %= 997
    with mock.patch.object(estimators, "MAX_SWEEPS", 300):  # keeps each case short
        try:
            want = reference_kfold_scores(X, Y, kind, grid, seed)
        except ConvergenceError:
            with pytest.raises(ConvergenceError):
                tune_penalty_kfold(X, Y, kind, grid, seed=seed)
            return
        got = estimators._kfold_scores(X, Y, kind, grid, seed)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        best = min(range(len(grid)), key=lambda i: (want[i], grid[i]))
        assert tune_penalty_kfold(X, Y, kind, grid, seed=seed) == grid[best]


def check_inversions(seq):
    """Both inversion routines against every pair, and whole-interval pairs by rank."""
    i, j = np.triu_indices(seq.size, 1)
    wrong = seq[i] > seq[j]
    count, pairs = estimators._inversions(seq)
    assert estimators._inversion_count(seq) == count == int(wrong.sum())
    whole, by_rank = pairs(slice(None)), pairs(np.arange(count))
    assert all(np.array_equal(a, b) for a, b in zip(whole, by_rank))
    assert sorted(zip(*(a.tolist() for a in whole))) == list(zip(i[wrong], j[wrong]))


@settings(max_examples=80, deadline=None)
@given(seq=st.integers(min_value=1, max_value=300).flatmap(
    lambda n: st.permutations(range(n))))
def test_inversion_routines_match_every_pair(seq):
    check_inversions(np.array(seq))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 256, 257])
def test_inversion_routines_at_level_boundaries(n):
    rng = np.random.default_rng(n)
    for seq in (np.arange(n), np.arange(n)[::-1].copy(), rng.permutation(n)):
        check_inversions(seq)


@pytest.mark.parametrize("n", [1 << 16, (1 << 16) + 1])
def test_inversion_count_around_its_key_width(n):
    # past 2^16 values the count sorts 32-bit keys; reversed, every pair is inverted
    assert estimators._inversion_count(np.arange(n)[::-1].copy()) == n * (n - 1) // 2
    seq = np.arange(n)
    seq[[0, -1]] = seq[[-1, 0]]  # one swap of the ends: 2(n-2) + 1 inversions
    assert estimators._inversion_count(seq) == 2 * (n - 2) + 1


# values with many ties, both zeros and (for the median) nan and infinities
tied = st.sampled_from([-3.0, -1.5, -0.0, 0.0, 0.5, 2.0, 1e300])
finite_values = st.lists(tied | st.floats(-1e3, 1e3), min_size=1, max_size=70)
any_values = st.lists(tied | st.floats(), min_size=1, max_size=70)


def same_bits(a, b):
    """Equal floats with equal bits; any nan equals any nan."""
    a, b = np.float64(a), np.float64(b)
    return a.tobytes() == b.tobytes() or bool(np.isnan(a) and np.isnan(b))


@st.composite
def values_and_ranks(draw):
    v = np.array(draw(finite_values))
    r = draw(st.integers(0, v.size - 1))
    ranks = draw(st.sampled_from([
        [r], [r, r], [r, min(r + 1, v.size - 1)], [0, v.size - 1],
        sorted(draw(st.lists(st.integers(0, v.size - 1), min_size=1, max_size=4))),
    ]))
    return v, ranks


@settings(max_examples=300, deadline=None)
@given(case=values_and_ranks())
def test_kth_selects_what_one_partition_with_every_rank_selects(case):
    v, ranks = case
    before = v.copy()
    got, want = estimators._kth(v, ranks), np.partition(v, ranks)[ranks]
    assert v.tobytes() == before.tobytes()  # the input is left as it was
    # the values agree; so do the bits, but for which of 0.0 and -0.0 a tie
    # gives, which numpy's one-kth and several-kth selections do not agree on
    assert [float(g) for g in got] == want.tolist()
    assert all(same_bits(g, w) for g, w in zip(got, want) if w != 0.0)


@settings(max_examples=300, deadline=None)
@given(values=any_values)
def test_median_and_mad_scale_keep_the_bits_of_np_median(values):
    v = np.array(values)
    with np.errstate(invalid="ignore", over="ignore"):
        assert same_bits(estimators._median(v), np.median(v))
        if np.isfinite(v).all():
            want = 1.4826 * float(np.median(np.abs(v - np.median(v))))
            assert same_bits(mad_scale(v), want)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, order=orders)
def test_exactly_consistent_systems_are_recovered(seed, order):
    rng = np.random.default_rng(seed)
    p = ORDER_SIZES[order]
    X, _, w = random_system(seed, order, 10 + 3 * p)
    truth = rng.uniform(-3.0, 3.0, p)
    got = solve_wls(X, X @ truth, w)
    np.testing.assert_allclose(got, truth, rtol=1e-7, atol=1e-9)


@settings(max_examples=80, deadline=None)
@given(d=distances, f=freqs, order=orders, seed=seeds)
def test_prediction_is_the_design_inner_product(d, f, order, seed):
    rng = np.random.default_rng(seed)
    coeffs = CoefficientSet(
        order=order, values=tuple(rng.uniform(-2.0, 4.0, ORDER_SIZES[order]))
    )
    (row,) = design_matrix(order, d, f)
    assert np.isclose(
        coeffs.predict(d, f), float(row @ coeffs.as_array()),
        rtol=1e-12, atol=1e-12,
    )


@settings(max_examples=60, deadline=None)
@given(d=distances, f=freqs)
def test_design_columns_nest_across_orders(d, f):
    (r1,), (r2,), (r3,) = (design_matrix(k, d, f) for k in (1, 2, 3))
    np.testing.assert_array_equal(r2[:3], r1)
    np.testing.assert_array_equal(r3[:6], r2)


@settings(max_examples=60, deadline=None)
@given(d=distances, f=freqs, loss=st.floats(min_value=20.0, max_value=250.0))
def test_absorption_removal_round_trips(d, f, loss):
    (clean,) = remove_gas_loss(TABLE, SampleBatch([d], [f], [loss], ["x"]))
    back = clean.path_loss + TABLE.gas_loss(d, f)
    assert abs(back - loss) <= 1e-12 * max(1.0, abs(loss))


@settings(max_examples=40, deadline=None)
@given(seed=seeds, rho=st.floats(min_value=0.01, max_value=50.0))
def test_rayleigh_draws_are_positive_and_reproducible(seed, rho):
    a = sample_rayleigh(rho, substream(seed, "ray"), 64)
    b = sample_rayleigh(rho, substream(seed, "ray"), 64)
    assert (a > 0).all()
    assert (a == b).all()


@settings(max_examples=60, deadline=None)
@given(seed=seeds, scale=st.floats(min_value=1e-3, max_value=1e3),
       shift=st.floats(min_value=-100.0, max_value=100.0))
def test_mad_scale_is_shift_free_and_scale_equivariant(seed, scale, shift):
    x = np.random.default_rng(seed).normal(0.0, 1.0, 41)
    base = mad_scale(x)
    assert np.isclose(mad_scale(scale * x + shift), scale * base,
                      rtol=1e-9, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(seed=seeds, t=st.floats(min_value=0.0, max_value=10.0))
def test_soft_threshold_definition(seed, t):
    x = np.random.default_rng(seed).uniform(-20.0, 20.0, 17)
    got = soft_threshold(x, t)
    want = np.sign(x) * np.maximum(np.abs(x) - t, 0.0)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=seeds)
def test_weighted_rms_is_bounded_by_the_extremes(seed):
    rng = np.random.default_rng(seed)
    r = rng.uniform(-30.0, 30.0, 23)
    w = rng.uniform(0.1, 4.0, 23)
    value = weighted_rms(r, w)
    assert np.abs(r).min() - 1e-12 <= value <= np.abs(r).max() + 1e-12


@settings(max_examples=80, deadline=None)
@given(c=st.floats(min_value=0.0, max_value=50.0),
       base=st.floats(min_value=0.1, max_value=50.0))
def test_error_ratio_sign_tracks_the_difference(c, base):
    ratio = error_ratio(c, base)
    if c > base:
        assert ratio > 0
    elif c < base:
        assert ratio < 0
    else:
        assert ratio == 0


def test_error_ratio_requires_a_positive_baseline():
    import pytest

    with pytest.raises(MetricError):
        error_ratio(1.0, 0.0)

