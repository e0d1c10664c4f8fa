"""Randomized invariants of the numerical core."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathfuse import estimators
from pathfuse.atmosphere import load_default_table, remove_gas_loss
from pathfuse.errors import MetricError
from pathfuse.estimators import (
    DEFAULT_PENALTY_GRID,
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
from pathfuse.io import load_registry, sigma_map
from pathfuse.models import (
    ORDER_SIZES,
    CoefficientSet,
    coefficient_names,
    design_matrix,
)
from pathfuse.pipeline import WEIGHTING_POLICIES, PipelineConfig, fit_pathloss_model
from pathfuse.seeding import substream
from pathfuse.synthesis import (
    OutlierSpec,
    SynthesisSpec,
    inject_outliers,
    sample_rayleigh,
    synthesize_corpus,
)

from conftest import sample_batch

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
    want = reference_kfold_scores(X, Y, kind, grid, seed)
    (got,) = estimators._kfold_scores(X, Y, (kind,), grid, seed)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    best = min(range(len(grid)), key=lambda i: (want[i], grid[i]))
    assert tune_penalty_kfold(X, Y, kind, grid, seed=seed) == grid[best]


@pytest.mark.parametrize("layout", ["uneven", "no intercept", "near constant",
                                    "near equal"])
@settings(max_examples=30, deadline=None)
@given(seed=seeds, kind=st.sampled_from(["Ridge", "Lasso", "ElasticNet"]))
def test_folds_that_fit_differently_score_as_one_fit_each(layout, seed, kind):
    # the tuner stacks folds that share a training size, an intercept column and
    # equal columns; here one of them changes from fold to fold
    rng = np.random.default_rng(seed)
    seed %= 997
    n = int(rng.choice([23, 31, 47, 59])) if layout == "uneven" else 40
    folds = np.array_split(substream(seed, "kfold").permutation(n), KFOLD_K)
    x, z = rng.normal(rng.uniform(-5, 5, (2, 1)), rng.uniform(0.1, 3, (2, 1)), (2, n))
    cols = [x, z, np.full(n, 2.0)]
    if layout == "no intercept":
        cols.pop()
    elif layout == "near constant":  # an intercept where fold 0 holds out row r
        cols.insert(0, np.full(n, 1.5))
        cols[0][folds[0][0]] = 2.5
    elif layout == "near equal":  # x twice where fold 0 holds out two rows
        cols[1] = x.copy()
        cols[1][folds[0][:2]] += 1.0
    X = np.column_stack(cols)
    Y = X @ rng.uniform(-2, 2, X.shape[1]) + rng.normal(0, 1, n)
    train = [np.setdiff1d(np.arange(n), fold) for fold in folds]
    icols = {next((j for j, col in enumerate(X[rows].T) if (col == col[0]).all()), -1)
             for rows in train}  # the first constant column; none is 0
    assert {rows.size for rows in train} == ({n - n // 10, n - n // 10 - 1}
                                             if layout == "uneven" else {36})
    assert icols == {"no intercept": {-1}, "near constant": {0, 3}}.get(layout, {2})
    equal = [(X[rows, 0] == X[rows, 1]).all() for rows in train]
    assert sum(equal) == (layout == "near equal")
    grid = [0.0] + list(10.0 ** rng.uniform(-4, 2, 4))
    want = reference_kfold_scores(X, Y, kind, grid, seed)
    (got,) = estimators._kfold_scores(X, Y, (kind,), grid, seed)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    best = min(range(len(grid)), key=lambda i: (want[i], grid[i]))
    assert tune_penalty_kfold(X, Y, kind, grid, seed=seed) == grid[best]


@pytest.mark.parametrize("lam1, lam2", [(0.5, 1e-4), (0.0, 1e-2), (0.5, 1e-2)])
def test_elasticnet_splits_equal_columns_evenly(lam1, lam2):
    # two equal columns get equal weights while the L2 part is above 0 (n = 40)
    rng = np.random.default_rng(3)
    x = rng.uniform(10.0, 300.0, 40)
    X = np.column_stack([np.ones(40), x, x])
    Y = 30.0 + 0.2 * x + rng.normal(0.0, 2.0, 40)
    beta = fit_elasticnet(X, Y, lam1, lam2)
    assert beta[1] == beta[2]
    if lam1 == 0.0:
        np.testing.assert_allclose(beta, fit_ridge(X, Y, lam2), rtol=0, atol=1e-10)
    grid = DEFAULT_PENALTY_GRID
    assert tune_penalty_kfold(X, Y, "ElasticNet", grid) in grid  # every fold solved


def near_copies(rng, n, k, gaps):
    """k random columns of one scale; column j of 1..len(gaps) is turned to
    cosine 1 - gaps[j-1] with an earlier column."""
    X = rng.normal(size=(n, k))
    X /= np.linalg.norm(X, axis=0)
    for j, gap in enumerate(gaps, start=1):
        x = X[:, rng.integers(0, j)]
        z = X[:, j] - (X[:, j] @ x) * x
        X[:, j] = (1.0 - gap) * x + np.sqrt(gap * (2.0 - gap)) * z / np.linalg.norm(z)
    return X * rng.uniform(0.5, 2.0)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, k=st.integers(min_value=1, max_value=6),
       gaps=st.lists(st.floats(min_value=-12.0, max_value=0.0), max_size=5),
       lam1=st.sampled_from([1.0, ELASTICNET_MIX, 0.01, 0.0]))
def test_penalized_fits_meet_their_optimality_conditions(seed, k, gaps, lam1):
    # without a constant column the penalty falls on X itself: at the optimum
    # c = X^T (Y - Xw) - l2 w is l1/2 sign(w_j) where w_j != 0, and at most l1/2
    # in size elsewhere.  Rounding moves c by about n u of the gradient scale
    # |X| |Y| in this check's own products, and the solve on X^T X by up to
    # kappa^2 u of it (the condition of the Gram matrix, as in solve_bound)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 60))
    X = near_copies(rng, n, k, [10.0**g for g in gaps[:k - 1]])
    Y = X @ rng.normal(0.0, 3.0, k) + rng.normal(0.0, 1.0, n)
    bound = (n + np.linalg.cond(X) ** 2) * np.finfo(float).eps * (
        np.linalg.norm(X) * np.linalg.norm(Y))
    top = 2.0 * np.abs(X.T @ Y).max()  # l1 at which every weight is 0
    for lam in [0.0, *(top * 10.0 ** rng.uniform(-4.0, 0.5, 3))]:
        w = fit_lasso(X, Y, lam) if lam1 == 1.0 else fit_elasticnet(X, Y, lam1, lam)
        half, l2 = lam1 * lam / 2.0, (1.0 - lam1) * lam
        c = X.T @ (Y - X @ w) - l2 * w
        on = w != 0.0
        assert np.abs(c[on] - half * np.sign(w[on])).max(initial=0.0) <= bound
        assert np.abs(c[~on]).max(initial=0.0) <= half + bound


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


@pytest.mark.parametrize("n", [1 << 16, (1 << 16) + 1, 1 << 17, (1 << 17) + 1])
def test_inversion_count_around_its_key_width(n):
    # a level sorts 16-bit keys while its higher bits fit them: every level
    # up to 2^17 values, all but the lowest just past it.  Past 2^16 values
    # the count's own copy of seq is wider than its keys.  Reversed, every
    # pair is inverted
    for count in (estimators._inversion_count, lambda s: estimators._inversions(s)[0]):
        assert count(np.arange(n)[::-1].copy()) == n * (n - 1) // 2
        seq = np.arange(n)
        seq[[0, -1]] = seq[[-1, 0]]  # one swap of the ends: 2(n-2) + 1 inversions
        assert count(seq) == 2 * (n - 2) + 1


#: every 2^k - 1, 2^k and 2^k + 1 up to 2,049, and 24 sizes drawn from 1-2,100
COUNT_SIZES = sorted({m for k in range(12) for m in (2**k - 1, 2**k, 2**k + 1) if m}
                     | set(np.random.default_rng(2100).integers(1, 2101, 24).tolist()))


@pytest.mark.parametrize("n", COUNT_SIZES)
def test_inversion_count_is_the_count_of_every_pair(n):
    rng = np.random.default_rng(n)
    for seq in (rng.permutation(n), rng.permutation(n)):
        every_pair = np.count_nonzero(np.triu(seq[:, None] > seq, 1))
        assert estimators._inversion_count(seq) == every_pair
        assert estimators._inversions(seq)[0] == every_pair


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
    (clean,) = remove_gas_loss(TABLE, sample_batch([d], [f], [loss], ["x"]))
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


# ---------------------------------------------------------------------------
# metamorphic relations of the whole fit
# ---------------------------------------------------------------------------

REGISTRY = load_registry()
#: source ids as a file could hold them: non-blank, without trailing NULs
source_names = st.text(st.characters(categories=("L", "N", "P")), min_size=1,
                       max_size=12)


@settings(max_examples=5, deadline=None)
@given(seed=seeds, data=st.data(), models=st.lists(
    st.sampled_from(REGISTRY), min_size=2, max_size=3, unique_by=lambda m: m.id))
def test_renaming_every_source_changes_no_bit(seed, data, models):
    # each group is filtered alone, its weight reads its own count and sigma,
    # and the solve keeps the row order: no name enters a number
    rng = substream(seed, "rename")
    corpus = synthesize_corpus(models, SynthesisSpec(points_per_model=16), rng)
    corpus = inject_outliers(corpus, OutlierSpec(), rng)[0]
    ids = sorted(m.id for m in models)
    names = data.draw(st.lists(source_names, min_size=len(ids), max_size=len(ids),
                               unique=True))
    rename = dict(zip(ids, names))
    renamed = sample_batch(corpus.distance, corpus.frequency, corpus.path_loss,
                           [rename[s] for s in corpus.source_id.tolist()])
    sigmas = sigma_map(models)
    renamed_sigmas = {rename[s]: sigma for s, sigma in sigmas.items()}
    for robust in (None, "TheilSen", "RANSAC"):
        for weighting in WEIGHTING_POLICIES:
            cfg = PipelineConfig(weighting=weighting, robust=robust, seed=seed)
            a, fit_a = fit_pathloss_model(corpus, cfg, sigma_by_source=sigmas)
            b, fit_b = fit_pathloss_model(renamed, cfg, sigma_by_source=renamed_sigmas)
            coefficients = [m.coefficients.as_array().tobytes() for m in (a, b)]
            assert coefficients[0] == coefficients[1]
            assert same_bits(a.sigma, b.sigma)
            assert a.provenance == b.provenance
            assert np.array_equal(fit_a.inlier_mask, fit_b.inlier_mask)


#: a multi-source corpus as the studies fit it: six campaigns at six
#: frequencies, blocker outliers in, an order-2 surface under Mixture weights
META_MODELS = [m for m in REGISTRY if m.scenario == "UMiSC"]
META_SIGMAS = sigma_map(META_MODELS)


def meta_corpus(seed):
    rng = substream(seed, "metamorphic")
    corpus = synthesize_corpus(META_MODELS, SynthesisSpec(points_per_model=100), rng)
    return inject_outliers(corpus, OutlierSpec(), rng)[0], rng


def meta_fit(corpus, robust):
    cfg = PipelineConfig(order=2, weighting="Mixture", robust=robust)
    return fit_pathloss_model(corpus, cfg, sigma_by_source=META_SIGMAS)


def solve_bound(model, losses):
    """How far rounding alone may move a coefficient of ``model``'s solve.

    A backward-stable least-squares solve is off by about
    u (2 kappa + kappa^2 tan theta) relative to its solution (Golub & Van
    Loan, Thm 5.3.1), kappa the design's condition and theta the angle
    between the losses and the fit.  While the residual is smaller than the
    fit, tan theta < 1, so kappa^2 u of the loss scale bounds the shift.
    """
    return model.provenance["condition"] ** 2 * np.finfo(float).eps * np.abs(losses).max()


@pytest.mark.parametrize("seed", range(3))
def test_permuting_the_rows_permutes_the_mask(seed):
    # each group's Theil-Sen line is the median of the same pairwise slopes in
    # any row order, so the same rows are cut; only the solve's rounding moves
    corpus, rng = meta_corpus(seed)
    perm = rng.permutation(len(corpus))
    model, fit = meta_fit(corpus, "TheilSen")
    moved, moved_fit = meta_fit(corpus.take(perm), "TheilSen")
    assert model.provenance["n_rejected"] > 0
    assert np.array_equal(moved_fit.inlier_mask, fit.inlier_mask[perm])
    shift = moved.coefficients.as_array() - model.coefficients.as_array()
    assert np.abs(shift).max() <= solve_bound(model, corpus.path_loss)


@pytest.mark.parametrize("seed", range(3))
def test_doubling_every_row_moves_no_coefficient(seed):
    # a row's twin doubles its group's count along with its own weight, so the
    # normalized weights keep their ratios and the normal equations only double;
    # a Theil-Sen line sees each pair four times and no slope between twins
    # (RANSAC stays out: its draws index rows)
    corpus, _ = meta_corpus(seed)
    doubled = corpus.take(np.repeat(np.arange(len(corpus)), 2))
    for robust in (None, "TheilSen"):
        for weighting in WEIGHTING_POLICIES:
            cfg = PipelineConfig(order=2, weighting=weighting, robust=robust)
            model, fit = fit_pathloss_model(corpus, cfg, sigma_by_source=META_SIGMAS)
            twice, twice_fit = fit_pathloss_model(doubled, cfg,
                                                  sigma_by_source=META_SIGMAS)
            assert model.provenance["n_rejected"] > 0 or robust is None
            assert np.array_equal(twice_fit.inlier_mask, np.repeat(fit.inlier_mask, 2))
            shift = twice.coefficients.as_array() - model.coefficients.as_array()
            assert np.abs(shift).max() <= solve_bound(model, corpus.path_loss)


@pytest.mark.parametrize("seed", range(3))
def test_a_loss_offset_moves_only_the_intercept(seed):
    # the design's constant column takes the whole offset: beta moves by c
    corpus, _ = meta_corpus(seed)
    c = 7.25
    lifted = corpus.path_loss + c
    model, _ = meta_fit(corpus, None)
    moved, _ = meta_fit(corpus.with_path_loss(lifted), None)
    shift = moved.coefficients.as_array() - model.coefficients.as_array()
    shift[coefficient_names(2).index("beta")] -= c
    assert np.abs(shift).max() <= solve_bound(model, lifted)
