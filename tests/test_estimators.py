"""Solvers: WLS, penalized fits, and the two robust estimators.

Hand-checkable oracles are frozen as exact constants; randomized checks pin
their seeds.  A couple of algebraic identities run under hypothesis.
"""

import contextlib
import ctypes
import glob
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathfuse import estimators, evaluation
from pathfuse.errors import (
    ConfigError,
    ConsensusFailureError,
    DegenerateDataError,
    InsufficientDataError,
    NumericError,
    SingularSystemError,
)
from pathfuse.estimators import (
    DEFAULT_PENALTY_GRID,
    ROW_BLOCK,
    fit_elasticnet,
    fit_lasso,
    fit_ransac,
    fit_ridge,
    fit_theilsen,
    mad_inliers,
    mad_scale,
    soft_threshold,
    solve_wls,
    tune_penalty_kfold,
    weighted_rms,
)
from pathfuse.evaluation import ExperimentSpec, run_integration_study
from pathfuse.seeding import substream


# ---------------------------------------------------------------------------
# small exact oracles
# ---------------------------------------------------------------------------


def test_wls_interpolates_two_points_exactly():
    X = np.array([[0.0, 1.0], [1.0, 1.0]])
    Y = np.array([1.0, 3.0])
    beta = solve_wls(X, Y)
    assert beta == pytest.approx([2.0, 1.0], abs=1e-12)


def test_wls_weighted_mean_oracle():
    # intercept-only system: the WLS solution is the weighted mean
    X = np.ones((3, 1))
    Y = np.array([0.0, 3.0, 6.0])
    w = np.array([1.0, 1.0, 2.0])
    beta = solve_wls(X, Y, w)
    assert beta[0] == pytest.approx((0.0 + 3.0 + 12.0) / 4.0, abs=1e-12)


def test_weighted_rms_hand_case():
    assert weighted_rms(np.array([3.0, 0.0]), np.array([1.0, 3.0])) == pytest.approx(
        1.5, abs=1e-15
    )
    assert weighted_rms(np.array([3.0, -4.0])) == pytest.approx(
        np.sqrt(12.5), abs=1e-12
    )
    assert weighted_rms(np.array([])) == 0.0


def test_mad_scale_symmetric_triplet():
    assert mad_scale([-1.0, 0.0, 1.0]) == pytest.approx(1.4826, abs=1e-12)
    assert mad_scale([]) == 0.0
    assert mad_scale([5.0, 5.0, 5.0]) == 0.0


def test_mad_inliers_cuts_about_the_median():
    rng = np.random.default_rng(8)
    r = rng.normal(0.0, 1.0, 200)
    r[:5] += 25.0
    keep = mad_inliers(r, 3.0)
    assert not keep[:5].any() and keep.sum() > 180
    # shifted far from 0, a cut about 0 would drop every row
    assert np.array_equal(mad_inliers(r + 40.0, 3.0), keep)


def test_mad_inliers_keeps_every_row_without_scatter():
    assert mad_inliers([5.0, 5.0, 5.0, 9.0], 3.0).all()
    r = np.array([0.0, 1e-13, -1e-13, 2e-13, -2e-13, 5e-12])
    assert 0.0 < mad_scale(r) <= 1e-12
    assert mad_inliers(r, 3.0).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
@pytest.mark.parametrize("residuals", [
    [0.0, 1.0, np.nan, 2.0],  # nan scale
    [(-1.0) ** i * 1e308 for i in range(40)],  # |r - median| sums to inf
])
def test_mad_inliers_raises_on_a_scale_that_is_not_finite(residuals):
    with pytest.raises(NumericError, match="residual MAD scale is"):
        mad_inliers(residuals, 3.0)


def test_soft_threshold():
    assert soft_threshold(3.0, 1.0) == 2.0
    assert soft_threshold(-3.0, 1.0) == -2.0
    assert soft_threshold(0.5, 1.0) == 0.0
    assert np.allclose(soft_threshold(np.array([2.0, -0.3]), 0.5), [1.5, 0.0])


def test_ridge_orthonormal_shrinkage_oracle():
    # on an orthonormal design with lam=1 every coefficient halves
    X = np.eye(3)
    Y = np.array([2.0, -4.0, 0.5])
    beta = fit_ridge(X, Y, lam=1.0)
    assert beta == pytest.approx(Y / 2.0, abs=1e-10)


def test_lasso_orthonormal_soft_threshold_oracle():
    X = np.eye(3)
    Y = np.array([2.0, -0.4, 1.0])
    beta = fit_lasso(X, Y, lam=1.0)
    assert beta == pytest.approx(soft_threshold(Y, 0.5), abs=1e-10)


def test_lasso_zero_penalty_matches_wls():
    rng = np.random.default_rng(3)
    X = np.column_stack([rng.uniform(1, 10, 30), np.ones(30), rng.uniform(0, 5, 30)])
    Y = X @ np.array([2.0, 5.0, -1.0]) + rng.normal(0, 0.5, 30)
    assert fit_lasso(X, Y, lam=0.0) == pytest.approx(solve_wls(X, Y), abs=1e-8)


def test_huge_lasso_penalty_keeps_only_the_intercept():
    rng = np.random.default_rng(4)
    X = np.column_stack([rng.uniform(1, 10, 40), np.ones(40)])
    Y = X @ np.array([2.0, 5.0]) + rng.normal(0, 0.5, 40)
    beta = fit_lasso(X, Y, lam=1e9)
    assert beta[0] == pytest.approx(0.0, abs=1e-12)
    assert beta[1] == pytest.approx(Y.mean(), abs=1e-9)


def test_elasticnet_endpoints_match_pure_penalties():
    rng = np.random.default_rng(5)
    X = np.column_stack(
        [rng.uniform(1, 10, 50), np.ones(50), rng.uniform(0, 5, 50)]
    )
    Y = X @ np.array([2.0, 5.0, -1.0]) + rng.normal(0, 1.0, 50)
    lam2 = 0.8
    assert fit_elasticnet(X, Y, 0.0, lam2) == pytest.approx(
        fit_ridge(X, Y, lam2), abs=1e-6
    )
    assert fit_elasticnet(X, Y, 1.0, lam2) == pytest.approx(
        fit_lasso(X, Y, lam2), abs=1e-6
    )


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------


def test_wls_underdetermined_raises():
    with pytest.raises(InsufficientDataError):
        solve_wls(np.ones((2, 3)), np.ones(2))


def test_wls_flags_dependent_columns():
    x = np.linspace(1, 10, 20)
    X = np.column_stack([x, np.ones(20), 2.0 * x])
    with pytest.raises(SingularSystemError) as err:
        solve_wls(X, x, column_names=("a", "const", "2a"))
    assert "2a" in str(err.value) or "a" in str(err.value)


def test_wls_rank_deficient_optin_returns_minimal_norm():
    # duplicated column: the minimal-norm solution splits the weight evenly
    x = np.linspace(1, 10, 20)
    X = np.column_stack([x, x])
    Y = 3.0 * x
    beta = solve_wls(X, Y, allow_rank_deficient=True)
    assert beta == pytest.approx([1.5, 1.5], abs=1e-10)
    assert fit_ridge(X, Y, 0.0) == pytest.approx([1.5, 1.5], abs=1e-10)


def test_wls_validates_inputs():
    with pytest.raises(ValueError):
        solve_wls(np.ones((3, 1)), np.array([1.0, np.nan, 2.0]))
    with pytest.raises(ValueError):
        solve_wls(np.ones((3, 1)), np.ones(3), np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        solve_wls(np.ones((3, 1)), np.ones(2))


# ---------------------------------------------------------------------------
# BLAS on one thread
# ---------------------------------------------------------------------------


def _openblas_threads():
    """numpy's OpenBLAS thread count, or None where the library is not found."""
    for path in glob.glob(np.__path__[0] + "/../numpy.libs/*openblas*"):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if get := getattr(lib, name, None):
                get.argtypes, get.restype = [], ctypes.c_int
                return get()
    return None


def test_importing_pathfuse_puts_openblas_on_one_thread():
    if (threads := _openblas_threads()) is None:
        pytest.skip("numpy's OpenBLAS was not found")
    assert threads == 1


def _helper_cpu_ns():
    """Summed CPU time of every thread of this process but the calling one."""
    me, total = threading.get_native_id(), 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) != me:
            # the thread has ended before the open (ENOENT) or the read (ESRCH)
            with contextlib.suppress(FileNotFoundError, ProcessLookupError):
                with open(f"/proc/self/task/{tid}/schedstat") as fh:
                    total += int(fh.read().split()[0])
    return total


def _helper_cpu_of_three_solves():
    """Helper-thread CPU (ns) that three 8,000 x 6 solves cost, once settled:
    an idle OpenBLAS worker busy-waits once a threaded call wakes it."""
    if not os.path.exists(f"/proc/self/task/{threading.get_native_id()}/schedstat"):
        pytest.skip("no /proc/self/task/<tid>/schedstat")
    if _openblas_threads() is None:
        pytest.skip("numpy's OpenBLAS was not found")
    X = np.random.default_rng(0).normal(size=(8000, 6))
    Y = X @ np.arange(6.0)
    before = _helper_cpu_ns()
    for _ in range(10):  # let workers an earlier test woke fall asleep
        time.sleep(0.2)
        before, last = _helper_cpu_ns(), before
        if before == last:
            break
    for _ in range(3):
        solve_wls(X, Y)
    time.sleep(0.2)  # a woken worker would still be spinning
    return _helper_cpu_ns() - before


def test_solve_wls_leaves_the_blas_pool_asleep():
    assert _helper_cpu_of_three_solves() == 0


def test_solve_wls_after_a_forked_study_leaves_the_blas_pool_asleep(monkeypatch):
    # OpenBLAS ends its pool at fork; a pool regrown in the parent would spin
    monkeypatch.setattr(evaluation, "_workers", lambda: 2)
    run_integration_study(ExperimentSpec(which="IntegrationStudy", trials=1, seed=1))
    assert _helper_cpu_of_three_solves() == 0


# ---------------------------------------------------------------------------
# robust estimators
# ---------------------------------------------------------------------------


class TestTheilSen:
    def line(self, x, y):
        X = np.column_stack([x, np.ones_like(x)])
        return fit_theilsen(X, np.asarray(y))

    def test_identity_line_is_exact(self):
        x = np.arange(1.0, 11.0)
        fit = self.line(x, x)
        assert fit.coefficients[0] == 1.0
        assert fit.coefficients[1] == 0.0

    def test_majority_outliers_do_not_move_the_slope(self):
        # a pinch of noise keeps the residual MAD positive, so the inlier
        # mask is meaningful (a perfectly-fit majority keeps everything)
        rng = np.random.default_rng(19)
        x = np.arange(1.0, 21.0)
        y = 2.0 * x + 1.0 + rng.normal(0, 0.01, 20)
        y[3] += 80.0
        y[11] += 120.0
        y[17] -= 90.0
        fit = self.line(x, y)
        assert fit.coefficients[0] == pytest.approx(2.0, abs=0.01)
        assert fit.coefficients[1] == pytest.approx(1.0, abs=0.1)
        assert not fit.inlier_mask[[3, 11, 17]].any()
        assert fit.inlier_mask.sum() == 17

    def test_wide_system_is_a_config_error(self):
        # Theil-Sen fits lines only: three columns, or two with no constant
        rng = np.random.default_rng(11)
        x = rng.uniform(1, 10, 25)
        wide = np.column_stack([x, np.ones(25), x**2])
        no_constant = np.column_stack([x, x**2])
        for X in (wide, no_constant):
            with pytest.raises(ConfigError):
                fit_theilsen(X, 2.0 * x + 5.0)

    def test_degenerate_abscissa_raises(self):
        X = np.column_stack([np.full(5, 3.0), np.ones(5)])
        with pytest.raises(DegenerateDataError):
            fit_theilsen(X, np.arange(5.0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
    @pytest.mark.parametrize("x, y, message", [
        # path loss +-1e308 at 28 GHz: the line is 0, its residual scale inf
        (10.0 * np.log10(10.0 + 5.0 * np.arange(40)),
         [(-1.0) ** i * 1e308 for i in range(40)], "residual MAD scale is inf"),
        # abscissae a subnormal apart: every slope overflows
        ([0.0, 1e-309, 2e-309], [0.0, 1.0, 2.0], "Theil-Sen line is not finite"),
    ])
    def test_overflow_is_a_numeric_error(self, x, y, message):
        with pytest.raises(NumericError, match=message):
            self.line(np.asarray(x), y)

    def test_too_few_samples_raise(self):
        X = np.column_stack([np.arange(2.0), np.ones(2)])
        with pytest.raises(DegenerateDataError):
            fit_theilsen(X, np.arange(2.0))


class TestRansac:
    def test_recovers_planted_line_under_gross_contamination(self):
        rng = np.random.default_rng(23)
        x = rng.uniform(1.0, 50.0, 60)
        X = np.column_stack([x, np.ones_like(x)])
        Y = 4.0 * x + 10.0 + rng.normal(0, 0.1, 60)
        bad = rng.choice(60, size=18, replace=False)
        Y[bad] += rng.uniform(40.0, 120.0, 18)
        fit = fit_ransac(X, Y, seed=0)
        assert fit.coefficients[0] == pytest.approx(4.0, abs=0.05)
        assert fit.coefficients[1] == pytest.approx(10.0, abs=1.0)
        assert not fit.inlier_mask[bad].any()

    def test_same_seed_same_consensus(self):
        rng = np.random.default_rng(29)
        x = rng.uniform(1.0, 50.0, 40)
        X = np.column_stack([x, np.ones_like(x)])
        Y = 2.0 * x + rng.normal(0, 1.0, 40)
        a = fit_ransac(X, Y, seed=5)
        b = fit_ransac(X, Y, seed=5)
        assert np.array_equal(a.inlier_mask, b.inlier_mask)
        assert a.coefficients == pytest.approx(b.coefficients, abs=0)

    def test_impossible_threshold_fails_loudly(self):
        rng = np.random.default_rng(31)
        X = np.column_stack([rng.uniform(1, 50, 30), np.ones(30)])
        Y = rng.uniform(0, 500, 30)
        with pytest.raises(ConsensusFailureError):
            fit_ransac(X, Y, inlier_threshold=1e-9)

    def test_threshold_must_be_positive(self):
        rng = np.random.default_rng(31)
        X = np.column_stack([rng.uniform(1, 50, 30), np.ones(30)])
        Y = rng.uniform(0, 500, 30)
        for threshold in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ConfigError, match="inlier_threshold must be > 0"):
                fit_ransac(X, Y, inlier_threshold=threshold)
        # checked before the rows are: a one-row system still fails on it
        with pytest.raises(ConfigError):
            fit_ransac(X[:1], Y[:1], inlier_threshold=0.0)

    def test_needs_more_rows_than_columns(self):
        X = np.eye(2)
        with pytest.raises(ConsensusFailureError):
            fit_ransac(X, np.ones(2))

    def test_automatic_threshold_needs_a_line(self):
        rng = np.random.default_rng(37)
        x = rng.uniform(1.0, 50.0, 60)
        X = np.column_stack([x, np.ones(60), (x - 25.0) ** 2 / 10.0])
        Y = X @ np.array([4.0, 10.0, -0.5]) + rng.normal(0, 0.1, 60)
        Y[:6] += 80.0
        with pytest.raises(ConfigError, match="inlier_threshold"):
            fit_ransac(X, Y)
        fit = fit_ransac(X, Y, inlier_threshold=1.0)
        assert fit.coefficients == pytest.approx([4.0, 10.0, -0.5], abs=0.05)
        assert not fit.inlier_mask[:6].any()


# ---------------------------------------------------------------------------
# exact Theil-Sen selection and bounded memory
# ---------------------------------------------------------------------------


def pairwise_median_line(x, y):
    """Reference: build every pair's slope, then take np.median of them all."""
    slopes, used = np.empty(x.size * (x.size - 1) // 2), 0
    for k in range(x.size - 1):  # row by row, the pairs (k, j > k)
        dx = x[k] - x[k + 1:]
        keep = dx != 0.0
        row = (y[k] - y[k + 1:])[keep] / dx[keep]
        slopes[used:used + row.size], used = row, used + row.size
    slope = float(np.median(slopes[:used], overwrite_input=True))
    return slope, float(np.median(y - slope * x)), used


def line_data(family, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(1.0, 3.0, n)
    y = 30.0 * x + rng.normal(0.0, 5.0, n)
    if family == "exact-ties":
        x, y = np.round(x, 1), np.round(y)
    elif family == "near-ties":
        x[1::2] = x[: n // 2] + 1e-12
        y[1::2] = y[: n // 2] + 1e-12
    elif family == "integer-x":
        x = rng.integers(1, 300, n).astype(float)
        y = np.round(0.1 * x + rng.normal(0.0, 5.0, n), 1)
    elif family == "duplicated-rows":
        k = n // 3
        x[n - k:], y[n - k:] = x[:k], y[:k]
    elif family == "offset-x":
        x = 1e6 + 50.0 * x
    return x, y


def negative_ties(n):
    rng = np.random.default_rng(n)
    x = rng.integers(1, 1000, n).astype(float)
    return x, np.where(rng.random(n) < 0.6, -0.5 * x, rng.normal(-300.0, 200.0, n))


def fit_line(x, y):
    X = np.column_stack([x, np.ones_like(x)])
    return fit_theilsen(X, y)


def pivots_from(monkeypatch, seed):
    """Draw the Theil-Sen pivots from ``seed``'s stream, not the fixed one."""
    monkeypatch.setattr(
        estimators, "substream", lambda _, *labels: substream(seed, *labels)
    )


LINE_FAMILIES = (
    "continuous", "exact-ties", "near-ties", "integer-x", "duplicated-rows", "offset-x"
)

#: lines whose pivot draws take unusual paths, named by what they exercise
PIVOT_LINES = {
    "continuous": lambda: line_data("continuous", 1500, seed=5),
    # one slope value holds most pairs, so the interval is streamed
    "one-slope": lambda: (np.arange(1500.0), 2.0 * np.arange(1500.0)),
    "small-integers": lambda: (
        np.random.default_rng(6).integers(1, 10, 2000).astype(float),
        np.random.default_rng(7).integers(0, 5, 2000).astype(float),
    ),
    # a tied negative median within a guard of the first bounds: the guard
    # doubles once before the result is accepted
    "negative-ties": lambda: negative_ties(600),
}


# at 3,000 rows every family takes two rounds of draws
@pytest.mark.parametrize(
    "family, n",
    [(family, n) for family in LINE_FAMILIES
     for n in (3, 40, 362, 363, 700, 2000, 3000)]
    + [pytest.param(name, None, id=f"pivots-{name}") for name in PIVOT_LINES],
)
def test_selected_line_equals_the_pairwise_median(family, n):
    x, y = PIVOT_LINES[family]() if n is None else line_data(family, n, seed=n)
    fit = fit_line(x, y)
    slope, intercept, pairs = pairwise_median_line(x, y)
    assert fit.coefficients[0] == slope
    assert fit.coefficients[1] == intercept
    assert fit.iterations_used == pairs


@pytest.mark.parametrize("name", list(PIVOT_LINES))
def test_pivot_seed_never_changes_the_line(name, monkeypatch):
    # the fixed pivot stream is as good as any: another seed's draws take
    # other rounds to the same line, bit for bit
    x, y = PIVOT_LINES[name]()
    a = fit_line(x, y)
    pivots_from(monkeypatch, 12345)
    b = fit_line(x, y)
    assert a.coefficients.tolist() == b.coefficients.tolist()
    assert a.iterations_used == b.iterations_used


@pytest.mark.filterwarnings("error")  # no bound may overflow on the way
@pytest.mark.parametrize("ulps", [1, 80])
def test_abscissae_a_few_ulps_apart_select_among_every_pair(ulps):
    # two abscissae `ulps` apart: that pair is placed by its own slope, so the
    # guard of every other pair stays small, and the median of all 79,800
    # pairs comes out of the usual rounds
    rng = np.random.default_rng(11)
    x = 10.0 * np.log10(rng.uniform(10.0, 500.0, 400))
    x[1] = x[0] + ulps * np.spacing(x[0])
    y = 2.0 * x + 30.0 + rng.normal(0.0, 6.0, 400)
    fit = fit_line(x, y)
    slope, intercept, pairs = pairwise_median_line(x, y)
    assert fit.coefficients.tolist() == [slope, intercept]
    assert fit.iterations_used == pairs == 79_800


@pytest.mark.filterwarnings("error")  # an overflowed slope is +-inf, no warning
@pytest.mark.parametrize("n", [362, 700])  # every pair listed, then the rounds
def test_slopes_that_overflow_keep_the_pairwise_median(n):
    # a tenth of the losses at +-1e308: their slopes overflow, and sort
    # as +-inf below and above every finite one
    x, y = line_data("continuous", n, seed=n)
    far = np.random.default_rng(n).random(n) < 0.1
    y[far] = np.where(np.arange(n)[far] % 2, 1e308, -1e308)
    fit = fit_line(x, y)
    with np.errstate(over="ignore"):
        slope, intercept, pairs = pairwise_median_line(x, y)
    assert fit.coefficients.tolist() == [slope, intercept]
    assert fit.iterations_used == pairs


def close_abscissae(case, n=1500):
    """A contaminated line with some abscissae moved 1-3 ulps from another."""
    x, y = contaminated_campaign(n, seed=21)
    rng = np.random.default_rng(22)
    if case == "cluster":  # three abscissae within 2 ulps of each other
        x[1], x[2] = x[0] + np.spacing(x[0]), x[0] + 2.0 * np.spacing(x[0])
    elif case == "twins":  # 50 rows 16 ulps right of another, at the line's
        # own slope (about 1.82): rounding decides their order at every bound
        k = rng.choice(np.arange(1, n), size=50, replace=False)
        dx, uy = 16.0 * np.spacing(x[k - 1]), np.spacing(y[k - 1])
        x[k], y[k] = x[k - 1] + dx, y[k - 1] + np.round(1.82 * dx / uy) * uy
    else:
        for k in rng.choice(np.arange(1, n), size=case, replace=False):
            x[k] = x[k - 1] + rng.integers(1, 4) * np.spacing(x[k - 1])
    return x, y


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", [1, 5, 50, "cluster", "twins"])
def test_abscissae_ulps_apart_keep_the_pairwise_median(case, monkeypatch):
    # the close pairs are placed by their slopes, so the bounds still prove
    # the result: no interval ever has to list every pair
    listed, inversions = [], estimators._inversions
    monkeypatch.setattr(estimators, "_inversions",
                        lambda seq: listed.append(inversions(seq)) or listed[-1])
    x, y = close_abscissae(case)
    slope, intercept, pairs = pairwise_median_line(x, y)
    for seed in (0, 12345):
        pivots_from(monkeypatch, seed)
        fit = fit_line(x, y)
        assert fit.coefficients.tolist() == [slope, intercept]
        assert fit.iterations_used == pairs
    assert listed and max(count for count, _ in listed) < pairs


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("family", ["continuous", "few-values", "one-value-dominates"])
def test_streamed_selection_equals_a_full_sort(family, seed, monkeypatch):
    # a 64-value budget makes the selection narrow its window over many passes
    monkeypatch.setattr(estimators, "PAIR_BUDGET", 64)
    rng = np.random.default_rng(seed)
    count = int(rng.integers(65, 3000))
    values = {
        "continuous": rng.normal(size=count),
        "few-values": rng.integers(0, 5, count).astype(float),
        "one-value-dominates": np.where(
            rng.random(count) < 0.7, 1.5, rng.normal(size=count)
        ),
    }[family]
    ordered = np.sort(values)
    for ranks in ([(count - 1) // 2, count // 2], [0, count - 1], [count // 3] * 2):
        got = estimators._select(lambda k: values[k], count, ranks, rng)
        assert list(got) == list(ordered[ranks])


def test_even_pair_count_takes_the_mean_of_the_middle_two():
    # slopes 1, 1.5, 2, 7/3, 3, 4: six pairs, so the median is (2 + 7/3) / 2
    fit = fit_line(np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 1.0, 3.0, 7.0]))
    assert fit.iterations_used == 6
    assert fit.coefficients[0] == (2.0 + 7.0 / 3.0) / 2.0
    # and through the selection: 1,000 rows give 499,500 pairs
    x, y = line_data("continuous", 1000, seed=8)
    i, j = np.triu_indices(1000, 1)
    slopes = np.sort((y[i] - y[j]) / (x[i] - x[j]))
    assert fit_line(x, y).coefficients[0] == (slopes[249749] + slopes[249750]) / 2


def peak_mb(fit):
    tracemalloc.start()
    try:
        result = fit()
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def contaminated_campaign(n, seed):
    rng = np.random.default_rng(seed)
    x = 10.0 * np.log10(rng.uniform(10.0, 500.0, n))
    y = 2.0 * x + 30.0 + rng.normal(0.0, 6.0, n)
    hit = rng.random(n) < 0.2
    y[hit] += rng.uniform(20.0, 55.0, hit.sum())
    return x, y


def test_line_of_25k_rows_fits_in_bounded_memory():
    n = 25_000
    x, y = contaminated_campaign(n, seed=3)
    fit, peak = peak_mb(lambda: fit_line(x, y))
    assert peak < 100.0
    assert fit.iterations_used == n * (n - 1) // 2


def test_later_rounds_draw_only_what_the_budget_needs(monkeypatch):
    # round two draws enough ranks to aim its interval at PAIR_BUDGET/4, not 16n
    n = 8_000
    passes, inversions = [], estimators._inversions
    monkeypatch.setattr(estimators, "_inversions",
                        lambda seq: passes.append(seq.size) or inversions(seq))
    draws = []

    class Pivots:  # the pivot stream, recording each draw's (range, size)
        def __init__(self, rng):
            self.rng = rng

        def integers(self, low, high, size):
            draws.append((high, size))
            return self.rng.integers(low, high, size)

    monkeypatch.setattr(estimators, "substream",
                        lambda *labels: Pivots(substream(*labels)))
    x, y = contaminated_campaign(n, seed=3)
    fit = fit_line(x, y)
    assert len(passes) == 2  # two interval passes
    (_, first), (size, second) = draws  # round one: 16n row pairs
    assert first == (2, 16 * n)
    assert second == (16 * size) ** 2 // estimators.PAIR_BUDGET**2 <= 2 * n
    slope, intercept, pairs = pairwise_median_line(x, y)
    assert fit.coefficients.tolist() == [slope, intercept]
    assert fit.iterations_used == pairs


def test_ransac_scores_in_row_blocks():
    # values recorded from the unblocked implementation: blocking changes
    # neither the random subsets nor the consensus
    n = 8_000
    assert ROW_BLOCK // n < 1000  # so the blocks really split
    x, y = contaminated_campaign(n, seed=3)
    X = np.column_stack([x, np.ones(n)])
    fit, peak = peak_mb(lambda: fit_ransac(X, y, seed=4))
    assert peak < 64.0
    assert fit.coefficients.tolist() == [1.9825483479765529, 30.65705877260331]
    assert fit.inlier_mask.sum() == 6490


@pytest.mark.parametrize("n", [200, 1_080])
def test_ransac_block_size_changes_no_bit(n, monkeypatch):
    # one block of every draw, the default, and one row per block
    x, y = contaminated_campaign(n, seed=11)
    X = np.column_stack([x, np.ones(n)])
    fits = []
    for block in (1 << 20, 1 << 16, n):
        monkeypatch.setattr(estimators, "ROW_BLOCK", block)
        fits.append(fit_ransac(X, y, seed=7))
    for fit in fits[1:]:
        assert fit.coefficients.tolist() == fits[0].coefficients.tolist()
        assert np.array_equal(fit.inlier_mask, fits[0].inlier_mask)


def test_ransac_first_of_tied_consensus_sets_wins_across_blocks(monkeypatch):
    # two parallel lines of 20 exact points each: a pair from one line has
    # that line's 20 as its consensus, so candidates of both lines tie
    n, seed = 40, 3
    x = np.random.default_rng(5).uniform(0.0, 10.0, n)
    line = np.arange(n) % 2  # 0: y = 2x, 1: y = 2x + 10
    X = np.column_stack([x, np.ones(n)])
    Y = 2.0 * x + 10.0 * line
    subsets = estimators._draw_subsets(
        substream(seed, "ransac"), n, 2, estimators.RANSAC_DRAWS
    )
    tied = [line[i] for i, j in subsets if line[i] == line[j]]
    assert tied[0] != tied[-1]  # the first and the last tied candidates differ
    monkeypatch.setattr(estimators, "ROW_BLOCK", n)  # one candidate per block
    fit = fit_ransac(X, Y, seed=seed, inlier_threshold=0.1)
    assert np.array_equal(fit.inlier_mask, line == tied[0])


@pytest.mark.parametrize("p", [1, 2, 3, 6, 10])
def test_subsets_are_each_rows_least_uniforms_in_ascending_order(p):
    # n = 200 puts the 1000 draws in four row blocks; the subsets must be the
    # same stream's uniforms sorted stably (ties to the lower index)
    n, count = 200, estimators.RANSAC_DRAWS
    assert ROW_BLOCK // n < count
    u = substream(9, "ransac").random((count, n))
    got = estimators._draw_subsets(substream(9, "ransac"), n, p, count)
    assert np.array_equal(got, np.argsort(u, kind="stable")[:, :p])


# ---------------------------------------------------------------------------
# penalty tuning
# ---------------------------------------------------------------------------


def test_tuning_singleton_grid_returns_it():
    rng = np.random.default_rng(41)
    X = np.column_stack([rng.uniform(1, 10, 24), np.ones(24)])
    Y = X @ np.array([2.0, 5.0])
    assert tune_penalty_kfold(X, Y, "Ridge", [0.0]) == 0.0


def test_tuning_noiseless_data_prefers_no_penalty():
    rng = np.random.default_rng(43)
    X = np.column_stack([rng.uniform(1, 10, 30), np.ones(30), rng.uniform(0, 5, 30)])
    Y = X @ np.array([2.0, 5.0, -1.0])
    assert tune_penalty_kfold(X, Y, "Ridge", [0.0, 0.5, 1.0]) == 0.0
    assert tune_penalty_kfold(X, Y, "Lasso", [0.0, 0.5, 1.0]) == 0.0


def test_tuning_validates_grid_and_size(monkeypatch):
    X = np.column_stack([np.arange(1.0, 25.0), np.ones(24)])
    Y = np.arange(24.0)
    with pytest.raises(ConfigError):
        tune_penalty_kfold(X, Y, "Ridge", [])
    with pytest.raises(ConfigError):
        tune_penalty_kfold(X[:10], Y[:10], "Ridge", [0.0])
    with pytest.raises(ConfigError):
        tune_penalty_kfold(X, Y, "OLS", [0.0])
    # a candidate is one lam >= 0 for every kind: a (lam1, lam2) pair is invalid
    pairs = [(0.5, 0.1), (1.5, 0.1), (-0.1, 0.1), (0.5, -1.0), (np.nan, 0.1)]
    bad = {
        "Ridge": [-1.0, np.nan, np.inf, [0.1, 0.2, 0.3]] + pairs,
        "Lasso": [-1e-12, np.nan] + pairs,
        "ElasticNet": [-1.0, np.nan] + pairs,
    }
    for kind, candidates in bad.items():
        for candidate in candidates:
            with pytest.raises(ConfigError, match=f"{kind} penalty candidate"):
                tune_penalty_kfold(X, Y, kind, [0.0, 0.1, candidate])
    # the grid is checked before any fold runs: a fold would fail the test,
    # yet the bad last candidate is what gets reported
    def no_fold(*args):
        raise AssertionError("a fold ran")

    monkeypatch.setattr(estimators, "_solve_grid", no_fold)
    with pytest.raises(ConfigError, match=r"candidate -1\.0"):
        tune_penalty_kfold(X, Y, "Lasso", [0.1, -1.0])
    with pytest.raises(ConfigError, match="lam1 1.5"):
        fit_elasticnet(X, Y, 1.5, 0.1)
    with pytest.raises(ConfigError):
        fit_ridge(X, Y, -0.5)


def test_intercept_only_designs_fit_the_scaled_mean():
    Y = np.random.default_rng(53).normal(7.0, 2.0, 30)
    X = np.full((30, 1), 2.5)
    want = Y.mean() / 2.5
    assert fit_ridge(X, Y, 0.3) == pytest.approx([want], rel=1e-14)
    assert fit_lasso(X, Y, 0.3) == pytest.approx([want], rel=1e-14)
    assert fit_elasticnet(X, Y, 0.5, 0.3) == pytest.approx([want], rel=1e-14)
    for kind in ("Ridge", "Lasso", "ElasticNet"):
        # every candidate predicts the same fold means, so the smallest wins
        assert tune_penalty_kfold(X, Y, kind, [0.3, 0.0, 1.0]) == 0.0


def test_tied_lasso_penalties_go_to_the_smallest():
    # no slope: the large penalties zero every coefficient in every fold, so
    # their held-out scores tie exactly and beat the unpenalized fit
    rng = np.random.default_rng(59)
    X = np.column_stack([rng.uniform(1, 10, 40), np.ones(40), rng.uniform(0, 5, 40)])
    Y = 5.0 + rng.normal(0.0, 1.0, 40)
    grid = [1e5, 0.0, 3e3, 1e4]
    (scores,) = estimators._kfold_scores(X, Y, ("Lasso",), grid, 0)
    assert scores[0] == scores[2] == scores[3] < scores[1]
    assert tune_penalty_kfold(X, Y, "Lasso", grid) == 3e3


KINDS = ("Ridge", "Lasso", "ElasticNet")


def _robust_study_systems(monkeypatch):
    """(X, Y, seed) of every tuning call of a one-trial Robust study."""
    calls = []

    def spy(X, Y, kind, grid, *, seed=0):
        calls.append((X, Y, seed))
        return tune_penalty_kfold(X, Y, kind, grid, seed=seed)

    monkeypatch.setattr(evaluation, "tune_penalty_kfold", spy)
    evaluation.run_robust_study(ExperimentSpec(which="RobustStudy", trials=1, seed=1))
    return calls


def test_tuning_several_kinds_matches_one_call_per_kind(monkeypatch):
    rng = np.random.default_rng(67)
    x = rng.uniform(1, 10, 60)
    X = np.column_stack([x, np.ones(60), x + rng.normal(0.0, 1.0, 60)])
    Y = X @ np.array([2.0, 5.0, -1.0]) + rng.normal(0.0, 2.0, 60)
    systems = _robust_study_systems(monkeypatch)
    assert len(systems) == 2  # the clean and the contaminated corpus
    systems.append((X, Y, 5))
    grid = DEFAULT_PENALTY_GRID
    for X, Y, seed in systems:
        scores = estimators._kfold_scores(X, Y, KINDS, grid, seed)
        for kind, row in zip(KINDS, scores):
            (alone,) = estimators._kfold_scores(X, Y, (kind,), grid, seed)
            assert row.tolist() == alone.tolist()
        assert tune_penalty_kfold(X, Y, KINDS, grid, seed=seed) == tuple(
            tune_penalty_kfold(X, Y, kind, grid, seed=seed) for kind in KINDS
        )


def test_tuning_several_kinds_checks_every_kind_before_any_fold(monkeypatch):
    X = np.column_stack([np.arange(1.0, 25.0), np.ones(24)])
    Y = np.arange(24.0)

    def no_fold(*args):
        raise AssertionError("a fold ran")

    monkeypatch.setattr(estimators, "_solve_grid", no_fold)
    for kinds in (("Ridge", "Lasso", "OLS"), ("OLS", "Ridge")):
        with pytest.raises(ConfigError, match="kind 'OLS'"):
            tune_penalty_kfold(X, Y, kinds, [0.0, 0.1])
    with pytest.raises(ConfigError, match=r"Ridge penalty candidate -1\.0"):
        tune_penalty_kfold(X, Y, KINDS, [0.0, -1.0])
    with pytest.raises(ConfigError, match="Lasso penalty candidate nan"):
        tune_penalty_kfold(X, Y, ("Lasso", "Ridge"), [0.1, np.nan])


@pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-6, 1e-4, 1e-2, 3e-2, 1e-1])
def test_nearly_equal_columns_get_exact_penalized_fits(eps):
    # X = [1, x, x + eps z], columns correlated up to 1 - 1e-24: every fit is
    # finite and tuning picks a grid value
    rng = np.random.default_rng(29)
    x, z = rng.normal(size=(2, 40))
    X = np.column_stack([np.ones(40), x, x + eps * z])
    Y = 30.0 + 2.0 * x + rng.normal(0.0, 1.0, 40)
    fits = [fit_elasticnet(X, Y, lam1, lam2)
            for lam1, lam2 in [(0.01, 1e-4), (0.01, 1e-2), (0.5, 1e-2)]]
    fits += [fit_lasso(X, Y, lam) for lam in (1e-4, 1e-2, 1e-1)]
    assert np.isfinite(fits).all()
    grid = DEFAULT_PENALTY_GRID
    assert set(tune_penalty_kfold(X, Y, ("Lasso", "ElasticNet"), grid)) <= set(grid)


def test_tuning_selection_is_stable_under_reseeding():
    # contaminated response: the selected ridge penalty must not jump by more
    # than one grid step across ten fold-shuffling seeds
    rng = np.random.default_rng(47)
    x = rng.uniform(1, 10, 60)
    X = np.column_stack([x, np.ones(60), x**2 / 10.0])
    Y = X @ np.array([2.0, 5.0, -1.0]) + rng.normal(0, 1.0, 60)
    Y[::7] += 25.0
    grid = [0.0, 0.03, 0.1, 0.3, 1.0]
    picks = {
        grid.index(
            tune_penalty_kfold(X, Y, "Ridge", grid, seed=s)
        )
        for s in range(10)
    }
    assert max(picks) - min(picks) <= 1


# ---------------------------------------------------------------------------
# algebraic identities (property-based)
# ---------------------------------------------------------------------------

finite = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    ys=st.lists(finite, min_size=5, max_size=30),
    shift=st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
)
def test_median_line_intercept_is_shift_equivariant(ys, shift):
    # adding a constant to every response moves the intercept by exactly that
    # constant and leaves the slope untouched (medians commute with shifts)
    x = np.arange(1.0, len(ys) + 1.0)
    X = np.column_stack([x, np.ones_like(x)])
    base = fit_theilsen(X, np.asarray(ys)).coefficients
    moved = fit_theilsen(X, np.asarray(ys) + shift).coefficients
    assert moved[0] == pytest.approx(base[0], abs=1e-9)
    assert moved[1] == pytest.approx(base[1] + shift, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    rs=st.lists(finite, min_size=1, max_size=20),
    scale=st.floats(0.01, 1000.0, allow_nan=False, allow_infinity=False),
)
def test_weighted_rms_weight_scale_invariance(rs, scale):
    r = np.asarray(rs)
    w = np.abs(r) + 1.0
    assert weighted_rms(r, w) == pytest.approx(weighted_rms(r, scale * w), rel=1e-12)
