"""Solvers: WLS, penalized fits, and the two robust estimators.

Hand-checkable oracles are frozen as exact constants; randomized checks pin
their seeds.  A couple of algebraic identities run under hypothesis.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathfuse.errors import (
    ConfigError,
    ConsensusFailureError,
    DegenerateDataError,
    InsufficientDataError,
    SingularSystemError,
)
from pathfuse.estimators import (
    RegressorConfig,
    fit_elasticnet,
    fit_lasso,
    fit_ransac,
    fit_ridge,
    fit_theilsen,
    mad_scale,
    soft_threshold,
    solve_wls,
    tune_penalty_kfold,
    weighted_rms,
)


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


def test_wls_validates_inputs():
    with pytest.raises(ValueError):
        solve_wls(np.ones((3, 1)), np.array([1.0, np.nan, 2.0]))
    with pytest.raises(ValueError):
        solve_wls(np.ones((3, 1)), np.ones(3), np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        solve_wls(np.ones((3, 1)), np.ones(2))


def test_regressor_config_validation():
    with pytest.raises(ConfigError):
        RegressorConfig(kind="Huber")
    with pytest.raises(ConfigError):
        RegressorConfig(lam1=1.5)
    with pytest.raises(ConfigError):
        RegressorConfig(kfold_k=1)
    with pytest.raises(ConfigError):
        RegressorConfig(ransac_inlier_threshold=0.0)


# ---------------------------------------------------------------------------
# robust estimators
# ---------------------------------------------------------------------------


class TestTheilSen:
    def line(self, x, y):
        X = np.column_stack([x, np.ones_like(x)])
        return fit_theilsen(X, np.asarray(y), RegressorConfig(kind="TheilSen"))

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

    def test_wide_system_uses_elemental_medians(self):
        rng = np.random.default_rng(11)
        X = np.column_stack(
            [rng.uniform(1, 10, 25), np.ones(25), rng.uniform(0, 5, 25)]
        )
        beta_true = np.array([2.0, 5.0, -1.0])
        Y = X @ beta_true
        fit = fit_theilsen(X, Y, RegressorConfig(kind="TheilSen", theilsen_subsets=500))
        assert fit.coefficients == pytest.approx(beta_true, abs=1e-8)
        assert fit.iterations_used <= 500

    def test_degenerate_abscissa_raises(self):
        X = np.column_stack([np.full(5, 3.0), np.ones(5)])
        with pytest.raises(DegenerateDataError):
            fit_theilsen(X, np.arange(5.0), RegressorConfig(kind="TheilSen"))

    def test_too_few_samples_raise(self):
        X = np.column_stack([np.arange(2.0), np.ones(2)])
        with pytest.raises(DegenerateDataError):
            fit_theilsen(X, np.arange(2.0), RegressorConfig(kind="TheilSen"))


class TestRansac:
    def test_recovers_planted_line_under_gross_contamination(self):
        rng = np.random.default_rng(23)
        x = rng.uniform(1.0, 50.0, 60)
        X = np.column_stack([x, np.ones_like(x)])
        Y = 4.0 * x + 10.0 + rng.normal(0, 0.1, 60)
        bad = rng.choice(60, size=18, replace=False)
        Y[bad] += rng.uniform(40.0, 120.0, 18)
        fit = fit_ransac(X, Y, RegressorConfig(kind="RANSAC", seed=0))
        assert fit.coefficients[0] == pytest.approx(4.0, abs=0.05)
        assert fit.coefficients[1] == pytest.approx(10.0, abs=1.0)
        assert not fit.inlier_mask[bad].any()

    def test_same_seed_same_consensus(self):
        rng = np.random.default_rng(29)
        x = rng.uniform(1.0, 50.0, 40)
        X = np.column_stack([x, np.ones_like(x)])
        Y = 2.0 * x + rng.normal(0, 1.0, 40)
        a = fit_ransac(X, Y, RegressorConfig(kind="RANSAC", seed=5))
        b = fit_ransac(X, Y, RegressorConfig(kind="RANSAC", seed=5))
        assert np.array_equal(a.inlier_mask, b.inlier_mask)
        assert a.coefficients == pytest.approx(b.coefficients, abs=0)

    def test_impossible_threshold_fails_loudly(self):
        rng = np.random.default_rng(31)
        X = np.column_stack([rng.uniform(1, 50, 30), np.ones(30)])
        Y = rng.uniform(0, 500, 30)
        cfg = RegressorConfig(kind="RANSAC", ransac_inlier_threshold=1e-9)
        with pytest.raises(ConsensusFailureError):
            fit_ransac(X, Y, cfg)

    def test_needs_more_rows_than_columns(self):
        X = np.eye(2)
        with pytest.raises(ConsensusFailureError):
            fit_ransac(X, np.ones(2), RegressorConfig(kind="RANSAC"))


# ---------------------------------------------------------------------------
# penalty tuning
# ---------------------------------------------------------------------------


def test_tuning_singleton_grid_returns_it():
    rng = np.random.default_rng(41)
    X = np.column_stack([rng.uniform(1, 10, 24), np.ones(24)])
    Y = X @ np.array([2.0, 5.0])
    cfg = RegressorConfig(kind="Ridge")
    assert tune_penalty_kfold(X, Y, "Ridge", [0.0], cfg) == 0.0


def test_tuning_noiseless_data_prefers_no_penalty():
    rng = np.random.default_rng(43)
    X = np.column_stack([rng.uniform(1, 10, 30), np.ones(30), rng.uniform(0, 5, 30)])
    Y = X @ np.array([2.0, 5.0, -1.0])
    cfg = RegressorConfig(kind="Ridge")
    assert tune_penalty_kfold(X, Y, "Ridge", [0.0, 0.5, 1.0], cfg) == 0.0
    assert tune_penalty_kfold(X, Y, "Lasso", [0.0, 0.5, 1.0], cfg) == 0.0


def test_tuning_validates_grid_and_size():
    X = np.column_stack([np.arange(1.0, 25.0), np.ones(24)])
    Y = np.arange(24.0)
    cfg = RegressorConfig(kind="Ridge")
    with pytest.raises(ConfigError):
        tune_penalty_kfold(X, Y, "Ridge", [], cfg)
    with pytest.raises(ConfigError):
        tune_penalty_kfold(X[:10], Y[:10], "Ridge", [0.0], cfg)
    with pytest.raises(ConfigError):
        tune_penalty_kfold(X, Y, "OLS", [0.0], cfg)


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
            tune_penalty_kfold(X, Y, "Ridge", grid, RegressorConfig(kind="Ridge", seed=s))
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
    cfg = RegressorConfig(kind="TheilSen")
    base = fit_theilsen(X, np.asarray(ys), cfg).coefficients
    moved = fit_theilsen(X, np.asarray(ys) + shift, cfg).coefficients
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
