"""Linear estimators for decibel-domain path-loss systems.

Everything here operates on plain (X, Y, w) arrays produced by
``models.build_design_system``; nothing in this module knows about distances
or frequencies.  All solvers share three conventions:

* weights are normalized to mean 1 internally, so scaling every weight by a
  constant changes nothing (bit-for-bit);
* no solver ever forms an explicit matrix inverse -- the core path is an SVD
  of the column-equilibrated weighted design;
* randomized estimators (RANSAC, Theil-Sen, k-fold splits) derive their
  streams from ``RegressorConfig.seed`` only, so repeated calls are
  bit-identical.

``solve_wls`` can also report the leverages of its own SVD, which give exact
leave-one-out residuals without a second factorization.  Penalty strengths
are arguments of the penalized fits, not config fields; k-fold tuning
standardizes each fold's training rows once and solves every candidate
penalty on them.

Penalty conventions (important for cross-checking against other software):

* ridge:       minimize ||Y - X w||^2 + lam * ||w_pen||^2
* lasso:       minimize ||Y - X w||^2 + lam * ||w_pen||_1
* elastic net: minimize ||Y - X w||^2 + lam1*lam2*||w_pen||_1
                                       + (1-lam1)*lam2*||w_pen||^2

where ``w_pen`` excludes the intercept.  An intercept is detected as an
exactly constant nonzero column; when present, the remaining columns are
centered and scaled to unit variance for the penalized solve and the
coefficients are mapped back afterwards.  Systems without a constant column
are penalized raw (no centering, no scaling).  With these conventions the
elastic net reduces to ridge at lam1=0 and to lasso at lam1=1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    ConsensusFailureError,
    ConvergenceError,
    DegenerateDataError,
    InsufficientDataError,
    SingularSystemError,
)
from .seeding import substream

__all__ = [
    "REGRESSOR_KINDS",
    "RegressorConfig",
    "FitDiagnostics",
    "DEFAULT_PENALTY_GRID",
    "mad_scale",
    "soft_threshold",
    "weighted_rms",
    "solve_wls",
    "fit_ridge",
    "fit_lasso",
    "fit_elasticnet",
    "fit_ransac",
    "fit_theilsen",
    "tune_penalty_kfold",
]

REGRESSOR_KINDS = ("OLS", "WLS", "Ridge", "Lasso", "ElasticNet", "RANSAC", "TheilSen")

#: condition number above which a strict solve refuses to proceed
CONDITION_LIMIT = 1e12
#: relative singular-value cutoff used for rank counting / minimal-norm solves
RANK_RTOL = 1e-10

#: default search grid for penalty tuning: 0 plus 21 log-spaced points
DEFAULT_PENALTY_GRID = (0.0,) + tuple(np.logspace(-4.0, 0.0, 21))


@dataclass(frozen=True)
class RegressorConfig:
    """Estimator selection plus the knobs of the robust and tuned fits."""

    kind: str = "OLS"
    lam1: float = 0.5  # elastic-net L1 fraction, in [0, 1]
    ransac_iters: int = 1000
    ransac_inlier_threshold: float | None = None  # dB; None -> auto from prefit
    theilsen_subsets: int = 10000
    kfold_k: int = 10
    seed: int = 0
    tol: float = 1e-10
    max_iters: int = 10000

    def __post_init__(self):
        if self.kind not in REGRESSOR_KINDS:
            raise ConfigError(f"unknown regressor kind {self.kind!r}")
        if not (np.isfinite(self.lam1) and 0.0 <= self.lam1 <= 1.0):
            raise ConfigError(f"lam1 must be in [0, 1], got {self.lam1!r}")
        for name in ("ransac_iters", "theilsen_subsets", "kfold_k", "max_iters"):
            v = getattr(self, name)
            if not (isinstance(v, int) and v >= 1):
                raise ConfigError(f"{name} must be a positive integer, got {v!r}")
        if self.kfold_k < 2:
            raise ConfigError(f"kfold_k must be >= 2, got {self.kfold_k!r}")
        if self.ransac_inlier_threshold is not None and not (
            np.isfinite(self.ransac_inlier_threshold)
            and self.ransac_inlier_threshold > 0.0
        ):
            raise ConfigError("ransac_inlier_threshold must be positive or None")
        if not (np.isfinite(self.tol) and self.tol > 0.0):
            raise ConfigError(f"tol must be > 0, got {self.tol!r}")


@dataclass(frozen=True)
class FitDiagnostics:
    """What a fit produced and how it got there."""

    coefficients: np.ndarray
    inlier_mask: np.ndarray  # bool, len == rows of X; all-true unless the
    # estimator itself rejects samples (RANSAC, Theil-Sen)
    residual_wsd: float  # dB, weighted residual std over the inlier set
    condition_estimate: float  # of the equilibrated (weighted) design
    iterations_used: int


def mad_scale(residuals) -> float:
    """Robust scale: 1.4826 * median absolute deviation about the median."""
    r = np.asarray(residuals, dtype=float)
    if r.size == 0:
        return 0.0
    return 1.4826 * float(np.median(np.abs(r - np.median(r))))


def soft_threshold(z, t):
    """sign(z) * max(|z| - t, 0)."""
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


# ---------------------------------------------------------------------------
# input validation / shared internals
# ---------------------------------------------------------------------------


def _as_system(X, Y, w=None):
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float).ravel()
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    n, p = X.shape
    if Y.shape[0] != n:
        raise ValueError(f"X has {n} rows but Y has {Y.shape[0]} entries")
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise ValueError("X and Y must be finite")
    if w is None:
        w = np.ones(n)
    else:
        w = np.asarray(w, dtype=float).ravel()
        if w.shape[0] != n:
            raise ValueError(f"weights have length {w.shape[0]}, expected {n}")
        if not np.isfinite(w).all() or np.any(w < 0.0):
            raise ValueError("weights must be finite and >= 0")
        mean = w.sum() / n
        if mean <= 0.0:
            raise ValueError("weights must not all be zero")
        w = w / mean  # mean-1 normalization: scale invariance for free
    return X, Y, w


def _column_labels(p, column_names):
    if column_names is not None:
        labels = list(column_names)
        if len(labels) != p:
            raise ValueError(f"{len(labels)} column names for {p} columns")
        return labels
    return [f"col{j}" for j in range(p)]


def weighted_rms(residuals, w=None) -> float:
    r = np.asarray(residuals, dtype=float)
    if r.size == 0:
        return 0.0
    if w is None:
        return float(np.sqrt(np.mean(r * r)))
    w = np.asarray(w, dtype=float)
    return float(np.sqrt(np.sum(w * r * r) / np.sum(w)))


def _condition(X) -> float:
    """Condition number of the column-equilibrated design (inf if singular)."""
    A = np.asarray(X, dtype=float)
    norms = np.linalg.norm(A, axis=0)
    norms = np.where(norms > 0.0, norms, 1.0)
    s = np.linalg.svd(A / norms, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return math.inf
    return float(s[0] / s[-1]) if s[-1] > 0.0 else math.inf


# ---------------------------------------------------------------------------
# weighted least squares
# ---------------------------------------------------------------------------


def solve_wls(
    X,
    Y,
    w=None,
    *,
    allow_rank_deficient: bool = False,
    column_names=None,
    return_info: bool = False,
):
    """Weighted least squares via SVD of the column-equilibrated design.

    By default a system whose equilibrated condition number exceeds
    ``CONDITION_LIMIT`` raises :class:`SingularSystemError` naming the
    implicated columns.  With ``allow_rank_deficient=True``, singular values
    below ``RANK_RTOL`` (relative) are truncated instead and the minimal-norm
    solution is returned -- callers that knowingly fit collinear designs
    (e.g. two-frequency corpora under a quadratic surface) opt in explicitly.

    ``info`` (with ``return_info=True``) holds the condition number, rank,
    shape and ``leverage``: the hat-matrix diagonal h_ii of the weighted
    system over the retained singular directions.  The exact leave-one-out
    residual of row i is r_i / (1 - h_ii) (Hoaglin & Welsch 1978).
    """
    X, Y, w = _as_system(X, Y, w)
    n, p = X.shape
    if n < p:
        raise InsufficientDataError(f"{n} rows cannot determine {p} coefficients")
    labels = _column_labels(p, column_names)

    sw = np.sqrt(w)
    A = X * sw[:, None]
    b = Y * sw
    col_scale = np.linalg.norm(A, axis=0)
    col_scale = np.where(col_scale > 0.0, col_scale, 1.0)
    A = A / col_scale

    U, S, Vt = np.linalg.svd(A, full_matrices=False)
    smax = S[0] if S.size else 0.0
    if smax == 0.0:
        raise SingularSystemError("design matrix is identically zero", tuple(labels))
    rank = int(np.sum(S > RANK_RTOL * smax))
    cond = float(S[0] / S[-1]) if S[-1] > 0.0 else math.inf

    if cond > CONDITION_LIMIT and not allow_rank_deficient:
        bad = list(range(rank, p)) or [p - 1]
        implicated: list[str] = []
        for k in bad:
            v = np.abs(Vt[k])
            for j in np.nonzero(v > 0.3 * v.max())[0]:
                if labels[j] not in implicated:
                    implicated.append(labels[j])
        raise SingularSystemError(
            f"near-singular system (condition ~ {cond:.3g}); "
            f"dependent columns: {', '.join(implicated)}",
            tuple(implicated),
        )

    r = rank if allow_rank_deficient else p
    t = (U[:, :r].T @ b) / S[:r]
    beta = (Vt[:r].T @ t) / col_scale

    if return_info:
        info = {
            "condition": cond,
            "rank": rank,
            "n": n,
            "p": p,
            "leverage": np.einsum("ij,ij->i", U[:, :rank], U[:, :rank]),
        }
        return beta, info
    return beta


# ---------------------------------------------------------------------------
# standardization for penalized fits
# ---------------------------------------------------------------------------


def _find_intercept_column(X) -> int | None:
    """Index of the first exactly-constant nonzero column, if any."""
    for j in range(X.shape[1]):
        col = X[:, j]
        if col[0] != 0.0 and np.all(col == col[0]):
            return j
    return None


class _Standardizer:
    """Center/scale the non-intercept columns; map coefficients back."""

    def __init__(self, X, Y):
        self.n, self.p = X.shape
        self.icol = _find_intercept_column(X)
        if self.icol is None:
            self.keep = np.arange(self.p)
            self.Xs = X
            self.Ys = Y
            self.mx = None
        else:
            self.keep = np.array([j for j in range(self.p) if j != self.icol])
            sub = X[:, self.keep]
            self.mx = sub.mean(axis=0)
            sx = sub.std(axis=0)
            self.sx = np.where(sx > 0.0, sx, 1.0)
            self.Xs = (sub - self.mx) / self.sx
            self.ymean = Y.mean()
            self.Ys = Y - self.ymean
            self.ival = X[0, self.icol]

    def restore(self, b_std) -> np.ndarray:
        if self.icol is None:
            return np.asarray(b_std, dtype=float)
        beta = np.zeros(self.p)
        b = np.asarray(b_std, dtype=float) / self.sx
        beta[self.keep] = b
        beta[self.icol] = (self.ymean - float(b @ self.mx)) / self.ival
        return beta


def fit_ridge(X, Y, lam: float) -> np.ndarray:
    """L2-penalized least squares; the intercept is never penalized.

    Solved as an augmented least-squares system [X; sqrt(lam) I], which keeps
    lam = 0 exactly equivalent to OLS and avoids normal equations.
    """
    X, Y, _ = _as_system(X, Y)
    return _ridge_standardized(_Standardizer(X, Y), lam)


def _ridge_standardized(std, lam):
    if not (np.isfinite(lam) and lam >= 0.0):
        raise ConfigError(f"lam must be >= 0, got {lam!r}")
    k = std.Xs.shape[1]
    A = np.vstack([std.Xs, math.sqrt(lam) * np.eye(k)])
    rhs = np.concatenate([std.Ys, np.zeros(k)])
    b_std, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    return std.restore(b_std)


# ---------------------------------------------------------------------------
# coordinate descent (lasso / elastic net)
# ---------------------------------------------------------------------------


def _coordinate_descent(Xs, Ys, l1, l2, tol, max_iters):
    """Cyclic coordinate descent for ||Y-Xw||^2 + l1*||w||_1 + l2*||w||^2."""
    n, k = Xs.shape
    col_sq = np.einsum("ij,ij->j", Xs, Xs)
    omega = np.zeros(k)
    resid = Ys.copy()
    iters = 0
    for sweep in range(max_iters):
        iters = sweep + 1
        delta = 0.0
        for j in range(k):
            if col_sq[j] == 0.0:
                continue
            old = omega[j]
            zj = Xs[:, j] @ resid + col_sq[j] * old
            new = soft_threshold(zj, l1 / 2.0) / (col_sq[j] + l2)
            if new != old:
                resid += Xs[:, j] * (old - new)
                omega[j] = new
                delta = max(delta, abs(new - old))
        if delta <= tol * max(1.0, float(np.max(np.abs(omega)))):
            return omega, iters
    raise ConvergenceError(
        f"coordinate descent did not converge in {max_iters} sweeps "
        f"(last max update {delta:.3g})",
        last_iterate=omega,
    )


def fit_lasso(X, Y, lam: float, *, tol: float = 1e-10, max_iters: int = 10000):
    """L1-penalized least squares via coordinate descent.

    Objective ||Y - Xw||^2 + lam*||w_pen||_1, so on an orthonormal design the
    solution is soft_threshold(X^T Y, lam/2) exactly.
    """
    X, Y, _ = _as_system(X, Y)
    return _elasticnet_standardized(_Standardizer(X, Y), 1.0, lam, tol, max_iters)


def fit_elasticnet(
    X, Y, lam1: float, lam2: float, *, tol: float = 1e-10, max_iters: int = 10000
):
    """Mixed L1/L2 penalty: lam1*lam2*||w||_1 + (1-lam1)*lam2*||w||^2.

    lam1=0 matches :func:`fit_ridge` and lam1=1 matches :func:`fit_lasso`
    (same lam2), because the L2 term is the squared norm.
    """
    X, Y, _ = _as_system(X, Y)
    return _elasticnet_standardized(_Standardizer(X, Y), lam1, lam2, tol, max_iters)


def _elasticnet_standardized(std, lam1, lam2, tol, max_iters):
    """Coordinate descent on a prepared standardizer; lam1=1 is the lasso."""
    if not (np.isfinite(lam1) and 0.0 <= lam1 <= 1.0):
        raise ConfigError(f"lam1 must be in [0, 1], got {lam1!r}")
    if not (np.isfinite(lam2) and lam2 >= 0.0):
        raise ConfigError(f"penalty must be >= 0, got {lam2!r}")
    b_std, _ = _coordinate_descent(
        std.Xs, std.Ys, lam1 * lam2, (1.0 - lam1) * lam2, tol, max_iters
    )
    return std.restore(b_std)


# ---------------------------------------------------------------------------
# robust estimators
# ---------------------------------------------------------------------------


def _draw_subsets(rng, n, p, count):
    """``count`` random p-subsets of range(n), one per row (batched)."""
    u = rng.random((count, n))
    return np.argpartition(u, p, axis=1)[:, :p]


def _solve_elemental(X, Y, subsets):
    """Solve the p x p system for each subset; singular ones are masked out."""
    A = X[subsets]  # (k, p, p)
    B = Y[subsets]  # (k, p)
    U, S, Vt = np.linalg.svd(A)
    good = S[:, -1] > RANK_RTOL * np.maximum(S[:, 0], np.finfo(float).tiny)
    t = np.einsum("kpi,kp->ki", U, B)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = t / S
    coefs = np.einsum("kip,ki->kp", Vt, t)
    return coefs, good


def fit_ransac(X, Y, cfg: RegressorConfig, *, column_names=None) -> FitDiagnostics:
    """Random-sample consensus: best inlier set, then a WLS refit on it.

    Exactly ``cfg.ransac_iters`` minimal p-subsets are drawn from the stream
    ``substream(cfg.seed, "ransac")``.  A sample is an inlier of a candidate
    when its absolute residual is at most the inlier threshold; when the
    threshold is not configured it defaults to twice the MAD scale of a
    Theil-Sen prefit's residuals.
    """
    X, Y, _ = _as_system(X, Y)
    n, p = X.shape
    if n <= p:
        raise ConsensusFailureError(
            f"need more than {p} samples to validate a consensus, got {n}"
        )

    threshold = cfg.ransac_inlier_threshold
    if threshold is None:
        prefit = fit_theilsen(X, Y, cfg, column_names=column_names)
        scale = mad_scale(Y - X @ prefit.coefficients)
        if scale <= 0.0:
            scale = np.finfo(float).eps
        threshold = 2.0 * scale

    rng = substream(cfg.seed, "ransac")
    subsets = _draw_subsets(rng, n, p, cfg.ransac_iters)
    coefs, good = _solve_elemental(X, Y, subsets)

    resid = np.abs(Y[None, :] - coefs @ X.T)  # (iters, n)
    counts = np.where(good, np.sum(resid <= threshold, axis=1), -1)
    best = int(np.argmax(counts))
    if counts[best] < p + 1:
        raise ConsensusFailureError(
            f"largest consensus set has {max(counts[best], 0)} samples; "
            f"need at least {p + 1} (threshold {threshold:.3g} dB)"
        )

    mask = resid[best] <= threshold
    coeffs, info = solve_wls(
        X[mask], Y[mask], column_names=column_names, return_info=True
    )
    return FitDiagnostics(
        coefficients=coeffs,
        inlier_mask=mask,
        residual_wsd=weighted_rms(Y[mask] - X[mask] @ coeffs),
        condition_estimate=info["condition"],
        iterations_used=cfg.ransac_iters,
    )


def _theilsen_line(X, Y, const_col, var_col):
    """Exact pairwise-median line fit for the two-column case.

    The i-index is chunked so the pairwise workspace stays bounded even for
    large corpora; pairs sharing an abscissa contribute no slope.
    """
    x = X[:, var_col]
    n = x.shape[0]
    pieces = []
    chunk = max(1, 4_000_000 // max(n, 2))
    cols = np.arange(n)
    for start in range(0, n - 1, chunk):
        i = np.arange(start, min(start + chunk, n - 1))
        dx = x[i, None] - x[None, :]
        keep = (cols[None, :] > i[:, None]) & (dx != 0.0)
        if np.any(keep):
            dy = Y[i, None] - Y[None, :]
            pieces.append(dy[keep] / dx[keep])
    if not pieces:
        raise DegenerateDataError("all sample pairs share the same abscissa")
    slopes = np.concatenate(pieces)
    slope = float(np.median(slopes))
    intercept = float(np.median(Y - slope * x)) / X[0, const_col]
    beta = np.zeros(2)
    beta[var_col] = slope
    beta[const_col] = intercept
    return beta, int(slopes.size)


def fit_theilsen(X, Y, cfg: RegressorConfig, *, column_names=None) -> FitDiagnostics:
    """Median-of-elemental-fits regression.

    Two-column systems with a constant column use the exact pairwise-median
    slope plus median intercept.  Wider systems take the coordinate-wise
    median over elemental p-subsets: every subset when C(n, p) is within
    ``cfg.theilsen_subsets``, otherwise that many seeded random subsets
    (singular subsets are skipped and do not count toward the budget).
    """
    X, Y, _ = _as_system(X, Y)
    n, p = X.shape
    if n <= p:
        raise DegenerateDataError(
            f"need more than {p} samples for a median fit, got {n}"
        )

    const_col = _find_intercept_column(X)
    if p == 2 and const_col is not None:
        beta, used = _theilsen_line(X, Y, const_col, 1 - const_col)
    else:
        total = math.comb(n, p)
        if total <= cfg.theilsen_subsets:
            subsets = np.array(
                list(itertools.combinations(range(n), p)), dtype=np.intp
            )
            coefs, good = _solve_elemental(X, Y, subsets)
            solutions = coefs[good]
        else:
            rng = substream(cfg.seed, "theilsen")
            budget = cfg.theilsen_subsets
            collected = []
            have = 0
            for _ in range(50):
                need = budget - have
                if need <= 0:
                    break
                batch = _draw_subsets(rng, n, p, need)
                coefs, good = _solve_elemental(X, Y, batch)
                collected.append(coefs[good])
                have += int(np.count_nonzero(good))
            solutions = (
                np.concatenate(collected)[:budget] if collected else np.empty((0, p))
            )
        if solutions.shape[0] < p + 1:
            raise DegenerateDataError(
                f"only {solutions.shape[0]} nonsingular elemental subsets; "
                f"need at least {p + 1}"
            )
        beta = np.median(solutions, axis=0)
        used = solutions.shape[0]

    resid = Y - X @ beta
    scale = mad_scale(resid)
    mask = (
        np.abs(resid) <= 3.0 * scale if scale > 0.0 else np.ones(n, dtype=bool)
    )
    return FitDiagnostics(
        coefficients=beta,
        inlier_mask=mask,
        residual_wsd=weighted_rms(resid[mask]),
        condition_estimate=_condition(X),
        iterations_used=used,
    )


# ---------------------------------------------------------------------------
# penalty tuning
# ---------------------------------------------------------------------------


def _fit_for_tuning(std, kind, candidate, cfg):
    if kind == "Ridge":
        return _ridge_standardized(std, candidate)
    if kind == "Lasso":
        return _elasticnet_standardized(std, 1.0, candidate, cfg.tol, cfg.max_iters)
    if np.ndim(candidate) == 0:
        lam1, lam2 = cfg.lam1, float(candidate)
    else:
        lam1, lam2 = (float(candidate[0]), float(candidate[1]))
    return _elasticnet_standardized(std, lam1, lam2, cfg.tol, cfg.max_iters)


def _candidate_sort_key(candidate):
    return tuple(np.atleast_1d(np.asarray(candidate, dtype=float))[::-1])


def tune_penalty_kfold(X, Y, kind: str, grid, cfg: RegressorConfig):
    """Pick the penalty minimizing mean held-out RMSE over seeded K folds.

    Ties go to the smallest penalty.  Candidates are scalars for Ridge/Lasso;
    for ElasticNet either scalars (lam2, with lam1 from cfg) or (lam1, lam2)
    pairs.  Returns the winning candidate unchanged.  Each fold's training
    rows are standardized once and shared by every candidate.
    """
    grid = list(grid)
    if not grid:
        raise ConfigError("penalty grid must not be empty")
    if kind not in ("Ridge", "Lasso", "ElasticNet"):
        raise ConfigError(f"penalty tuning does not apply to kind {kind!r}")
    X, Y, _ = _as_system(X, Y)
    n = X.shape[0]
    k = cfg.kfold_k
    if n < 2 * k:
        raise ConfigError(f"k-fold tuning needs n >= {2 * k}, got {n}")

    rng = substream(cfg.seed, "kfold")
    folds = np.array_split(rng.permutation(n), k)
    ssq = [0.0] * len(grid)
    for fold in folds:
        train = np.setdiff1d(np.arange(n), fold, assume_unique=False)
        std = _Standardizer(X[train], Y[train])
        Xf, Yf = X[fold], Y[fold]
        for i, candidate in enumerate(grid):
            err = Yf - Xf @ _fit_for_tuning(std, kind, candidate, cfg)
            ssq[i] += float(err @ err)
    scores = [math.sqrt(v / n) for v in ssq]

    order = sorted(
        range(len(grid)), key=lambda i: (scores[i], _candidate_sort_key(grid[i]))
    )
    return grid[order[0]]
