"""Linear estimators for decibel-domain path-loss systems.

Everything here operates on plain (X, Y, w) arrays produced by
``models.build_design_system``; nothing in this module knows about distances
or frequencies.  All solvers share three conventions:

* weights are normalized to mean 1 internally, so scaling every weight by a
  constant changes nothing (bit-for-bit);
* no solver ever forms an explicit matrix inverse -- the core path is an SVD
  of the column-equilibrated weighted design;
* RANSAC's draws and the k-fold splits come from the caller's ``seed``, so
  repeated calls are bit-identical.  Theil-Sen takes no seed: its pivots
  decide how fast the exact median slope is found, never which slope.

The caller picks the estimator by function, and each function takes only
the arguments that change its result; what no caller varies (RANSAC draws,
folds, the tuned ElasticNet mix) is a constant.

``solve_wls`` can also report the leverages of its own SVD, which give exact
leave-one-out residuals without a second factorization.  Penalty strengths
are arguments of the penalized fits, not config fields.  The penalized
kernels solve a whole grid of candidates at once, and a single fit is a
grid of one: Ridge takes every lam from one SVD of the standardized design
(Golub, Heath & Wahba 1979); Lasso and ElasticNet follow one exact lasso
homotopy with a candidate axis (Osborne, Presnell & Turlach 2000).  K-fold
tuning standardizes each fold's training rows once, for every kind it tunes,
and scores every candidate with one product.

``mad_inliers`` is the package's one outlier cut, about the median residual:
``fit_theilsen``'s mask, the pipeline's prefilter and the Robust study use it.

Theil-Sen fits lines only: a two-column [x, constant] design.  The exact
line selects its median slope without building all n(n-1)/2 slopes: the
slopes below t are the inversions of ``y - t*x`` in x order (Matousek 1991;
Dillencourt, Mount & Netanyahu 1992).  At most ``PAIR_BUDGET`` slopes exist
at a time; the closest pairs are placed by their slopes and a rounding guard
for one cutoff gap covers the rest, so the result is ``np.median``'s to the
bit.  Rounds after the first draw just enough pairs to aim the next interval
at ``PAIR_BUDGET``/4.  Each selection is one single-kth ``np.partition`` per
rank: numpy selects one kth 5-9 times faster than several.  RANSAC's subset
draws and consensus scoring run in row blocks of ``ROW_BLOCK`` numbers, with
the same draws and the same first largest consensus as one pass.  2^16 (512
KB) stays in cache: one pass built 1000 x n temporaries (1.6 MB at n = 200)
whose pages faulted in afresh on every call, and cost a third of its time.

Fits solve on one OpenBLAS thread unless the user sets
``OPENBLAS_NUM_THREADS``, by the rule that importing the package applies
(see :mod:`pathfuse`); forked study workers inherit it.

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

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    ConsensusFailureError,
    DegenerateDataError,
    InsufficientDataError,
    NumericError,
    SingularSystemError,
)
from .seeding import substream

__all__ = [
    "FitDiagnostics",
    "DEFAULT_PENALTY_GRID",
    "mad_scale",
    "mad_inliers",
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

#: condition number above which a strict solve refuses to proceed
CONDITION_LIMIT = 1e12
#: relative singular-value cutoff used for rank counting / minimal-norm solves
RANK_RTOL = 1e-10

#: default search grid for penalty tuning: 0 plus 21 log-spaced points
DEFAULT_PENALTY_GRID = (0.0,) + tuple(np.logspace(-4.0, 0.0, 21))

#: the most pairwise slopes the exact Theil-Sen line builds at one time: up to
#: this many pairs are listed whole, more are drawn from or streamed in blocks
PAIR_BUDGET = 1 << 16
#: rounding guard of a slope bound, eps * (max|y| + |t| max|x| + 1) / cutoff gap
SLOPE_GUARD = 16.0
#: uniforms (or residuals) per row block of RANSAC's draws and scoring
ROW_BLOCK = 1 << 16

RANSAC_DRAWS = 1000  # minimal subsets per RANSAC fit
KFOLD_K = 10  # folds of the penalty tuning
ELASTICNET_MIX = 0.5  # L1 fraction of the tuned ElasticNet penalty
RESIDUAL_MULTIPLIER = 3.0  # MAD scales of ``fit_theilsen``'s and the prefilter's cut


@dataclass(frozen=True)
class FitDiagnostics:
    """What a fit produced and how it got there."""

    coefficients: np.ndarray
    inlier_mask: np.ndarray  # bool, len == rows of X; all-true unless the
    # estimator itself rejects samples (RANSAC, Theil-Sen)
    iterations_used: int


def mad_scale(residuals) -> float:
    """Robust scale: 1.4826 * median absolute deviation about the median.
    Both are ``np.median``'s, each from one single-kth partition (``_median``)."""
    r = np.asarray(residuals, dtype=float)
    if r.size == 0:
        return 0.0
    return 1.4826 * float(_median(np.abs(r - _median(r))))


def mad_inliers(residuals, multiplier) -> np.ndarray:
    """Rows within ``multiplier`` MAD scales of the median residual: all if the
    scale is <= 1e-12 (no scatter), NumericError if it is not finite."""
    r = np.asarray(residuals, dtype=float)
    scale = mad_scale(r)
    if not math.isfinite(scale):
        raise NumericError(f"residual MAD scale is {scale}: the residuals "
                           f"overflow or are not finite")
    if scale <= 1e-12:
        return np.ones(r.shape, dtype=bool)
    return np.abs(r - _median(r)) <= multiplier * scale


def _kth(v, ranks):
    """``np.partition(v, ranks)[ranks]`` (sorted ranks; a tie may give -0.0 for
    0.0), one single-kth partition per rank, right of the rank before it."""
    out, base = [], 0
    for r in ranks:
        if r <= base:  # a repeated rank, or the least value left
            out.append(out[-1] if r < base else v.min())
        else:
            v = np.partition(v, r - base)
            out.append(v[r - base])
            v, base = v[r - base + 1:], r + 1
    return out


def _median(v):
    """``np.median(v)`` of a non-empty 1-D array to the bit, from one single-kth
    partition; like np.mean, it sums from +0.0 (a sum of zeros is +0.0)."""
    k = (v.size - 1) // 2
    part = np.partition(v, k)
    hi = part[k + 1 - v.size % 2:].min()  # the next value up, or part[k]; nan if any
    return hi + 0.0 if v.size % 2 else (part[k] + hi + 0.0) / 2


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

    A solution that overflows to inf or nan raises :class:`NumericError`.
    ``info`` (with ``return_info=True``) holds the condition number, rank,
    shape and ``leverage``: the hat-matrix diagonal h_ii of the weighted
    system over the retained singular directions.  The exact leave-one-out
    residual of row i is r_i / (1 - h_ii) (Hoaglin & Welsch 1978); the
    pipeline's fit records their weighted RMS as ``loocv_db``.

    Its SVD takes 0.43-0.48 ms at 8,000 x 6 on the one BLAS thread that
    importing pathfuse sets, and took 16 ms on two.
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
    if not np.isfinite(beta).all():
        raise NumericError("least-squares solution is not finite: the data overflow")

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
        self.p = X.shape[1]
        self.icol = _find_intercept_column(X)
        if self.icol is None:
            self.Xs, self.Ys = X, Y
        else:
            self.keep = np.flatnonzero(np.arange(self.p) != self.icol)
            sub = X[:, self.keep]
            self.mx = sub.mean(axis=0)
            sx = sub.std(axis=0)
            self.sx = np.where(sx > 0.0, sx, 1.0)
            self.Xs = (sub - self.mx) / self.sx
            self.ymean = Y.mean()
            self.Ys = Y - self.ymean
            self.ival = X[0, self.icol]

    def restore(self, b_std) -> np.ndarray:
        """Map (k, G) standardized coefficients to (p, G), one column each."""
        if self.icol is None:
            return b_std
        b = b_std / self.sx[:, None]
        beta = np.zeros((self.p, b.shape[1]))
        beta[self.keep] = b
        beta[self.icol] = (self.ymean - self.mx @ b) / self.ival
        return beta


def _penalties(kind, grid, lam1=ELASTICNET_MIX):
    """(l1, l2) weights of every candidate, checked before anything is solved.

    Every candidate is one lam >= 0: Ridge puts it on the L2 term, Lasso on
    the L1 term, and ElasticNet splits it by ``lam1`` in [0, 1].
    """
    mix = {"Ridge": 0.0, "Lasso": 1.0}.get(kind, lam1)
    if not 0.0 <= mix <= 1.0:
        raise ConfigError(f"ElasticNet lam1 {lam1!r} is invalid: need 0 <= lam1 <= 1")
    for candidate in grid:
        if np.ndim(candidate) or not 0.0 <= float(candidate) < math.inf:
            raise ConfigError(f"{kind} penalty candidate {candidate!r} is invalid: "
                              f"need one lam >= 0")
    lam = np.asarray(grid, dtype=float)
    return mix * lam, (1.0 - mix) * lam


def _ridge_path(Xs, Ys, lam):
    """Ridge coefficients for every lam from one thin SVD (Golub, Heath &
    Wahba 1979): b(lam) = V diag(s / (s^2 + lam)) U^T y.

    At lam = 0 singular values up to eps*(m+k)*s_max count as zero, the cutoff
    of ``lstsq(rcond=None)`` on [Xs; sqrt(lam) I]: the minimum-norm answer.
    """
    m, k = Xs.shape
    U, s, Vt = np.linalg.svd(Xs, full_matrices=False)
    s = s[:, None]
    cut = np.finfo(float).eps * (m + k) * s.max(initial=0.0)
    denom = s * s + lam
    f = np.divide(s, denom, out=np.zeros_like(denom), where=(lam > 0.0) | (s > cut))
    return Vt.T @ (f * (U.T @ Ys)[:, None])


def _homotopy_path(Xs, Ys, l1, l2):
    """Exact minimizers of ||Y-Xw||^2 + l1*||w||_1 + l2*||w||^2, one column per
    (l1, l2) candidate, solved in lockstep by the lasso homotopy (Osborne,
    Presnell & Turlach 2000) on H = X^T X + l2 I: the lasso on Zou & Hastie's
    (2005, Lemma 1) augmented data.

    Each candidate starts at w = 0 with its threshold lam at max|X^T Y|.  As lam
    falls, w moves along d = H_A^+ sign(w_A) on the active set A, so one batched
    solve per step finds the next event: a correlation X_j^T (Y - Xw) - l2 w_j
    off A reaching +-lam, a weight on A reaching 0, or lam reaching l1/2.  A
    column whose correlation has passed lam joins at once; every other step
    lowers lam, so the loop ends.  A singular H_A gives the minimum-norm step.

    m equal columns are solved as one of L2 weight l2/m, its weight split evenly:
    the one answer while l2 > 0 (Zou & Hastie 2005), an optimum at l2 = 0.  No
    solve splits them evenly to the bit by itself.
    """
    same = (Xs[:, :, None] == Xs[:, None, :]).all(axis=0)
    first = (~same).cumprod(axis=0).sum(axis=0)  # each column's first equal one
    keep, m = np.flatnonzero(first == np.arange(first.size)), same.sum(axis=0)
    Xs, k, half = Xs[:, keep], keep.size, l1[:, None] / 2.0
    C, g = Xs.T @ Xs, Xs.T @ Ys
    H = C + (l2[:, None] / m[keep])[:, :, None] * np.eye(k)  # L2 weight per column
    t = np.maximum(np.abs(g).max(initial=0.0), half)  # lam, never below l1/2
    s = np.where(np.abs(g) == t, np.sign(g), 0.0)  # sign(w) on A, the first to join
    w, sig = np.zeros_like(s), np.array([1.0, -1.0])[:, None, None]
    while (t > half).any():  # a candidate at l1/2 takes no more steps
        on = s != 0.0
        vals, vecs = np.linalg.eigh(H * (on[:, :, None] & on[:, None, :]))
        vals[vals <= k * np.finfo(float).eps * vals[:, -1:]] = np.inf  # pinv's cut
        d = vecs @ (np.einsum("gji,gj->gi", vecs, s) / vals)[:, :, None]
        d = np.where(on, d[:, :, 0], 0.0)  # dw / d(-lam)
        f, e = d @ C, g - (w + t * d) @ C  # off A the correlation at lam is e + lam f
        slope = 1.0 - sig * f  # it reaches sig * lam where (sig e) / slope = lam
        join = np.divide(sig * e, slope, out=np.full(slope.shape, -np.inf),
                         where=~on & (slope > 0.0)).max(axis=0)
        zero = t + np.divide(w, d, out=np.full(s.shape, -np.inf), where=s * d < 0.0)
        nxt = np.maximum(np.minimum(join.max(axis=1, keepdims=True), t), half)
        nxt = np.maximum(nxt, np.where(zero < t, zero, -np.inf).max(1, keepdims=True))
        drop = (nxt < t) & (zero >= nxt)  # joins alone take no step
        s = np.where(join >= nxt, np.sign(e + nxt * f), np.where(drop, 0.0, s))
        w, t = np.where(drop, 0.0, w + (t - nxt) * d), nxt
    return w.T[np.searchsorted(keep, first)] / m[:, None]


def _solve_grid(std, kind, l1, l2):
    """Coefficients (p, G) of every candidate on one standardized system."""
    if kind == "Ridge":
        return std.restore(_ridge_path(std.Xs, std.Ys, l2))
    return std.restore(_homotopy_path(std.Xs, std.Ys, l1, l2))


def _fit_one(X, Y, kind, lam, lam1=ELASTICNET_MIX):
    X, Y, _ = _as_system(X, Y)
    l1, l2 = _penalties(kind, [lam], lam1)
    return _solve_grid(_Standardizer(X, Y), kind, l1, l2)[:, 0]


def fit_ridge(X, Y, lam: float) -> np.ndarray:
    """L2-penalized least squares; the intercept is never penalized.

    Solved from one SVD of the standardized design: lam = 0 gives the
    minimum-norm least-squares answer, with no normal equations formed.
    """
    return _fit_one(X, Y, "Ridge", lam)


def fit_lasso(X, Y, lam: float):
    """L1-penalized least squares, solved exactly by the lasso homotopy.

    Objective ||Y - Xw||^2 + lam*||w_pen||_1, so on an orthonormal design the
    solution is soft_threshold(X^T Y, lam/2) exactly.
    """
    return _fit_one(X, Y, "Lasso", lam)


def fit_elasticnet(X, Y, lam1: float, lam2: float):
    """Mixed L1/L2 penalty: lam1*lam2*||w||_1 + (1-lam1)*lam2*||w||^2.

    lam1=0 matches :func:`fit_ridge` and lam1=1 matches :func:`fit_lasso`
    (same lam2), because the L2 term is the squared norm.
    """
    return _fit_one(X, Y, "ElasticNet", lam2, lam1)


# ---------------------------------------------------------------------------
# robust estimators
# ---------------------------------------------------------------------------


def _draw_subsets(rng, n, p, count):
    """``count`` random p-subsets of range(n), one per row, drawn in row
    blocks of ``ROW_BLOCK`` uniforms (the same stream as one big fill): each
    row's p least uniforms, ascending, ties to the lower index, by p ``argmin``
    passes (0.2 ms at 1000 x 200 and p = 2, where ``argpartition`` took 2.5 ms)."""
    rows = max(1, ROW_BLOCK // n)
    out = np.empty((count, p), dtype=np.intp)
    for k in range(0, count, rows):
        u = rng.random((min(rows, count - k), n))
        for j in range(p):
            pick = out[k:k + rows, j] = u.argmin(axis=1)
            u[np.arange(u.shape[0]), pick] = np.inf
    return out


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


def fit_ransac(
    X, Y, *, seed=0, inlier_threshold=None, column_names=None
) -> FitDiagnostics:
    """Random-sample consensus: best inlier set, then a WLS refit on it.

    Exactly ``RANSAC_DRAWS`` minimal p-subsets are drawn from the stream
    ``substream(seed, "ransac")``.  A sample is an inlier of a candidate when
    its absolute residual is at most ``inlier_threshold`` (dB, > 0); when it
    is None it defaults to twice the MAD scale of a Theil-Sen prefit's
    residuals, which needs a line design [x, constant].
    """
    threshold = inlier_threshold
    if threshold is not None and not (np.isfinite(threshold) and threshold > 0.0):
        raise ConfigError(f"inlier_threshold must be > 0 or None, got {threshold!r}")
    X, Y, _ = _as_system(X, Y)
    n, p = X.shape
    if n <= p:
        raise ConsensusFailureError(
            f"need more than {p} samples to validate a consensus, got {n}"
        )

    if threshold is None:
        if p != 2 or _find_intercept_column(X) is None:
            raise ConfigError("RANSAC needs inlier_threshold unless the "
                              "design is a line [x, constant]")
        prefit = fit_theilsen(X, Y)
        scale = mad_scale(Y - X @ prefit.coefficients)
        if scale <= 0.0:
            scale = np.finfo(float).eps
        threshold = 2.0 * scale

    rng = substream(seed, "ransac")
    subsets = _draw_subsets(rng, n, p, RANSAC_DRAWS)
    coefs, good = _solve_elemental(X, Y, subsets)

    rows, best, mask = max(1, ROW_BLOCK // n), -1, None
    for k in range(0, RANSAC_DRAWS, rows):  # the first largest consensus wins
        resid = coefs[k:k + rows] @ X.T
        inliers = np.abs(np.subtract(Y, resid, out=resid), out=resid) <= threshold
        counts = np.where(good[k:k + rows], np.count_nonzero(inliers, axis=1), -1)
        if counts.max() > best:
            best, mask = int(counts.max()), inliers[np.argmax(counts)]
    if best < p + 1:
        raise ConsensusFailureError(
            f"largest consensus set has {max(best, 0)} samples; "
            f"need at least {p + 1} (threshold {threshold:.3g} dB)"
        )

    coeffs = solve_wls(X[mask], Y[mask], column_names=column_names)
    return FitDiagnostics(
        coefficients=coeffs, inlier_mask=mask, iterations_used=RANSAC_DRAWS
    )


def _slopes(x, y, i, j):
    with np.errstate(over="ignore"):  # an overflowed slope is +-inf and still sorts
        return (y[i] - y[j]) / (x[i] - x[j])  # the slopes whose median Theil-Sen takes


def _level_order(seq, b):
    """The stable order of ``seq``, a permutation of range(n), by its bits above
    b: numpy radix-sorts 16-bit keys, so they are the keys wherever they fit."""
    key = seq >> (b + 1)
    if (seq.size - 1) >> (b + 1) < 1 << 16:
        key = key.astype(np.uint16, copy=False)
    return np.argsort(key, kind="stable")


def _inversions(seq):
    """Count the strict inversions of ``seq``, a permutation of range(n), and rank them.

    Level b holds the pairs that first differ in bit b: after a stable sort
    on the higher bits, each 0 bit after a 1 of its group is one inversion.
    The k-th 0 bit of level b, at position p of group g = p >> (b+1), follows
    p - k - g 2^b 1 bits of its group, as each group before g holds 2^b 0 bits
    (see ``_inversion_count``).  Also returns
    ``pairs``: inversion ranks (sorted, or ``slice(None)`` for all in order)
    -> (earlier, later) positions.  Its O(n log n) index arrays live as long
    as ``pairs``: ``_inversion_count`` only counts, in O(n).
    """
    n = seq.size
    levels = np.arange(max(n - 1, 1).bit_length(), dtype=np.int32)
    seq = seq.astype(np.int32)
    order = np.concatenate([_level_order(seq, b) for b in levels])
    bit = (seq[order] >> np.repeat(levels, n)) & 1
    zero_at, one_at = np.flatnonzero(bit == 0), np.flatnonzero(bit)  # levels in a row
    b, p = np.divmod(zero_at, n)
    k = np.arange(zero_at.size) - np.searchsorted(zero_at, levels * n)[b]
    weight = p - k - (p >> (b + 1) << b)
    cum = np.cumsum(weight)

    def pairs(ranks):
        if isinstance(ranks, slice):  # zero z holds the ranks below cum[z]
            z, ranks = np.repeat(np.arange(weight.size), weight), np.arange(cum[-1])
        else:
            z = np.searchsorted(cum, ranks, side="right")
        # zero_at[z] - z 1 bits come before zero z, its group's last just before it
        first = one_at[zero_at[z] - z + ranks - cum[z]]
        return order[first], order[zero_at[z]]

    return int(cum[-1]), pairs


def _inversion_count(seq):
    """The count of ``_inversions``, one level at a time in O(n) memory.

    After level b's stable sort, the block [g, g+1) * 2^(b+1) of positions
    holds exactly group g's values, as ``seq`` is a permutation: z_g =
    min(2^b, n - g 2^(b+1)) of them have bit b 0.  The k-th of those 0 bits,
    at position p_k, follows p_k - g 2^(b+1) - k 1 bits of its group, so the
    level counts sum(p_k) - sum_g (z_g g 2^(b+1) + z_g (z_g - 1) / 2).
    """
    n, total, at = seq.size, 0, np.arange(seq.size)
    seq = seq.astype(np.min_scalar_type(max(n - 1, 0)))  # its keys seldom need a cast
    for b in range(max(n - 1, 1).bit_length()):
        zero = (seq[_level_order(seq, b)] >> b) & 1 == 0
        start = np.arange(0, n, 2 << b)  # of each group
        z = np.minimum(1 << b, n - start)
        total += int(at @ zero) - int(z @ start + z @ (z - 1) // 2)
    return total


def _select(values, count, ranks, rng):
    """Values ``ranks`` of ``values(range(count))``, ``PAIR_BUDGET`` at a time.

    ``values`` takes sorted ranks, or ``slice(None)`` for all.  Past the
    budget, two pivots drawn just below and above each rank narrow a window
    [a, b] that holds it, one streamed pass each, until its values fit.
    """
    if count <= PAIR_BUDGET:
        return _kth(values(slice(None)), ranks)

    def window(a, b):  # the values in [a, b], block by block
        for k in range(0, count, PAIR_BUDGET):
            s = values(np.arange(k, min(k + PAIR_BUDGET, count)))
            yield s[(a <= s) & (s <= b)]

    out = []
    for r in ranks:
        a, b, inside = -np.inf, np.inf, count  # r ranks the answer in [a, b]
        while inside > PAIR_BUDGET:
            s = values(np.sort(rng.integers(0, count, PAIR_BUDGET)))
            s = np.sort(s[(a <= s) & (s <= b)])
            at = r / inside * s.size + np.array([-2.0, 2.0]) * math.sqrt(s.size)
            u, w = s[np.clip(at.astype(int), 0, s.size - 1)] if s.size else (a, b)
            c0, c1, c2, c3 = sum(np.sum([s < u, s <= u, s < w, s <= w], axis=1)
                                 for s in window(a, b))  # below and up to u, w
            if c0 <= r < c1 or c2 <= r < c3:
                out.append(u if r < c1 else w)
                break
            if r < c0:
                b, inside = np.nextafter(u, -np.inf), c0
            elif r < c2:
                a, b = np.nextafter(u, np.inf), np.nextafter(w, -np.inf)
                r, inside = r - c1, c2 - c1
            else:
                a, r, inside = np.nextafter(w, np.inf), r - c3, inside - c3
        else:
            out += _kth(np.concatenate(list(window(a, b))), [r])
    return out


def _middle_slopes(xs, ys, ranks, count, rng):
    """Slopes ``ranks`` among the ``count`` of rows sorted by (x, y).

    c(t), the count of slopes below t, is the inversion count of the order
    of ``ys - t*xs`` (``_inversion_count``); [lo, hi) holds the pairs ordered
    unlike at lo and hi, ranked by ``_inversions``.  Round one draws 16n row
    pairs, each later one min(16n, max(1024, (16 size / PAIR_BUDGET)^2)) of
    the size pairs in [lo, hi), which aims the next [lo, hi) at PAIR_BUDGET/4.
    Each bound moves just outside the draws' middle while it keeps its rank,
    until [lo, hi) fits ``PAIR_BUDGET`` or stops shrinking.  Rounding
    misorders a pair at t only within about eps * (max|y| + |t| max|x|) /
    (its x gap) of its slope: the at most n pairs closer than delta (a gap
    quantile) are placed by slope unless [lo, hi) lists them, and the guard
    for gap delta covers the rest.  It doubles until [lo, hi) lists
    c(hi) - c(lo) far pairs and both slopes lie a guard inside; at |t|/2,
    bounds at -inf and +inf list every pair.
    """
    n, after = xs.size, np.searchsorted(xs, xs, side="right")  # next larger x
    gaps = np.diff(xs)
    gaps = gaps[gaps > 0.0]
    for k in (gaps.size // 4, gaps.size // 64, 0):  # none is closer than the least
        delta = _kth(gaps, [k])[0]
        near = np.maximum(np.searchsorted(xs, xs + delta) - after, 0)
        if near.sum() <= n:
            break
    ci = np.repeat(np.arange(n), near)
    cj = after[ci] + np.arange(ci.size) - np.repeat(near.cumsum() - near, near)
    close = _slopes(xs, ys, ci, cj)
    del after, gaps, near
    ymax, xmax = float(np.max(np.abs(ys))), float(np.max(np.abs(xs)))
    tol = SLOPE_GUARD * np.finfo(float).eps / delta

    def guard(t):
        return tol * (ymax + abs(t) * xmax + 1.0)

    def bound(t):  # (t, order of ys - t*xs, far pairs ordered, close ones ordered)
        key = ys - t * xs if math.isfinite(t) else -np.sign(t) * xs  # exact at +-inf
        order, ordered = np.argsort(key, kind="stable"), key[cj] < key[ci]
        far = _inversion_count(order) if math.isfinite(t) else count * (t > 0)
        return t, order, far - int(ordered.sum()), ordered

    def interval(lo, hi):  # (slopes below, in [lo, hi), theirs by rank, far ok)
        rank = np.empty(n, dtype=np.intp)
        rank[lo[1]] = np.arange(n)
        inside, pairs = _inversions(rank[hi[1]])
        kept = lo[3] == hi[3]  # close pairs ordered alike: placed by slope
        extra = close[kept & (lo[0] <= close) & (close < hi[0])]

        def slopes(k):  # the listed pairs, then the extra ones
            e = slice(None)
            if not isinstance(k, slice):
                k, e = np.split(k, [np.searchsorted(k, inside)])
                e = e - inside
            listed = _slopes(xs, ys, *(hi[1][j] for j in pairs(k)))
            return np.concatenate([listed, extra[e]])

        first = lo[2] + int(np.count_nonzero(kept & (close < lo[0])))
        ok = inside - ci.size + kept.sum() == hi[2] - lo[2]
        return first, inside + extra.size, slopes, ok

    def pair_draws():  # 16n random row pairs, less those of equal x
        i, j = rng.integers(0, n, (2, 16 * n))
        keep = xs[i] != xs[j]
        return _slopes(xs, ys, i[keep], j[keep])

    lo, hi = bound(-math.inf), bound(math.inf)
    rounds = count > PAIR_BUDGET and 2.0 * tol * xmax < 1.0  # else bounds prove nothing
    first, size, slopes, ok = (0, count, None, True) if rounds else interval(lo, hi)
    while rounds and size > PAIR_BUDGET:
        draws = min(16 * n, max(1024, (16 * size) ** 2 // PAIR_BUDGET**2))
        s = slopes(np.sort(rng.integers(0, size, draws))) if slopes else pair_draws()
        at = np.subtract(ranks, first) / size
        at = (at + np.array([-2, 2]) / math.sqrt(s.size)) * s.size
        t_lo, t_hi = _kth(s, np.clip(at.astype(int), 0, s.size - 1))
        new_lo, new_hi = bound(t_lo - guard(t_lo)), bound(t_hi + guard(t_hi))
        below = [b[2] + np.count_nonzero(close < b[0]) for b in (new_lo, new_hi)]
        lo = new_lo if lo[0] < new_lo[0] and below[0] <= ranks[0] else lo
        hi = new_hi if new_hi[0] < hi[0] and below[1] > ranks[1] else hi
        before, (first, size, slopes, ok) = size, interval(lo, hi)
        if 2 * size > before:
            break  # many equal slopes: stream the interval
    while True:
        if ok and first <= ranks[0] <= ranks[1] < first + size:
            low, high = _select(slopes, size, np.subtract(ranks, first), rng)
            if guard(lo[0]) <= low - lo[0] and guard(hi[0]) <= hi[0] - high:
                return low, high
        tol *= 2.0
        wide = 2.0 * tol * xmax >= 1.0
        lo = bound(-math.inf if wide else lo[0] - guard(lo[0]))
        hi = bound(math.inf if wide else hi[0] + guard(hi[0]))
        first, size, slopes, ok = interval(lo, hi)


def _theilsen_line(X, Y, const_col, var_col):
    """Exact pairwise-median line fit for the two-column case.

    The slope is ``np.median`` of every pair's ``(Y[i] - Y[j]) / (x[i] - x[j])``
    (pairs sharing an abscissa give none), bit for bit, in O(n log n +
    ``PAIR_BUDGET``) memory: one broadcast difference of the sorted rows if
    all n(n-1)/2 pairs fit the budget, else ``_middle_slopes``.  Its pivots
    come from the fixed stream ``substream(0, "theilsen", "pivots")``: any
    draws give the same slope.  Selections are single-kth.
    """
    x = X[:, var_col]
    n = x.shape[0]
    order = np.lexsort((Y, x))
    xs, ys = x[order], Y[order]
    ties = np.diff(np.flatnonzero(np.diff(xs, prepend=-np.inf, append=np.inf)))
    count = (n * n - int(ties @ ties)) // 2  # the pairs of distinct x
    if count == 0:
        raise DegenerateDataError("all sample pairs share the same abscissa")
    ranks = [(count - 1) // 2, count // 2]
    if n * (n - 1) // 2 <= PAIR_BUDGET:
        dx = xs - xs[:, None]
        wide = dx > 0.0
        with np.errstate(over="ignore"):  # as in ``_slopes``: +-inf still sorts
            low, high = _kth((ys - ys[:, None])[wide] / dx[wide], ranks)
    else:
        rng = substream(0, "theilsen", "pivots")
        low, high = _middle_slopes(xs, ys, ranks, count, rng)
    slope = float((low + high + 0.0) / 2)  # np.median's mean: the sum from +0.0
    intercept = float(_median(Y - slope * x)) / X[0, const_col]
    return np.array([intercept, slope] if var_col else [slope, intercept]), count


def fit_theilsen(X, Y) -> FitDiagnostics:
    """Median line fit of a two-column [x, constant] design.

    The slope is the exact median of the pairwise slopes (selected, see
    ``_theilsen_line``), the intercept the median residual; the pairs with
    distinct x are counted; the mask is ``mad_inliers`` at RESIDUAL_MULTIPLIER.
    Any other design raises ConfigError; a line that is not finite, NumericError.
    """
    X, Y, _ = _as_system(X, Y)
    n, p = X.shape
    if n <= p:
        raise DegenerateDataError(
            f"need more than {p} samples for a median fit, got {n}"
        )
    const_col = _find_intercept_column(X) if p == 2 else None
    if const_col is None:
        raise ConfigError(f"Theil-Sen fits lines only: the design must be "
                          f"[x, constant], got {p} columns")
    beta, used = _theilsen_line(X, Y, const_col, 1 - const_col)
    if not np.isfinite(beta).all():
        raise NumericError(f"Theil-Sen line is not finite: slope "
                           f"{beta[1 - const_col]}, intercept {beta[const_col]}")
    mask = mad_inliers(Y - X @ beta, RESIDUAL_MULTIPLIER)
    return FitDiagnostics(coefficients=beta, inlier_mask=mask, iterations_used=used)


# ---------------------------------------------------------------------------
# penalty tuning
# ---------------------------------------------------------------------------


def _kfold_scores(X, Y, kinds, grid, seed):
    """Held-out RMSE of every candidate over the ``KFOLD_K`` seeded folds, one
    row per kind in ``kinds``; each fold is standardized once for every kind."""
    if not grid:
        raise ConfigError("penalty grid must not be empty")
    for kind in kinds:
        if kind not in ("Ridge", "Lasso", "ElasticNet"):
            raise ConfigError(f"penalty tuning does not apply to kind {kind!r}")
    penalties = [_penalties(kind, grid) for kind in kinds]
    X, Y, _ = _as_system(X, Y)
    n = X.shape[0]
    if n < 2 * KFOLD_K:
        raise ConfigError(f"k-fold tuning needs n >= {2 * KFOLD_K}, got {n}")

    rng = substream(seed, "kfold")
    ssq = np.zeros((len(kinds), len(grid)))
    for fold in np.array_split(rng.permutation(n), KFOLD_K):
        train = np.ones(n, dtype=bool)
        train[fold] = False
        std = _Standardizer(X[train], Y[train])
        for row, kind, (l1, l2) in zip(ssq, kinds, penalties):
            err = Y[fold, None] - X[fold] @ _solve_grid(std, kind, l1, l2)
            row += np.einsum("ij,ij->j", err, err)
    return np.sqrt(ssq / n)


def tune_penalty_kfold(X, Y, kind: str | tuple, grid, *, seed=0):
    """Pick the penalty minimizing mean held-out RMSE over ``KFOLD_K`` folds
    drawn from ``substream(seed, "kfold")``; ties go to the smallest.

    Every candidate is one lam >= 0 (for ElasticNet the lam2 at
    ``ELASTICNET_MIX``) and the winner is returned unchanged.  The grid is
    checked before any fold runs; each fold solves every candidate at once,
    from one SVD (Ridge) or one lasso homotopy with a candidate axis
    (Lasso/ElasticNet), and scores them with one product.  For a tuple of
    kinds, one fold loop returns a tuple of what each kind's own call returns.
    """
    grid = list(grid)
    kinds = (kind,) if isinstance(kind, str) else tuple(kind)
    picks = tuple(grid[min(range(len(grid)), key=lambda i: (s[i], float(grid[i])))]
                  for s in _kfold_scores(X, Y, kinds, grid, seed))
    return picks[0] if isinstance(kind, str) else picks
