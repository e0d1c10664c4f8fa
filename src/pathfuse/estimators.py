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
kernels solve a grid of candidates on a stack of systems at once; a single fit
is a grid of one on a stack of one.  Ridge takes every lam from one batched SVD
(Golub, Heath & Wahba 1979); Lasso and ElasticNet follow one exact homotopy with
a system and a candidate axis (Osborne, Presnell & Turlach 2000).  K-fold tuning
solves and scores all its folds, kinds and candidates in one pass.

``mad_inliers`` is the package's one outlier cut, about the median residual:
``fit_theilsen``'s mask, the pipeline's prefilter and the Robust study use it.

Theil-Sen fits lines only: a two-column [x, constant] design.  The exact
line selects its median slope without building all n(n-1)/2 slopes: the
slopes below t are the inversions of ``y - t*x`` in x order (Matousek 1991;
Dillencourt, Mount & Netanyahu 1992).  A round holds at most 16n slopes at
a time; the closest pairs are placed by their slopes and a rounding guard
for one cutoff gap covers the rest, so the result is ``np.median``'s to the
bit.  Each selection is one single-kth ``np.partition`` per rank: numpy
selects one kth 5-9 times faster than several.  RANSAC's subset draws and
consensus scoring run in row blocks of ``ROW_BLOCK`` numbers, with the same
draws and the same first largest consensus as one pass.  2^16 (512 KB) stays
in cache: one pass built 1000 x n temporaries (1.6 MB at n = 200) whose
pages faulted in afresh on every call, and cost a third of its time.

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

#: the most pairwise slopes the exact Theil-Sen line lists whole: more are
#: drawn from, PAIR_BUDGET/8 or more at a time, or streamed in blocks
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


def _find_intercept_column(X):
    """First exactly-constant nonzero column of each stacked design, else -1."""
    const = (X == X[..., :1, :]).all(axis=-2) & (X[..., 0, :] != 0.0)
    first = (~const).cumprod(axis=-1).sum(axis=-1)  # p where none is
    return np.where(first < const.shape[-1], first, -1)


class _Standardizer:
    """Center/scale the non-intercept columns of S stacked systems X (S, m, p), Y
    (S, m) sharing intercept column ``icol`` (-1: none, kept raw); map back."""

    def __init__(self, X, Y, icol):
        self.p, self.icol = X.shape[2], icol
        if icol < 0:
            self.Xs, self.Ys = X, Y
        else:
            self.keep = np.flatnonzero(np.arange(self.p) != icol)
            sub = X[:, :, self.keep]
            self.mx = sub.mean(axis=1, keepdims=True)
            sx = sub.std(axis=1, keepdims=True)
            self.sx = np.where(sx > 0.0, sx, 1.0)
            self.Xs = (sub - self.mx) / self.sx
            self.ymean = Y.mean(axis=1, keepdims=True)
            self.Ys = Y - self.ymean
            self.ival = X[:, :1, icol]

    def restore(self, b_std) -> np.ndarray:
        """Map (S, k, G) standardized coefficients to (S, p, G), each column on its
        own: a BLAS product may round a column differently as G changes."""
        if self.icol < 0:
            return b_std
        b = b_std / self.sx.swapaxes(1, 2)
        beta = np.zeros((b.shape[0], self.p, b.shape[2]))
        beta[:, self.keep] = b
        fitted = (self.mx.swapaxes(1, 2) * b).sum(axis=1)
        beta[:, self.icol] = (self.ymean - fitted) / self.ival
        return beta


def _penalties(kind, grid, lam1=ELASTICNET_MIX):
    """(l1, l2) weights of every candidate, checked before anything is solved.

    Every candidate is one lam >= 0: Ridge puts it on the L2 term, Lasso on
    the L1 term, and ElasticNet splits it by ``lam1`` in [0, 1].
    """
    mix = {"Ridge": 0.0, "Lasso": 1.0}.get(kind, lam1)
    if not 0.0 <= mix <= 1.0:
        raise ConfigError(f"ElasticNet lam1 {lam1!r} is invalid: need 0 <= lam1 <= 1")
    for c in grid:  # a float needs no np.ndim, the slow part of the check
        if not isinstance(c, float) and np.ndim(c) or not 0.0 <= float(c) < math.inf:
            raise ConfigError(f"{kind} penalty candidate {c!r} is invalid: "
                              f"need one lam >= 0")
    lam = np.asarray(grid, dtype=float)
    return mix * lam, (1.0 - mix) * lam


def _ridge_path(Xs, Ys, lam):
    """Ridge coefficients (S, k, G) of S stacked systems for every lam, from one
    batched thin SVD (Golub, Heath & Wahba 1979): b = V diag(s / (s^2 + lam)) U^T y.

    At lam = 0 singular values up to eps*(m+k)*s_max count as zero, the cutoff
    of ``lstsq(rcond=None)`` on [Xs; sqrt(lam) I]: the minimum-norm answer.
    """
    m, k = Xs.shape[1:]
    U, s, Vt = np.linalg.svd(Xs, full_matrices=False)
    s = s[:, :, None]
    cut = np.finfo(float).eps * (m + k) * s.max(axis=1, keepdims=True, initial=0.0)
    denom = s * s + lam
    f = np.divide(s, denom, out=np.zeros_like(denom), where=(lam > 0.0) | (s > cut))
    return Vt.swapaxes(1, 2) @ (f * (U.swapaxes(1, 2) @ Ys[:, :, None]))


def _homotopy_path(Xs, Ys, l1, l2):
    """Exact minimizers (S, k, G) of ||Y-Xw||^2 + l1*||w||_1 + l2*||w||^2 on S
    stacked systems, one column per (l1, l2) candidate, in one lockstep loop over
    all S x G by the lasso homotopy (Osborne, Presnell & Turlach 2000) on each
    system's H = X^T X + l2 I: the lasso on Zou & Hastie's (2005) augmented data.

    Each candidate starts at w = 0 with its threshold lam at max|X^T Y|.  As lam
    falls, w moves along d = H_A^+ sign(w_A) on the active set A, so one batched
    solve per step finds the next event: a correlation X_j^T (Y - Xw) - l2 w_j
    off A reaching +-lam, a weight on A reaching 0, or lam reaching l1/2.  A
    column whose correlation has passed lam joins at once; every other step
    lowers lam, so the loop ends.  A singular H_A gives the minimum-norm step.
    The steps work on X^T X, so they are exact only to about cond(X)^2 u: fine
    for the standardized, intercept-bearing designs of the studies and the
    tuner, not for raw ill-conditioned ones.

    m equal columns are solved as one of L2 weight l2/m, its weight split evenly:
    the one answer while l2 > 0 (Zou & Hastie 2005), an optimum at l2 = 0 (no solve
    splits them evenly to the bit by itself), one call per pattern of equal columns.
    """
    same = (Xs[:, :, :, None] == Xs[:, :, None, :]).all(axis=1)
    first = (~same).cumprod(axis=1).sum(axis=1)  # each column's first equal one
    if (first != first[:1]).any():
        out = np.empty(Xs.shape[:1] + Xs.shape[2:] + l1.shape)
        for at in ((first == f).all(axis=1) for f in set(map(tuple, first.tolist()))):
            out[at] = _homotopy_path(Xs[at], Ys[at], l1, l2)
        return out
    keep, m = np.flatnonzero(first[0] == np.arange(first.shape[1])), same[0].sum(0)
    Xs, k, half = Xs[:, :, keep], keep.size, l1[:, None] / 2.0
    C, g = Xs.swapaxes(1, 2) @ Xs, Ys[:, None] @ Xs
    H = C[:, None] + (l2[:, None] / m[keep])[:, :, None] * np.eye(k)  # L2 per column
    t = np.maximum(np.abs(g).max(2, keepdims=True, initial=0.0), half)  # lam >= l1/2
    s = np.where(np.abs(g) == t, np.sign(g), 0.0)  # sign(w) on A, the first to join
    w, sig = np.zeros_like(s), np.array([1.0, -1.0])[:, None, None, None]
    while (t > half).any():  # a candidate at l1/2 takes no more steps
        on = s != 0.0
        vals, vecs = np.linalg.eigh(H * (on[..., :, None] & on[..., None, :]))
        vals[vals <= k * np.finfo(float).eps * vals[..., -1:]] = np.inf  # pinv's cut
        d = vecs @ (np.einsum("...ji,...j->...i", vecs, s) / vals)[..., None]
        d = np.where(on, d[..., 0], 0.0)  # dw / d(-lam)
        f, e = d @ C, g - (w + t * d) @ C  # off A the correlation at lam is e + lam f
        slope = 1.0 - sig * f  # it reaches sig * lam where (sig e) / slope = lam
        join = np.divide(sig * e, slope, out=np.full(slope.shape, -np.inf),
                         where=~on & (slope > 0.0)).max(axis=0)
        zero = t + np.divide(w, d, out=np.full(s.shape, -np.inf), where=s * d < 0.0)
        nxt = np.maximum(np.minimum(join.max(axis=2, keepdims=True), t), half)
        nxt = np.maximum(nxt, np.where(zero < t, zero, -np.inf).max(2, keepdims=True))
        drop = (nxt < t) & (zero >= nxt)  # joins alone take no step
        s = np.where(join >= nxt, np.sign(e + nxt * f), np.where(drop, 0.0, s))
        w, t = np.where(drop, 0.0, w + (t - nxt) * d), nxt
    return w.swapaxes(1, 2)[:, np.searchsorted(keep, first[0])] / m[:, None]


def _solve_grid(std, l1, l2, ridge):
    """Coefficients (S, p, G) of every (l1, l2) candidate on the S systems of
    ``std``: those marked ``ridge`` from one SVD, the rest from one homotopy."""
    out = np.empty(std.Xs.shape[:1] + std.Xs.shape[2:] + l1.shape)
    if ridge.any():
        out[:, :, ridge] = _ridge_path(std.Xs, std.Ys, l2[ridge])
    if not ridge.all():
        out[:, :, ~ridge] = _homotopy_path(std.Xs, std.Ys, l1[~ridge], l2[~ridge])
    return std.restore(out)


def _fit_one(X, Y, kind, lam, lam1=ELASTICNET_MIX):
    X, Y, _ = _as_system(X, Y)
    l1, l2 = _penalties(kind, [lam], lam1)
    std = _Standardizer(X[None], Y[None], _find_intercept_column(X))
    return _solve_grid(std, l1, l2, np.array([kind == "Ridge"]))[0, :, 0]


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
    """``count`` rows, each the p least of n uniforms (ascending, ties to the lower
    index), filled ``ROW_BLOCK`` at a time into one buffer: one big fill's stream.  At
    1000 x 200, p = 2, the fill takes 0.5 ms and the ``argmin`` passes 0.1 ms."""
    rows = max(1, ROW_BLOCK // n)
    out = np.empty((count, p), dtype=np.intp)
    buf = np.empty((min(rows, count), n))
    for k in range(0, count, rows):
        u = rng.random(out=buf[:count - k])
        for j in range(p):
            pick = out[k:k + rows, j] = u.argmin(axis=1)
            u[np.arange(u.shape[0]), pick] = np.inf
    return out


def _solve_elemental(X, Y, subsets):
    """Solve the p x p system for each subset; singular ones are masked out.
    A 2 x 2 [[a, b], [c, d]] takes Cramer's rule over a power of two near its
    largest entry (a batched SVD calls LAPACK once per subset).  As s_min s_max
    = |det|, the SVD's s_min > ``RANK_RTOL`` s_max is |det| > ``RANK_RTOL`` s_max^2,
    where s_max^2 = (F + sqrt(F^2 - 4 det^2)) / 2 and F = a^2 + b^2 + c^2 + d^2."""
    A, B = X[subsets], Y[subsets]  # (k, p, p), (k, p)
    with np.errstate(all="ignore"):  # a masked subset's coefficients go unread
        if A.shape[1] != 2:
            U, S, Vt = np.linalg.svd(A)
            t = np.einsum("kip,ki->kp", Vt, np.einsum("kpi,kp->ki", U, B) / S)
            return t, S[:, -1] > RANK_RTOL * np.maximum(S[:, 0], np.finfo(float).tiny)
        m = np.ldexp(1.0, np.frexp(np.abs(A).max(axis=(1, 2)))[1] - 1)
        (a, b), (c, d) = np.moveaxis(A / m[:, None, None], 0, -1)
        det, F = a * d - b * c, a * a + b * b + c * c + d * d
        s2 = (F + np.sqrt(np.maximum(F * F - 4.0 * det * det, 0.0))) / 2.0
        t = np.stack([B[:, 0] * d - b * B[:, 1], a * B[:, 1] - c * B[:, 0]], 1)
        return t / (det * m)[:, None], np.abs(det) > RANK_RTOL * s2


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
    from .io import POSITIVE  # here: at the top it would load csv, json and models
    threshold = inlier_threshold
    if threshold is not None and not POSITIVE[1](threshold):
        raise ConfigError(f"inlier_threshold must be > 0 or None, got {threshold!r}")
    X, Y, _ = _as_system(X, Y)
    n, p = X.shape
    if n <= p:
        raise ConsensusFailureError(
            f"need more than {p} samples to validate a consensus, got {n}"
        )

    if threshold is None:
        if p != 2 or _find_intercept_column(X) < 0:
            raise ConfigError("RANSAC needs inlier_threshold unless the "
                              "design is a line [x, constant]")
        scale = mad_scale(Y - X @ fit_theilsen(X, Y).coefficients)
        threshold = 2.0 * (np.finfo(float).eps if scale <= 0.0 else scale)

    subsets = _draw_subsets(substream(seed, "ransac"), n, p, RANSAC_DRAWS)
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


def _stable_order(key, tied=None):
    """``np.argsort(key, kind="stable")``, or ``tied()`` if given: numpy's default
    sort where the sorted keys strictly increase, as the order is then the only
    one, else (on any tie, +-0.0 and NaN too) the stable one."""
    order = np.argsort(key)
    s = key[order]
    if (s[1:] > s[:-1]).all():
        return order
    return tied() if tied else np.argsort(key, kind="stable")


def _level_order(seq, b):
    """The stable order of ``seq``, a permutation of range(n), by its bits above
    b: numpy radix-sorts keys of up to 16 bits a byte a pass, so each key takes
    the least unsigned type that holds the largest."""
    key = seq >> (b + 1)
    top = np.min_scalar_type((seq.size - 1) >> (b + 1))
    return np.argsort(key.astype(top, copy=False), kind="stable")


def _inversions(seq):
    """Count the strict inversions of ``seq``, a permutation of range(n), and rank them.

    Level b holds the pairs that first differ in bit b.  Ordered stably by
    seq >> (b+1), group g holds positions [g, g+1) * 2^(b+1) and each 0 bit
    after a 1 of its group is one inversion; ordered by seq >> b, it lists its
    0 bits, then its 1 bits (where bit b of the position is set).  Levels in a
    row, the z-th 0 bit's place in the first order less z counts the 1 bits
    before it; less its place in the second, those of its group.  ``pairs``
    maps inversion ranks (sorted, or ``slice(None)`` for all in order) to
    (earlier, later) intp positions, from 10 n log2(n) bytes.
    """
    n, top = seq.size, max(seq.size - 1, 1).bit_length()
    bits = 1 << np.arange(top, dtype=np.int32)[:, None]
    seq, order = seq.astype(np.int32), np.empty((top, n), np.int32)
    first = np.empty_like(order)  # row b: seq by seq >> (b+1); order[b]: by seq >> b
    order[0, seq], first[-1] = np.arange(n), seq
    for b in range(1, top):
        order[b] = at = _level_order(seq, b - 1)
        first[b - 1] = seq[at]
    first = np.flatnonzero(np.bitwise_and(first, bits, out=first) == 0)  # the 0 bits
    high = (np.arange(n, dtype=np.int32) & bits != 0).ravel()  # the second's 1 bits
    zeros, ones = np.compress(~high, order), np.compress(high, order)
    del order
    cum = np.flatnonzero(~high)  # w: each 0 bit's place in the first order less this
    np.cumsum(np.subtract(first, cum, out=cum), out=cum)
    group = np.subtract(first, np.arange(first.size, dtype=np.int32), dtype=np.int32)

    def pairs(ranks):
        if isinstance(ranks, slice):  # rank r: the 0 bits whose cum is at most r
            z = np.cumsum(np.bincount(cum, minlength=cum[-1] + 1)[:-1])
            ranks = np.arange(cum[-1])
        else:
            z = np.searchsorted(cum, ranks, side="right")
        return ones[group[z] + ranks - cum[z]].astype(np.intp), zeros[z].astype(np.intp)

    return int(cum[-1]), pairs


def _inversion_count(seq):
    """The count of ``_inversions``, a level at a time in O(n) memory: the 0 bits'
    places in the first order less those in the second, where group g's z_g =
    min(2^b, n - g 2^(b+1)) 0 bits fill g 2^(b+1) + [0, z_g)."""
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

    def bound(t):  # (t, stable order of ys - t*xs, far pairs ordered, close ones too)
        key = ys - t * xs if math.isfinite(t) else -np.sign(t) * xs  # exact at +-inf
        order, ordered = _stable_order(key), key[cj] < key[ci]
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

    def pair_draws(m):  # m random row pairs, less those of equal x
        i, j = rng.integers(0, n, (2, m))
        keep = xs[i] != xs[j]
        return _slopes(xs, ys, i[keep], j[keep])

    def pivots(slopes, total):  # slopes of ``total`` draws just below and above ranks
        cuts = np.arange(max(1, total // (PAIR_BUDGET // 8)) + 1)
        cuts = (size if slopes else total) * cuts // cuts[-1]
        take = rng.multinomial(total, np.diff(cuts) / size) if slopes else np.diff(cuts)
        s, m = np.empty(total), 0
        for a, b, k in zip(cuts, cuts[1:], take):  # a block: ranks in [a, b), sorted
            v = slopes(np.sort(rng.integers(a, b, k))) if slopes else pair_draws(k)
            s[m:m + v.size], m = v, m + v.size
        at = (np.subtract(ranks, first) / size + np.array([-2, 2]) / math.sqrt(m)) * m
        k_lo, k_hi = np.clip(at.astype(int), 0, m - 1)
        s[:m].partition(k_lo)  # in place, one kth at a time
        t_lo = s[k_lo]
        s[k_lo:m].partition(k_hi - k_lo)
        return t_lo, s[k_hi]

    lo, hi = bound(-math.inf), bound(math.inf)
    rounds = count > PAIR_BUDGET and 2.0 * tol * xmax < 1.0  # else bounds prove nothing
    first, size, slopes, ok = (0, count, None, True) if rounds else interval(lo, hi)
    while rounds and size > PAIR_BUDGET:
        draws = min(16 * n, max(1024, (16 * size) ** 2 // PAIR_BUDGET**2))
        (t_lo, t_hi), slopes = pivots(slopes, draws if slopes else 16 * n), None
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
    (pairs sharing an abscissa give none), bit for bit, in about 16n floats and
    10 n log2(n) bytes: one broadcast difference of the rows by x (any order
    gives these slopes) if all n(n-1)/2 pairs fit the budget, else ``_middle_slopes``
    of the rows by (x, Y), pivots from ``substream(0, "theilsen", "pivots")``
    (any draws give the same slope).  Selections are single-kth.
    """
    x = X[:, var_col]
    n = x.shape[0]
    every = n * (n - 1) // 2 <= PAIR_BUDGET  # all slopes at once: x ties in any order
    order = np.argsort(x) if every else _stable_order(x, lambda: np.lexsort((Y, x)))
    xs, ys = x[order], Y[order]
    ties = np.diff(np.flatnonzero(np.diff(xs, prepend=-np.inf, append=np.inf)))
    count = (n * n - int(ties @ ties)) // 2  # the pairs of distinct x
    if count == 0:
        raise DegenerateDataError("all sample pairs share the same abscissa")
    ranks = [(count - 1) // 2, count // 2]
    if every:
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
    X, Y = _as_system(X, Y)[:2]
    n, p = X.shape
    if n <= p:
        raise DegenerateDataError(
            f"need more than {p} samples for a median fit, got {n}"
        )
    const_col = int(_find_intercept_column(X)) if p == 2 else -1
    if const_col < 0:
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
    row per kind in ``kinds``.  Folds whose training rows share their size (two
    when K does not divide n) and intercept column form one stack, standardized
    once and solved for every kind and candidate in one pass."""
    if not grid:
        raise ConfigError("penalty grid must not be empty")
    for kind in kinds:
        if kind not in ("Ridge", "Lasso", "ElasticNet"):
            raise ConfigError(f"penalty tuning does not apply to kind {kind!r}")
    l1, l2 = np.concatenate([_penalties(kind, grid) for kind in kinds], axis=1)
    ridge = np.repeat([kind == "Ridge" for kind in kinds], len(grid))
    X, Y, _ = _as_system(X, Y)
    n = X.shape[0]
    if n < 2 * KFOLD_K:
        raise ConfigError(f"k-fold tuning needs n >= {2 * KFOLD_K}, got {n}")

    folds = np.array_split(substream(seed, "kfold").permutation(n), KFOLD_K)
    ssq = np.zeros((KFOLD_K, l1.size))
    for size in {fold.size for fold in folds}:
        at = np.array([i for i, fold in enumerate(folds) if fold.size == size])
        held = np.array([folds[i] for i in at])
        train = np.ones((at.size, n), dtype=bool)
        train[np.arange(at.size)[:, None], held] = False
        rows = np.nonzero(train)[1].reshape(at.size, -1)  # ascending, as X[train]
        icols = _find_intercept_column(X[rows])
        for icol in set(icols.tolist()):  # np.unique would import numpy.ma
            on = icols == icol
            std = _Standardizer(X[rows[on]], Y[rows[on]], icol)
            err = Y[held[on]][..., None] - X[held[on]] @ _solve_grid(std, l1, l2, ridge)
            ssq[at[on]] = np.einsum("sij,sij->sj", err, err)
    return np.sqrt(ssq.sum(axis=0) / n).reshape(len(kinds), len(grid))


def tune_penalty_kfold(X, Y, kind: str | tuple, grid, *, seed=0):
    """Pick the penalty minimizing mean held-out RMSE over ``KFOLD_K`` folds
    drawn from ``substream(seed, "kfold")``; ties go to the smallest.

    Every candidate is one lam >= 0 (for ElasticNet the lam2 at
    ``ELASTICNET_MIX``) and the winner is returned unchanged.  The grid is
    checked before any fold runs; then the folds are stacked (see
    ``_kfold_scores``) and every fold, kind and candidate is solved at once,
    from one batched SVD (Ridge) and one lasso homotopy (Lasso and ElasticNet).
    For a tuple of kinds, one pass returns what each kind's own call returns.
    """
    grid = list(grid)
    kinds = (kind,) if isinstance(kind, str) else tuple(kind)
    picks = tuple(grid[min(range(len(grid)), key=lambda i: (s[i], float(grid[i])))]
                  for s in _kfold_scores(X, Y, kinds, grid, seed))
    return picks[0] if isinstance(kind, str) else picks
