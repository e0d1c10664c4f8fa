"""The fusion pipeline: band-filter, gas-correct, de-outlier, weight, fit.

One call takes a mixed corpus (samples from several published models at
several frequencies) and produces a single log-polynomial surface:

1. keep samples inside the requested frequency band (inclusive);
2. optionally subtract gaseous attenuation from each sample;
3. optionally reject outliers: per source group, a robust reference line
   gives residuals (``robust`` names it: "TheilSen", the default, or
   "RANSAC"; None skips the step), and ``estimators.mad_inliers``, the one
   cut, drops samples beyond ``RESIDUAL_MULTIPLIER`` MAD scales of the
   group's median residual -- per-group scales keep a high-variance campaign
   from being clipped by a low-variance one;
4. weight the survivors by the configured policy;
5. weighted least squares on the full design, rank-deficient designs allowed
   (two-frequency corpora make quadratic frequency columns collinear; the
   minimal-norm solution is taken and the deficiency recorded);
6. sigma = weighted residual std over the fitted samples.

Group weighting policies (normalized to mean 1 over the corpus):

* Identity:        every sample weighs the same (pooled fit)
* InverseVariance: 1 / sigma_j^2        (trust precise campaigns more)
* BalanceCount:    1 / n_j              (each campaign contributes equally)
* Mixture:         1 / (n_j * sigma_j^2) (both corrections at once)

where sigma_j is the published shadow-fading std of the sample's source and
n_j the number of samples that source contributed to this fit.

The corpus travels as one ``SampleBatch``; its source groups are computed
once per corpus (one ``np.unique``) and shared by the prefilter and weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atmosphere import load_default_table, remove_gas_loss
from .errors import ConfigError, DataError, InsufficientDataError
from .estimators import (
    RESIDUAL_MULTIPLIER,
    FitDiagnostics,
    fit_ransac,
    fit_theilsen,
    mad_inliers,
    solve_wls,
    weighted_rms,
)
from .models import (
    ORDER_SIZES,
    CoefficientSet,
    FittedModel,
    build_design_system,
    column_names,
)

__all__ = [
    "WEIGHTING_POLICIES",
    "PipelineConfig",
    "compute_weights",
    "fit_pathloss_model",
]

WEIGHTING_POLICIES = ("Identity", "InverseVariance", "BalanceCount", "Mixture")

#: groups smaller than this keep all samples (no meaningful scale estimate)
_MIN_GROUP_FOR_FILTER = 3


@dataclass(frozen=True)
class PipelineConfig:
    """Everything that determines a pipeline fit; only RANSAC reads the seed."""

    order: int = 2
    weighting: str = "Mixture"
    robust: str | None = "TheilSen"  # prefilter line: "TheilSen", "RANSAC" or None
    gas_correction: bool = True
    freq_band: tuple | None = None  # (GHz, GHz) inclusive; None = keep all
    seed: int = 0

    def __post_init__(self):
        if self.order not in ORDER_SIZES:
            raise ConfigError(f"order must be one of {sorted(ORDER_SIZES)}")
        if self.weighting not in WEIGHTING_POLICIES:
            raise ConfigError(
                f"weighting must be one of {WEIGHTING_POLICIES}, "
                f"got {self.weighting!r}"
            )
        if self.robust not in ("TheilSen", "RANSAC", None):
            raise ConfigError(
                f"robust must be 'TheilSen', 'RANSAC' or None, got {self.robust!r}"
            )
        if self.freq_band is not None:
            lo, hi = self.freq_band
            if not (np.isfinite(lo) and np.isfinite(hi) and 0.0 < lo < hi):
                raise ConfigError(
                    f"freq_band must be 0 < lo < hi, got {self.freq_band}"
                )


def compute_weights(batch, policy: str, sigma_by_source=None) -> np.ndarray:
    """Per-sample weights of a SampleBatch under ``policy``, normalized to mean 1."""
    if policy not in WEIGHTING_POLICIES:
        raise ConfigError(f"unknown weighting policy {policy!r}")
    n = len(batch)
    if not n:
        raise ConfigError("cannot weight an empty corpus")
    if policy == "Identity":
        return np.ones(n)

    ids, group = batch.groups()
    ids = ids.tolist()
    if policy in ("InverseVariance", "Mixture"):
        if sigma_by_source is None:
            raise ConfigError(f"{policy} weighting needs per-source sigmas")
        missing = [sid for sid in ids if sid not in sigma_by_source]
        if missing:
            raise DataError(f"no sigma known for source(s): {', '.join(missing)}")
        for sid in ids:
            s = sigma_by_source[sid]
            if not (np.isfinite(s) and s > 0.0):
                raise DataError(f"sigma for source {sid!r} must be > 0, got {s!r}")
        sigma2 = np.array([sigma_by_source[sid] ** 2 for sid in ids])

    counts = np.bincount(group)
    if policy == "BalanceCount":
        per_group = 1.0 / counts
    elif policy == "InverseVariance":
        per_group = 1.0 / sigma2
    else:  # Mixture
        per_group = 1.0 / (counts * sigma2)
    w = per_group[group]
    return w / (w.sum() / n)


def _robust_filter(batch, X, Y, cfg: PipelineConfig):
    """Outlier mask from per-group robust reference lines; True = keep.

    Every source group is single-frequency, so within a group the surface
    (any order) reduces to a polynomial in 10*log10(d) that a straight line
    approximates to well under the noise level across a group's distance
    span.  Fitting the robust reference per group therefore measures exactly
    what contamination violates -- departure from the group's own trend --
    and stays meaningful on corpora whose pooled design is collinear (an
    elemental-subset estimator cannot fit those at all).

    Each group's residuals about its line go through ``mad_inliers``; groups
    too small for a scale estimate are kept whole.
    """
    _, group = batch.groups()
    by_group = np.argsort(group, kind="stable")  # each group's rows stay ascending
    rows = np.split(by_group, np.cumsum(np.bincount(group))[:-1])

    keep = np.ones(len(batch), dtype=bool)
    names = column_names(cfg.order)[:2]  # [10*log10(d), 1] in every design order
    iterations = 0
    for ix in rows:
        if ix.size < _MIN_GROUP_FOR_FILTER:
            continue
        Xg = X[ix, :2]
        Yg = Y[ix]
        if cfg.robust == "RANSAC":
            fit = fit_ransac(Xg, Yg, seed=cfg.seed, column_names=names)
        else:
            fit = fit_theilsen(Xg, Yg)
        keep[ix] = mad_inliers(Yg - Xg @ fit.coefficients, RESIDUAL_MULTIPLIER)
        iterations += fit.iterations_used
    return keep, iterations


def _prepare_system(samples, cfg: PipelineConfig, *, sigma_by_source=None):
    """Front half of the pipeline, shared with the cross-validation code.

    Band-filters, removes gas loss, applies the robust rejection, and
    computes the sample weights.  Returns
    ``(survivors, X, Y, w, keep_mask, n_in_band, prefit_iters)`` where ``Y``
    is in the (possibly gas-corrected) units the solver sees.  ``samples``
    is a SampleBatch.
    """
    p = ORDER_SIZES[cfg.order]
    if cfg.freq_band is not None:
        lo, hi = cfg.freq_band
        work = samples.take((samples.frequency >= lo) & (samples.frequency <= hi))
    else:
        work = samples
    n_in_band = len(work)
    if n_in_band < p:
        raise InsufficientDataError(
            f"{n_in_band} in-band samples cannot determine {p} coefficients"
        )

    if cfg.gas_correction:
        work = remove_gas_loss(load_default_table(), work)

    X, Y = build_design_system(work, cfg.order)

    if cfg.robust is not None:
        keep, prefit_iters = _robust_filter(work, X, Y, cfg)
        survivors = work.take(keep)
        Xs, Ys = X[keep], Y[keep]
    else:
        keep = np.ones(n_in_band, dtype=bool)
        survivors, Xs, Ys = work, X, Y
        prefit_iters = 0
    if len(survivors) < p:
        raise InsufficientDataError(
            f"only {len(survivors)} samples survive outlier rejection; "
            f"need at least {p}"
        )

    w = compute_weights(survivors, cfg.weighting, sigma_by_source)
    return survivors, Xs, Ys, w, keep, n_in_band, prefit_iters


def fit_pathloss_model(samples, cfg: PipelineConfig, *, sigma_by_source=None):
    """Run the pipeline on a SampleBatch; returns ``(FittedModel, FitDiagnostics)``.

    ``sigma_by_source`` maps source ids to published shadow-fading sigmas and
    is required for the variance-aware weighting policies.  The RANSAC
    prefilter draws from ``cfg.seed``.  Gas correction uses the default table.
    """
    p = ORDER_SIZES[cfg.order]
    survivors, Xs, Ys, w, keep, n_in_band, prefit_iters = _prepare_system(
        samples, cfg, sigma_by_source=sigma_by_source
    )
    coeffs, info = solve_wls(
        Xs,
        Ys,
        w,
        allow_rank_deficient=True,
        column_names=column_names(cfg.order),
        return_info=True,
    )
    resid = Ys - Xs @ coeffs
    sigma = weighted_rms(resid, w)

    d, f = survivors.distance, survivors.frequency
    model = FittedModel(
        coefficients=CoefficientSet(cfg.order, tuple(coeffs)),
        sigma=sigma,
        gas_corrected=cfg.gas_correction,
        freq_range=(float(f.min()), float(f.max())),
        dist_range=(float(d.min()), float(d.max())),
        weighting=cfg.weighting,
        provenance={
            "order": cfg.order,
            "weighting": cfg.weighting,
            "gas_correction": cfg.gas_correction,
            "freq_band": list(cfg.freq_band) if cfg.freq_band else None,
            "robust": cfg.robust,
            "residual_multiplier": RESIDUAL_MULTIPLIER if cfg.robust else None,
            "seed": cfg.seed if cfg.robust == "RANSAC" else None,
            "n_input": len(samples),
            "n_in_band": n_in_band,
            "n_rejected": int(n_in_band - len(survivors)),
            "n_fitted": len(survivors),
            "design_rank": info["rank"],
            "rank_deficient": info["rank"] < p,
            "condition": info["condition"],
        },
    )
    diagnostics = FitDiagnostics(
        coefficients=coeffs, inlier_mask=keep, iterations_used=prefit_iters + 1
    )
    return model, diagnostics

