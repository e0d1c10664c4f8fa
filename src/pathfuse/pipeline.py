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
6. sigma = weighted residual std over the fitted samples;
7. LOOCV = weighted RMS of the exact leave-one-sample-out residuals, from
   the leverages of the same solve (``provenance["loocv_db"]``).

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
from .io import BOOLEAN, INTEGER, POSITIVE, check, finite, one_of
from .models import (
    ORDER_SIZES,
    CoefficientSet,
    FittedModel,
    build_design_system,
    column_names,
)

__all__ = [
    "WEIGHTING_POLICIES",
    "SIGMA_WEIGHTINGS",
    "PipelineConfig",
    "compute_weights",
    "fit_pathloss_model",
]

WEIGHTING_POLICIES = ("Identity", "InverseVariance", "BalanceCount", "Mixture")
#: the policies that read per-source sigmas
SIGMA_WEIGHTINGS = ("InverseVariance", "Mixture")

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
        check(vars(self), _CONFIG_FIELDS, ConfigError)


#: every field of ``PipelineConfig``, and what it must be
_CONFIG_FIELDS = {
    "order": one_of(tuple(ORDER_SIZES)), "weighting": one_of(WEIGHTING_POLICIES),
    "robust": one_of(("TheilSen", "RANSAC", None)), "gas_correction": BOOLEAN,
    "freq_band": ("None or two finite numbers 0 < lo < hi", lambda v: v is None
                  or type(v) in (tuple, list) and len(v) == 2 and all(map(finite, v))
                  and 0 < v[0] < v[1]),
    "seed": INTEGER,
}


def compute_weights(batch, policy: str, sigma_by_source=None) -> np.ndarray:
    """Per-sample weights of a SampleBatch under ``policy``, normalized to mean 1."""
    check(policy, _CONFIG_FIELDS["weighting"], ConfigError, where="policy")
    n = len(batch)
    if not n:
        raise ConfigError("cannot weight an empty corpus")
    if policy == "Identity":
        return np.ones(n)

    ids, group = batch.groups()
    ids = ids.tolist()
    if policy in SIGMA_WEIGHTINGS:
        if sigma_by_source is None:
            raise ConfigError(f"{policy} weighting needs per-source sigmas")
        missing = [sid for sid in ids if sid not in sigma_by_source]
        if missing:
            raise DataError(f"no sigma known for source(s): {', '.join(missing)}")
        for sid in ids:
            check(sigma_by_source[sid], POSITIVE, DataError, where=f"sigma of {sid!r}")
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

    Each group keeps the ``mad_inliers`` of its residuals (``fit_theilsen``'s
    own mask); groups too small for a scale estimate are kept whole.
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
        if cfg.robust == "RANSAC":  # its own mask is a threshold cut
            fit = fit_ransac(Xg, Yg, seed=cfg.seed, column_names=names)
            keep[ix] = mad_inliers(Yg - Xg @ fit.coefficients, RESIDUAL_MULTIPLIER)
        else:
            fit = fit_theilsen(Xg, Yg)
            keep[ix] = fit.inlier_mask
        iterations += fit.iterations_used
    return keep, iterations


def fit_pathloss_model(samples, cfg: PipelineConfig, *, sigma_by_source=None):
    """Run the pipeline on a SampleBatch; returns ``(FittedModel, FitDiagnostics)``.

    ``sigma_by_source`` maps source ids to published shadow-fading sigmas and
    is required for the variance-aware weighting policies.  The RANSAC
    prefilter draws from ``cfg.seed``.  Gas correction uses the default table.

    ``provenance["loocv_db"]`` is the weighted RMS of the exact
    leave-one-sample-out residuals r_i / (1 - h_ii) over the fitted samples,
    with the leverages h_ii from the fit's own ``solve_wls`` call: refitting
    without sample i (same weights, prefilter kept) gives that residual.
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
        work, X, Y = work.take(keep), X[keep], Y[keep]
    else:
        keep, prefit_iters = np.ones(n_in_band, dtype=bool), 0
    if len(work) < p:
        raise InsufficientDataError(
            f"only {len(work)} samples survive outlier rejection; "
            f"need at least {p}"
        )

    w = compute_weights(work, cfg.weighting, sigma_by_source)
    coeffs, info = solve_wls(X, Y, w, allow_rank_deficient=True,
                             column_names=column_names(cfg.order), return_info=True)
    resid = Y - X @ coeffs
    loo_resid = resid / np.maximum(1.0 - info["leverage"], 1e-12)

    d, f = work.distance, work.frequency
    model = FittedModel(
        coefficients=CoefficientSet(cfg.order, tuple(coeffs)),
        sigma=weighted_rms(resid, w),
        gas_corrected=cfg.gas_correction,
        freq_range=(float(f.min()), float(f.max())),
        dist_range=(float(d.min()), float(d.max())),
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
            "n_rejected": int(n_in_band - len(work)),
            "n_fitted": len(work),
            "design_rank": info["rank"],
            "rank_deficient": info["rank"] < p,
            "condition": info["condition"],
            "loocv_db": weighted_rms(loo_resid, w),
        },
    )
    return model, FitDiagnostics(coeffs, keep, iterations_used=prefit_iters + 1)

