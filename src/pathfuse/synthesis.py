"""Synthetic corpus generation from published source models.

Published campaigns give us fitted coefficients, a distance span, a sample
count and a shadow-fading sigma -- not raw measurements.  This module turns
each source model back into samples: distances drawn across the model's span,
the model's predicted loss, plus Gaussian shadow fading.  On top of that it
can contaminate a distance band with positive Rayleigh-distributed excess
loss (blocker-style outliers) and add ambient small-scale scattering.

Every function that takes samples takes a ``SampleBatch``, and every one
that makes samples returns one.

The specs carry no seed: every draw comes from the Generator the caller
passes (see :mod:`pathfuse.seeding`).  Draw-order contract (what makes runs
bit-identical for a fixed stream), per column: each model, in id order on its
own child stream, draws its whole ``distance`` column, then one shadow-noise
value per row for ``path_loss`` (``frequency`` and the source codes take no
draw); the outlier injector draws the victim rows, then one excess per victim
in draw order; ambient scattering draws one excess per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .io import COUNT, NONNEGATIVE, POSITIVE, SourceModel, check, finite, one_of
from .models import SampleBatch, predict_abg

__all__ = [
    "DISTANCE_SAMPLINGS",
    "DEFAULT_OUTLIER_MAGNITUDE_DB",
    "SynthesisSpec",
    "OutlierSpec",
    "sample_rayleigh",
    "synthesize_from_model",
    "synthesize_corpus",
    "inject_outliers",
    "add_scattering_noise",
]

DISTANCE_SAMPLINGS = ("UniformDistance", "UniformLogDistance")

#: calibrated so that an OLS refit of a contaminated single-frequency corpus
#: (20% of a 50 m band hit, rho=0.75) lands near the benchmark sigma; see the
#: robust-comparison study.  Value pinned by scripts/calibrate.py.
DEFAULT_OUTLIER_MAGNITUDE_DB = 10.0


@dataclass(frozen=True)
class SynthesisSpec:
    """How to expand source models into samples."""

    points_per_model: int = 200
    distance_sampling: str = "UniformLogDistance"

    def __post_init__(self):
        check(vars(self), _SYNTHESIS_FIELDS, ConfigError)


#: every field of ``SynthesisSpec``, and what it must be
_SYNTHESIS_FIELDS = {"points_per_model": COUNT,
                     "distance_sampling": one_of(DISTANCE_SAMPLINGS)}


@dataclass(frozen=True)
class OutlierSpec:
    """Blocker-style contamination of a distance band.

    The band is centred on the linear midpoint of the corpus's distance
    range.  Excess loss per contaminated sample is
    ``magnitude_scale + Rayleigh(rho)`` dB — a fixed blocker loss plus a
    Rayleigh fading term — always added, never subtracted.  A pure
    Rayleigh(0.75) draw is ~1 dB and cannot push a clean 3.6 dB fit anywhere
    near the contaminated benchmark (~4.75 dB), so the blocker offset carries
    the magnitude and the Rayleigh term the spread.
    """

    rho: float = 0.75
    band_width: float = 50.0  # m
    contamination_fraction: float = 0.2
    magnitude_scale: float = DEFAULT_OUTLIER_MAGNITUDE_DB

    def __post_init__(self):
        check(vars(self), _OUTLIER_FIELDS, ConfigError)


#: a Rayleigh parameter whose draws stay finite: they reach at most sqrt(73.5 rho)
_RHO = ("a number in (0, 1e300]", lambda v: finite(v) and 0 < v <= 1e300)
#: every field of ``OutlierSpec``, and what it must be
_OUTLIER_FIELDS = {"rho": _RHO, "band_width": POSITIVE, "magnitude_scale": NONNEGATIVE,
                   "contamination_fraction": ("a number in [0, 1]",
                                              lambda v: finite(v) and 0 <= v <= 1)}


def sample_rayleigh(rho: float, rng: np.random.Generator, size=None):
    """Rayleigh draws via inverse CDF: x = sqrt(-2*rho*ln(1-u)).

    The scale parameter is sqrt(rho), so E[X] = sqrt(pi*rho/2) and
    E[X^2] = 2*rho.  Draws are strictly positive.
    """
    check(rho, _RHO, ConfigError, where="rho")
    u = rng.random(size)
    # u == 0.0 would map to exactly zero; redraw those (measure-zero event)
    while np.any(u == 0.0):
        if size is None:
            u = rng.random()
        else:
            zeros = u == 0.0
            u[zeros] = rng.random(int(np.count_nonzero(zeros)))
    x = np.sqrt(-2.0 * rho * np.log1p(-u))
    return float(x) if size is None else x


def _draw_distances(m: SourceModel, spec: SynthesisSpec, rng) -> np.ndarray:
    if spec.distance_sampling == "UniformDistance":
        return rng.uniform(m.dist_min, m.dist_max, spec.points_per_model)
    lo, hi = math.log(m.dist_min), math.log(m.dist_max)
    return np.exp(rng.uniform(lo, hi, spec.points_per_model))


def synthesize_from_model(
    m: SourceModel, spec: SynthesisSpec, rng: np.random.Generator
) -> SampleBatch:
    """Samples for one source model: distances, predicted loss, shadow noise."""
    d = _draw_distances(m, spec, rng)
    noise = rng.normal(0.0, m.sigma, spec.points_per_model)
    y = predict_abg(m.alpha, m.beta, m.gamma, d, m.frequency) + noise
    return SampleBatch(d, np.full(d.size, m.frequency), y, [m.id],
                       np.zeros(d.size, dtype=np.int32))


def synthesize_corpus(
    models, spec: SynthesisSpec, rng: np.random.Generator
) -> SampleBatch:
    """Concatenated samples for all models in id order; model k's rows get code k.

    Each model gets its own child stream, so adding or removing one model
    does not perturb the others' draws.
    """
    ordered = sorted(models, key=lambda m: m.id)
    if len({m.id for m in ordered}) != len(ordered):
        raise ConfigError("source model ids must be unique within a corpus")
    children = rng.spawn(len(ordered))
    parts = [synthesize_from_model(m, spec, c) for m, c in zip(ordered, children)]
    columns = (np.concatenate([np.empty(0)] + [getattr(b, name) for b in parts])
               for name in ("distance", "frequency", "path_loss"))
    group = np.repeat(np.arange(len(parts), dtype=np.int32), spec.points_per_model)
    return SampleBatch(*columns, [m.id for m in ordered], group)


def inject_outliers(batch, spec: OutlierSpec, rng: np.random.Generator):
    """Contaminate a distance band; returns ``(new_batch, outlier_mask)``.

    The contaminated count is exactly ``round(fraction * in-band count)``;
    victims are a seeded choice among in-band samples.  Untouched samples
    keep their losses bit for bit, and a zero fraction (or zero in-band
    samples) returns the input batch itself.
    """
    if not len(batch):
        raise ConfigError("cannot inject outliers into an empty corpus")
    d = batch.distance
    center = (float(d.min()) + float(d.max())) / 2.0
    in_band = np.nonzero(np.abs(d - center) <= spec.band_width / 2.0)[0]
    k = int(round(spec.contamination_fraction * in_band.size))
    mask = np.zeros(len(batch), dtype=bool)
    if k == 0:
        return batch, mask
    victims = rng.choice(in_band, size=k, replace=False)
    excess = spec.magnitude_scale + sample_rayleigh(spec.rho, rng, size=k)
    mask[victims] = True
    y = batch.path_loss.copy()
    y[victims] = y[victims] + excess
    return batch.with_path_loss(y), mask


def add_scattering_noise(batch, scale: float, rho: float, rng: np.random.Generator):
    """Add ambient Rayleigh scattering excess to every sample.

    Models always-present small-scale multipath on top of shadow fading;
    every sample gains ``scale * Rayleigh(rho)`` dB.
    """
    check(scale, NONNEGATIVE, ConfigError, where="scale")
    if scale == 0.0:
        return batch
    excess = scale * sample_rayleigh(rho, rng, size=len(batch))
    return batch.with_path_loss(batch.path_loss + excess)
