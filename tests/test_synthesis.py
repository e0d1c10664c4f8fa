"""Corpus synthesis, Rayleigh excess draws, and outlier injection."""

import numpy as np
import pytest

from pathfuse.errors import ConfigError
from pathfuse.models import SampleBatch
from pathfuse.seeding import substream
from pathfuse.synthesis import (
    OutlierSpec,
    SynthesisSpec,
    add_scattering_noise,
    inject_outliers,
    sample_rayleigh,
    synthesize_corpus,
    synthesize_from_model,
)

from conftest import make_model, sample_batch


class _FixedUniform:
    """Stands in for a Generator; returns preset uniform draws."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        if size is None:
            return self.u
        return np.full(size, self.u)


def test_rayleigh_inverse_cdf_known_quantile():
    # at u = 1 - e^(-1/2) the draw equals the scale parameter sqrt(rho)
    u = 1.0 - np.exp(-0.5)
    for rho in (0.25, 0.75, 4.0):
        x = sample_rayleigh(rho, _FixedUniform(u))
        assert x == pytest.approx(np.sqrt(rho), rel=1e-12)


def test_rayleigh_draws_are_positive_and_deterministic():
    a = sample_rayleigh(0.75, substream(3, "ray"), size=500)
    b = sample_rayleigh(0.75, substream(3, "ray"), size=500)
    assert np.array_equal(a, b)
    assert (a > 0).all()
    assert isinstance(sample_rayleigh(0.75, substream(3, "ray")), float)


def test_rayleigh_second_moment_matches_two_rho():
    x = sample_rayleigh(0.75, substream(9, "ray"), size=200_000)
    assert np.mean(x * x) == pytest.approx(1.5, rel=0.02)


def test_rayleigh_rejects_bad_rho():
    with pytest.raises(ConfigError):
        sample_rayleigh(0.0, substream(0))
    with pytest.raises(ConfigError):
        sample_rayleigh(-1.0, substream(0))


def test_synthesis_spec_validation():
    with pytest.raises(ConfigError):
        SynthesisSpec(points_per_model=0)
    with pytest.raises(ConfigError):
        SynthesisSpec(distance_sampling="Halton")


def test_synthesize_from_model_basics():
    m = make_model()
    spec = SynthesisSpec(points_per_model=150)
    samples = synthesize_from_model(m, spec, substream(5, "synth"))
    assert len(samples) == 150
    assert all(s.frequency == m.frequency for s in samples)
    assert all(s.source_id == m.id for s in samples)
    assert all(m.dist_min <= s.distance <= m.dist_max for s in samples)
    again = synthesize_from_model(m, spec, substream(5, "synth"))
    assert [s.path_loss for s in samples] == [s.path_loss for s in again]


def test_tiny_noise_tracks_the_planted_curve():
    m = make_model(sigma=1e-9)
    samples = synthesize_from_model(
        m, SynthesisSpec(points_per_model=50), substream(1, "synth")
    )
    for s in samples:
        assert s.path_loss == pytest.approx(m.predict(s.distance), abs=1e-6)


def test_distance_sampling_modes_differ():
    m = make_model()
    lin = synthesize_from_model(
        m,
        SynthesisSpec(points_per_model=4000, distance_sampling="UniformDistance"),
        substream(2, "synth"),
    )
    log = synthesize_from_model(
        m,
        SynthesisSpec(points_per_model=4000, distance_sampling="UniformLogDistance"),
        substream(2, "synth"),
    )
    # log-uniform sampling piles probability onto short distances
    med_lin = np.median([s.distance for s in lin])
    med_log = np.median([s.distance for s in log])
    assert med_log < med_lin
    assert med_lin == pytest.approx((m.dist_min + m.dist_max) / 2.0, rel=0.05)
    assert med_log == pytest.approx(
        np.sqrt(m.dist_min * m.dist_max), rel=0.05
    )


def test_corpus_per_model_streams_are_stable():
    a = make_model(id="a-2ghz", frequency=2.0)
    b = make_model(id="b-28ghz", frequency=28.0)
    both = synthesize_corpus([a, b], SynthesisSpec(points_per_model=20),
                             substream(7, "corpus"))
    alone = synthesize_corpus([a], SynthesisSpec(points_per_model=20),
                              substream(7, "corpus"))
    # dropping model b must not perturb model a's samples
    assert [s.path_loss for s in both[:20]] == [s.path_loss for s in alone]
    # corpus is ordered by model id regardless of input order
    flipped = synthesize_corpus([b, a], SynthesisSpec(points_per_model=20),
                                substream(7, "corpus"))
    assert [s.path_loss for s in flipped] == [s.path_loss for s in both]
    # model k's rows carry code k
    assert flipped.ids.tolist() == ["a-2ghz", "b-28ghz"]
    assert flipped.source_id.tolist() == ["a-2ghz"] * 20 + ["b-28ghz"] * 20


def test_a_corpus_of_no_models_is_empty():
    corpus = synthesize_corpus([], SynthesisSpec(), substream(0))
    assert len(corpus) == 0 and corpus.ids.size == 0 and corpus.group.dtype == np.int32


def test_corpus_rejects_duplicate_ids():
    m = make_model()
    with pytest.raises(ConfigError):
        synthesize_corpus([m, m], SynthesisSpec(), substream(0))


def test_outlier_spec_validation():
    with pytest.raises(ConfigError):
        OutlierSpec(rho=0.0)
    with pytest.raises(ConfigError):
        OutlierSpec(band_width=-5.0)
    with pytest.raises(ConfigError):
        OutlierSpec(contamination_fraction=1.5)
    with pytest.raises(ConfigError):
        OutlierSpec(magnitude_scale=-1.0)
    with pytest.raises(TypeError):  # the band is always centred on the corpus
        OutlierSpec(band_center=40.0)


def _flat_corpus(n=200, lo=30.0, hi=230.0):
    d = np.linspace(lo, hi, n)
    return sample_batch(d, np.full(n, 28.0), make_model().predict(d), ["flat"] * n)


def test_injection_hits_the_requested_share_of_the_band():
    samples = _flat_corpus()
    spec = OutlierSpec(band_width=50.0, contamination_fraction=0.2,
                       magnitude_scale=10.0)
    out, mask = inject_outliers(samples, spec, substream(11, "inject"))
    d = np.array([s.distance for s in samples])
    center = (d.min() + d.max()) / 2.0
    in_band = np.abs(d - center) <= 25.0
    assert mask.sum() == round(0.2 * in_band.sum())
    assert (mask & ~in_band).sum() == 0
    # contaminated samples gain at least the blocker offset, the rest are
    # copied bit-identically
    for i, (s0, s1) in enumerate(zip(samples, out)):
        if mask[i]:
            assert s1.path_loss > s0.path_loss + 10.0
        else:
            assert s1.path_loss == s0.path_loss


def test_injection_zero_fraction_is_a_noop():
    samples = _flat_corpus(50)
    out, mask = inject_outliers(
        samples, OutlierSpec(contamination_fraction=0.0), substream(17, "inject")
    )
    assert not mask.any()
    assert out.path_loss.tolist() == [s.path_loss for s in samples]


def test_injection_is_deterministic():
    samples = _flat_corpus()
    spec = OutlierSpec()
    a, ma = inject_outliers(samples, spec, substream(19, "inject"))
    b, mb = inject_outliers(samples, spec, substream(19, "inject"))
    assert np.array_equal(ma, mb)
    assert [s.path_loss for s in a] == [s.path_loss for s in b]


def test_injection_error_cases():
    with pytest.raises(ConfigError):
        inject_outliers(SampleBatch([], [], [], [], []), OutlierSpec(), substream(0))


def test_scattering_noise_lifts_every_sample():
    samples = _flat_corpus(80)
    noisy = add_scattering_noise(samples, 3.0, 0.75, substream(23, "amb"))
    assert len(noisy) == len(samples)
    assert all(n.path_loss > s.path_loss for n, s in zip(noisy, samples))
    same = add_scattering_noise(samples, 0.0, 0.75, substream(23, "amb"))
    assert same.path_loss.tolist() == [s.path_loss for s in samples]
    with pytest.raises(ConfigError):
        add_scattering_noise(samples, -1.0, 0.75, substream(23, "amb"))
