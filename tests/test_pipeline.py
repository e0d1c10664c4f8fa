"""End-to-end fitting pipeline: weights, filtering, gas handling, fits."""

from dataclasses import dataclass

import numpy as np
import pytest

from pathfuse import pipeline
from pathfuse.atmosphere import load_default_table
from pathfuse.errors import ConfigError, DataError, DegenerateDataError, InsufficientDataError
from pathfuse.estimators import fit_theilsen, mad_scale, weighted_rms
from pathfuse.evaluation import ARM_WEIGHTED, ExperimentSpec, _arm_configs
from pathfuse.models import SampleBatch, build_design_system
from pathfuse.pipeline import (
    RESIDUAL_MULTIPLIER,
    PipelineConfig,
    compute_weights,
    fit_pathloss_model,
)
from pathfuse.seeding import substream
from pathfuse.synthesis import (
    OutlierSpec,
    SynthesisSpec,
    synthesize_corpus,
    synthesize_from_model,
)

from conftest import make_model

QUIET = 1e-6  # shadow sigma for effectively noiseless corpora (must be > 0)


def quiet_models():
    return [
        make_model(id="low-2ghz", frequency=2.0, sigma=QUIET,
                   alpha=3.2, beta=32.0, gamma=2.1),
        make_model(id="mid-9ghz", frequency=9.0, sigma=QUIET,
                   alpha=3.2, beta=32.0, gamma=2.1),
        make_model(id="high-28ghz", frequency=28.0, sigma=QUIET,
                   alpha=3.2, beta=32.0, gamma=2.1),
    ]


def quiet_corpus(points=40, seed=0):
    return synthesize_corpus(
        quiet_models(), SynthesisSpec(points_per_model=points),
        substream(seed, "pipe"),
    )


# ---------------------------------------------------------------------------
# weighting policies
# ---------------------------------------------------------------------------


def two_group_samples():
    d = 10.0 * np.array([1, 2, 1, 2, 3, 4, 5, 6])
    return SampleBatch(d, np.full(8, 2.0), np.full(8, 100.0), ["a"] * 2 + ["b"] * 6)


def test_identity_weights_are_flat():
    w = compute_weights(two_group_samples(), "Identity")
    assert w.tolist() == [1.0] * 8


def test_balance_count_equalizes_group_mass():
    w = compute_weights(two_group_samples(), "BalanceCount")
    # per-group total mass equal; overall mean exactly 1
    assert w[:2].sum() == pytest.approx(w[2:].sum(), rel=1e-12)
    assert w.mean() == pytest.approx(1.0, rel=1e-12)
    assert w[0] == pytest.approx(3.0 * w[2], rel=1e-12)  # 1/2 vs 1/6


def test_inverse_variance_prefers_precise_sources():
    sigmas = {"a": 2.0, "b": 4.0}
    w = compute_weights(two_group_samples(), "InverseVariance", sigmas)
    assert w[0] == pytest.approx(4.0 * w[2], rel=1e-12)  # (4/2)^2
    assert w.mean() == pytest.approx(1.0, rel=1e-12)


def test_mixture_combines_count_and_variance():
    sigmas = {"a": 2.0, "b": 4.0}
    w = compute_weights(two_group_samples(), "Mixture", sigmas)
    # ratio (n_b sigma_b^2) / (n_a sigma_a^2) = (6*16)/(2*4) = 12
    assert w[0] == pytest.approx(12.0 * w[2], rel=1e-12)
    assert w.mean() == pytest.approx(1.0, rel=1e-12)


def test_weighting_error_cases():
    samples = two_group_samples()
    with pytest.raises(ConfigError):
        compute_weights(samples, "Magic")
    with pytest.raises(ConfigError):
        compute_weights(SampleBatch([], [], [], []), "Identity")
    with pytest.raises(ConfigError):
        compute_weights(samples, "Mixture")  # sigmas required
    with pytest.raises(DataError):
        compute_weights(samples, "Mixture", {"a": 2.0})  # b missing
    with pytest.raises(DataError):
        compute_weights(samples, "Mixture", {"a": 2.0, "b": 0.0})


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_pipeline_config_validation():
    with pytest.raises(ConfigError):
        PipelineConfig(order=5)
    with pytest.raises(ConfigError):
        PipelineConfig(weighting="Equal")
    with pytest.raises(ConfigError):
        PipelineConfig(freq_band=(18.0, 2.0))
    with pytest.raises(TypeError):  # the cut is the constant RESIDUAL_MULTIPLIER
        PipelineConfig(residual_multiplier=2.0)
    # the prefilter is named: "TheilSen", "RANSAC" or None, nothing else
    for robust in ("Lasso", "theil-sen", "ransac"):
        with pytest.raises(ConfigError):
            PipelineConfig(robust=robust)


@pytest.mark.parametrize("config, field, value", [
    # each was once taken: a saved model then failed load_model, or the fit
    # ran with another value than its provenance records
    (PipelineConfig, "order", 2.0), (PipelineConfig, "order", True),
    (PipelineConfig, "gas_correction", "no"), (PipelineConfig, "gas_correction", 0),
    (PipelineConfig, "seed", 1.5), (PipelineConfig, "seed", True),
    # these once raised ValueError or TypeError
    (PipelineConfig, "freq_band", (1, 2, 3)), (PipelineConfig, "freq_band", "ab"),
    (SynthesisSpec, "points_per_model", True), (OutlierSpec, "rho", True),
    (OutlierSpec, "band_width", "5"), (OutlierSpec, "contamination_fraction", "0.2"),
])
def test_a_value_of_the_wrong_kind_is_a_config_error(config, field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be "):
        config(**{field: value})


@pytest.mark.parametrize("config, fields", [
    (PipelineConfig, {}), (SynthesisSpec, {}), (OutlierSpec, {}),
    (ExperimentSpec, {"which": "OrderStudy"}),
])
def test_a_field_without_a_declaration_fails_at_construction(config, fields):
    @dataclass(frozen=True)
    class Wider(config):
        extra: int = 0

    with pytest.raises(ConfigError, match="has an unknown key 'extra'"):
        Wider(**fields)


# ---------------------------------------------------------------------------
# fitting behaviour
# ---------------------------------------------------------------------------


def test_recovers_planted_surface_from_quiet_corpus():
    cfg = PipelineConfig(order=1, weighting="Identity", robust=None,
                         gas_correction=False)
    model, diag = fit_pathloss_model(quiet_corpus(), cfg)
    named = model.coefficients.named()
    assert named["alpha"] == pytest.approx(3.2, abs=1e-5)
    assert named["beta"] == pytest.approx(32.0, abs=1e-4)
    assert named["gamma"] == pytest.approx(2.1, abs=1e-5)
    assert model.sigma < 1e-4
    assert diag.inlier_mask.all()
    assert model.provenance["n_rejected"] == 0
    assert not model.provenance["rank_deficient"]


def test_band_filter_is_inclusive_and_recorded():
    cfg = PipelineConfig(order=1, weighting="Identity", robust=None,
                         gas_correction=False, freq_band=(2.0, 9.0))
    corpus = quiet_corpus()
    model, _ = fit_pathloss_model(corpus, cfg)
    assert model.provenance["n_in_band"] == 80  # 28 GHz group excluded
    assert model.freq_range == (2.0, 9.0)
    narrow = PipelineConfig(order=1, weighting="Identity", robust=None,
                            gas_correction=False, freq_band=(40.0, 50.0))
    with pytest.raises(InsufficientDataError):
        fit_pathloss_model(corpus, narrow)


def test_robust_filter_rejects_planted_spikes():
    corpus = synthesize_corpus(
        [make_model(id=f"m{f}ghz", frequency=f, sigma=2.0) for f in (2.0, 28.0)],
        SynthesisSpec(points_per_model=100),
        substream(4, "pipe"),
    )
    hit = [5, 40, 77, 120, 166]
    loss = corpus.path_loss.copy()
    loss[hit] += 60.0
    spiked = corpus.with_path_loss(loss)
    cfg = PipelineConfig(order=1, weighting="Identity",
                         robust="TheilSen",
                         gas_correction=False, seed=3)
    model, diag = fit_pathloss_model(spiked, cfg)
    assert not diag.inlier_mask[hit].any()
    assert model.provenance["n_rejected"] >= 5
    clean_cfg = PipelineConfig(order=1, weighting="Identity", robust=None,
                               gas_correction=False)
    clean_model, _ = fit_pathloss_model(corpus, clean_cfg)
    assert model.sigma == pytest.approx(clean_model.sigma, abs=0.5)


def test_zero_scatter_groups_are_never_clipped():
    # exact, noiseless samples -> residual spread is degenerate and the
    # filter keeps every group whole rather than slicing at zero width
    m = make_model()
    d = np.linspace(30.0, 200.0, 25)
    samples = SampleBatch(d, np.full(25, m.frequency), m.predict(d), [m.id] * 25)
    cfg = PipelineConfig(order=1, weighting="Identity",
                         robust="TheilSen",
                         gas_correction=False)
    model, diag = fit_pathloss_model(samples, cfg)
    assert diag.inlier_mask.all()
    assert model.provenance["n_rejected"] == 0


def test_theilsen_prefilter_cuts_about_the_public_line():
    corpus = synthesize_corpus(
        [make_model(id=f"m{f}ghz", frequency=f, sigma=6.0) for f in (2.0, 28.0)],
        SynthesisSpec(points_per_model=80),
        substream(5, "pipe"),
    )
    cfg = PipelineConfig(order=2, weighting="Identity", robust="TheilSen",
                         gas_correction=False, seed=7)
    _, diag = fit_pathloss_model(corpus, cfg)
    X, Y = build_design_system(corpus, 2)
    keep, pairs = np.ones(len(corpus), dtype=bool), 0
    for source in ("m2.0ghz", "m28.0ghz"):
        ix = np.flatnonzero(corpus.source_id == source)
        line = fit_theilsen(X[ix, :2], Y[ix])
        r = Y[ix] - X[ix, :2] @ line.coefficients
        keep[ix] = np.abs(r - np.median(r)) <= RESIDUAL_MULTIPLIER * mad_scale(r)
        pairs += line.iterations_used
    assert not keep.all()
    assert np.array_equal(diag.inlier_mask, keep)
    assert diag.iterations_used == pairs + 1  # + the final solve


def test_theilsen_prefilter_calls_the_public_fit_once_per_group(monkeypatch):
    # the public call is what a tracer wraps, and its mask is the group's one
    # cut; groups under 3 rows skip it
    corpus = synthesize_corpus(
        [make_model(id=f"m{f}ghz", frequency=f, sigma=6.0) for f in (2.0, 28.0)],
        SynthesisSpec(points_per_model=80),
        substream(5, "pipe"),
    )
    pair = corpus.take(np.arange(2))
    corpus = SampleBatch(
        np.concatenate([corpus.distance, pair.distance]),
        np.concatenate([corpus.frequency, pair.frequency]),
        np.concatenate([corpus.path_loss, pair.path_loss]),
        np.concatenate([corpus.source_id, ["tiny"] * 2]),
    )
    fits = []

    def counted(X, Y):
        fits.append(fit_theilsen(X, Y))
        return fits[-1]

    def recut(residuals, multiplier):
        raise AssertionError("a Theil-Sen group is cut again")

    monkeypatch.setattr(pipeline, "fit_theilsen", counted)
    monkeypatch.setattr(pipeline, "mad_inliers", recut)
    cfg = PipelineConfig(order=2, weighting="Identity", gas_correction=False)
    _, diag = fit_pathloss_model(corpus, cfg)
    assert [fit.inlier_mask.size for fit in fits] == [80, 80]
    # each group's cut is its public fit's own mask; the pair is kept whole
    masks = [fit.inlier_mask for fit in fits] + [[True, True]]
    assert np.array_equal(diag.inlier_mask, np.concatenate(masks))
    assert not diag.inlier_mask.all()


def test_theilsen_prefilter_rejects_a_single_distance_group():
    m = make_model()
    samples = SampleBatch(np.full(5, 50.0), np.full(5, m.frequency),
                          np.arange(5.0) + 100.0, [m.id] * 5)
    with pytest.raises(DegenerateDataError):
        fit_pathloss_model(samples, PipelineConfig(order=1, gas_correction=False))


def test_ransac_prefilter_also_works():
    corpus = quiet_corpus(points=30)
    loss = corpus.path_loss.copy()
    loss[[3, 17]] += 50.0
    spiked = corpus.with_path_loss(loss)
    cfg = PipelineConfig(order=1, weighting="Identity",
                         robust="RANSAC",
                         gas_correction=False, seed=9)
    model, diag = fit_pathloss_model(spiked, cfg)
    assert not diag.inlier_mask[[3, 17]].any()
    assert model.sigma < 0.1


def test_tiny_groups_skip_the_filter():
    corpus = quiet_corpus(points=2)  # below the minimum group size
    cfg = PipelineConfig(order=1, weighting="Identity",
                         robust="TheilSen",
                         gas_correction=False)
    model, diag = fit_pathloss_model(corpus, cfg)
    assert diag.inlier_mask.all()


def test_gas_correction_recovers_surface_under_absorption():
    # samples carry planted surface + true gaseous loss; correction must
    # recover the surface, skipping it must not
    table = load_default_table()
    models = [
        make_model(id=f"m{f}ghz", frequency=f, sigma=QUIET)
        for f in (28.0, 60.0, 73.5)
    ]
    corpus = synthesize_corpus(models, SynthesisSpec(points_per_model=60),
                               substream(21, "pipe"))
    lossy = corpus.with_path_loss(
        corpus.path_loss + table.gas_loss(corpus.distance, corpus.frequency)
    )
    on = PipelineConfig(order=1, weighting="Identity", robust=None,
                        gas_correction=True)
    off = PipelineConfig(order=1, weighting="Identity", robust=None,
                         gas_correction=False)
    with_gas, _ = fit_pathloss_model(lossy, on)
    named = with_gas.coefficients.named()
    assert named["alpha"] == pytest.approx(3.4, abs=1e-4)
    assert named["beta"] == pytest.approx(20.0, abs=1e-2)
    assert named["gamma"] == pytest.approx(2.0, abs=1e-3)
    assert with_gas.gas_corrected
    raw, _ = fit_pathloss_model(lossy, off)
    assert raw.sigma > 10.0 * max(with_gas.sigma, 1e-9)


def test_two_frequency_quadratic_fit_is_rank_deficient_but_finite():
    corpus = synthesize_corpus(
        [make_model(id=f"m{f}ghz", frequency=f, sigma=QUIET) for f in (2.0, 28.0)],
        SynthesisSpec(points_per_model=50),
        substream(13, "pipe"),
    )
    cfg = PipelineConfig(order=2, weighting="Identity", robust=None,
                         gas_correction=False)
    model, _ = fit_pathloss_model(corpus, cfg)
    assert model.provenance["rank_deficient"]
    assert model.provenance["design_rank"] < 6
    assert np.isfinite(model.coefficients.as_array()).all()
    # predictions at the fitted frequencies still track the planted surface
    for s in corpus[::17]:
        assert model.predict(s.distance, s.frequency) == pytest.approx(
            s.path_loss, abs=1e-3
        )


def test_sigma_is_the_weighted_residual_rms():
    corpus = synthesize_corpus(
        [make_model(id=f"m{f}ghz", frequency=f, sigma=5.0) for f in (2.0, 28.0)],
        SynthesisSpec(points_per_model=80),
        substream(15, "pipe"),
    )
    sigmas = {"m2.0ghz": 5.0, "m28.0ghz": 5.0}
    cfg = PipelineConfig(order=1, weighting="Mixture", robust=None,
                         gas_correction=False)
    model, _ = fit_pathloss_model(corpus, cfg, sigma_by_source=sigmas)
    X, Y = build_design_system(corpus, order=1)
    w = compute_weights(corpus, "Mixture", sigmas)
    resid = Y - X @ model.coefficients.as_array()
    assert model.sigma == pytest.approx(weighted_rms(resid, w), rel=1e-12)


def test_seed_changes_only_randomized_stages():
    corpus = quiet_corpus()
    base = PipelineConfig(order=1, weighting="Identity", robust=None,
                          gas_correction=False, seed=0)
    other = PipelineConfig(order=1, weighting="Identity", robust=None,
                           gas_correction=False, seed=99)
    a, _ = fit_pathloss_model(corpus, base)
    b, _ = fit_pathloss_model(corpus, other)
    # no randomized stage in play: identical output
    assert a.coefficients.values == b.coefficients.values


def test_fit_wabg_is_the_plain_weighted_line_fit():
    # the studies' weighted-abg arm: Mixture-weighted order-1 fit, no gas
    # removal, no rejection
    corpus = quiet_corpus()
    sigmas = {m.id: m.sigma for m in quiet_models()}
    cfg = _arm_configs((2.0, 28.0))[ARM_WEIGHTED]
    model, _ = fit_pathloss_model(corpus, cfg, sigma_by_source=sigmas)
    assert model.order == 1
    assert not model.gas_corrected
    assert model.provenance["robust"] is None
    named = model.coefficients.named()
    assert named["alpha"] == pytest.approx(3.2, abs=1e-5)
