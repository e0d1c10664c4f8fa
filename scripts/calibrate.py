#!/usr/bin/env python3
"""Reproduce the pinned calibration constants of the study runners.

Each section sweeps one protocol constant of ``pathfuse.evaluation`` through
its study: per value it sets the constant, runs the study with ``run_experiment``
at trials=10 and seed 1, restores the constant and prints one readout under the
anchor of ``reference_targets.json`` and the pinned value.  Sections (--section,
default all):

  ambient     ROBUST_STUDY_AMBIENT_SCALE     clean-corpus OLS sigma anchor
  magnitude   DEFAULT_OUTLIER_MAGNITUDE_DB   contaminated OLS sigma anchor
  multiplier  ROBUST_STUDY_FILTER_MULTIPLIER median-fit arm sigma anchor
  consensus   ROBUST_STUDY_RANSAC_INLIER_DB  consensus arm sigma anchor
  blocker     OUTLIER_STUDY_MAGNITUDE_DB     resilience-study gate margins
  seeds       pinned acceptance seeds        gates of every study per seed
"""

import argparse
import sys

import pathfuse.evaluation as ev
from pathfuse.evaluation import STUDIES, ExperimentSpec, evaluate_gates, run_experiment
from pathfuse.io import load_reference_targets

TRIALS = 10
SEED = 1


def _sweep(name, values, which="RobustStudy"):
    """``(value, result, {method: report})`` of the study ``which`` at ``SEED``
    with ``evaluation.<name>`` set to each value; the constant is restored after
    each run, also when the study raises."""
    pinned = getattr(ev, name)
    for value in values:
        setattr(ev, name, value)
        try:
            result = run_experiment(ExperimentSpec(which, TRIALS, SEED))
        finally:
            setattr(ev, name, pinned)
        yield value, result, {r.method: r for r in result.reports}


def section_ambient():
    lo, hi = load_reference_targets()["robust_study"]["clean_band_db"]
    print(f"== ambient: clean OLS sigma band {(lo + hi) / 2:.2f}+/-{(hi - lo) / 2:.2f}"
          f" (pinned scale {ev.ROBUST_STUDY_AMBIENT_SCALE})")
    for scale, _, by in _sweep("ROBUST_STUDY_AMBIENT_SCALE",
                               (2.8, 2.9, 3.0, 3.03, 3.1, 3.2)):
        print(f"  scale {scale:<5} -> clean OLS sigma {by['ols'].sigma_clean_db:.3f}")


def section_magnitude():
    t = load_reference_targets()["robust_study"]
    print(f"== magnitude: contaminated OLS sigma anchor "
          f"{t['sigma_with_outliers_db']['ols']}±{t['ols_with_tolerance_db']}"
          f" (pinned {ev.DEFAULT_OUTLIER_MAGNITUDE_DB})")
    for mag, _, by in _sweep("DEFAULT_OUTLIER_MAGNITUDE_DB",
                             (8.0, 9.0, 10.0, 11.0, 12.0)):
        print(f"  offset {mag:<5} -> OLS sigma_with {by['ols'].sigma_db:.3f}")


def section_multiplier():
    t = load_reference_targets()["robust_study"]
    print(f"== multiplier: median-fit arm anchor "
          f"{t['sigma_with_outliers_db']['theil-sen']}±{t['theil_sen_with_tolerance_db']}"
          f" (pinned {ev.ROBUST_STUDY_FILTER_MULTIPLIER})")
    for mult, result, by in _sweep("ROBUST_STUDY_FILTER_MULTIPLIER",
                                   (2.4, 2.5, 2.6, 2.75, 2.9)):
        minimal = result.raw["theil_sen_minimal_per_trial"]
        print(f"  kappa {mult:<5} -> theil-sen {by['theil-sen'].sigma_db:.3f}"
              f"  (minimal {sum(minimal)}/{len(minimal)} trials)")


def section_consensus():
    anchor = load_reference_targets()["robust_study"]["sigma_with_outliers_db"]["ransac"]
    print(f"== consensus: consensus-arm anchor {anchor}, second-best"
          f" (pinned {ev.ROBUST_STUDY_RANSAC_INLIER_DB})")
    for thr, _, by in _sweep("ROBUST_STUDY_RANSAC_INLIER_DB",
                             (10.0, 12.0, 14.0, 16.0, 18.0)):
        order_ok = by["theil-sen"].sigma_db < by["ransac"].sigma_db < by["ols"].sigma_db
        print(f"  threshold {thr:<5} -> ransac {by['ransac'].sigma_db:.3f}"
              f"  (ts<ransac<ols: {order_ok})")


def section_blocker():
    print(f"== blocker: resilience-study gates (pinned {ev.OUTLIER_STUDY_MAGNITUDE_DB})")
    for mag, result, _ in _sweep("OUTLIER_STUDY_MAGNITUDE_DB", (45.0, 50.0, 55.0),
                                 "OutlierStudy"):
        gates = evaluate_gates(result)
        quad = [r for r in result.reports if r.method == "quadratic-abg"]
        worst = max(quad, key=lambda r: abs(r.error_ratio_percent))
        print(f"  offset {mag:<5} -> {sum(g.passed for g in gates)}/{len(gates)} gates, "
              f"worst filtered cell {worst.error_ratio_percent:+.2f}% "
              f"({worst.scenario} {worst.band_ghz[0]:g}-{worst.band_ghz[1]:g} "
              f"{worst.outlier_band_m:g} m)")


def section_seeds():
    print("== seeds: gates per candidate seed (pinned: order 0; others 1)")
    for name in STUDIES:
        row = []
        for seed in range(4):
            gates = evaluate_gates(run_experiment(ExperimentSpec(name, TRIALS, seed)))
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
    parser.add_argument("--section", choices=sorted(SECTIONS), action="append",
                        help="run only this section (repeatable; default: all)")
    args = parser.parse_args(argv)
    for name in args.section or list(SECTIONS):
        SECTIONS[name]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
