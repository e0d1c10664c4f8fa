"""Command-line interface.

Exit codes: 0 success, 2 configuration error, 3 data error (input that
cannot be read or is invalid, output that cannot be written), 4 numeric
failure (singular/degenerate fits).  Codes 2-4 come from the error classes
in :mod:`pathfuse.errors`; ``experiment`` itself returns 5 when its study
runs but a benchmark gate fails.
"""

import argparse
import json
import os
import sys

import numpy as np

from .atmosphere import load_default_table, predict_total
from .errors import ConfigError, DataError, PathfuseError
from .evaluation import STUDIES, ExperimentSpec, evaluate_gates, run_experiment
from .io import (
    POSITIVE,
    SCENARIO_BANDS,
    band_label,
    check,
    load_model,
    load_registry,
    load_samples,
    save_model,
    save_samples,
    save_study,
    sigma_map,
    write_study_csv,
    write_study_json,
)
from .models import ORDER_SIZES, SCENARIOS
from .pipeline import SIGMA_WEIGHTINGS, PipelineConfig, fit_pathloss_model
from .seeding import substream
from .synthesis import DISTANCE_SAMPLINGS, SynthesisSpec, synthesize_corpus

_EPILOG = """examples:
  pathfuse synth --scenario UMiSC --band 2:18 --points-per-model 200 \\
      --seed 7 --out corpus.csv
  pathfuse fit --samples corpus.csv --order 2 --weighting mixture \\
      --robust theil-sen --gas on --out model.json
  pathfuse predict --model model.json --d 100 --f 28
  pathfuse experiment --which table4 --trials 10 --seed 1 --out-dir reports/
  pathfuse gas --f 60 --d 500
"""

#: ``--which`` aliases: the paper's table 2-5 and the short name of each study
_WHICH_ALIASES = {alias: study for n, study in enumerate(STUDIES, start=2)
                  for alias in (f"table{n}", study.removesuffix("Study").lower())}

_MAX_SWEEP_POINTS = 100_000  # of a ``gas --f-range`` sweep

_PREFILTERS = {"none": None, "theil-sen": "TheilSen", "ransac": "RANSAC"}

_WEIGHTINGS = {
    "identity": "Identity",
    "inverse-variance": "InverseVariance",
    "balance-count": "BalanceCount",
    "mixture": "Mixture",
}


def _parse_band(text):
    try:
        lo, _, hi = text.partition(":")
        band = (float(lo), float(hi))
    except ValueError:
        raise ConfigError(f"band must look like LO:HI (GHz), got {text!r}") from None
    if not band[0] < band[1]:
        raise ConfigError(f"band must have LO < HI, got {text!r}")
    return band


def _parse_range(text, table):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"range must look like START:STOP:STEP, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"range must be numeric, got {text!r}") from None
    if not (np.isfinite(step) and step > 0) or stop < start:
        raise ConfigError(f"range needs STOP >= START and a finite STEP > 0, "
                          f"got {text!r}")
    table.specific_attenuation([start, stop])  # both ends, before the sweep is built
    if (stop - start) / step >= _MAX_SWEEP_POINTS:
        raise ConfigError(f"range {text!r} has over {_MAX_SWEEP_POINTS} points")
    out = []
    k = 0
    while True:
        v = start + k * step
        if v > stop + 1e-9:
            break
        out.append(round(v, 10))
        k += 1
    return out


def cmd_synth(args):
    models = load_registry(args.registry)
    band = _parse_band(args.band) if args.band else None
    if args.scenario:
        models = [m for m in models if m.scenario == args.scenario]
    if band:
        models = [m for m in models if band[0] <= m.frequency <= band[1]]
    if not models:
        raise ConfigError("no registry models match the scenario/band selection")
    points = args.points_per_model
    if points is None:
        # default to the benchmark protocol's per-cell budget when the
        # selection matches a protocol cell, else a flat 200 per model
        points = SCENARIO_BANDS.get(args.scenario, {}).get(band, 200)
    spec = SynthesisSpec(
        points_per_model=points, distance_sampling=args.distance_sampling
    )
    samples = synthesize_corpus(models, spec, substream(args.seed, "synth"))
    save_samples(samples, args.out)
    ids, group = samples.groups()
    counts = dict(zip(ids.tolist(), np.bincount(group).tolist()))
    for m in models:
        print(f"  {m.id}: {counts.get(m.id, 0)} samples")
    print(f"wrote {len(samples)} samples from {len(models)} models to {args.out}")
    return 0


def cmd_fit(args):
    samples = load_samples(args.samples)
    cfg = PipelineConfig(
        order=args.order,
        weighting=_WEIGHTINGS[args.weighting],
        robust=_PREFILTERS[args.robust],
        gas_correction=args.gas == "on",
        freq_band=_parse_band(args.band) if args.band else None,
        seed=args.seed,
    )
    needs_sigmas = cfg.weighting in SIGMA_WEIGHTINGS
    sigmas = sigma_map(load_registry(args.registry)) if needs_sigmas else None
    model, diag = fit_pathloss_model(samples, cfg, sigma_by_source=sigmas)
    for name, value in model.coefficients.named().items():
        print(f"{name:>8s} = {value: .6g}")
    print(f"   sigma = {model.sigma:.3f} dB over {model.provenance['n_fitted']} samples"
          f" ({model.provenance['n_rejected']} rejected)")
    if model.provenance["rank_deficient"]:
        print(
            f"note: design rank {model.provenance['design_rank']} < "
            f"{len(model.coefficients.values)}; minimal-norm solution",
            file=sys.stderr,
        )
    if args.out:
        save_model(model, args.out)
        print(f"wrote model to {args.out}")
    return 0


def cmd_predict(args):
    for flag, value in (("--d", args.d), ("--f", args.f)):
        check(value, POSITIVE, ConfigError, where=flag)
    model = load_model(args.model)
    if not model.covers(args.d, args.f):
        msg = (
            f"({args.d:g} m, {args.f:g} GHz) is outside the fitted ranges "
            f"d in [{model.dist_range[0]:g}, {model.dist_range[1]:g}] m, "
            f"f in [{model.freq_range[0]:g}, {model.freq_range[1]:g}] GHz"
        )
        if not args.extrapolate:
            print(f"error: {msg} (pass --extrapolate to override)", file=sys.stderr)
            return 2
        print(f"warning: extrapolating: {msg}", file=sys.stderr)
    print(f"{predict_total(model, args.d, args.f):.2f}")
    return 0


def cmd_gas(args):
    table = load_default_table()
    if (args.f is None) == (args.f_range is None):
        raise ConfigError("give exactly one of --f or --f-range")
    freqs = [args.f] if args.f is not None else _parse_range(args.f_range, table)
    rows = []
    for f in freqs:
        atten = table.specific_attenuation(f)
        row = {"freq_ghz": f, "atten_db_per_km": atten}
        if args.d is not None:
            row["loss_db"] = table.gas_loss(args.d, f)
        rows.append(row)
    if args.format == "json":
        print(json.dumps(rows if args.f_range else rows[0], indent=2))
    else:
        cols = list(rows[0])
        print(",".join(cols))
        for row in rows:
            print(",".join(f"{row[c]:.6g}" if c != "freq_ghz" else f"{row[c]:g}"
                           for c in cols))
    return 0


def cmd_experiment(args):
    which = _WHICH_ALIASES.get(args.which, args.which)
    spec = ExperimentSpec(which=which, trials=args.trials, seed=args.seed)
    if args.out_dir:  # before the study runs, so an unusable path costs no work
        try:
            os.makedirs(args.out_dir, exist_ok=True)
        except OSError as exc:
            raise DataError(f"cannot write to {args.out_dir}: {exc}") from exc
    result = run_experiment(spec)
    if args.format:
        write = write_study_csv if args.format == "csv" else write_study_json
        write(result, sys.stdout)
    for r in result.reports:
        cell = ""
        if r.scenario:
            cell += r.scenario
        if r.band_ghz:
            cell += f" {band_label(r.band_ghz)} GHz"
        if r.outlier_band_m:
            cell += f" {r.outlier_band_m:g} m"
        line = f"{r.method:>14s}  {cell:<24s} sigma {r.sigma_db:6.3f} dB"
        if r.sigma_published_db is not None:
            line += f"  (published {r.sigma_published_db:.3f})"
        if r.error_ratio_percent is not None:
            line += f"  ratio {r.error_ratio_percent:+.2f}%"
        if r.loocv_db is not None:
            line += f"  loocv {r.loocv_db:.3f}"
            if r.loocv_published_db is not None:
                line += f" (published {r.loocv_published_db:.3f})"
        print(line)
    if args.out_dir:
        wrote = save_study(result, os.path.join(args.out_dir, args.which))
        print("wrote " + ", ".join(wrote))
    failures = 0
    for gate in evaluate_gates(result):
        status = "PASS" if gate.passed else "FAIL"
        print(f"[{status}] {gate.name}: {gate.detail}")
        failures += 0 if gate.passed else 1
    if failures:
        print(f"{failures} benchmark gate(s) failed", file=sys.stderr)
        return 5
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pathfuse",
        description="Fuse published path-loss models into multi-band surfaces.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a sample corpus from the registry")
    p.add_argument("--registry", help="registry CSV (default: bundled)")
    p.add_argument("--scenario", choices=sorted(SCENARIOS))
    p.add_argument("--band", help="frequency band LO:HI in GHz, inclusive")
    p.add_argument(
        "--points-per-model",
        type=int,
        default=None,
        help="samples per model (default: benchmark cell budget, else 200)",
    )
    p.add_argument(
        "--distance-sampling",
        choices=DISTANCE_SAMPLINGS,
        default="UniformLogDistance",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output samples CSV")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", help="fit a surface to a sample corpus")
    p.add_argument("--samples", required=True, help="samples CSV")
    p.add_argument("--order", type=int, choices=sorted(ORDER_SIZES), default=2)
    p.add_argument(
        "--weighting", choices=sorted(_WEIGHTINGS), default="mixture"
    )
    p.add_argument(
        "--robust", choices=list(_PREFILTERS), default="theil-sen"
    )
    p.add_argument("--gas", choices=("on", "off"), default="on")
    p.add_argument("--band", help="fit only samples inside LO:HI GHz")
    p.add_argument("--registry", help="registry CSV for per-source sigmas")
    p.add_argument("--seed", type=int, default=0, help="seeds --robust ransac only")
    p.add_argument("--out", help="write fitted model JSON here")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="evaluate a fitted model")
    p.add_argument("--model", required=True, help="fitted model JSON")
    p.add_argument("--d", type=float, required=True, help="distance in m")
    p.add_argument("--f", type=float, required=True, help="frequency in GHz")
    p.add_argument(
        "--extrapolate",
        action="store_true",
        help="allow predictions outside the fitted d/f ranges",
    )
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("experiment", help="run a benchmark study", description=(
        "Run a benchmark study on the data of PATHFUSE_DATA_DIR (default: bundled)."))
    p.add_argument(
        "--which",
        required=True,
        choices=sorted(_WHICH_ALIASES) + list(STUDIES),
        help="study to run (tableN aliases map to the matching study)",
    )
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--out-dir",
        help="write report files here (JSON + CSV, plus any study extras)",
    )
    p.add_argument("--format", choices=("json", "csv"),
                   help="also write the report to stdout: json (as saved) or csv rows")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("gas", help="query the gas-attenuation table")
    p.add_argument("--f", type=float, help="single frequency in GHz")
    p.add_argument("--f-range", help="frequency sweep START:STOP:STEP in GHz")
    p.add_argument("--d", type=float, help="path length in m (adds loss_db)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_gas)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PathfuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
