"""Benchmark for pathfuse: one workload per process, timed and checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload integration --seed 1 --seconds 35 --trace 0

The workloads (see ``workloads.py``) and the metrics, with their units, are
the ones ``BENCHMARK.json`` declares.  Load is a closed loop: one caller in one
process makes one workload call at a time, with no threads beyond numpy's
BLAS pool.  After an untimed set-up and warm-up, the run repeats the call
(at least once) until ``--seconds`` have passed, give or take half a call,
and reports medians.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` the run makes one call that counts sample objects, then
alternates untraced and traced calls, and the last line holds the per-layer
metrics, the tracing overhead and its untraced base.
Earlier lines give a readable table and a ``record:`` line with the
environment, the per-call figures and any failed checks.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

#: set-up is timed in this many fresh processes a run, back to back after
#: one untimed process that warms the file cache, and before the workload's
#: own set-up: once a process has built and freed the 900 MB of a
#: ``campaign-fit`` call, the processes it starts read about 20% slower
SETUP_SAMPLES = 10

SETUP_CODE = """
import time
t0 = time.perf_counter()
from pathfuse.atmosphere import load_default_table
from pathfuse.io import load_reference_targets, load_registry
load_default_table()
load_registry()
load_reference_targets()
print(time.perf_counter() - t0)
"""


def load_spec(path=SPEC):
    with open(path) as fh:
        return json.load(fh)


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, help="input seed (default: the pinned seed)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"], help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_once():
    """Seconds a fresh process takes to import pathfuse and load its data."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.split()[-1])


def blas_threads():
    """Size of numpy's OpenBLAS thread pool, or None when it cannot be read."""
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    """The checked-out commit, or None outside a git checkout.

    ``--git-dir`` names this checkout's own ``.git``, so git does not climb
    to a repository that merely encloses the checkout.
    """
    try:
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(traced):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "tracing": bool(traced),
        "load": "closed loop, 1 caller, 1 process, 1 call at a time",
    }


class Tally:
    """Correctness checks made during the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if name not in self.failures:
                self.failures.append(name)

    def fail_all(self, n, reason):
        self.attempted += n
        self.failed += n
        self.failures.append(reason)


def timed_call(workload, tally):
    """One workload call: (wall seconds, CPU seconds), its checks tallied.

    A full garbage collection first gives every call the same starting heap.
    """
    gc.collect()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        out = workload.call()
    except Exception:  # a raising call fails every check it would have made
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        traceback.print_exc(file=sys.stderr)
        tally.fail_all(workload.n_checks, "call raised")
        return wall, cpu
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    for name, ok in workload.checks(out):
        tally.add(name, ok)
    return wall, cpu


@dataclass
class Samples:
    walls: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    traced_walls: list = field(default_factory=list)
    layers: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def measure(workload, seconds, traced, tally, samples):
    """Repeat the call until ``seconds`` have passed, give or take half a call.

    Another call starts while its expected midpoint falls within
    ``seconds``.  Traced, the first call only counts sample objects, and
    each step is then an untraced call followed by a traced one.
    """
    from spans import Tracer, counting_sample_objects, leftover_wrappers

    start = time.perf_counter()
    if traced:
        with counting_sample_objects(samples.counts):
            timed_call(workload, tally)
        tally.add("trace:counter-removed", not leftover_wrappers())
    while True:
        wall, cpu = timed_call(workload, tally)
        samples.walls.append(wall)
        samples.cpus.append(cpu)
        if traced:
            tracer = Tracer()
            with tracer.installed():
                wall, _ = timed_call(workload, tally)
            tally.add("trace:wrappers-removed", not leftover_wrappers())
            samples.traced_walls.append(wall)
            samples.layers.append(tracer.summary())
        elapsed = time.perf_counter() - start
        step = elapsed / len(samples.walls)
        if elapsed + step / 2 > seconds:
            return samples


def main(argv=None):
    spec = load_spec()
    args = parse_args(argv, spec)
    # a terminated run still removes its work directory and set-up process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "pathfuse" / "__init__.py").is_file():
        print(f"perfbench: no pathfuse sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pathfuse

    if not Path(pathfuse.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: pathfuse imported from {pathfuse.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    from spans import layer_metrics, tail

    seed = workloads.PINNED_SEEDS[args.workload] if args.seed is None else args.seed
    tally = Tally()
    samples = Samples()
    if not args.trace:
        setup_once()
        samples.setups = [setup_once() for _ in range(SETUP_SAMPLES)]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        workload = workloads.make(args.workload, seed, workdir, workloads.load_golden())
        t0 = time.perf_counter()
        workload.setup()
        workload.warm_up()
        prepare_s = time.perf_counter() - t0
        measure(workload, args.seconds, args.trace, tally, samples)

    record = {
        "workload": args.workload,
        "seed": seed,
        "pinned": workload.pinned,
        "environment": environment(args.trace),
        "calls": len(samples.walls),
        "wall_s_per_call": samples.walls,
        "wall_s_tail": tail(samples.walls),
        "cpu_s_per_call": samples.cpus,
        "setup_s_per_process": samples.setups,
        "untimed_setup_and_warm_up_s": prepare_s,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_ratio": tally.failed / max(tally.attempted, 1),
        "failed_checks": tally.failures[:20],
    }
    if args.trace:
        base = statistics.median(samples.walls)
        values = layer_metrics(samples.layers)
        values.update(samples.counts)
        values["trace.base_wall_s"] = base
        values["trace.overhead_s"] = statistics.median(samples.traced_walls) - base
        record["traced_wall_s_per_call"] = samples.traced_walls
    else:
        values = {
            "wall_s": statistics.median(samples.walls),
            "cpu_s": statistics.median(samples.cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(samples.setups),
        }
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    for name, metric in metrics.items():
        print(f"{name:<44s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{'failed_ratio':<44s} {record['failed_ratio']:>14.6g} "
          f"({tally.failed}/{tally.attempted} checks)")
    print("record: " + json.dumps(record))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
