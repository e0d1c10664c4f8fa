#!/usr/bin/env python3
"""Show how much CPU numpy's BLAS helper threads burn per study, one process.

Run from the root of a checkout:

    PYTHONPATH=src:. python3 scripts/blas_spin.py

Runs each of the four studies once at its pinned seed (trials=10: Order at
seed 0, the rest at seed 1), then ``pathfuse fit`` on the benchmark's
``campaign-fit`` corpus (seed 0).  For each it prints the wall time, the
process CPU time (``time.process_time``, all threads), the CPU time of the
worker processes the run forked and joined (the Integration and Outlier
studies map their trials over one worker per CPU; read from
``resource.getrusage(RUSAGE_CHILDREN)``) and the CPU time of every thread of
this process but the calling one, read from ``/proc/self/task/*/schedstat``:
OpenBLAS's idle workers busy-wait after a threaded call wakes them, and that
spin shows here.  Where schedstat cannot be read the last column says
"unavailable".  Before each run the helper threads are left to fall asleep,
and after it they get ``SETTLE_S`` to finish spinning, so each run's figure
includes the spin it caused.
"""

import os
import resource
import tempfile
import threading
import time

from pathfuse import evaluation
from pathfuse.evaluation import ExperimentSpec
from perfbench.workloads import make

#: (label, study runner, ExperimentSpec.which, pinned seed)
STUDIES = (("order", "run_order_study", "OrderStudy", 0),
           ("robust", "run_robust_study", "RobustStudy", 1),
           ("integration", "run_integration_study", "IntegrationStudy", 1),
           ("outlier", "run_outlier_study", "OutlierStudy", 1))
TRIALS = 10
#: seconds the helper threads get to go idle before and after each run
SETTLE_S = 0.3


def helper_cpu_s():
    """CPU seconds of every thread of this process but the calling one, or None."""
    me, total = threading.get_native_id(), 0
    try:
        tids = os.listdir("/proc/self/task")
    except OSError:
        return None
    for tid in tids:
        if int(tid) == me:
            continue
        try:
            with open(f"/proc/self/task/{tid}/schedstat") as fh:
                total += int(fh.read().split()[0])
        except FileNotFoundError:  # the thread has ended
            continue
        except (OSError, ValueError, IndexError):
            return None
    return total / 1e9


def children_cpu_s():
    """CPU seconds (user + system) of every child process joined so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def settled_helper_cpu_s():
    """``helper_cpu_s`` once two readings ``SETTLE_S`` apart agree (or after ten)."""
    last = helper_cpu_s()
    for _ in range(10):
        time.sleep(SETTLE_S)
        now = helper_cpu_s()
        if now == last:
            break
        last = now
    return last


def measure(label, run):
    before = settled_helper_cpu_s()
    t0, c0, w0 = time.perf_counter(), time.process_time(), children_cpu_s()
    run()
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    workers = children_cpu_s() - w0
    after = settled_helper_cpu_s()
    spin = ("unavailable" if before is None or after is None
            else f"{1e3 * (after - before):8.1f} ms")
    print(f"{label:<12s} wall {wall:7.3f} s  process_time {cpu:7.3f} s"
          f"  workers {workers:7.3f} s  helper threads {spin}", flush=True)


def main():
    for label, runner, which, seed in STUDIES:
        spec = ExperimentSpec(which=which, trials=TRIALS, seed=seed)
        measure(label, lambda: getattr(evaluation, runner)(spec))
    with tempfile.TemporaryDirectory() as workdir:
        campaign = make("campaign-fit", 0, workdir, None)
        campaign.setup()
        measure("pathfuse fit", campaign.call)


if __name__ == "__main__":
    main()
