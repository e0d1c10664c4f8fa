#!/usr/bin/env python3
"""Time the exact Theil-Sen line kernel on fixed lines, one process.

Run from the root of a checkout:

    PYTHONPATH=src python3 scripts/time_theilsen.py [--seconds 1.0]

Each case is a contaminated campaign line (abscissae 10*log10 of uniform
distances in 10..500 m, slope 2, 6 dB noise, a fifth of the rows raised by
20..55 dB) at a fixed seed.  ``n=150`` takes every slope at once.
``one-ulp`` lines have one abscissa moved one ulp away from another, and
``close-pairs`` 50 abscissae each moved 1-3 ulps away from another: a
rounding guard sized by the least x gap would make every bound useless;
the guard per pair counts those pairs by their slopes instead.  For each
case the kernel
(``estimators._theilsen_line``) runs untimed once, then repeatedly for
``--seconds`` (at least three times); the line printed holds the median and
the spread of those times and the tracemalloc peak of one further call.
"""

import argparse
import statistics
import time
import tracemalloc

import numpy as np

from pathfuse.estimators import _theilsen_line

#: (name, rows, abscissae moved a few ulps away from another)
CASES = (("n=150", 150, 0), ("n=200", 200, 0), ("n=1080", 1080, 0),
         ("n=8000", 8000, 0), ("one-ulp n=8000", 8000, 1),
         ("one-ulp n=16000", 16000, 1), ("close-pairs n=8000", 8000, 50))
SEED = 3


def campaign_line(n, moved):
    rng = np.random.default_rng(SEED)
    x = 10.0 * np.log10(rng.uniform(10.0, 500.0, n))
    y = 2.0 * x + 30.0 + rng.normal(0.0, 6.0, n)
    hit = rng.random(n) < 0.2
    y[hit] += rng.uniform(20.0, 55.0, hit.sum())
    for k in range(0, 2 * moved, 2):  # x[1] 1 ulp from x[0], x[3] 2 from x[2], ...
        x[k + 1] = x[k] + (1 + k // 2 % 3) * np.spacing(x[k])
    return np.column_stack([x, np.ones(n)]), y


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1.0, help="timing per case")
    args = parser.parse_args(argv)
    for name, n, moved in CASES:
        X, y = campaign_line(n, moved)
        beta, pairs = _theilsen_line(X, y, 1, 0)
        times, stop = [], time.perf_counter() + args.seconds
        while len(times) < 3 or time.perf_counter() < stop:
            t0 = time.perf_counter()
            _theilsen_line(X, y, 1, 0)
            times.append(time.perf_counter() - t0)
        tracemalloc.start()
        _theilsen_line(X, y, 1, 0)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        q1, _, q3 = statistics.quantiles(times, n=4)
        print(f"{name:<19s} median {1e3 * statistics.median(times):9.3f} ms"
              f"  (q1 {1e3 * q1:.3f}, q3 {1e3 * q3:.3f}, {len(times)} runs)"
              f"  peak {peak:6.2f} MB  pairs {pairs}  slope {float(beta[0])!r}")


if __name__ == "__main__":
    main()
