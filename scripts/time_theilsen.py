#!/usr/bin/env python3
"""Time the exact Theil-Sen line kernel on fixed lines, one process.

Run from the root of a checkout:

    PYTHONPATH=src python3 scripts/time_theilsen.py [--seconds 1.0]

Each case is a contaminated campaign line (abscissae 10*log10 of uniform
distances in 10..500 m, slope 2, 6 dB noise, a fifth of the rows raised by
20..55 dB) at a fixed seed.  ``one-ulp`` is the 8,000-row line with one
abscissa moved one ulp away from another, which makes every bound's
rounding guard useless.  For each case the kernel
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

#: (name, rows, move one abscissa one ulp away from another)
CASES = (("n=200", 200, False), ("n=1080", 1080, False), ("n=8000", 8000, False),
         ("one-ulp n=8000", 8000, True))
SEED = 3


def campaign_line(n, one_ulp):
    rng = np.random.default_rng(SEED)
    x = 10.0 * np.log10(rng.uniform(10.0, 500.0, n))
    y = 2.0 * x + 30.0 + rng.normal(0.0, 6.0, n)
    hit = rng.random(n) < 0.2
    y[hit] += rng.uniform(20.0, 55.0, hit.sum())
    if one_ulp:
        x[1] = x[0] + np.spacing(x[0])
    return np.column_stack([x, np.ones(n)]), y


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1.0, help="timing per case")
    args = parser.parse_args(argv)
    for name, n, one_ulp in CASES:
        X, y = campaign_line(n, one_ulp)
        beta, pairs = _theilsen_line(X, y, 1, 0, 0)
        times, stop = [], time.perf_counter() + args.seconds
        while len(times) < 3 or time.perf_counter() < stop:
            t0 = time.perf_counter()
            _theilsen_line(X, y, 1, 0, 0)
            times.append(time.perf_counter() - t0)
        tracemalloc.start()
        _theilsen_line(X, y, 1, 0, 0)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        q1, _, q3 = statistics.quantiles(times, n=4)
        print(f"{name:<15s} median {1e3 * statistics.median(times):9.3f} ms"
              f"  (q1 {1e3 * q1:.3f}, q3 {1e3 * q3:.3f}, {len(times)} runs)"
              f"  peak {peak:6.2f} MB  pairs {pairs}  slope {float(beta[0])!r}")


if __name__ == "__main__":
    main()
