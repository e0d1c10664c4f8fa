#!/usr/bin/env python3
"""Time the exact Theil-Sen line kernel on fixed lines, one process.

Run from the root of a checkout:

    PYTHONPATH=src python3 scripts/time_theilsen.py [--seconds 1.0] [--case NAME ...]

Each case is a contaminated campaign line (abscissae 10*log10 of uniform
distances in 10..500 m, slope 2, 6 dB noise, a fifth of the rows raised by
20..55 dB) at a fixed seed.  ``n=150`` takes every slope at once.
``one-ulp`` lines have one abscissa moved one ulp away from another, and
``close-pairs`` 50 abscissae each moved 1-3 ulps away from another: a
rounding guard sized by the least x gap would make every bound useless;
the guard per pair counts those pairs by their slopes instead.  ``ties``
rounds the distances to whole metres, so that its abscissae take 491
values: the row sort and the bounds at +-inf take the stable sort that a
tie calls for, where the others keep numpy's default one.  For each
case the kernel (``estimators._theilsen_line``) runs untimed once, then
repeatedly for ``--seconds`` (at least three times); the line printed holds
the median and the spread of those times, the tracemalloc peak of one
further call and the resident memory one more call adds at its peak, in a
forked child (Linux only; ``-`` elsewhere).  The untimed call also
counts its interval passes (``_inversions`` calls) and the ranks each
selection round draws from the pivot stream ("-": all pairs at once, no
round): round one draws 16n random row pairs, a later round only what aims
its interval at ``PAIR_BUDGET``/4.  ``--case`` runs the named cases only, in
the order given; ``n=1000000`` (about a minute) runs only when named.
"""

import argparse
import os
import statistics
import time
import tracemalloc

import numpy as np

from pathfuse import estimators
from pathfuse.estimators import _theilsen_line

#: (name, rows, abscissae moved a few ulps away from another, whole metres)
CASES = (("n=150", 150, 0, False), ("n=200", 200, 0, False),
         ("n=1080", 1080, 0, False), ("n=8000", 8000, 0, False),
         ("one-ulp n=8000", 8000, 1, False), ("one-ulp n=16000", 16000, 1, False),
         ("close-pairs n=8000", 8000, 50, False), ("ties n=8000", 8000, 0, True),
         ("n=100000", 100000, 0, False))
#: cases that run only when named by ``--case``
NAMED_ONLY = (("n=1000000", 1000000, 0, False),)
SEED = 3


def campaign_line(n, moved, whole_metres):
    rng = np.random.default_rng(SEED)
    d = rng.uniform(10.0, 500.0, n)
    x = 10.0 * np.log10(np.round(d) if whole_metres else d)
    y = 2.0 * x + 30.0 + rng.normal(0.0, 6.0, n)
    hit = rng.random(n) < 0.2
    y[hit] += rng.uniform(20.0, 55.0, hit.sum())
    for k in range(0, 2 * moved, 2):  # x[1] 1 ulp from x[0], x[3] 2 from x[2], ...
        x[k + 1] = x[k] + (1 + k // 2 % 3) * np.spacing(x[k])
    return np.column_stack([x, np.ones(n)]), y


def counted_line(X, y):
    """One kernel call; also its interval passes and the ranks drawn per round."""
    passes, draws = [], []

    class Pivots:  # the pivot stream, summing the ranks of each round's blocks
        def __init__(self, rng):
            self.rng, self.blocks = rng, 0  # blocks of the current round to come

        def multinomial(self, total, pvals):  # a later round, block by block
            draws.append(total)
            self.blocks = len(pvals)
            return self.rng.multinomial(total, pvals)

        def integers(self, low, high, size):
            if isinstance(size, tuple):  # a block of round one's row pairs
                draws[:1] = [sum(draws[:1]) + size[-1]]
            elif self.blocks:  # a block of a later round, counted above
                self.blocks -= 1
            else:  # the pivots of a streamed selection
                draws.append(size)
            return self.rng.integers(low, high, size)

    inversions, substream = estimators._inversions, estimators.substream
    estimators._inversions = lambda seq: passes.append(seq.size) or inversions(seq)
    estimators.substream = lambda *labels: Pivots(substream(*labels))
    try:
        beta, pairs = _theilsen_line(X, y, 1, 0)
    finally:
        estimators._inversions, estimators.substream = inversions, substream
    return beta, pairs, len(passes), draws


def rss_growth_mb(call):
    """MB of resident memory ``call()`` adds at its peak (Linux; else None).

    It runs in a forked child, whose high-water mark starts from its own
    resident size, not from this process's largest one.  The package runs
    OpenBLAS on one thread unless OPENBLAS_NUM_THREADS says otherwise, so
    the child starts with no thread left behind.
    """
    if not os.path.exists("/proc/self/statm"):
        return None
    import resource

    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: its resident size now, its high-water mark after
        status = 1
        try:
            with open("/proc/self/statm") as statm:
                start = int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
            call()
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
            os.write(write, str((peak - start) / 2**20).encode())
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    with os.fdopen(read) as child:
        growth = child.read()
    if os.waitpid(pid, 0)[1]:
        raise RuntimeError("the forked kernel call failed")
    return float(growth)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1.0, help="timing per case")
    parser.add_argument("--case", action="append", metavar="NAME",
                        choices=[case[0] for case in CASES + NAMED_ONLY],
                        help="run this case (repeatable); default: all but n=1000000")
    args = parser.parse_args(argv)
    cases = {name: line for name, *line in CASES + NAMED_ONLY}
    for name in args.case or [case[0] for case in CASES]:
        X, y = campaign_line(*cases[name])
        beta, pairs, passes, draws = counted_line(X, y)
        times, stop = [], time.perf_counter() + args.seconds
        while len(times) < 3 or time.perf_counter() < stop:
            t0 = time.perf_counter()
            _theilsen_line(X, y, 1, 0)
            times.append(time.perf_counter() - t0)
        tracemalloc.start()
        _theilsen_line(X, y, 1, 0)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        rss = rss_growth_mb(lambda: _theilsen_line(X, y, 1, 0))
        q1, _, q3 = statistics.quantiles(times, n=4)
        print(f"{name:<19s} median {1e3 * statistics.median(times):9.3f} ms"
              f"  (q1 {1e3 * q1:.3f}, q3 {1e3 * q3:.3f}, {len(times)} runs)"
              f"  peak {peak:6.2f} MB  rss +{'-' if rss is None else f'{rss:.1f}'} MB"
              f"  pairs {pairs}  slope {float(beta[0])!r}"
              f"  passes {passes}  draws {'/'.join(map(str, draws)) or '-'}")


if __name__ == "__main__":
    main()
