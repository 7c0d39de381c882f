"""Host speed probe: a fixed piece of work timed next to every timed sample.

The benchmark shares a few cores of a host with other tenants, and the host's
speed swings by about 2x for seconds to minutes at a time.  The process is not
descheduled (its CPU time equals its wall time); every instruction just runs
slower.  A run's raw median therefore follows the neighbours' load as much as
the program.

The probe kernel does a fixed mix of the work the pipeline does: dict and list
churn, text formatting and splitting, and small numpy sorts.  Its code never
changes with the program, so the ratio of a sample's time to the probe's time
measured around it is the sample's cost in units of the host's current speed.
``scaled`` turns that ratio back into seconds at the reference speed, the
probe's time on an uncontended reference host.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_PROBE_S = 0.0075
"""The probe's time on the reference host when no neighbour slows it.

Measured on a 2-vCPU Intel Xeon VM at 2.0 GHz with Python 3.11.7 and numpy
2.4.6.  It fixes only the scale of the reported seconds: comparisons between
two commits are ratios and do not depend on it.
"""

PROBE_REPEATS = 6


def _kernel() -> int:
    rows = [{"t": i, "v": (i * 7919) % 1009 / 7.0, "s": f"s{i % 17:02d}"} for i in range(3000)]
    rows.sort(key=lambda r: (r["s"], r["v"]))
    text = "\n".join(f"{r['t']},{r['s']},{r['v']:.6f}" for r in rows)
    values = np.array([float(line.split(",")[2]) for line in text.splitlines()])
    for _ in range(20):
        values = np.sort(values[::-1]) + 1e-9
    return len(text)


def probe() -> float:
    """The median of ``PROBE_REPEATS`` timings of the kernel, in seconds.

    A command runs at the host's mean speed over its length, which a median
    follows more closely than the fastest timing does.
    """
    timings = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        _kernel()
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)


def scaled(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` seconds, measured between probes ``before`` and ``after``, at the reference speed."""
    return elapsed * REFERENCE_PROBE_S / ((before + after) / 2)
