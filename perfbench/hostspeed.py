"""A fixed probe of how fast the host runs right now, to scale measured times.

The benchmark runs on small shared virtual machines whose speed changes
within seconds: on a 2-vCPU x86-64 VM a fixed mix of Python and LAPACK
work took about 7 ms in fast phases and 11-12 ms in slow ones, the two
alternating within a minute, and a phase can last for minutes.  The
process CPU time moves with the wall time, so this is the host's
per-instruction speed, not time spent descheduled.  Every op latency moves
with it, and measured as they were, two runs of the same code differed by
more than a regression worth catching.

So each op is preceded by one ``probe()``, a fixed unit of work in two
timed parts.  In a slow phase the kinds of work slow down unevenly:
interpreted Python and numpy element-wise passes by about 1.8x, LAPACK on
matrices of order 100 and more by about 1.35x.  ``slowdown`` mixes the two
parts' slowdowns over their ``REFERENCE_S`` in a workload's LAPACK share,
and each op's measured time is divided by the slowdown near it, so the
time metrics read as seconds on the host in a fast phase.  The probe does
not touch gradsense, so a change to the program moves a scaled time as
much as the measured one.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

# the parts' typical times on a 2-vCPU x86-64 VM in a fast phase, 1 BLAS thread
REFERENCE_S = {"interp": 0.004, "lapack": 0.006}
WINDOW = 2              # an op is scaled by the median probes of the ops within this many

# fixed inputs without numpy.random, whose import alone would add ~7 MB to
# the worker's peak_rss_mb
_VEC = np.sin(np.arange(64 * 1024) * 0.7)
_SYM = np.cos(np.arange(200 * 200) * 0.3).reshape(200, 200)
_SYM = _SYM + _SYM.T
_TALL = np.cos(np.arange(512 * 128) * 1.3).reshape(512, 128)


def probe() -> tuple[float, float]:
    """Wall times of the two parts of one fixed unit of work, in seconds.

    ``interp``: interpreted Python with ``Fraction`` arithmetic and numpy
    element-wise passes over an array of 0.5 MB.  ``lapack``: a symmetric
    eigensolve of order 200 and a 512 x 128 least-squares solve.
    """
    start = time.perf_counter()
    total, table = Fraction(0), {}
    for i in range(1, 800):
        total += Fraction(1, i)
        table[i] = (i, float(i))
    x = _VEC
    for _ in range(2):
        x = np.cos(x) * 0.5 + x * x * 0.25
    middle = time.perf_counter()
    np.linalg.eigh(_SYM)
    np.linalg.lstsq(_TALL, _TALL[:, 0], rcond=None)
    return middle - start, time.perf_counter() - middle


def slowdown(probes: list[tuple[float, float]], lapack_share: float) -> float:
    """How much slower than the reference the host ran during ``probes``.

    The parts' slowdowns (median probe over ``REFERENCE_S``) mixed in the
    shares ``1 - lapack_share`` and ``lapack_share``.
    """
    interp = statistics.median(p[0] for p in probes) / REFERENCE_S["interp"]
    lapack = statistics.median(p[1] for p in probes) / REFERENCE_S["lapack"]
    return (1.0 - lapack_share) * interp + lapack_share * lapack


def scale_factors(probes: list[tuple[float, float]], lapack_share: float) -> list[float]:
    """One factor per op: the inverse slowdown over the probes near it."""
    return [1.0 / slowdown(probes[max(0, k - WINDOW):k + WINDOW + 1], lapack_share)
            for k in range(len(probes))]
