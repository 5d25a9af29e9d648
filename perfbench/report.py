"""Summaries the benchmark reports: percentiles with their sample counts,
medians, the machine's speed while work ran, and the
environment a result was measured in."""

from __future__ import annotations

import ctypes
import gc
import math
import os
import platform
import signal
import statistics
import sys
import time
from array import array

import numpy as np

# A percentile is supported when at least this many samples lie beyond it.
MIN_BEYOND = 10
PERCENTILES = (50, 90, 99)

# The machine this benchmark shares changes speed by up to 2x within
# seconds, and the measured process's CPU time slows with it, so CPU time
# is no steadier than wall time.  Times are therefore also reported scaled
# to a nominal machine, on which the probe takes NOMINAL_PROBE_S.  The probe
# runs every PROBE_PERIOD_S inside the measured process, so it sees the
# speed the work saw; an interval takes the mean speed of the probes within
# one period of it.  The probe does what the package does most, small
# numpy operations driven from Python, and allocates nothing the garbage
# collector tracks.  The package's work slows less than the probe does.
# SPEED_EXPONENT is a calibration: on a 2-vCPU shared VM, scaling the
# package as it was when the benchmark was added by the probe's speed to
# this power left the least spread between runs of the same work.
# README.md says when to refit it.
PROBE_LOOPS = 500
NOMINAL_PROBE_S = 0.001
PROBE_PERIOD_S = 0.1
SPEED_EXPONENT = 0.75
_PROBE_ARRAY = np.arange(16.0)


def percentile(samples, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    data = sorted(samples)
    if not data:
        raise ValueError("no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def latency_summary(samples) -> dict:
    """p50 and p90 of the samples, the sample count, how many samples lie
    beyond each percentile, and the highest percentile with at least
    MIN_BEYOND samples beyond it (None when even the median has fewer)."""
    data = list(samples)
    out = {"count": len(data)}
    highest = None
    for q in PERCENTILES:
        value = percentile(data, q)
        beyond = sum(1 for x in data if x > value)
        out[f"p{q}"] = value
        out[f"beyond_p{q}"] = beyond
        if beyond >= MIN_BEYOND:
            highest = q
    out["highest_supported"] = highest
    return out


class SpeedSampler:
    """Times the probe loop every PROBE_PERIOD_S from a SIGALRM handler,
    which runs in the main thread between bytecodes, on the CPU the work
    runs on.  ``scaled(a, b)`` turns the wall interval [a, b] into nominal
    seconds: the interval minus the probe's own time, times the mean speed
    of the probes within one period of it, to the power SPEED_EXPONENT.

    Samples go into float arrays, so sampling creates no object the
    garbage collector tracks and cannot move the work's collections.
    """

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        acc = _PROBE_ARRAY
        for _ in range(PROBE_LOOPS):
            acc = np.tanh(_PROBE_ARRAY * 0.5) + acc * 0.0
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        self._sample()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def scaled(self, a: float, b: float) -> float:
        samples = list(zip(self.starts, self.ends))
        busy = sum(min(e, b) - max(s, a) for s, e in samples if s < b and e > a)
        near = [NOMINAL_PROBE_S / (e - s) for s, e in samples
                if a - PROBE_PERIOD_S <= s and e <= b + PROBE_PERIOD_S]
        if not near:
            mid = (a + b) / 2
            s, e = min(samples, key=lambda p: abs((p[0] + p[1]) / 2 - mid))
            near = [NOMINAL_PROBE_S / (e - s)]
        return (b - a - busy) * (sum(near) / len(near)) ** SPEED_EXPONENT


def median(values) -> float:
    return statistics.median(values)


def _blas_threads():
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "gc_threshold": list(gc.get_threshold()),
        "machine": platform.machine(),
    }
