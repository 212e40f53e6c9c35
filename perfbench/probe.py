"""Machine-speed probe: a fixed unit of work that does not use the program.

The benchmark runs on shared hosts whose speed drifts by up to 2x, in
spells of seconds to minutes, as other tenants' load comes and goes.  A
40 s run sees its own mix of fast and slow spells, so the medians of two
sets of runs of the same code can differ by more than any useful bound.
The probe measures that drift: while a run measures, a wall-clock timer
interrupts it every ``INTERVAL_S`` and times one probe, so the probes sample
the machine's speed evenly over the run, and the run's times are scaled by
``NOMINAL_S`` over the probe times' mean, less the highest and lowest
``TRIM`` of them (a probe that a page fault or a context switch happened
to hit).

The probe does the same kinds of work as the program (Python big-integer
arithmetic on object-dtype numpy matrices, Bareiss elimination, Fractions,
float numpy, JSON) and imports nothing from it, so a change to the program
never moves it.  It always does the same work, and checks its result.
"""

from __future__ import annotations

import contextlib
import json
import random
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

# Probe time at the speed the scaled figures refer to: about the mean
# probe time on a 2-vCPU x86-64 container (Python 3.11, numpy 2.4), whose
# fast and slow states read about 15 ms and 23 ms.
NOMINAL_S = 0.020
INTERVAL_S = 1.0
TRIM = 0.1

_N = 20
_RNG = random.Random(2016)
_MAT = [[_RNG.randrange(-5, 6) for _ in range(_N)] for _ in range(_N)]
_OBJ = np.array(_MAT, dtype=object)
_FLT = np.array(_MAT, dtype=float) + np.array(_MAT, dtype=float).T


def _bareiss_det(rows: list[list[int]]) -> int:
    rows = [list(r) for r in rows]
    n, prev, sign = len(rows), 1, 1
    for k in range(n - 1):
        piv = next((r for r in range(k, n) if rows[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        pk = rows[k]
        for r in range(k + 1, n):
            rr = rows[r]
            for c in range(k + 1, n):
                rr[c] = (rr[c] * pk[k] - rr[k] * pk[c]) // prev
        prev = pk[k]
    return sign * rows[-1][-1]


def _work() -> tuple:
    # Faddeev-LeVerrier on an object matrix, as exact char polys are computed.
    ident = np.identity(_N, dtype=int).astype(object)
    m = np.zeros((_N, _N), dtype=object)
    c, coeffs = 1, [1]
    for k in range(1, _N + 1):
        m = _OBJ @ (m + c * ident)
        c = -(int(np.trace(m)) // k)
        coeffs.append(c)
    det = _bareiss_det(_MAT)
    frac = sum((Fraction(i, 1 + j) for i in range(40) for j in range(40)), Fraction(0))
    radius = float(np.linalg.eigvalsh(_FLT).max())
    text = json.dumps({"coeffs": coeffs, "det": det, "frac": str(frac)})
    return json.loads(text)["det"], len(text), round(radius, 6)


EXPECTED = _work()


def probe() -> float:
    """Seconds one probe took; raises if it computed a different result."""
    t0 = time.perf_counter()
    out = _work()
    elapsed = time.perf_counter() - t0
    if out != EXPECTED:
        raise RuntimeError(f"speed probe computed {out}, expected {EXPECTED}")
    return elapsed


class SpeedLog:
    """Probe times of one run, taken every ``INTERVAL_S`` of wall time while
    the log is entered and not paused.  ``busy_s`` is the time spent in
    probes, which the caller subtracts from what it times; ``scale`` turns a
    measured time into the time at nominal speed."""

    def __init__(self):
        self.times: list[float] = []
        self.stamps: list[float] = []
        self.busy_s = 0.0

    def _tick(self, signum, frame) -> None:
        self.stamps.append(time.perf_counter())
        self.times.append(probe())
        self.busy_s += time.perf_counter() - self.stamps[-1]

    def _arm(self, interval: float) -> None:
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def __enter__(self) -> SpeedLog:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._arm(INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        self._arm(0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextlib.contextmanager
    def paused(self):
        """No probes inside: for work in child processes, which a probe in
        this process would compete with for the CPUs."""
        self._arm(0)
        try:
            yield
        finally:
            self._arm(INTERVAL_S)

    @property
    def typical_s(self) -> float:
        times = sorted(self.times)
        cut = int(len(times) * TRIM)
        return statistics.mean(times[cut:len(times) - cut])

    @property
    def scale(self) -> float:
        return NOMINAL_S / self.typical_s
