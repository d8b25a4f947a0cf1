"""Machine-speed reference for the benchmark's timings.

The shared virtual machines this benchmark runs on change speed by up to a
factor of two, in spells of a few seconds (CPU time moves with wall time,
so this is not time stolen by the hypervisor).  Every timing is therefore
also reported scaled to a reference speed: a fixed reference computation
(``probe``) is timed between ops, and an op's time is multiplied by
``PROBE_NOMINAL_S`` over the mean of the probes taken around it.  On a
machine where the probe takes ``PROBE_NOMINAL_S`` the scaled time is the
wall time; a speed-up of the program shows in full, since the probe does
not change with it.

The probes that count for an op are those within the op's own duration
before its start and after its end, and at least those within
``PROBE_REACH_S``.  A short op gets the few probes around it; an op of
many seconds, which lives through several spells of speed, gets the mean
over a window as long as itself on each side.

The probe mixes what the program spends its time on: interpreted dict
arithmetic keyed by tuples (``ChebPoly.__mul__``), outer products of small
arrays (``ChebPoly.eval_grid``) and LAPACK eigenvalues of small matrices
(the Fejer-Riesz roots).  It is timed three times and the fastest counts,
so a single interrupt does not move it.  Each probe is preceded by a full
garbage collection.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np

#: the probe's time on the reference machine (a shared 2-vCPU x86_64 VM)
PROBE_NOMINAL_S = 0.0025
#: ops shorter than this share the probes around them
PROBE_GAP_S = 0.25
#: probes this close to an op count for it at least; the speed moves in
#: spells of seconds, and one probe alone catches less of it than a few
PROBE_REACH_S = 1.5

_MATRIX = np.random.default_rng(0).standard_normal((24, 24))
_VECTOR = np.linspace(-1.0, 1.0, 64)


def _reference() -> float:
    out: dict = {}
    for i in range(100):
        for j in range(30):
            key = (i + j, abs(i - j))
            out[key] = out.get(key, 0.0) + 0.5 * i * j
    grid = np.zeros((64, 64))
    for k in range(40):
        grid += np.multiply.outer(_VECTOR ** (k % 12), _VECTOR ** (11 - k % 12))
    roots = sum(np.linalg.eigvals(_MATRIX + k).real.sum() for k in range(4))
    return sum(out.values()) + float(grid[0, 0]) + float(roots)


def probe() -> float:
    """Seconds of the reference computation: the fastest of three."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _reference()
        best = min(best, perf_counter() - t0)
    return best


class ProbeLog:
    """Probes taken between ops, with their times, and the scales they give."""

    def __init__(self):
        self.probes: list = []        # (perf_counter at the probe's middle, seconds)
        self.take()

    def take(self) -> None:
        # collect the garbage of earlier ops first, so that neither the probe
        # nor the next op pays for it at a moment that depends on the past
        gc.collect()
        t0 = perf_counter()
        seconds = probe()
        self.probes.append((0.5 * (t0 + perf_counter()), seconds))

    def between_ops(self) -> None:
        """Probe if ``PROBE_GAP_S`` has passed since the last probe."""
        if perf_counter() - self.probes[-1][0] >= PROBE_GAP_S:
            self.take()

    def scale(self, start: float, end: float) -> float:
        """Factor from wall seconds in [start, end] to seconds at the reference speed."""
        reach = max(end - start, PROBE_REACH_S)
        near = [s for t, s in self.probes if start - reach <= t <= end + reach]
        if not near:
            near = [min(self.probes, key=lambda p: abs(p[0] - end))[1]]
        return PROBE_NOMINAL_S * len(near) / sum(near)
