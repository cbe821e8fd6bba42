"""Host-speed calibration: a fixed piece of work timed next to the workload.

The benchmark runs on shared hosts whose speed moves by up to a factor of
two within minutes, so a wall time alone says as much about the host as
about the program.  Every run therefore times a fixed piece of work, the
calibration unit, while it measures, and scales its wall times to the
speed of the reference host:

    scaled time = wall time * REF_UNIT_S / (measured seconds per unit)

During a round, ``Sampler`` interrupts the program every SAMPLE_INTERVAL_S
seconds of wall time to time a few units; the time spent sampling is taken
out of the round's wall time.  The samples are spread evenly over wall
time, so the mean of their speeds (not the speed of their mean time) is
the host's speed averaged over the round.  Set-up probes, which run in
other processes, are bracketed by ``burst`` instead.

A unit mixes the kinds of work the program spends its time on: numpy
scalar arithmetic in an interpreted loop (as in the transfer-matrix
products), small-array numpy calls (as in evaluating alpha), a dense
complex eigensolve of a 64-site matrix (as in the window spectra) and
banded solves of 801 sites (as in the coverage probes).  Its inputs are
fixed, so the work never changes with the workload or its seed, and it
calls nothing of cmvspec, so no change to the program moves it.
"""

import signal
import time

import numpy as np
from scipy.linalg import solve_banded

# Seconds per unit on the reference host (see README.md, "Host-speed
# scaling"), measured in a quiet stretch.  Any fixed value would do: it
# only sets the scale in which scaled times are reported.
REF_UNIT_S = 0.011
UNITS_PER_BURST = 20        # about 0.2 s at the reference speed
SAMPLE_INTERVAL_S = 0.5
UNITS_PER_SAMPLE = 3        # about 5% of a round's wall time

_RNG = np.random.default_rng(20250224)
_DENSE = _RNG.standard_normal((64, 64)) + 1j * _RNG.standard_normal((64, 64))
_BAND = _RNG.standard_normal((5, 801)) + 1j * _RNG.standard_normal((5, 801))
_BAND[2] += 8.0             # diagonally dominant, so the solve is well posed
_RHS = _RNG.standard_normal(801) + 0j
_KS = np.array([[1, 0], [0, 1]])
_CS = np.array([0.45 + 0j, 0.45 + 0j])
_ALPHAS = 0.3 * np.exp(2j * np.pi * _RNG.random(300))


def _unit() -> float:
    acc = 0.0
    # numpy-scalar 2x2 products in an interpreted loop
    m00, m01, m10, m11 = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    for a in _ALPHAS:
        r = np.sqrt(1.0 - abs(a) ** 2)
        n00, n01 = (m00 - a.conjugate() * m10) / r, (m01 - a.conjugate() * m11) / r
        n10, n11 = (m10 - a * m00) / r, (m11 - a * m01) / r
        sc = max(abs(n00), abs(n01), abs(n10), abs(n11))
        m00, m01, m10, m11 = n00 / sc, n01 / sc, n10 / sc, n11 / sc
        acc += np.log(sc)
    # small-array calls, one per site
    for j in range(300):
        x = np.array([0.1 * j, 0.2 * j])
        acc += complex(np.sum(_CS * np.exp(2j * np.pi * (_KS @ x)))).real
    acc += float(np.abs(np.linalg.eigvals(_DENSE)).sum())
    for _ in range(4):
        acc += float(np.abs(solve_banded((2, 2), _BAND, _RHS)).sum())
    return acc


def burst() -> float:
    """Seconds per unit over one burst of UNITS_PER_BURST units."""
    t0 = time.perf_counter()
    for _ in range(UNITS_PER_BURST):
        _unit()
    return (time.perf_counter() - t0) / UNITS_PER_BURST


def speed(unit_seconds: float) -> float:
    """Host speed relative to the reference host."""
    return REF_UNIT_S / unit_seconds


class Sampler:
    """Times UNITS_PER_SAMPLE units on a wall-clock timer while active.

    The handler runs in the main thread between bytecodes, so it never
    overlaps the program; ``spent_s`` is the wall time it took.
    """

    def __init__(self):
        self.spent_s = 0.0
        self.speeds = []

    def _sample(self, *_):
        t0 = time.perf_counter()
        for _ in range(UNITS_PER_SAMPLE):
            _unit()
        took = time.perf_counter() - t0
        self.spent_s += took
        self.speeds.append(speed(took / UNITS_PER_SAMPLE))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()          # a round shorter than the interval gets one sample too
        return False

    def mean_speed(self) -> float:
        return sum(self.speeds) / len(self.speeds)
