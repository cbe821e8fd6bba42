"""The torus certificates: one Diophantine enumeration for every dimension,
checked against an independent brute-force oracle, and a strip width that
certifies |alpha| < 1 on the whole strip ``displacement`` admits."""

import itertools

import numpy as np
import pytest

from cmvspec.presets import localization_example, single_mode
from cmvspec.torus import SamplingFunction, check_diophantine

GOLDEN = [(np.sqrt(5.0) - 1.0) / 2.0]
SQRT = [np.sqrt(2.0) - 1.0, np.sqrt(3.0) - 1.0]
D3 = [0.41421356237309515, 0.7320508075688772, 0.2360679774997898]


def _d3_function():
    """The sampling function of the d = 3 CI runs."""
    return SamplingFunction(3, {(1, 0, 0): 0.3, (0, 1, 0): 0.3, (0, 0, 1): 0.3j})


def diophantine_oracle(omega, p, q, k_max):
    """(ok, worst_k, worst_ratio) over the half l1 ball: every k with
    0 < |k|_1 <= k_max whose first nonzero entry is positive, taken in
    lexicographic order, k.omega summed left to right; the first minimum
    of ||k.omega|| |k|_1^q wins."""
    ks, dots, norms = [], [], []
    for k in itertools.product(range(-k_max, k_max + 1), repeat=len(omega)):
        norm = sum(abs(v) for v in k)
        if norm == 0 or norm > k_max or next(v for v in k if v) < 0:
            continue
        dot = 0.0
        for v, w in zip(k, omega):
            dot = dot + v * w
        ks.append(k)
        dots.append(dot)
        norms.append(float(norm))
    frac = np.asarray(dots) % 1.0
    ratio = np.minimum(frac, 1.0 - frac) * np.asarray(norms) ** q
    i = int(np.argmin(ratio))
    return bool(ratio[i] >= p), ks[i], float(ratio[i])


def _random_cases(count=50):
    rng = np.random.default_rng(2700)
    cases = []
    for j in range(count):
        d = 1 + j % 3
        omega = [float(v) for v in rng.random(d)]
        q = d + 0.5 + 2.0 * float(rng.random())
        cases.append((omega, 10.0 ** -rng.uniform(0, 3), q, (120, 24, 8)[d - 1]))
    return cases


# rational frequencies tie at ratio 0 many times: the first k must win
RATIONAL = [([0.5], 0.1, 2.0, 9), ([0.5, 0.25], 0.1, 3.0, 9),
            ([0.5, 0.25, 0.125], 0.1, 4.0, 9)]
CASES = [(GOLDEN, 0.2, 2.0, 1000), (SQRT, 0.05, 3.0, 200), (D3, 1e-3, 4.0, 30),
         *RATIONAL, *_random_cases()]


@pytest.mark.parametrize("omega,p,q,k_max", CASES,
                         ids=["golden", "sqrt", "d3", "rational1", "rational2", "rational3"]
                         + [f"random{j}" for j in range(50)])
def test_check_diophantine_equals_the_brute_force_oracle(omega, p, q, k_max):
    cert = check_diophantine(omega, p, q, k_max)
    ok, worst_k, worst_ratio = diophantine_oracle(omega, p, q, k_max)
    assert cert.ok == ok
    assert cert.worst_k == worst_k
    assert cert.worst_ratio == worst_ratio
    assert (cert.p, cert.q, cert.k_max) == (p, q, k_max)


@pytest.mark.parametrize("make", [localization_example, single_mode, _d3_function],
                         ids=["localization", "single_mode", "d3"])
def test_alpha_stays_in_the_disk_at_the_corners_of_the_strip(make):
    # displacement admits max|y_i| < h, so the certificate must cover it all
    f = make()
    n = 64 if f.dim <= 2 else 16
    axis = np.arange(n) / n
    pts = np.stack(np.meshgrid(*[axis] * f.dim, indexing="ij"), axis=-1).reshape(-1, f.dim)
    for signs in itertools.product((-1.0, 1.0), repeat=f.dim):
        y = 0.999 * f.strip_width * np.asarray(signs)
        assert np.abs(f.alpha(pts, y)).max() < 1.0, signs
