"""One coefficient kernel: the sequence alpha(x + n omega) that feeds both
the CMV windows and the transfer cocycle is evaluated in one place.
``VerblunskySequence.raw_values`` is ``SamplingFunction.alpha_orbit`` from
its first site, ``alpha_orbit`` reduces each orbit point and evaluates it
through ``alpha``, and ``_series`` sums the Fourier modes in order with a
bounded number of values per exp."""

import numpy as np
import pytest

from cmvspec.cmv import VerblunskySequence
from cmvspec.presets import strong_coupling
from cmvspec.torus import Phase, SamplingFunction


def _forty_nine_modes():
    """A d = 2 function with the 49 modes |k_i| <= 3, decaying like 2^-|k|_1."""
    rng = np.random.default_rng(4900)
    ks = [(k1, k2) for k1 in range(-3, 4) for k2 in range(-3, 4)]
    cs = [0.12 * 2.0 ** -(abs(k1) + abs(k2)) * np.exp(2j * np.pi * rng.random())
          for k1, k2 in ks]
    return SamplingFunction(2, dict(zip(ks, cs)))


FUNCTIONS = {"two_mode": strong_coupling, "forty_nine_modes": _forty_nine_modes}


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# --------------------------------------------------------------------------
# one orbit evaluator


@pytest.mark.parametrize("lo", [-60, -1, 0, 7, 500])
def test_raw_values_is_alpha_orbit_from_its_first_site(freq2, lo):
    f = strong_coupling()
    rng = np.random.default_rng(2600 + lo)
    real = Phase(tuple(rng.random(2)))
    strip = Phase(tuple(rng.random(2)), imag=(0.3 * f.strip_width, -0.2 * f.strip_width))
    batch = rng.random((50, 2))
    for base in (real, strip, batch):
        seq = VerblunskySequence(f, freq2, base)
        assert _same_bits(seq.raw_values(lo, lo + 100),
                          f.alpha_orbit(base, freq2, 101, start=lo))


def test_alpha_orbit_evaluates_the_reduced_points_through_alpha(freq2):
    f = _forty_nine_modes()
    xs = np.random.default_rng(2610).random((7, 2))
    om = freq2.array()
    points = (xs[:, None] + np.arange(-5, 25)[:, None] * om) % 1.0
    assert _same_bits(f.alpha_orbit(xs, freq2, 30, start=-5),
                      f.alpha(points.reshape(-1, 2)).reshape(7, 30))


# --------------------------------------------------------------------------
# the modes in order, as many per exp as the points leave room for


@pytest.mark.parametrize("n,per_exp", [(1000, [1000] * 49), (1, [49]),
                                       (30, [30 * 34, 30 * 15])])
def test_alpha_bounds_each_exp_and_keeps_its_bits(monkeypatch, n, per_exp):
    f = _forty_nine_modes()
    pts = np.random.default_rng(2620).random((1000, 2))[:n]
    want = f.alpha(pts)
    alone = [f.alpha(Phase(tuple(p))) for p in pts[:3]]
    sizes, exp = [], np.exp

    def recorded_exp(v, *args, **kwargs):
        sizes.append(np.size(v))
        return exp(v, *args, **kwargs)
    monkeypatch.setattr(np, "exp", recorded_exp)
    got = f.alpha(pts)
    assert sizes == per_exp
    assert _same_bits(got, want)
    assert _same_bits(got[:3], np.array(alone))


# --------------------------------------------------------------------------
# an independent reference: the orbit summed in 40-digit arithmetic


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_alpha_orbit_matches_an_mpmath_sum(freq2, name):
    mpmath = pytest.importorskip("mpmath")
    f = FUNCTIONS[name]()
    n = 3200
    rng = np.random.default_rng(2630)
    xs = rng.random((2, 2))
    got = f.alpha_orbit(xs, freq2, n)
    js = np.r_[np.arange(n - 20, n), rng.choice(n - 20, 20, replace=False)]
    worst = 0.0
    with mpmath.workdps(40):
        om = [mpmath.mpf(float(v)) for v in freq2.array()]
        for x, row in zip(xs, got):
            for j in js:
                point = [mpmath.mpf(float(v)) + int(j) * w for v, w in zip(x, om)]
                exact = mpmath.fsum(
                    mpmath.mpc(c.real, c.imag)
                    * mpmath.expjpi(2 * (k[0] * point[0] + k[1] * point[1]))
                    for k, c in f.coeffs.items())
                worst = max(worst, float(abs(exact - mpmath.mpc(row[j]))))
    assert worst <= 1e-11
