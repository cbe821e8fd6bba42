"""Strip phases x + iy through one way in: a strip Phase carries its own y,
an array of phases takes one y, both are read and checked by
``SamplingFunction.displacement``, and the batched cocycle kernel is the one
step map and the one continuation of conj(alpha)."""

import numpy as np
import pytest

from cmvspec.cocycle import (SpectralPoint, cocycle_step, lyapunov_finite,
                             strip_continuity_check, transfer_product)
from cmvspec.presets import localization_example, strong_coupling
from cmvspec.torus import Phase, SamplingFunction
from cmvspec.util import counter_phases

FIELDS = ("matrix", "log_norm", "log_det_abs", "log_norm2")


def _strip_ys(f):
    h = f.strip_width
    return [(0.1 * h, 0.0), (0.2 * h, -0.3 * h), (-0.45 * h, 0.45 * h)]


# --------------------------------------------------------------------------
# one way in for the displacement


def test_alpha_orbit_reads_a_strip_phase(freq2):
    f = strong_coupling()
    x = Phase((0.3, 0.7), imag=(0.004, 0.0))
    first = f.alpha_orbit(x, freq2, 1)[0]
    assert first == f.alpha(x)
    assert first != f.alpha(Phase(x.coords))
    assert np.array_equal(f.alpha_orbit(x, freq2, 40),
                          f.alpha_orbit(Phase(x.coords), freq2, 40, y=x.imag))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_alpha_orbit_at_strip_phases_equals_alpha_bitwise(dim):
    rng = np.random.default_rng(700 + dim)
    ks = {tuple(int(v) for v in rng.integers(-3, 4, size=dim)) for _ in range(5)}
    cs = rng.standard_normal(len(ks)) + 1j * rng.standard_normal(len(ks))
    f = SamplingFunction(dim, dict(zip(sorted(ks), cs * 0.5 / np.abs(cs).sum())))
    for _ in range(50):
        y = tuple(float(v) for v in 0.9 * f.strip_width * (2 * rng.random(dim) - 1))
        x = Phase(tuple(rng.random(dim)), imag=y)
        assert f.alpha_orbit(x, rng.random(dim), 3)[0] == f.alpha(x)


def test_zero_displacement_is_the_real_torus(f_two_mode, freq2):
    xs = np.random.default_rng(710).random((4, 2))
    z = SpectralPoint(0.7)
    assert f_two_mode.displacement(Phase((0.1, 0.2), imag=(0.0, 0.0))) is None
    real = transfer_product(f_two_mode, freq2, z, xs, 50)
    flat = transfer_product(f_two_mode, freq2, z, xs, 50, y=(0.0, 0.0))
    assert all(np.array_equal(getattr(real, k), getattr(flat, k)) for k in FIELDS)


def test_a_strip_phase_and_a_y_together_raise(f_two_mode, freq2):
    x = Phase((0.3, 0.7), imag=(0.1 * f_two_mode.strip_width, 0.0))
    y = (0.1 * f_two_mode.strip_width, 0.0)
    with pytest.raises(ValueError):
        f_two_mode.alpha_orbit(x, freq2, 5, y=y)
    with pytest.raises(ValueError):
        f_two_mode.alpha(x, y)
    with pytest.raises(ValueError):
        transfer_product(f_two_mode, freq2, SpectralPoint(1.0), x, 5, y=y)


@pytest.mark.parametrize("scale", [1.0, 1.5, 20.0])
def test_out_of_strip_raises_everywhere(f_two_mode, freq2, scale):
    h = f_two_mode.strip_width
    y = (scale * h, 0.0)
    x = Phase((0.3, 0.7), imag=y)
    xs = np.random.default_rng(720).random((3, 2))
    z = SpectralPoint(1.0)
    with pytest.raises(ValueError):
        f_two_mode.alpha_orbit(x, freq2, 5)
    with pytest.raises(ValueError):
        f_two_mode.alpha_orbit(xs, freq2, 5, y=y)
    with pytest.raises(ValueError):
        transfer_product(f_two_mode, freq2, z, x, 50)
    with pytest.raises(ValueError):
        transfer_product(f_two_mode, freq2, z, xs, 50, y=y)
    with pytest.raises(ValueError):
        lyapunov_finite(f_two_mode, freq2, z, 50, 8, 0, y=y)
    with pytest.raises(ValueError):
        cocycle_step(f_two_mode, z, x)


# --------------------------------------------------------------------------
# batches take y


def test_batch_with_y_equals_strip_phases_bitwise(f_two_mode, freq2):
    rng = np.random.default_rng(730)
    points = [SpectralPoint(0.0), SpectralPoint(2.2)]
    for y in _strip_ys(f_two_mode):
        xs = rng.random((9, 2))
        for n in (1, 40):
            batch = transfer_product(f_two_mode, freq2, points, xs, n, y=y)
            for i, x in enumerate(xs):
                alone = transfer_product(f_two_mode, freq2, points, Phase(tuple(x), imag=y), n)
                for k in FIELDS:
                    assert np.array_equal(getattr(batch, k)[:, i], getattr(alone, k)), (y, n, k)


def _continuity_by_phases(f, omega, z, n, y_list, samples, seed):
    """The per-Phase loop strip_continuity_check replaced, kept as an oracle:
    (ratios, base value)."""
    base = lyapunov_finite(f, omega, z, n, samples, seed).value
    ratios = {}
    for y in y_list:
        y = tuple(float(v) for v in np.atleast_1d(y))
        tot = sum(abs(v) for v in y)
        vals = [transfer_product(f, omega, z, Phase(tuple(x), imag=y), n).u_n
                for x in counter_phases(f.dim, samples, seed)]
        diff = abs(float(np.mean(vals)) - base)
        ratios[y] = diff / tot if tot > 0 else 0.0
    return ratios, base


@pytest.mark.parametrize("make", [strong_coupling, localization_example])
def test_strip_continuity_equals_per_phase_loop_bitwise(make, freq2):
    f = make()
    z = SpectralPoint(1.3)
    ys = [*_strip_ys(f), (0.0, 0.0)]
    for n, samples, seed in ((30, 64, 5), (100, 17, 2)):
        report = strip_continuity_check(f, freq2, z, n, ys, samples=samples, seed=seed)
        ratios, base = _continuity_by_phases(f, freq2, z, n, ys, samples, seed)
        assert report.ratios == ratios
        assert report.base_value == base
        assert report.max_ratio == max(ratios.values())


def test_lyapunov_at_y_is_the_strip_phase_mean(f_two_mode, freq2):
    z = SpectralPoint(0.5)
    y = _strip_ys(f_two_mode)[1]
    est = lyapunov_finite(f_two_mode, freq2, z, 60, 12, 3, y=y)
    vals = [transfer_product(f_two_mode, freq2, z, Phase(tuple(x), imag=y), 60).u_n
            for x in counter_phases(2, 12, 3)]
    assert est.value == float(np.mean(vals))
    assert est.std_error == float(np.std(vals, ddof=1) / np.sqrt(12))


# --------------------------------------------------------------------------
# one step map, one continuation


def test_cocycle_step_at_strip_phases_is_the_kernel_step(f_two_mode, freq2):
    rng = np.random.default_rng(740)
    for _ in range(200):
        y = tuple(0.9 * f_two_mode.strip_width * (2 * rng.random(2) - 1))
        x = Phase(tuple(rng.random(2)), imag=y)
        z = SpectralPoint(2 * np.pi * rng.random())
        m = cocycle_step(f_two_mode, z, x)
        pr = transfer_product(f_two_mode, freq2, z, x, 1)
        assert np.max(np.abs(m - np.exp(pr.log_norm) * pr.matrix)) < 1e-14
        assert abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] - 1.0) < 1e-13


def test_cocycle_step_continues_conj_alpha(f_two_mode):
    # (1/rho) [[sz, -conj(a)(x - iy) / sz], [-a sz, 1/sz]], rho^2 = 1 - a conj(a)(x - iy)
    x = Phase((0.3, 0.7), imag=(0.2 * f_two_mode.strip_width, -0.1 * f_two_mode.strip_width))
    z = SpectralPoint(1.9)
    a = f_two_mode.alpha(x)
    ab = np.conj(f_two_mode.alpha(Phase(x.coords, tuple(-v for v in x.imag))))
    r = np.sqrt(1.0 - a * ab)
    sz = z.sqrt_z
    want = np.array([[sz, -ab / sz], [-a * sz, 1.0 / sz]]) / r
    assert np.max(np.abs(cocycle_step(f_two_mode, z, x) - want)) < 1e-14


def test_per_phase_duplicates_are_gone():
    assert not hasattr(SamplingFunction, "alpha_bar")
    assert not hasattr(SamplingFunction, "rho_strip")
