"""One pass of the cocycle kernel per draw: the alpha-orbit from an offset,
every step count read from one product, and temporaries bounded by blocks
of steps."""

import numpy as np
import pytest

from cmvspec import cocycle
from cmvspec.cocycle import (SpectralPoint, _transfer_products, lyapunov_finite,
                             transfer_log_norms, transfer_product)
from cmvspec.torus import Phase, SamplingFunction

FIELDS = ("matrix", "log_norm", "log_det_abs", "log_norm2")


def _function(dim: int, rng) -> SamplingFunction:
    ks = {tuple(int(v) for v in rng.integers(-3, 4, size=dim)) for _ in range(5)}
    cs = rng.standard_normal(len(ks)) + 1j * rng.standard_normal(len(ks))
    cs *= 0.6 / np.abs(cs).sum()
    return SamplingFunction(dim, dict(zip(sorted(ks), cs)))


def _same(a, b) -> bool:
    return all(np.array_equal(getattr(a, k), getattr(b, k)) for k in FIELDS)


# --------------------------------------------------------------------------
# the alpha-orbit from an offset


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("strip", [False, True])
def test_orbit_offsets_and_rows_are_bitwise(dim, strip):
    rng = np.random.default_rng(300 + dim)
    f = _function(dim, rng)
    omega = rng.random(dim)
    y = tuple(0.2 * f.strip_width * (rng.random(dim) - 0.5)) if strip else None
    n = 90
    for count in (1, 7, 300):
        pts = rng.random((count, dim))
        full = f.alpha_orbit(pts, omega, n, y=y)
        assert full.shape == (count, n)
        for j0, m in ((0, 1), (0, n), (1, 7), (37, 20), (n - 1, 1), (64, 26)):
            part = f.alpha_orbit(pts, omega, m, y=y, start=j0)
            assert np.array_equal(part, full[:, j0:j0 + m]), (count, j0, m)
        for i in sorted({0, count // 2, count - 1}):
            alone = f.alpha_orbit(Phase(tuple(pts[i])), omega, n, y=y)
            assert np.array_equal(alone, full[i])
            late = f.alpha_orbit(Phase(tuple(pts[i])), omega, 5, y=y, start=80)
            assert np.array_equal(late, full[i, 80:85])


def test_orbit_from_an_offset_is_the_shifted_orbit():
    rng = np.random.default_rng(310)
    f = _function(2, rng)
    omega = rng.random(2)
    x = rng.random(2)
    late = f.alpha_orbit(Phase(tuple(x)), omega, 4, start=50)
    shifted = f.alpha_orbit(Phase(tuple(x + 50 * omega)), omega, 4)
    assert np.max(np.abs(late - shifted)) < 1e-12


# --------------------------------------------------------------------------
# every step count from one pass


MARKS = [1, 7, 100, 401]


def test_marks_equal_standalone_products_on_a_batch(f_two_mode, freq2):
    rng = np.random.default_rng(320)
    points = [SpectralPoint(t) for t in 2 * np.pi * np.arange(16) / 16]
    xs = rng.random((100, 2))
    read = _transfer_products(f_two_mode, freq2, points, xs, MARKS)
    for n, pr in zip(MARKS, read):
        assert pr.n == n and pr.matrix.shape == (16, 100, 2, 2)
        assert _same(pr, transfer_product(f_two_mode, freq2, points, xs, n)), n
    # a row of the batch is still its phase and point alone
    one = transfer_product(f_two_mode, freq2, points[5], Phase(tuple(xs[17])), 401)
    assert all(np.array_equal(getattr(read[-1], k)[5, 17], getattr(one, k))
               for k in FIELDS)


def test_marks_equal_standalone_products_on_a_strip(f_two_mode, freq2):
    x = Phase((0.3, 0.7), imag=(0.2 * f_two_mode.strip_width,
                                -0.1 * f_two_mode.strip_width))
    for z in (SpectralPoint(1.1), [SpectralPoint(0.0), SpectralPoint(2.5)]):
        read = _transfer_products(f_two_mode, freq2, z, x, MARKS)
        for n, pr in zip(MARKS, read):
            assert _same(pr, transfer_product(f_two_mode, freq2, z, x, n)), n


def test_marks_keep_order_and_duplicates(f_two_mode, freq2):
    xs = np.random.default_rng(330).random((3, 2))
    z = SpectralPoint(0.4)
    read = _transfer_products(f_two_mode, freq2, z, xs, [100, 7, 100])
    assert [pr.n for pr in read] == [100, 7, 100]
    assert _same(read[0], read[2])
    assert _same(read[1], transfer_product(f_two_mode, freq2, z, xs, 7))
    with pytest.raises(ValueError):
        _transfer_products(f_two_mode, freq2, z, xs, [])
    with pytest.raises(ValueError):
        _transfer_products(f_two_mode, freq2, z, xs, [5, 0])


def test_log_norms_read_from_one_pass(f_two_mode, freq2, monkeypatch):
    xs = np.random.default_rng(340).random((6, 2))
    z = SpectralPoint(2.0)
    want = {n: transfer_product(f_two_mode, freq2, z, xs, n).log_norm2 for n in MARKS}
    steps = []
    kernel = cocycle._products
    monkeypatch.setattr(cocycle, "_products",
                        lambda *a: steps.append(a[-1][-1]) or kernel(*a))
    got = transfer_log_norms(f_two_mode, freq2, z, xs, [401, 7, 1, 100, 7])
    assert steps == [401]
    assert list(got) == MARKS
    for n in MARKS:
        assert np.array_equal(got[n], want[n])


def test_lyapunov_scales_in_one_pass(f_two_mode, freq2):
    points = [SpectralPoint(t) for t in (0.0, 1.0, np.pi)]
    scales = [400, 100, 100]
    got = lyapunov_finite(f_two_mode, freq2, points, scales, 30, seed=6)
    assert got == [lyapunov_finite(f_two_mode, freq2, points, n, 30, seed=6)
                   for n in scales]
    one = lyapunov_finite(f_two_mode, freq2, points[1], (100, 400), 30, seed=6)
    assert one == [lyapunov_finite(f_two_mode, freq2, points[1], n, 30, seed=6)
                   for n in (100, 400)]
    assert type(one[0].n) is int


# --------------------------------------------------------------------------
# bounded temporaries


def test_temporaries_stay_bounded_at_5000_steps(monkeypatch):
    rng = np.random.default_rng(350)
    f = _function(2, rng)
    omega = rng.random(2)
    points = [SpectralPoint(t) for t in 2 * np.pi * np.arange(16) / 16]
    xs = rng.random((100, 2))
    n, rows, block = 5000, 16 * 100, cocycle._BLOCK
    calls, exps, entries = [], [], []
    orbit = SamplingFunction.alpha_orbit

    def recorded_orbit(self, x0, om, m, y=None, start=0):
        calls.append((start, m))
        out = orbit(self, x0, om, m, y=y, start=start)
        assert out.shape == (len(xs), m)
        return out
    exp, step_entries = np.exp, cocycle._step_entries

    def recorded_exp(v, *args, **kwargs):
        exps.append(np.size(v))
        return exp(v, *args, **kwargs)

    def recorded_entries(*args):
        s = step_entries(*args)
        entries.append(s.shape)
        return s
    monkeypatch.setattr(SamplingFunction, "alpha_orbit", recorded_orbit)
    monkeypatch.setattr(np, "exp", recorded_exp)
    monkeypatch.setattr(cocycle, "_step_entries", recorded_entries)
    pr = transfer_product(f, omega, points, xs, n)
    assert pr.matrix.shape == (16, 100, 2, 2)
    # the orbit runs once over 0..n-1, about _BLOCK phase-steps per call
    assert [s for s, _ in calls] == list(np.cumsum([0] + [m for _, m in calls[:-1]]))
    assert sum(m for _, m in calls) == n
    assert max(m for _, m in calls) * len(xs) <= block
    assert len(calls) == -(-n // (block // len(xs)))
    # one mode at a time: no exp argument beyond the phase-steps of a call
    assert max(exps) <= block
    # step entries: (part, row, column, step, product), _BLOCK entries a block
    assert all(shape[:3] == (2, 2, 2) and shape[4] == rows for shape in entries)
    assert max(shape[3] for shape in entries) * rows <= max(block, rows)
    assert sum(shape[3] for shape in entries) == n
