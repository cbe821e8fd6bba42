import json

import numpy as np
import pytest

from cmvspec.torus import (Phase, SamplingFunction, check_diophantine,
                           eval_alpha, eval_rho, orbit, reduce_phase,
                           truncate_fourier)


class TestReducePhase:
    def test_mod_one(self):
        assert reduce_phase([1.25, -0.5]).coords == (0.25, 0.5)

    def test_identity(self):
        assert reduce_phase([0.0, 0.0]).coords == (0.0, 0.0)

    def test_integer_lattice(self):
        assert reduce_phase([2.0, 3.0]).coords == (0.0, 0.0)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            raw = rng.standard_normal(3) * 10
            once = reduce_phase(raw)
            twice = reduce_phase(once.coords)
            assert once.coords == twice.coords

    def test_half_open_interval(self):
        p = reduce_phase([-1e-18])
        assert 0.0 <= p.coords[0] < 1.0


class TestDiophantine:
    def test_rational_frequency_fails(self):
        cert = check_diophantine([0.5, 1 / 3], p=0.01, q=3.0, k_max=4)
        assert not cert.ok
        assert cert.worst_ratio == 0.0
        # the reported k must hit an exact integer, as (2,0) does
        dot = cert.worst_k[0] * 0.5 + cert.worst_k[1] / 3
        assert abs(dot - round(dot)) == 0.0
        assert any(cert.worst_k)

    def test_sqrt_frequency_brute_force(self):
        omega = [np.sqrt(2) - 1, np.sqrt(3) - 1]
        cert = check_diophantine(omega, p=0.05, q=3.0, k_max=200)
        # independent brute-force scan over the full ball
        best = np.inf
        for k1 in range(-200, 201):
            for k2 in range(-200, 201):
                n = abs(k1) + abs(k2)
                if n == 0 or n > 200:
                    continue
                v = k1 * omega[0] + k2 * omega[1]
                dist = abs(v - round(v))
                best = min(best, dist * n ** 3.0)
        assert cert.worst_ratio == pytest.approx(best, rel=1e-12)
        assert cert.ok == (best >= 0.05)

    def test_golden_ratio_floor(self):
        cert = check_diophantine([(np.sqrt(5) - 1) / 2], p=0.2, q=2.0, k_max=1000)
        assert cert.worst_ratio > 0.2
        assert cert.ok

    def test_monotone_in_cutoff(self):
        omega = [np.sqrt(2) - 1, np.sqrt(3) - 1]
        prev = np.inf
        for k_max in (10, 50, 200):
            cert = check_diophantine(omega, p=1e-6, q=3.0, k_max=k_max)
            assert cert.worst_ratio <= prev + 1e-15
            prev = cert.worst_ratio

    def test_rejects_small_q(self):
        with pytest.raises(ValueError):
            check_diophantine([0.4, 0.3], p=0.1, q=1.5, k_max=10)


class TestSamplingFunction:
    def test_single_mode_at_origin(self):
        f = SamplingFunction(2, {(1, 0): 0.5})
        assert eval_alpha(f, Phase((0.0, 0.0))) == pytest.approx(0.5)

    def test_single_mode_rotation(self):
        f = SamplingFunction(2, {(1, 0): 0.5})
        val = eval_alpha(f, Phase((0.25, 0.7)))
        assert val == pytest.approx(0.5j, abs=1e-15)

    def test_zero_function(self):
        f = SamplingFunction(2, {})
        assert eval_alpha(f, Phase((0.3, 0.9))) == 0

    def test_rho_values(self):
        f0 = SamplingFunction(1, {})
        assert eval_rho(f0, Phase((0.2,))) == 1.0
        f5 = SamplingFunction(1, {(0,): 0.5})
        assert eval_rho(f5, Phase((0.9,))) == pytest.approx(np.sqrt(0.75))
        f8 = SamplingFunction(1, {(0,): 0.8})
        assert eval_rho(f8, Phase((0.1,))) == pytest.approx(0.6)

    def test_periodicity(self):
        f = SamplingFunction(2, {(1, 0): 0.3, (0, 1): 0.2, (1, 1): 0.1})
        rng = np.random.default_rng(1)
        for _ in range(40):
            x = rng.random(2)
            base = f.alpha(reduce_phase(x))
            shifted = f.alpha(reduce_phase(x + rng.integers(-3, 4, size=2)))
            assert abs(base - shifted) < 1e-12

    def test_disk_values(self):
        f = SamplingFunction(2, {(1, 0): 0.45, (0, 1): 0.45})
        rng = np.random.default_rng(2)
        for _ in range(10_000):
            x = Phase(tuple(rng.random(2)))
            a = f.alpha(x)
            assert abs(a) < 1.0
            r = f.rho(x)
            assert 0.0 < r <= 1.0

    def test_sup_bound_rejects_unit_reaching(self):
        with pytest.raises(ValueError):
            SamplingFunction(1, {(0,): 1.0})

    def test_strip_evaluation(self):
        f = SamplingFunction(1, {(1,): 0.5})
        y = f.strip_width / 4
        val = f.alpha(Phase((0.0,), imag=(y,)))
        assert val == pytest.approx(0.5 * np.exp(-2 * np.pi * y))
        with pytest.raises(ValueError):
            f.alpha(Phase((0.0,), imag=(f.strip_width * 2,)))

    def test_json_round_trip(self):
        f = SamplingFunction(2, {(1, 0): 0.3 + 0.1j, (0, -2): 0.05})
        g = SamplingFunction.from_json(f.to_json())
        assert g.dim == f.dim
        assert g.coeffs == f.coeffs
        data = json.loads(f.to_json())
        assert set(data) == {"dim", "h", "coeffs"}
        assert set(data["coeffs"][0]) == {"k", "re", "im"}


class TestTruncation:
    def test_low_degree_is_identity(self):
        f = SamplingFunction(1, {(1,): 0.4, (-1,): 0.1})
        res = truncate_fourier(f, 3)
        assert res.error_bound == 0.0
        assert res.achieved
        assert res.function.coeffs == f.coeffs

    def test_zero_function(self):
        f = SamplingFunction(1, {})
        res = truncate_fourier(f, 5)
        assert res.error_bound == 0.0

    def test_tail_sum_oracle(self):
        # coefficients e^{-|k|} scaled into the disk; exact tail over |k| >= 81
        scale = 0.2
        coeffs = {(k,): scale * np.exp(-abs(k)) for k in range(-90, 91) if k != 0}
        f = SamplingFunction(1, {k: c for k, c in coeffs.items()})
        res = truncate_fourier(f, 3)
        expected_tail = sum(scale * np.exp(-abs(k)) for k in range(-90, 91)
                            if abs(k) >= 81)
        assert res.error_bound == pytest.approx(expected_tail, rel=1e-12)
        assert res.achieved    # tail ~ e^{-81} is far below the e^{-9} target

    def test_bound_dominates_grid_error(self):
        rng = np.random.default_rng(3)
        coeffs = {}
        for k1 in range(-6, 7):
            for k2 in range(-6, 7):
                if k1 == k2 == 0:
                    continue
                coeffs[(k1, k2)] = 0.002 * np.exp(-(abs(k1) + abs(k2))) \
                    * np.exp(2j * np.pi * rng.random())
        f = SamplingFunction(2, coeffs)
        n = 2    # cutoff degree 16 removes nothing; use a synthetic lower cutoff
        res = truncate_fourier(f, n)
        g = res.function
        worst = 0.0
        for i in range(64):
            for j in range(64):
                x = Phase((i / 64, j / 64))
                worst = max(worst, abs(f.alpha(x) - g.alpha(x)))
        assert res.error_bound >= worst - 1e-15


def test_truncation_flag_consistency():
    scale = 0.2
    coeffs = {(k,): scale * np.exp(-abs(k)) for k in range(-90, 91) if k != 0}
    f = SamplingFunction(1, coeffs)
    res = truncate_fourier(f, 3)
    assert res.achieved == (res.error_bound <= np.exp(-9.0))


class TestOrbit:
    def test_arithmetic(self):
        xs = orbit(Phase((0.0, 0.0)), np.array([0.5, 0.25]), 3)
        assert xs[0].coords == (0.0, 0.0)
        assert xs[1].coords == (0.5, 0.25)
        assert xs[2].coords == (0.0, 0.5)

    def test_fixed_point(self):
        xs = orbit(Phase((0.3, 0.8)), np.array([0.0, 0.0]), 5)
        assert all(x.coords == (0.3, 0.8) for x in xs)

    def test_single_step(self):
        xs = orbit(Phase((0.1,)), np.array([0.9]), 1)
        assert len(xs) == 1 and xs[0].coords == (0.1,)

    def test_matches_alpha_orbit(self, freq2, f_two_mode):
        x0 = Phase((0.11, 0.77))
        xs = orbit(x0, freq2, 20)
        direct = np.array([f_two_mode.alpha(x) for x in xs])
        vector = f_two_mode.alpha_orbit(x0, freq2, 20)
        assert np.max(np.abs(direct - vector)) < 1e-13


def _random_function(rng, dim: int, modes: int) -> SamplingFunction:
    """Random Fourier series on T^dim with total coefficient mass 0.5."""
    ks = {tuple(int(v) for v in rng.integers(-3, 4, size=dim)) for _ in range(modes)}
    cs = rng.standard_normal(len(ks)) + 1j * rng.standard_normal(len(ks))
    cs *= 0.5 / np.abs(cs).sum()
    return SamplingFunction(dim, dict(zip(sorted(ks), cs)))


class TestBatchedEvaluation:
    """An (N, d) array of points goes through the same code as one point."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_rows_match_scalar_alpha_bitwise(self, dim):
        rng = np.random.default_rng(40 + dim)
        for modes in (1, 3, 12):
            f = _random_function(rng, dim, modes)
            for n_pts in (1, 2, 7, 300):
                pts = reduce_phase(rng.standard_normal((n_pts, dim)) * 50)
                batch = f.alpha(pts)
                assert batch.shape == (n_pts,)
                for row, val in zip(pts, batch):
                    assert f.alpha(Phase(tuple(row))) == val

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_strip_rows_match_scalar_alpha_bitwise(self, dim):
        rng = np.random.default_rng(50 + dim)
        f = _random_function(rng, dim, 5)
        y = tuple(float(v) for v in (rng.random(dim) - 0.5) * f.strip_width)
        pts = reduce_phase(rng.random((64, dim)))
        batch = f.alpha(pts, y)
        for row, val in zip(pts, batch):
            assert f.alpha(Phase(tuple(row), imag=y)) == val
        with pytest.raises(ValueError):
            f.alpha(pts, (2 * f.strip_width,) * dim)

    def test_reduce_rows_match_single_points(self):
        rng = np.random.default_rng(60)
        raw = rng.standard_normal((50, 3)) * 1e3
        raw[0] = [-1e-18, -1.0, 2.5]
        rows = reduce_phase(raw)
        assert rows.shape == raw.shape
        assert np.all((rows >= 0.0) & (rows < 1.0))
        for r, x in zip(raw, rows):
            assert reduce_phase(r).coords == tuple(x)

    def test_tiny_negative_coordinate_stays_half_open(self):
        p = reduce_phase([-1e-18, 0.25])
        assert all(0.0 <= v < 1.0 for v in p.coords)
        shifted = Phase((0.5, 0.25)).shift([-0.5 - 1e-18, 0.0])
        assert 0.0 <= shifted.coords[0] < 1.0

    def test_zero_function_batch(self):
        f = SamplingFunction(2, {})
        assert np.array_equal(f.alpha(np.zeros((4, 2))), np.zeros(4, dtype=complex))


class TestBatchedOrbit:
    """alpha_orbit at an (N, d) array of base points, row by row."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_rows_match_phase_call_bitwise(self, dim):
        rng = np.random.default_rng(110 + dim)
        omega = rng.random(dim)
        for f in (_random_function(rng, dim, 4), SamplingFunction(dim, {})):
            for n in (1, 7, 64, 65, 400):
                for count in (1, 2, 7, 50):
                    pts = rng.random((count, dim))
                    rows = f.alpha_orbit(pts, omega, n)
                    assert rows.shape == (count, n)
                    for p, row in zip(pts, rows):
                        assert np.array_equal(f.alpha_orbit(Phase(tuple(p)), omega, n), row)

    def test_strip_rows_match_phase_call_bitwise(self, freq2, f_two_mode):
        rng = np.random.default_rng(120)
        y = (0.3 * f_two_mode.strip_width, -0.1 * f_two_mode.strip_width)
        pts = rng.random((9, 2))
        rows = f_two_mode.alpha_orbit(pts, freq2, 33, y=y)
        for p, row in zip(pts, rows):
            assert np.array_equal(f_two_mode.alpha_orbit(Phase(tuple(p)), freq2, 33, y=y), row)

    def test_zero_function_rows(self):
        f = SamplingFunction(2, {})
        out = f.alpha_orbit(np.zeros((3, 2)), np.array([0.1, 0.2]), 5)
        assert out.shape == (3, 5) and not out.any()
