import numpy as np
import pytest

from cmvspec.cocycle import (AvalancheHypothesisError, SpectralPoint,
                             avalanche_report, check_ln_monotonicity,
                             cocycle_step, lyapunov_avalanche, lyapunov_finite,
                             strip_continuity_check, transfer_log_norms,
                             transfer_product, uniform_upper_check)
from cmvspec.torus import Phase, SamplingFunction, reduce_phase

FLOQUET_L = np.log(np.sqrt(3.0))   # constant alpha=0.5, z=1 oracle


class TestSpectralPoint:
    def test_branch(self):
        z = SpectralPoint(3.0)
        assert abs(z.z) == pytest.approx(1.0, abs=1e-15)
        assert z.sqrt_z ** 2 == pytest.approx(z.z, abs=1e-15)

    def test_wraps(self):
        z = SpectralPoint(2 * np.pi + 1.0)
        assert z.theta == pytest.approx(1.0)


class TestCocycleStep:
    def test_free_identity(self, f_zero):
        m = cocycle_step(f_zero, SpectralPoint(0.0), Phase((0.3,)))
        assert np.allclose(m, np.eye(2))

    def test_free_rotation(self, f_zero):
        th = 1.234
        m = cocycle_step(f_zero, SpectralPoint(th), Phase((0.5,)))
        assert np.allclose(m, np.diag([np.exp(0.5j * th), np.exp(-0.5j * th)]))
        assert np.linalg.norm(m, 2) == pytest.approx(1.0)

    def test_determinant_one(self, f_two_mode):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            z = SpectralPoint(2 * np.pi * rng.random())
            x = Phase(tuple(rng.random(2)))
            m = cocycle_step(f_two_mode, z, x)
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            assert abs(det - 1.0) < 1e-13


class TestTransferProduct:
    def test_single_step(self, f_two_mode, freq2):
        z = SpectralPoint(0.9)
        x = Phase((0.2, 0.6))
        pr = transfer_product(f_two_mode, freq2, z, x, 1)
        full = np.exp(pr.log_norm) * pr.matrix
        assert np.allclose(full, cocycle_step(f_two_mode, z, x), atol=1e-14)

    def test_cocycle_identity(self, f_two_mode, freq2):
        z = SpectralPoint(1.7)
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = Phase(tuple(rng.random(2)))
            n1, n2 = int(rng.integers(1, 64)), int(rng.integers(1, 64))
            full = transfer_product(f_two_mode, freq2, z, x, n1 + n2)
            left = transfer_product(f_two_mode, freq2, z,
                                    reduce_phase(x.array() + n1 * freq2.array()), n2)
            right = transfer_product(f_two_mode, freq2, z, x, n1)
            lhs = np.exp(full.log_norm) * full.matrix
            rhs = (np.exp(left.log_norm) * left.matrix) @ \
                  (np.exp(right.log_norm) * right.matrix)
            assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs)) < 1e-10

    def test_floquet_growth(self, f_const, freq1):
        pr = transfer_product(f_const, freq1, SpectralPoint(0.0),
                              Phase((0.1,)), 1000)
        assert pr.log_norm2 / 1000 == pytest.approx(FLOQUET_L, abs=1e-4)

    def test_renormalized_matches_naive(self, f_two_mode, freq2):
        z = SpectralPoint(0.4)
        x = Phase((0.15, 0.85))
        n = 30
        pr = transfer_product(f_two_mode, freq2, z, x, n)
        naive = np.eye(2, dtype=complex)
        for j in range(n):
            xj = reduce_phase(x.array() + j * freq2.array())
            naive = cocycle_step(f_two_mode, z, xj) @ naive
        full = np.exp(pr.log_norm) * pr.matrix
        assert np.max(np.abs(full - naive)) / np.max(np.abs(naive)) < 1e-8

    def test_det_invariance_long_products(self, f_two_mode, freq2):
        z = SpectralPoint(1.0)
        for n in (100, 1000, 10_000):
            pr = transfer_product(f_two_mode, freq2, z, Phase((0.3, 0.4)), n)
            assert abs(pr.log_det_abs) <= 1e-10 * n

    def test_norm_at_least_one(self, f_two_mode, freq2):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(1, 200))
            pr = transfer_product(f_two_mode, freq2,
                                  SpectralPoint(2 * np.pi * rng.random()),
                                  Phase(tuple(rng.random(2))), n)
            assert pr.log_norm2 >= -1e-12
            assert pr.u_n >= -1e-10

    def test_subadditivity_pointwise(self, f_two_mode, freq2):
        z = SpectralPoint(1.3)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = Phase(tuple(rng.random(2)))
            n1, n2 = int(rng.integers(1, 50)), int(rng.integers(1, 50))
            l_full = transfer_product(f_two_mode, freq2, z, x, n1 + n2).log_norm2
            l_1 = transfer_product(f_two_mode, freq2, z, x, n1).log_norm2
            l_2 = transfer_product(
                f_two_mode, freq2, z,
                reduce_phase(x.array() + n1 * freq2.array()), n2).log_norm2
            assert l_full <= l_1 + l_2 + 1e-10

    def test_checkpoint_sweep_matches(self, f_two_mode, freq2):
        z = SpectralPoint(0.8)
        x = Phase((0.22, 0.91))
        logs = transfer_log_norms(f_two_mode, freq2, z, x, [10, 20, 40])
        for n in (10, 20, 40):
            pr = transfer_product(f_two_mode, freq2, z, x, n)
            assert logs[n] == pytest.approx(pr.log_norm2, abs=1e-9)


class TestLyapunovFinite:
    def test_zero_function_exact(self, f_zero, freq1):
        est = lyapunov_finite(f_zero, freq1, SpectralPoint(2.0), 50, 20, seed=0)
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_floquet_value(self, f_const, freq1):
        est = lyapunov_finite(f_const, freq1, SpectralPoint(0.0), 100, 10, seed=0)
        assert est.value == pytest.approx(FLOQUET_L, abs=1e-3)

    def test_elliptic_point(self, f_const, freq1):
        est = lyapunov_finite(f_const, freq1, SpectralPoint(np.pi), 500, 5, seed=0)
        assert est.value == pytest.approx(0.0, abs=1e-2)

    def test_deterministic(self, f_two_mode, freq2):
        z = SpectralPoint(1.1)
        a = lyapunov_finite(f_two_mode, freq2, z, 40, 30, seed=7)
        b = lyapunov_finite(f_two_mode, freq2, z, 40, 30, seed=7)
        assert a.value == b.value and a.std_error == b.std_error


class TestAvalanche:
    def test_commuting_exact_zero(self):
        mats = [np.diag([10.0, 0.1])] * 8
        rep = avalanche_report(mats)
        assert rep.expression == 0.0
        assert rep.hypotheses_ok

    def test_random_hyperbolic_bound(self):
        rng = np.random.default_rng(4)
        checked = 0
        for _ in range(50):
            lam = 20.0 + 30.0 * rng.random()
            mats = []
            for _ in range(10):
                t1, t2 = 0.2 * rng.standard_normal(2)
                r1 = np.array([[np.cos(t1), -np.sin(t1)], [np.sin(t1), np.cos(t1)]])
                r2 = np.array([[np.cos(t2), -np.sin(t2)], [np.sin(t2), np.cos(t2)]])
                mats.append(r1 @ np.diag([lam, 1 / lam]) @ r2)
            rep = avalanche_report(mats, c_a=10.0)
            if rep.hypotheses_ok:
                checked += 1
                assert rep.expression < rep.bound
        assert checked >= 45

    def test_norm_floor_violation(self, f_zero, freq1):
        with pytest.raises(AvalancheHypothesisError) as err:
            lyapunov_avalanche(f_zero, freq1, SpectralPoint(1.0), 8, 1, 4, seed=0)
        assert "min norm" in str(err.value)

    def test_floquet_estimate(self, f_const, freq1):
        est = lyapunov_avalanche(f_const, freq1, SpectralPoint(0.0), 16, 2, 5,
                                 seed=0)
        assert est.method == "avalanche"
        assert est.value == pytest.approx(FLOQUET_L, abs=1e-3)

    def test_agrees_with_direct(self, f_two_mode, freq2):
        z = SpectralPoint(1.0)
        av = lyapunov_avalanche(f_two_mode, freq2, z, 25, 2, 40, seed=3)
        direct = lyapunov_finite(f_two_mode, freq2, z, av.n, 40, seed=3)
        tol = 3 * (av.std_error + direct.std_error) + 5e-3
        assert abs(av.value - direct.value) < tol


class TestRegularity:
    def test_monotonicity_zero(self, f_zero, freq1):
        rep = check_ln_monotonicity(f_zero, freq1, SpectralPoint(0.5),
                                    [10, 20, 40], 10, seed=0)
        assert rep.ok
        assert all(e.value == pytest.approx(0.0, abs=1e-12)
                   for e in rep.estimates.values())

    def test_monotonicity_floquet(self, f_const, freq1):
        rep = check_ln_monotonicity(f_const, freq1, SpectralPoint(0.0),
                                    [10, 20, 40, 80], 40, seed=1)
        assert rep.ok

    def test_monotonicity_snapshot(self, f_two_mode, freq2):
        rep = check_ln_monotonicity(f_two_mode, freq2, SpectralPoint(1.0),
                                    [8, 16, 32, 64], 60, seed=2)
        assert rep.ok
        assert rep.fitted_c >= 0.0

    def test_strip_zero_displacement(self, f_two_mode, freq2):
        rep = strip_continuity_check(f_two_mode, freq2, SpectralPoint(1.0), 20,
                                     [(0.0, 0.0)], samples=10, seed=0)
        assert rep.max_ratio == 0.0

    def test_strip_zero_function(self, freq1, f_zero):
        y = f_zero.strip_width / 8
        rep = strip_continuity_check(f_zero, freq1, SpectralPoint(0.7), 30,
                                     [(y,)], samples=10, seed=0)
        assert rep.max_ratio == pytest.approx(0.0, abs=1e-10)

    def test_strip_ratio_stable_in_n(self, f_two_mode, freq2):
        z = SpectralPoint(1.0)
        y = (min(1e-3, f_two_mode.strip_width / 4), 0.0)
        ratios = []
        for n in (20, 40, 80):
            rep = strip_continuity_check(f_two_mode, freq2, z, n, [y],
                                         samples=40, seed=1)
            ratios.append(rep.max_ratio)
        assert max(ratios) < 2.5 * max(min(ratios), 1e-6) + 1.0

    def test_strip_rejects_wide_y(self, f_two_mode, freq2):
        with pytest.raises(ValueError):
            strip_continuity_check(f_two_mode, freq2, SpectralPoint(1.0), 10,
                                   [(f_two_mode.strip_width, 0.0)], samples=2,
                                   seed=0)

    def test_uniform_upper_zero(self, f_zero, freq1):
        rep = uniform_upper_check(f_zero, freq1, SpectralPoint(0.3), 20, grid=32)
        assert rep.excess == pytest.approx(0.0, abs=1e-10)

    def test_uniform_upper_constant_exact(self, f_const, freq1):
        n = 64
        rep = uniform_upper_check(f_const, freq1, SpectralPoint(0.0), n, grid=32)
        # single-matrix powers: norm is x-independent, so excess vanishes
        m = cocycle_step(f_const, SpectralPoint(0.0), Phase((0.0,)))
        power = np.linalg.matrix_power(m, n)
        assert rep.sup_log_norm == pytest.approx(np.log(np.linalg.norm(power, 2)),
                                                 abs=1e-8)
        assert rep.excess == pytest.approx(0.0, abs=1e-10)

    def test_uniform_upper_sublinear_trend(self, f_two_mode, freq2):
        z = SpectralPoint(1.0)
        e1 = uniform_upper_check(f_two_mode, freq2, z, 16, grid=32).excess
        e2 = uniform_upper_check(f_two_mode, freq2, z, 64, grid=32).excess
        assert e2 < 4.0 * max(e1, 0.2)   # growth clearly below linear (x4)

    def test_uniform_upper_rejects_coarse_grid(self, f_zero, freq1):
        with pytest.raises(ValueError):
            uniform_upper_check(f_zero, freq1, SpectralPoint(0.0), 10, grid=16)


# --------------------------------------------------------------------------
# the batched kernel


def _old_transfer_product(f, omega, z, x, n):
    """The one-sample loop the batched kernel replaced, kept as an oracle:
    (matrix, log_norm, log_det_abs, log_norm2)."""
    om = omega.array() if hasattr(omega, "array") else np.asarray(omega, float)
    sz = z.sqrt_z
    iz = 1.0 / sz
    y = None if x.imag is None or not any(x.imag) else x.imag_array()
    if y is None:
        alphas = f.alpha_orbit(x, om, n)
        alpha_bars = np.conj(alphas)
        rhos = np.sqrt(1.0 - np.abs(alphas) ** 2)
    else:
        alphas = f.alpha_orbit(Phase(x.coords), om, n, y=y)
        alpha_bars = np.conj(f.alpha_orbit(Phase(x.coords), om, n, y=-y))
        rhos = np.sqrt(1.0 - alphas * alpha_bars)
    m00, m01, m10, m11 = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    log_norm = 0.0
    log_det = 0.0
    for j in range(n):
        a, ab, r = alphas[j], alpha_bars[j], rhos[j]
        s00, s01, s10, s11 = sz / r, -ab * iz / r, -a * sz / r, iz / r
        log_det += np.log(abs(s00 * s11 - s01 * s10))
        n00 = s00 * m00 + s01 * m10
        n01 = s00 * m01 + s01 * m11
        n10 = s10 * m00 + s11 * m10
        n11 = s10 * m01 + s11 * m11
        sc = max(abs(n00), abs(n01), abs(n10), abs(n11))
        m00, m01, m10, m11 = n00 / sc, n01 / sc, n10 / sc, n11 / sc
        log_norm += np.log(sc)
    log_norm2 = _old_log_norm2(np.array([[m00, m01], [m10, m11]]), log_norm)
    return np.array([[m00, m01], [m10, m11]]), log_norm, log_det, log_norm2


def _old_log_norm2(m, log_norm):
    fro2 = abs(m[0, 0]) ** 2 + abs(m[0, 1]) ** 2 + abs(m[1, 0]) ** 2 + abs(m[1, 1]) ** 2
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = max(fro2 * fro2 - 4 * abs(det) ** 2, 0.0)
    return log_norm + 0.5 * np.log(0.5 * (fro2 + np.sqrt(disc)))


def _function(kind: str, dim: int, rng) -> SamplingFunction:
    if kind == "zero":
        return SamplingFunction(dim, {})
    ks = {tuple(int(v) for v in rng.integers(-3, 4, size=dim)) for _ in range(4)}
    cs = rng.standard_normal(len(ks)) + 1j * rng.standard_normal(len(ks))
    cs *= 0.6 / np.abs(cs).sum()
    return SamplingFunction(dim, dict(zip(sorted(ks), cs)))


FIELDS = ("matrix", "log_norm", "log_det_abs", "log_norm2")


def _fields(pr):
    return [np.asarray(getattr(pr, name)) for name in FIELDS]


class TestBatchedKernel:
    """An (N, d) array of phases runs the products of its rows together."""

    @pytest.mark.parametrize("kind", ["random", "zero"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_rows_match_single_phase_bitwise(self, dim, kind):
        rng = np.random.default_rng(70 + dim)
        f = _function(kind, dim, rng)
        omega = rng.random(dim)
        for n in (1, 63, 64, 65, 400):
            width = 2 ** 15 // n            # samples per chunk of the kernel
            for theta in (0.0, np.pi, 2 * np.pi * rng.random()):
                z = SpectralPoint(theta)
                for count in (1, 2, 7, 300):
                    xs = rng.random((count, dim))
                    batch = transfer_product(f, omega, z, xs, n)
                    assert batch.matrix.shape == (count, 2, 2)
                    assert batch.log_norm2.shape == batch.u_n.shape == (count,)
                    rows = sorted({0, 1, count - 1, width - 1, width, width + 1}
                                  & set(range(count)))
                    for i in rows:
                        one = transfer_product(f, omega, z, Phase(tuple(xs[i])), n)
                        assert one.matrix.shape == (2, 2)
                        for got, want in zip(_fields(batch), _fields(one)):
                            assert np.array_equal(got[i], want)

    def test_batch_equals_its_halves_across_chunks(self, f_two_mode, freq2):
        rng = np.random.default_rng(80)
        z = SpectralPoint(1.3)
        xs = rng.random((300, 2))
        n = 400                             # 81 samples per chunk
        whole = _fields(transfer_product(f_two_mode, freq2, z, xs, n))
        halves = [_fields(transfer_product(f_two_mode, freq2, z, part, n))
                  for part in (xs[:150], xs[150:])]
        for i, got in enumerate(whole):
            assert np.array_equal(got, np.concatenate([h[i] for h in halves]))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_old_scalar_loop(self, dim):
        rng = np.random.default_rng(90 + dim)
        f = _function("random", dim, rng)
        omega = rng.random(dim)
        for n in (1, 17, 200):
            z = SpectralPoint(2 * np.pi * rng.random())
            xs = rng.random((20, dim))
            batch = transfer_product(f, omega, z, xs, n)
            for i, x in enumerate(xs):
                m, ln, ld, ln2 = _old_transfer_product(f, omega, z, Phase(tuple(x)), n)
                assert np.max(np.abs(batch.matrix[i] - m)) <= 1e-14
                assert abs(batch.log_norm[i] - ln) <= 1e-14 * max(1.0, abs(ln))
                assert abs(batch.log_det_abs[i] - ld) <= 1e-14 * max(1.0, abs(ld))
                assert abs(batch.log_norm2[i] - ln2) <= 1e-14 * max(1.0, abs(ln2))
                # the stacked norm rounds as the numpy-scalar formula
                assert batch.log_norm2[i] == _old_log_norm2(batch.matrix[i],
                                                            batch.log_norm[i])

    def test_strip_phases_match_old_scalar_loop(self, f_two_mode, freq2):
        rng = np.random.default_rng(95)
        for n in (1, 30, 120):
            z = SpectralPoint(2 * np.pi * rng.random())
            for _ in range(5):
                y = tuple((rng.random(2) - 0.5) * f_two_mode.strip_width * 0.4)
                x = Phase(tuple(rng.random(2)), imag=y)
                pr = transfer_product(f_two_mode, freq2, z, x, n)
                m, ln, ld, ln2 = _old_transfer_product(f_two_mode, freq2, z, x, n)
                assert np.max(np.abs(pr.matrix - m)) <= 1e-13
                for got, want in ((pr.log_norm, ln), (pr.log_det_abs, ld),
                                  (pr.log_norm2, ln2)):
                    assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    def test_checkpoints_read_from_the_kernel(self, f_two_mode, freq2):
        rng = np.random.default_rng(96)
        z = SpectralPoint(0.8)
        xs = rng.random((5, 2))
        marks = [1, 10, 63, 64, 65, 200]
        batch = transfer_log_norms(f_two_mode, freq2, z, xs, marks)
        for i, x in enumerate(xs):
            single = transfer_log_norms(f_two_mode, freq2, z, Phase(tuple(x)), marks)
            for n in marks:
                want = transfer_product(f_two_mode, freq2, z, Phase(tuple(x)), n).log_norm2
                assert single[n] == want
                assert batch[n][i] == want


class TestAvalancheReuse:
    @pytest.mark.parametrize("chain", [2, 5, 8, 11])
    def test_values_bitwise_from_chain_logs(self, f_two_mode, freq2, chain):
        # oracle: the per-sample reconstruction computed from the factors
        from cmvspec.cocycle import _norm2, transfer_product
        from cmvspec.util import counter_phases
        z, n0, levels, samples, seed = SpectralPoint(1.0), 20, 2, 12, 5
        est = lyapunov_avalanche(f_two_mode, freq2, z, n0, levels, samples,
                                 seed, chain=chain)
        om = freq2.array()
        n = n0 * 2 ** (levels - 1)
        jumps = np.arange(chain)[:, None] * n * om
        x = counter_phases(2, samples, seed, levels - 1)[:, None] + jumps
        pr = transfer_product(f_two_mode, om, z, reduce_phase(x.reshape(-1, 2)), n)
        vals = np.empty(samples)
        for s in range(samples):
            part = slice(s * chain, (s + 1) * chain)
            ms, logs = list(pr.matrix[part]), list(pr.log_norm[part])
            log_norms = [lg + np.log(_norm2(A)) for A, lg in zip(ms, logs)]
            pair_logs = [logs[j + 1] + logs[j] + np.log(_norm2(ms[j + 1] @ ms[j]))
                         for j in range(chain - 1)]
            vals[s] = (sum(pair_logs) - sum(log_norms[1:chain - 1])) / (chain * n)
        assert est.value == float(vals.mean())
        assert est.std_error == float(vals.std(ddof=1) / np.sqrt(samples))


# --------------------------------------------------------------------------
# many spectral points in one pass


def _thetas(count, rng):
    """count points, 0 and pi first, the rest random."""
    return [0.0, np.pi, *(2 * np.pi * rng.random(max(count - 2, 0)))][:count]


class TestManyPoints:
    """A sequence of K points runs every product of every point together."""

    @pytest.mark.parametrize("count", [1, 3, 16])
    def test_slices_match_single_point_bitwise(self, f_two_mode, freq2, count):
        from cmvspec.cocycle import _BLOCK
        _CHUNK = 2 ** 15                    # sample-steps of the old phase chunks
        rng = np.random.default_rng(200 + count)
        points = [SpectralPoint(t) for t in _thetas(count, rng)]
        strip = Phase((0.3, 0.7), imag=tuple(0.2 * f_two_mode.strip_width * np.ones(2)))
        cases = [
            (1, rng.random((_CHUNK // count + 1, 2))),   # N K crosses a chunk
            (400, rng.random((_CHUNK // 400 + 1, 2))),   # n crosses a chunk
            (_BLOCK // count + 1, rng.random((1, 2))),    # n crosses a block
            (65, rng.random((7, 2))),
            (65, Phase((0.1, 0.2))),
            (3, strip),
            (130, strip),
        ]
        for n, x in cases:
            batch = transfer_product(f_two_mode, freq2, points, x, n)
            shape = (count,) if isinstance(x, Phase) else (count, len(x))
            assert batch.matrix.shape == (*shape, 2, 2)
            assert batch.log_norm2.shape == batch.u_n.shape == shape
            for k, z in enumerate(points):
                one = transfer_product(f_two_mode, freq2, z, x, n)
                for got, want in zip(_fields(batch), _fields(one)):
                    assert np.array_equal(got[k], want), (n, k)

    def test_one_product_with_an_int_step_count(self, f_two_mode, freq2):
        points = [SpectralPoint(t) for t in (0.5, 2.0, 0.5)]
        xs = np.random.default_rng(1).random((4, 2))
        pr = transfer_product(f_two_mode, freq2, points, xs, 20)
        assert type(pr.n) is int and pr.n == 20
        assert pr.point == tuple(points)
        assert pr.matrix.shape == (3, 4, 2, 2)
        assert pr.log_det_abs.shape == (3, 4)
        with pytest.raises(ValueError):
            transfer_product(f_two_mode, freq2, [], Phase((0.1, 0.2)), 20)

    @pytest.mark.parametrize("samples", [1, 2, 50])
    def test_lyapunov_over_points_is_the_single_estimates(self, f_two_mode, freq2, samples):
        points = [SpectralPoint(t) for t in (0.0, np.pi, 1.0, 1.0, 5.5)]
        batch = lyapunov_finite(f_two_mode, freq2, points, 60, samples, seed=4)
        assert batch == [lyapunov_finite(f_two_mode, freq2, z, 60, samples, seed=4)
                         for z in points]
        assert isinstance(lyapunov_finite(f_two_mode, freq2, points[0], 60, samples, 4),
                          type(batch[0]))
