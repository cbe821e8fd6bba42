import numpy as np
import pytest

from cmvspec.cmv import (VerblunskySequence, apply_cmv, build_cut_cmv,
                         build_finite_cmv, cmv_row_window, theta_block)
from cmvspec.torus import Phase, SamplingFunction
from cmvspec.presets import zero_function

from conftest import random_unit


class TestThetaBlock:
    def test_swap_matrix(self):
        assert np.array_equal(theta_block(0.0), np.array([[0, 1], [1, 0]]))

    def test_boundary_value(self):
        b = theta_block(1.0)
        assert np.allclose(b, np.array([[1, 0], [0, -1]]))

    def test_three_four_five(self):
        b = theta_block(0.6j)
        assert np.allclose(b, np.array([[-0.6j, 0.8], [0.8, -0.6j]]))

    def test_unitary(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = rng.random() * np.exp(2j * np.pi * rng.random())
            b = theta_block(a)
            assert np.max(np.abs(b.conj().T @ b - np.eye(2))) < 1e-14

    def test_rejects_outside_disk(self):
        with pytest.raises(ValueError):
            theta_block(1.5)


def reference_dense_assembly(values: dict, a: int, b: int) -> np.ndarray:
    """Slow independent assembler: dense block factors multiplied directly.

    values must cover sites [a-1, b] with boundary replacements already
    applied; rho is recomputed per site.
    """
    n = b - a + 1
    L = np.zeros((n, n), dtype=complex)
    M = np.zeros((n, n), dtype=complex)
    for n0 in range(a - 1, b + 1):
        al = values[n0]
        rh = np.sqrt(max(0.0, 1.0 - abs(al) ** 2))
        blk = np.array([[np.conj(al), rh], [rh, -al]])
        T = L if n0 % 2 == 0 else M
        for di in range(2):
            for dj in range(2):
                i, j = n0 + di, n0 + dj
                if a <= i <= b and a <= j <= b:
                    T[i - a, j - a] += blk[di, dj]
    return L @ M


@pytest.fixture(scope="module")
def seq(freq2, f_two_mode):
    return VerblunskySequence(f_two_mode, freq2, Phase((0.13, 0.71)))


class TestBuildFiniteCMV:
    def test_free_case_entries(self, freq2):
        f0 = zero_function(2)
        s = VerblunskySequence(f0, freq2, Phase((0.0, 0.0)))
        m = build_finite_cmv(s, 0, 3, beta=1.0, eta=1.0)
        E = m.dense()
        assert np.max(np.abs(E.conj().T @ E - np.eye(4))) < 1e-14
        vals = np.unique(np.round(E.real, 12))
        assert set(vals).issubset({-1.0, 0.0, 1.0})
        assert np.max(np.abs(E.imag)) == 0.0

    def test_unitarity_random(self, seq):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = int(rng.integers(-30, 30))
            b = a + int(rng.integers(0, 60))
            beta, eta = random_unit(rng), random_unit(rng)
            m = build_finite_cmv(seq, a, b, beta=beta, eta=eta)
            E = m.dense()
            n = m.size
            assert np.max(np.abs(E.conj().T @ E - np.eye(n))) <= 1e-12

    def test_matches_reference_assembler(self, seq):
        a, b = 0, 20
        values = {n: seq.value(n) for n in range(a - 2, b + 2)}
        values[a - 1] = 1.0 + 0j
        values[b] = 1.0 + 0j
        ref = reference_dense_assembly(values, a, b)
        E = build_finite_cmv(seq, a, b, beta=1.0, eta=1.0).dense()
        assert np.max(np.abs(E - ref)) < 1e-14

    def test_factorization(self, seq):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = int(rng.integers(-20, 10))
            b = a + int(rng.integers(0, 40))
            beta, eta = random_unit(rng), random_unit(rng)
            m = build_finite_cmv(seq, a, b, beta=beta, eta=eta)
            E = m.dense()
            assert np.max(np.abs(E - m.l_dense() @ m.m_dense())) <= 1e-13

    def test_pentadiagonal(self, seq):
        m = build_finite_cmv(seq, 0, 30)
        E = m.dense()
        for i in range(31):
            for j in range(31):
                if abs(i - j) > 2:
                    assert E[i, j] == 0

    def test_single_site(self, seq):
        beta, eta = np.exp(0.3j), np.exp(-0.7j)
        m = build_finite_cmv(seq, 5, 5, beta=beta, eta=eta)
        assert m.dense()[0, 0] == pytest.approx(-np.conj(eta) * beta)

    def test_shift_covariance(self, seq, freq2, f_two_mode):
        # parity-preserving shift: the block pattern is 2-periodic in the
        # site index, so covariance holds entrywise for even translations
        shifted = VerblunskySequence(f_two_mode, freq2, seq.phase_at(2))
        m1 = build_finite_cmv(seq, 2, 22, beta=np.exp(0.2j), eta=np.exp(1.1j))
        m2 = build_finite_cmv(shifted, 0, 20, beta=np.exp(0.2j), eta=np.exp(1.1j))
        assert np.max(np.abs(m1.dense() - m2.dense())) < 1e-13

    def test_rejects_non_unit_boundary(self, seq):
        with pytest.raises(ValueError):
            build_finite_cmv(seq, 0, 5, beta=0.5, eta=1.0)

    def test_overrides_must_be_unimodular(self, freq2, f_two_mode):
        with pytest.raises(ValueError):
            VerblunskySequence(f_two_mode, freq2, Phase((0.1, 0.2)),
                               overrides={3: 0.7})


class TestApply:
    def test_basis_vector(self, seq):
        m = build_finite_cmv(seq, 0, 10)
        E = m.dense()
        e0 = np.zeros(11, dtype=complex)
        e0[0] = 1.0
        assert np.allclose(apply_cmv(m, e0), E[:, 0])

    def test_zero_vector(self, seq):
        m = build_finite_cmv(seq, 0, 10)
        assert np.all(apply_cmv(m, np.zeros(11)) == 0)

    def test_dense_multiply_oracle(self, seq):
        m = build_finite_cmv(seq, -5, 44)
        E = m.dense()
        rng = np.random.default_rng(7)
        for _ in range(10):
            v = rng.standard_normal(50) + 1j * rng.standard_normal(50)
            assert np.max(np.abs(apply_cmv(m, v) - E @ v)) <= 1e-13 * np.max(np.abs(v))

    def test_block_is_column_by_column(self, seq):
        m = build_finite_cmv(seq, -5, 44)
        rng = np.random.default_rng(8)
        V = rng.standard_normal((50, 7)) + 1j * rng.standard_normal((50, 7))
        block = apply_cmv(m, V)
        for k in range(7):
            assert np.array_equal(block[:, k], apply_cmv(m, V[:, k]))
        with pytest.raises(ValueError):
            apply_cmv(m, V[:40])

    def test_dimension_mismatch(self, seq):
        m = build_finite_cmv(seq, 0, 10)
        with pytest.raises(ValueError):
            apply_cmv(m, np.zeros(5))


class TestRowWindow:
    def test_free_case(self, freq2):
        f0 = zero_function(2)
        s = VerblunskySequence(f0, freq2, Phase((0.0, 0.0)))
        W = cmv_row_window(s, 0, 3)
        # all rho = 1: entries are 0 or 1, one pair-swap target per row
        assert set(np.unique(np.round(W.real, 12))).issubset({0.0, 1.0})
        assert np.allclose(np.abs(W).sum(axis=1), 1.0)

    def test_constant_alpha_display_pattern(self, freq2):
        # constant alpha: diagonal entries are -conj(a) a for every row
        a = 0.4 + 0.2j
        f = SamplingFunction(2, {(0, 0): a})
        s = VerblunskySequence(f, freq2, Phase((0.0, 0.0)))
        W = cmv_row_window(s, 4, 2)
        rows = np.arange(2, 7)
        for i, n in enumerate(rows):
            assert W[i, n - 2 + 2] == pytest.approx(-np.conj(a) * a)

    def test_interior_consistency_with_truncation(self, seq):
        center, w = 8, 3
        W = cmv_row_window(seq, center, w)
        m = build_finite_cmv(seq, center - w - 4, center + w + 4)
        E = m.dense()
        for i, n in enumerate(range(center - w, center + w + 1)):
            for j, col in enumerate(range(center - w - 2, center + w + 3)):
                assert W[i, j] == pytest.approx(
                    E[n - (center - w - 4), col - (center - w - 4)], abs=1e-15)

    def test_rejects_small_width(self, seq):
        with pytest.raises(ValueError):
            cmv_row_window(seq, 0, 1)


def test_interior_rows_of_truncation_match_extended(seq):
    m = build_finite_cmv(seq, 0, 20, beta=np.exp(2.2j), eta=np.exp(0.4j))
    E = m.dense()
    W = cmv_row_window(seq, 10, 5)   # rows 5..15, cols 3..17
    for i, n in enumerate(range(5, 16)):
        for j, col in enumerate(range(3, 18)):
            assert E[n, col] == pytest.approx(W[i, j], abs=1e-15)


def test_csv_export(tmp_path, seq):
    m = build_finite_cmv(seq, 0, 6)
    path = tmp_path / "cmv.csv"
    m.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "row,col,re,im"
    E = m.dense()
    for line in lines[1:]:
        r, c, re, im = line.split(",")
        assert E[int(r), int(c)] == complex(float(re), float(im))


def theta_factors(seq: VerblunskySequence, a: int, b: int, beta, eta):
    """Dense L and M of the [a, b] window from per-site theta blocks.

    The blocks of sites a-1 and b are cut to their corner inside the
    window; beta/eta None keep the sampled coefficient there.
    """
    n = b - a + 1
    L = np.zeros((n, n), dtype=complex)
    M = np.zeros((n, n), dtype=complex)
    for s in range(a - 1, b + 1):
        al = seq.value(s)
        if s == a - 1 and beta is not None:
            al = beta
        if s == b and eta is not None:
            al = eta
        blk = theta_block(al)
        lo, hi = max(s, a), min(s + 1, b)
        T = L if s % 2 == 0 else M
        T[lo - a:hi - a + 1, lo - a:hi - a + 1] = blk[lo - s:hi - s + 1, lo - s:hi - s + 1]
    return L, M


def _random_windows(rng, count):
    """(a, b, beta, eta) with |a| up to 10^4, unimodular or natural cuts."""
    out = []
    for k in range(count):
        a = int(rng.integers(-10_000, 10_000))
        b = a + int(rng.integers(0, 40))
        if k % 3 == 2:
            beta, eta = None, None
        else:
            beta, eta = random_unit(rng), random_unit(rng)
        out.append((a, b, beta, eta))
    return out


def _build(seq, a, b, beta, eta):
    if beta is None:
        return build_cut_cmv(seq, a, b)
    return build_finite_cmv(seq, a, b, beta=beta, eta=eta)


class TestArrayLayer:
    """Whole-window coefficient arrays against per-site references."""

    def test_values_match_single_sites(self, seq, freq2, f_two_mode):
        ov = VerblunskySequence(f_two_mode, freq2, Phase((0.4, 0.9)),
                                overrides={3: 1j, -2: -1.0})
        for s in (seq, ov):
            vals = s.values(-5, 9_990)
            raw = s.raw_values(-5, 9_990)
            for n in list(range(-5, 30)) + list(range(9_960, 9_991)):
                assert vals[n + 5] == s.value(n)
                assert raw[n + 5] == s.raw_value(n)
        assert ov.values(-3, 4)[[1, 6]].tolist() == [-1.0, 1j]
        assert ov.raw_values(3, 3)[0] == seq.sampling.alpha(ov.phase_at(3))

    def test_dense_and_factors_match_theta_blocks(self, seq):
        rng = np.random.default_rng(11)
        for a, b, beta, eta in _random_windows(rng, 30):
            m = _build(seq, a, b, beta, eta)
            L, M = theta_factors(seq, a, b, beta, eta)
            assert np.max(np.abs(m.l_dense() - L)) <= 1e-13
            assert np.max(np.abs(m.m_dense() - M)) <= 1e-13
            assert np.max(np.abs(m.dense() - L @ M)) <= 1e-13
            assert np.max(np.abs(m.l_dense() @ m.m_dense() - L @ M)) <= 1e-13

    def test_zlstar_minus_m_banded(self, seq):
        rng = np.random.default_rng(12)
        for a, b, beta, eta in _random_windows(rng, 30):
            m = _build(seq, a, b, beta, eta)
            L, M = theta_factors(seq, a, b, beta, eta)
            z = complex(rng.standard_normal() + 1j * rng.standard_normal())
            ab = m.zlstar_minus_m_banded(z)
            n = m.size
            dense = np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)
            assert np.max(np.abs(dense - (z * L.conj().T - M))) <= 1e-13 * max(1.0, abs(z))
            assert ab[0, 0] == 0 and ab[2, n - 1] == 0

    def test_row_window_matches_wider_window(self, seq):
        rng = np.random.default_rng(13)
        for _ in range(20):
            center = int(rng.integers(-10_000, 10_000))
            w = int(rng.integers(2, 12))
            W = cmv_row_window(seq, center, w)
            lo = center - w - 2 - int(rng.integers(0, 4))
            hi = center + w + 2 + int(rng.integers(0, 4))
            E = build_cut_cmv(seq, lo, hi).dense()
            rows = slice(center - w - lo, center + w - lo + 1)
            cols = slice(center - w - 2 - lo, center + w + 2 - lo + 1)
            assert np.max(np.abs(W - E[rows, cols])) <= 1e-15

    def test_log_rho_sum_matches_per_site_sum(self, seq):
        rng = np.random.default_rng(14)
        for _ in range(10):
            a = int(rng.integers(-10_000, 10_000))
            b = a + int(rng.integers(0, 500))
            per_site = sum(np.log(seq.raw_rho(n)) for n in range(a, b + 1))
            assert abs(seq.log_rho_sum(a, b) - per_site) <= 1e-12 * max(1.0, abs(per_site))
        assert seq.log_rho_sum(5, 4) == 0.0

    def test_single_site_factors(self, seq):
        beta, eta = np.exp(0.3j), np.exp(-0.7j)
        m = build_finite_cmv(seq, 5, 5, beta=beta, eta=eta)
        assert m.l_dense()[0, 0] == pytest.approx(-beta)        # site 4 even: -alpha_{a-1}
        assert m.m_dense()[0, 0] == pytest.approx(np.conj(eta))  # site 5 odd: conj(alpha_b)
        assert m.zlstar_minus_m_banded(2.0)[1, 0] == pytest.approx(
            2.0 * np.conj(-beta) - np.conj(eta))


class TestUnimodularRho:
    """rho is exactly 0 wherever a unimodular value replaces the sample."""

    def test_overridden_sites(self, freq2, f_two_mode):
        rng = np.random.default_rng(130)
        s = VerblunskySequence(f_two_mode, freq2, Phase((0.3, 0.6)))
        for n in range(2000):
            s.set_override(n, random_unit(rng))
            assert s.rho(n) == 0.0
        assert s.rho(-1) == s.raw_rho(-1) > 0.0

    def test_window_cut_sites(self, seq):
        rng = np.random.default_rng(131)
        for a, b, beta, eta in _random_windows(rng, 300):
            m = _build(seq, a, b, beta, eta)
            if beta is None:
                assert m.rho[0] == seq.raw_rho(a - 1) and m.rho[-1] == seq.raw_rho(b)
            else:
                assert m.rho[0] == 0.0 and m.rho[-1] == 0.0
            assert np.array_equal(m.sampled_rho,
                                  [seq.raw_rho(k) for k in range(a, b + 1)])
