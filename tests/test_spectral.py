import numpy as np
import pytest

from cmvspec.cmv import VerblunskySequence, build_finite_cmv
from cmvspec import spectral
from cmvspec.spectral import (aligned_distance, decay_ratio, edge_value,
                              eigenphases, eigensolve, hermitian_eigenphases,
                              localization_profile, nearest_eigen,
                              nearest_eigenpair, perturb_eigen_check,
                              separation_gap)
from cmvspec.torus import Phase, SamplingFunction
from cmvspec.util import pad_vector
from cmvspec.presets import (constant_function, localization_example,
                             strong_coupling, two_mode, zero_function)


def haar_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture(scope="module")
def seq(freq2, f_two_mode):
    return VerblunskySequence(f_two_mode, freq2, Phase((0.37, 0.81)))


class TestEigensolve:
    def test_single_site(self, seq):
        pairs = eigensolve(build_finite_cmv(seq, 3, 3))
        assert len(pairs) == 1
        assert abs(abs(pairs[0].value) - 1.0) == 0.0

    def test_free_case_determinant_crosscheck(self, freq2):
        s = VerblunskySequence(zero_function(2), freq2, Phase((0.0, 0.0)))
        m = build_finite_cmv(s, 0, 15)
        pairs = eigensolve(m)
        assert all(abs(abs(p.value) - 1.0) < 1e-14 for p in pairs)
        prod = np.prod([p.value for p in pairs])
        det = np.linalg.det(m.dense())
        assert prod == pytest.approx(det, rel=1e-10)

    def test_residuals_and_ordering(self, seq):
        m = build_finite_cmv(seq, 0, 60)
        pairs = eigensolve(m)
        E = m.dense()
        assert all(p.residual <= 1e-10 for p in pairs)
        for p in pairs:
            assert np.linalg.norm(E @ p.vector - p.value * p.vector) <= 1e-10
        thetas = [p.theta for p in pairs]
        assert thetas == sorted(thetas)

    def test_eigenbasis_orthonormal(self, seq):
        m = build_finite_cmv(seq, 0, 199)
        pairs = eigensolve(m)
        U = np.column_stack([p.vector for p in pairs])
        assert np.max(np.abs(U.conj().T @ U - np.eye(200))) <= 1e-9

    def test_completeness(self, seq):
        m = build_finite_cmv(seq, 0, 49)
        pairs = eigensolve(m)
        prod = np.prod([p.value for p in pairs])
        assert prod == pytest.approx(np.linalg.det(m.dense()), rel=1e-8)

    def test_gauge_fixing(self, seq):
        pairs = eigensolve(build_finite_cmv(seq, 0, 20))
        for p in pairs:
            k = int(np.argmax(np.abs(p.vector)))
            assert p.vector[k].imag == pytest.approx(0.0, abs=1e-14)
            assert p.vector[k].real > 0

    def test_max_dim_guard(self, seq):
        with pytest.raises(ValueError):
            eigensolve(build_finite_cmv(seq, 0, 40), max_dim=30)

    def test_truncation_perturbation_bound(self, freq2, f_two_mode):
        # eigenvalues move at most ~8x the sup coefficient perturbation,
        # under phase-ordered pairing; 50 random base phases
        n = 40
        rng = np.random.default_rng(40)
        for _ in range(50):
            x = Phase(tuple(rng.random(2)))
            s1 = VerblunskySequence(f_two_mode, freq2, x)
            eps = 10.0 ** rng.uniform(-8, -5)
            bumped = SamplingFunction(2, {k: c * (1 + eps)
                                          for k, c in f_two_mode.coeffs.items()})
            s2 = VerblunskySequence(bumped, freq2, x)
            pairs = eigensolve(build_finite_cmv(s1, 0, n - 1))
            pairs2 = eigensolve(build_finite_cmv(s2, 0, n - 1))
            sup_diff = max(abs(s1.value(j) - s2.value(j)) for j in range(-1, n))
            moved = max(abs(p.value - q.value) for p, q in zip(pairs, pairs2))
            assert moved <= 8 * sup_diff + 1e-10


class TestNearestSeparation:
    def test_exact_hit(self, seq):
        pairs = eigensolve(build_finite_cmv(seq, 0, 10))
        p, dist = nearest_eigen(pairs, pairs[4].value)
        assert dist == 0.0 and p.index == 4

    def test_tie_break_lower_index(self):
        rng = np.random.default_rng(0)
        A = np.diag([np.exp(0.1j), np.exp(-0.1j), np.exp(2j)])
        pairs = eigensolve(A)
        p, dist = nearest_eigen(pairs, 1.0 + 0j)
        assert p.index == 0    # equidistant pair, lower phase index wins

    def test_brute_scan_agreement(self, seq):
        pairs = eigensolve(build_finite_cmv(seq, 0, 30))
        rng = np.random.default_rng(1)
        for _ in range(1000):
            z = np.exp(2j * np.pi * rng.random())
            p, dist = nearest_eigen(pairs, z)
            brute = min(abs(q.value - z) for q in pairs)
            assert dist == pytest.approx(brute, abs=1e-15)

    def test_separation_two_by_two(self):
        A = np.diag([np.exp(0.3j), np.exp(1.1j)])
        pairs = eigensolve(A)
        assert separation_gap(pairs, 0) == pytest.approx(
            abs(np.exp(0.3j) - np.exp(1.1j)))

    def test_degenerate_pair(self):
        pairs = eigensolve(np.eye(2, dtype=complex))
        assert separation_gap(pairs, 0) == 0.0

    def test_brute_double_loop(self, seq):
        pairs = eigensolve(build_finite_cmv(seq, 0, 29))
        for k in range(30):
            brute = min(abs(pairs[j].value - pairs[k].value)
                        for j in range(30) if j != k)
            assert separation_gap(pairs, k) == pytest.approx(brute, abs=1e-15)


class TestNearestEigenpair:
    """The banded nearest-eigenpair primitive against dense eigvals + argmin."""

    @staticmethod
    def windows(f, freq, sizes, per_size, seed):
        rng = np.random.default_rng(seed)
        for n in sizes:
            for _ in range(per_size):
                s = VerblunskySequence(f, freq, Phase(tuple(rng.random(2))))
                a = int(rng.integers(-n, 1))
                beta, eta = (complex(np.exp(2j * np.pi * rng.random()))
                             for _ in range(2))
                yield build_finite_cmv(s, a, a + n - 1, beta=beta, eta=eta), rng

    @pytest.mark.parametrize("n", [1, 2, 21, 91, 179])
    def test_matches_dense_argmin(self, freq2, f_two_mode, n):
        for m, rng in self.windows(f_two_mode, freq2, [n], 6, seed=n):
            w = eigenphases(m)
            k = int(rng.integers(0, n))
            targets = [np.exp(2j * np.pi * rng.random()) for _ in range(4)]
            if n >= 3:
                # inside the disc: the midpoint of two eigenvalues, the kind
                # of reference the root solver's bisection uses
                targets.append(0.5 * (w[k] + w[(k + 2) % n]))
            for z in targets:
                lam, vec, res = nearest_eigenpair(m, z)
                ref = w[int(np.argmin(np.abs(w - z)))]
                assert abs(lam - ref) <= 1e-12
                assert abs(abs(lam) - 1.0) <= 1e-14
                # normal window: dist(z, spec) <= |lam - z| + residual
                # (1e-14 covers rounding in the dense reference)
                assert np.min(np.abs(w - z)) <= abs(lam - z) + res + 1e-14
                if n < 3:
                    assert vec is None
                if vec is not None:
                    E = m.dense()
                    assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
                    assert np.linalg.norm(E @ vec - lam * vec) <= res + 1e-14

    @pytest.mark.parametrize("n", [2, 21, 91, 179])
    def test_bisector_takes_dense_fallback(self, freq2, f_two_mode, n):
        for m, rng in self.windows(f_two_mode, freq2, [n], 3, seed=100 + n):
            w = eigenphases(m)
            k = int(rng.integers(0, n))
            z = 0.5 * (w[k] + w[(k + 1) % n])      # equidistant from both
            lam, vec, res = nearest_eigenpair(m, z)
            assert vec is None and res == 0.0
            assert lam == w[int(np.argmin(np.abs(w - z)))]

    def test_rejects_pure_truncation(self, seq):
        from cmvspec.cmv import build_cut_cmv
        with pytest.raises(ValueError):
            nearest_eigenpair(build_cut_cmv(seq, 0, 10), 1.0 + 0j)


class TestHermitianEigenphases:
    """Spectra from the Hermitian part against the dense ``eigenphases``."""

    PRESETS = {"constant": lambda: constant_function(0.5, dim=1),
               "zero": lambda: zero_function(dim=1),
               "strong_coupling": strong_coupling,
               "localization": localization_example,
               "two_mode": two_mode}

    @pytest.mark.parametrize("complex_boundary", [False, True],
                             ids=["real-boundary", "complex-boundary"])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_matches_dense(self, freq1, freq2, preset, complex_boundary, monkeypatch):
        def no_fallback(*args):
            raise AssertionError("certificate failed, dense fallback taken")
        monkeypatch.setattr(spectral, "eigenphases", no_fallback)
        f = self.PRESETS[preset]()
        rng = np.random.default_rng(len(preset) + 7 * complex_boundary)
        for n in (3, 4, 5, 8, 21, 90, 161, 321):
            beta, eta = ((complex(np.exp(2j * np.pi * rng.random())) for _ in range(2))
                         if complex_boundary else (1.0 + 0j, 1.0 + 0j))
            s = VerblunskySequence(f, freq1 if f.dim == 1 else freq2,
                                   Phase(tuple(rng.random(f.dim))))
            m = build_finite_cmv(s, -(n // 2), n - 1 - n // 2, beta=beta, eta=eta)
            dense, fast = eigenphases(m), hermitian_eigenphases(m)
            assert np.max(np.abs(np.abs(fast) - 1.0)) <= 1e-15
            assert np.max(np.abs(fast - dense)) <= 1e-12

    def test_real_window_pairs_take_the_cluster_split(self, freq1, f_const, monkeypatch):
        # a real window's eigenvalues e^{+-i theta} share cos(theta)
        sizes = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda B: sizes.append(B.shape[-1]) or eigvals(B))
        m = build_finite_cmv(VerblunskySequence(f_const, freq1, Phase((0.3,))), 0, 40)
        hermitian_eigenphases(m)
        assert sizes and set(sizes) == {2}

    def test_failed_certificate_falls_back_to_dense(self, seq, monkeypatch):
        # the fallback has no size limit: eigenphases' default max_dim is not used
        monkeypatch.setattr(spectral.eigenphases, "__defaults__", (10,))
        m = build_finite_cmv(seq, 0, 60, beta=np.exp(0.4j), eta=np.exp(-1.3j))
        monkeypatch.setattr(spectral, "_RES_TOL", 0.0)
        assert np.array_equal(hermitian_eigenphases(m), eigenphases(m, m.size))

    def test_rejects_pure_truncation(self, seq):
        from cmvspec.cmv import build_cut_cmv
        with pytest.raises(ValueError):
            hermitian_eigenphases(build_cut_cmv(seq, 0, 10))


class TestEdgeValue:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 12])
    def test_four_outer_sites_at_each_end(self, n):
        # below 8 sites the two ends overlap and every site is outer
        rng = np.random.default_rng(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v[4:n - 4] = 10.0
        u = np.abs(v)
        assert edge_value(v) == max(u[s] for s in range(n) if s < 4 or s >= n - 4)


class TestLocalizationProfile:
    def test_delta_vector_passes(self):
        n0 = 8
        u = np.zeros(33, dtype=complex)
        u[16] = 1.0
        prof = localization_profile(u, (-16, 16), n0, gamma=2.0)
        assert prof.passes
        assert prof.center == 0

    def test_flat_vector_fails(self):
        u = np.ones(33, dtype=complex) / np.sqrt(33)
        prof = localization_profile(u, (-16, 16), 16, gamma=5.0)
        assert not prof.passes
        assert prof.worst_site is not None

    def test_fit_rate_synthetic(self):
        sites = np.arange(-20, 21)
        rate = 0.5
        u = np.exp(-rate * np.abs(sites)).astype(complex)
        prof = localization_profile(u, (-20, 20), 16, gamma=1.0)
        assert prof.fitted_rate == pytest.approx(rate, rel=1e-6)

    def test_majority_pass_strong_coupling(self, freq2):
        f = two_mode(0.475)
        s = VerblunskySequence(f, freq2, Phase((0.2, 0.6)))
        m = build_finite_cmv(s, -16, 16)
        pairs = eigensolve(m)
        gammas = 0.25          # representative in-band top-exponent scale
        passed = sum(localization_profile(p.vector, (-16, 16), 16, gammas).passes
                     for p in pairs)
        assert passed > len(pairs) / 2


class TestPadVector:
    def test_example_convention(self):
        xi = np.arange(1, 12, dtype=complex)           # sites -5..5
        ups = np.arange(1, 16, dtype=complex) * 10     # sites -7..7
        diff = ups - pad_vector(xi, (-5, 5), (-7, 7))
        assert diff[0] == 10 and diff[1] == 20          # untouched tails
        assert diff[2] == 30 - 1                        # aligned site -5
        assert diff[-1] == 150

    def test_rejects_non_containment(self):
        with pytest.raises(ValueError):
            pad_vector(np.zeros(5), (0, 4), (1, 10))


class TestPerturbCheck:
    def test_exact_eigenvector(self):
        rng = np.random.default_rng(2)
        A = haar_unitary(12, rng)
        pairs = eigensolve(A)
        p = pairs[3]
        rep = perturb_eigen_check(A, p.vector, p.value, 1e-8, 1e-3)
        assert rep.part_a_dist_ok and rep.part_a_overlap_ok
        assert rep.part_b_applicable
        assert rep.aligned_distance == pytest.approx(0.0, abs=1e-10)

    def test_perturbed_eigenvector_margin(self):
        rng = np.random.default_rng(3)
        A = haar_unitary(20, rng)
        pairs = eigensolve(A)
        p = pairs[7]
        phi = p.vector + 1e-6 * rng.standard_normal(20)
        phi = phi / np.linalg.norm(phi)
        res = np.linalg.norm(A @ phi - p.value * phi)
        rep = perturb_eigen_check(A, phi, p.value, eps_tilde=10 * res,
                                  eps_hat=0.05)
        assert rep.part_a_dist_ok and rep.part_a_overlap_ok
        assert rep.part_b_ok

    def test_two_eigenvalues_in_disk_refuses(self):
        rng = np.random.default_rng(4)
        A = haar_unitary(10, rng)
        pairs = eigensolve(A)
        p = pairs[0]
        rep = perturb_eigen_check(A, p.vector, p.value, 1e-8, eps_hat=2.5)
        assert not rep.part_b_applicable
        assert rep.isolated_count != 1

    def test_hypothesis_violation_raises(self):
        rng = np.random.default_rng(5)
        A = haar_unitary(8, rng)
        phi = np.zeros(8, dtype=complex)
        phi[0] = 1.0
        with pytest.raises(ValueError, match="hypothesis"):
            perturb_eigen_check(A, phi, np.exp(0.5j), 1e-12, 1e-3)


class TestMeasurementHelpers:
    def test_aligned_distance_ignores_a_unimodular_factor(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            v = rng.standard_normal(15) + 1j * rng.standard_normal(15)
            c = np.exp(2j * np.pi * rng.random())
            assert aligned_distance(v, c * v) == pytest.approx(0.0, abs=1e-13)
        e0, e1 = np.eye(2, dtype=complex)
        assert aligned_distance(e0, e1) == pytest.approx(np.sqrt(2.0), abs=1e-15)

    def test_aligned_distance_is_perturb_part_b(self, seq):
        A = build_finite_cmv(seq, -10, 10).dense()
        pairs = eigensolve(A)
        rng = np.random.default_rng(7)
        for p in pairs[::5]:
            phi = p.vector * np.exp(0.7j) + 1e-7 * rng.standard_normal(len(p.vector))
            phi = phi / np.linalg.norm(phi)
            res = np.linalg.norm(A @ phi - p.value * phi)
            eps_hat = 0.5 * separation_gap(pairs, p.index)
            rep = perturb_eigen_check(A, phi, p.value, 2 * res, eps_hat)
            assert rep.part_b_applicable
            assert rep.aligned_distance == aligned_distance(phi, p.vector)

    def test_decay_ratio_below_one_exactly_when_profile_passes(self, freq2):
        n0, interval = 12, (-16, 16)
        vectors = [p.vector for p in eigensolve(build_finite_cmv(
            VerblunskySequence(two_mode(0.475), freq2, Phase((0.2, 0.6))), -16, 16))]
        sites = np.abs(np.arange(-16, 17))
        on_bound = np.exp(-0.5 * sites / 20.0).astype(complex)
        vectors.append(on_bound)            # |u(s)| equals the bound: fails
        vectors.append(np.nextafter(on_bound.real, 0.0).astype(complex))
        outcomes = set()
        for u in vectors:
            for gamma in (0.05, 0.25, 0.5, 2.0):
                ratio = decay_ratio(u, interval, 3.0 * n0 / 4.0, gamma, 20.0)
                passes = localization_profile(u, interval, n0, gamma).passes
                assert (ratio < 1.0) == passes
                outcomes.add(passes)
        assert outcomes == {True, False}
        assert decay_ratio(on_bound, interval, 9.0, 0.5, 20.0) == 1.0
