import numpy as np
import pytest

from cmvspec.cmv import VerblunskySequence, apply_cmv, build_finite_cmv
from cmvspec import spectral
from cmvspec.coverage import interval_coverage_scan, nearest_eigen_banded
from cmvspec.spectral import eigenphases, eigensolve
from cmvspec.torus import Phase

FLOQUET_EDGE = np.pi / 3   # |tr M| <= 2 arc boundary for constant alpha=0.5


def floquet_band_oracle(theta, alpha=0.5):
    """Trace condition: z = e^{i theta} is in the spectrum iff
    |2 cos(theta/2)| <= sqrt(1 - alpha^2) (independent closed form)."""
    rho = np.sqrt(1 - alpha ** 2)
    return abs(np.cos(theta / 2.0)) <= rho


class TestNearestEigenBanded:
    def test_matches_dense(self, f_two_mode, freq2):
        seq = VerblunskySequence(f_two_mode, freq2, Phase((0.37, 0.81)))
        m = build_finite_cmv(seq, -40, 40)
        w = eigenphases(m)
        rng = np.random.default_rng(0)
        for _ in range(10):
            z = np.exp(2j * np.pi * rng.random())
            lam, vec, res = nearest_eigen_banded(m, z)
            certified = abs(lam - z) + res
            exact = float(np.min(np.abs(w - z)))
            assert certified >= exact - 1e-12
            if res < 1e-9:
                assert abs(lam - z) == pytest.approx(exact, abs=1e-9)

    def test_eigenvector_quality(self, f_two_mode, freq2):
        seq = VerblunskySequence(f_two_mode, freq2, Phase((0.37, 0.81)))
        m = build_finite_cmv(seq, -30, 30)
        w = eigenphases(m)
        lam, vec, res = nearest_eigen_banded(m, complex(w[10]))
        assert res < 1e-10
        E = m.dense()
        assert np.linalg.norm(E @ vec - lam * vec) < 1e-9


class TestCoverageScan:
    def test_free_case_full_circle(self, f_zero, freq1):
        scan = interval_coverage_scan(f_zero, freq1, (0.0, 2 * np.pi),
                                      grid=48, window=40, tol=0.08,
                                      phase_samples=1, seed=0)
        assert scan.covered_fraction == 1.0
        assert len(scan.covered_arcs) == 1

    def test_constant_alpha_gap(self, f_const, freq1):
        scan = interval_coverage_scan(f_const, freq1, (0.0, 2 * np.pi),
                                      grid=180, window=120, tol=0.03,
                                      phase_samples=1, seed=0)
        arcs = scan.covered_arcs
        assert len(arcs) == 1
        lo, hi = arcs[0]
        assert lo == pytest.approx(FLOQUET_EDGE, abs=0.05)
        assert hi == pytest.approx(5 * FLOQUET_EDGE, abs=0.05)
        # verdicts agree with the independent trace-condition oracle away
        # from the band edges
        for p in scan.points:
            edge_dist = min(abs(p.theta - FLOQUET_EDGE),
                            abs(p.theta - 5 * FLOQUET_EDGE))
            if edge_dist > 0.1:
                assert p.covered == floquet_band_oracle(p.theta)

    def test_verdict_stable_under_doubling(self, f_two_mode, freq2):
        # seeded snapshot: deterministic agreement of 38/40 grid verdicts
        kw = dict(grid=40, tol=0.05, phase_samples=10, seed=0)
        small = interval_coverage_scan(f_two_mode, freq2, (2.0, 3.0),
                                       window=40, **kw)
        large = interval_coverage_scan(f_two_mode, freq2, (2.0, 3.0),
                                       window=80, **kw)
        agree = sum(a.covered == b.covered
                    for a, b in zip(small.points, large.points))
        assert agree >= 0.95 * len(small.points)

    def test_partial_arc(self, f_const, freq1):
        scan = interval_coverage_scan(f_const, freq1, (2.0, 3.0), grid=20,
                                      window=60, tol=0.05, phase_samples=1,
                                      seed=0)
        assert all(p.covered for p in scan.points)   # inside the band

    def test_no_window_size_limit(self, f_const, freq1, monkeypatch):
        # the seed spectra, dense fallback included, ignore eigenphases' max_dim
        monkeypatch.setattr(spectral.eigenphases, "__defaults__", (10,))
        monkeypatch.setattr(spectral, "_RES_TOL", 0.0)
        scan = interval_coverage_scan(f_const, freq1, (2.0, 3.0), grid=20,
                                      window=60, tol=0.05, phase_samples=1,
                                      seed=0)
        assert all(p.covered for p in scan.points)

    def test_grid_guard(self, f_const, freq1):
        with pytest.raises(ValueError):
            interval_coverage_scan(f_const, freq1, (0.0, 1.0), grid=1,
                                   window=10, tol=0.1)

    def test_deterministic(self, f_two_mode, freq2):
        kw = dict(grid=16, window=30, tol=0.05, phase_samples=3, seed=5)
        a = interval_coverage_scan(f_two_mode, freq2, (1.0, 2.0), **kw)
        b = interval_coverage_scan(f_two_mode, freq2, (1.0, 2.0), **kw)
        assert [(p.theta, p.covered, p.best_dist) for p in a.points] == \
               [(p.theta, p.covered, p.best_dist) for p in b.points]


@pytest.fixture(scope="module")
def readme_window(f_const, freq1):
    """The README scan's window: 801 sites, constant alpha = 0.5, golden
    frequency, the phase of seed 0, with its dense spectrum."""
    from cmvspec.util import counter_rng
    x = Phase(tuple(counter_rng(0, 0).random(1)))
    m = build_finite_cmv(VerblunskySequence(f_const, freq1, x), -400, 400)
    return m, eigenphases(m)


def _edge(vec):
    u = np.abs(vec)
    return float(max(u[:4].max(), u[-4:].max()))


def _counted_solves(monkeypatch, fail_first=False):
    """Count (and optionally make the first one raise) the coverage solves."""
    import cmvspec.coverage as cov
    calls = []
    solve = cov.solve_banded

    def counted(*args, **kwargs):
        calls.append(1)
        if fail_first and len(calls) == 1:
            raise np.linalg.LinAlgError("singular matrix")
        return solve(*args, **kwargs)

    monkeypatch.setattr(cov, "solve_banded", counted)
    return calls


class TestInverseIteration:
    def test_readme_window_at_e2i(self, readme_window):
        # (z L* - M)^{-1} alone left this pair at distance 1.35, residual 1.06
        m, w = readme_window
        z = np.exp(2j)
        exact = float(np.min(np.abs(w - z)))
        lam, vec, res = nearest_eigen_banded(m, z)
        assert abs(lam - z) + res >= exact - 1e-14
        assert res < 1e-9
        assert abs(lam - w[int(np.argmin(np.abs(w - z)))]) < 1e-9
        assert np.linalg.norm(apply_cmv(m, vec) - lam * vec) <= res + 1e-14

    @pytest.mark.parametrize("window", [30, 60])
    def test_dense_shift_converges_in_three_steps(self, f_two_mode, freq2,
                                                  window, monkeypatch):
        seq = VerblunskySequence(f_two_mode, freq2, Phase((0.37, 0.81)))
        m = build_finite_cmv(seq, -window, window)
        pairs = eigensolve(m)
        calls = _counted_solves(monkeypatch)
        for p in pairs[::7]:
            calls.clear()
            lam, vec, res = nearest_eigen_banded(m, p.value)
            assert len(calls) <= 3
            assert res < 1e-10 and abs(lam - p.value) < 1e-12
            assert _edge(vec) == pytest.approx(_edge(p.vector), abs=1e-10)

    def test_readme_edge_values_match_dense(self, readme_window, monkeypatch):
        m, w = readme_window
        calls = _counted_solves(monkeypatch)
        E = m.dense()
        for k in (0, 150, 400, 650):
            calls.clear()
            lam, vec, res = nearest_eigen_banded(m, w[k])
            assert len(calls) <= 3 and res < 1e-10
            assert np.linalg.norm(E @ vec - w[k] * vec) < 1e-9

    def test_singular_solve_recovers_a_vector(self, f_two_mode, freq2,
                                              monkeypatch):
        seq = VerblunskySequence(f_two_mode, freq2, Phase((0.37, 0.81)))
        m = build_finite_cmv(seq, -30, 30)
        p = eigensolve(m)[12]
        calls = _counted_solves(monkeypatch, fail_first=True)
        lam, vec, res = nearest_eigen_banded(m, p.value)
        assert len(calls) > 1
        assert vec is not None and res < 1e-10
        assert abs(lam - p.value) < 1e-12
        assert abs(np.vdot(vec, p.vector)) == pytest.approx(1.0, abs=1e-10)
        assert _edge(vec) == pytest.approx(_edge(p.vector), abs=1e-10)


def _window_builder(f, omega, n):
    """The scan's ``build_at`` for the window [-n, n]."""
    from cmvspec.torus import reduce_phase

    def build_at(coords):
        seq = VerblunskySequence(f, omega, reduce_phase(coords))
        return build_finite_cmv(seq, -n, n)
    return build_at


def _counted_probes(monkeypatch):
    """Record the window of every coverage ``nearest_eigen_banded`` call."""
    import cmvspec.coverage as cov
    windows = []
    probe = cov.nearest_eigen_banded

    def counted(m, *args, **kwargs):
        windows.append(m.alpha.tobytes())
        return probe(m, *args, **kwargs)

    monkeypatch.setattr(cov, "nearest_eigen_banded", counted)
    return windows


class TestRefineProbeCache:
    def test_constant_alpha_refine_reuses_the_seed(self, readme_window,
                                                   f_const, freq1,
                                                   monkeypatch):
        # every phase gives the same window: no probe can beat the seed
        from cmvspec.coverage import _refine
        from cmvspec.util import counter_rng
        m, w = readme_window
        tol = 0.0125
        z = np.exp(1j * (FLOQUET_EDGE - 0.05))      # in the gap
        k = int(np.argmin(np.abs(w - z)))
        d0, lam0 = float(abs(w[k] - z)), w[k]
        assert tol < d0 <= 16 * tol
        x0 = counter_rng(0, 0).random(1)
        windows = _counted_probes(monkeypatch)
        x, d, mm, lam = _refine(_window_builder(f_const, freq1, 400), z, x0,
                                d0, m, lam0)
        assert windows == []
        assert x is x0 and d == d0 and mm is m and lam == lam0

    def test_one_probe_per_distinct_window(self, f_two_mode, freq2,
                                           monkeypatch):
        from cmvspec.coverage import _refine
        x0 = np.array([0.37, 0.81])
        build = _window_builder(f_two_mode, freq2, 40)
        built = []

        def build_at(coords):
            m = build(coords)
            built.append(m.alpha.tobytes())
            return m

        m0 = build(x0)
        w = eigenphases(m0)
        z = np.exp(0.5j)
        k = int(np.argmin(np.abs(w - z)))
        windows = _counted_probes(monkeypatch)
        _refine(build_at, z, x0, float(abs(w[k] - z)), m0, w[k])
        seed = m0.alpha.tobytes()
        assert len(built) > 17                      # the bisection ran
        assert seed in built and seed not in windows
        assert len(windows) == len(set(windows))
        assert set(windows) == set(built) - {seed}


def test_refine_sign_matches_nearest_eigenpair(f_two_mode, freq2):
    # the bisection in _refine reads the sign of wrap(arg lam - theta) of
    # its banded probes; where they converge it must be the sign of the
    # nearest eigenvalue, and |lam - z| + res must bound the true distance
    from cmvspec.spectral import nearest_eigenpair
    from cmvspec.util import phase_of, wrap_angle
    rng = np.random.default_rng(7)
    ts = np.linspace(-0.5, 0.5, 17)
    checked = 0
    for n in (20, 40):
        build_at = _window_builder(f_two_mode, freq2, n)
        for _ in range(4):
            x0 = rng.random(2)
            z = np.exp(2j * np.pi * rng.random())
            theta = phase_of(z)
            for t in ts:
                m = build_at(np.array([x0[0], x0[1] + t]))
                lam, _, res = nearest_eigen_banded(m, z)
                if res >= 1e-9:
                    continue
                oracle = nearest_eigenpair(m, z)[0]
                assert np.sign(wrap_angle(phase_of(lam) - theta)) == \
                    np.sign(wrap_angle(phase_of(oracle) - theta))
                exact = float(np.min(np.abs(eigenphases(m) - z)))
                assert abs(lam - z) + res >= exact - 1e-12
                checked += 1
    assert checked >= 40
