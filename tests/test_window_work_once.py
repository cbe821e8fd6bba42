"""Per-window work of the coverage scan done once per window.

The scan's probe builder returns a seed window when the probe's
coefficients are that window's, so no seed window is assembled again; the
edge probe reads L*'s band and its first right-hand side from the window;
``hermitian_eigenphases`` certifies its clusters in stacked chunks.  Each
result equals, bit for bit, the per-call loop it replaces, kept here as the
reference.
"""

import itertools

import numpy as np
import pytest
from scipy.linalg import eigh, eigh_tridiagonal, solve_banded

import cmvspec.coverage as cov
from cmvspec import spectral
from cmvspec.cmv import VerblunskySequence, apply_cmv, build_finite_cmv
from cmvspec.coverage import interval_coverage_scan, nearest_eigen_banded
from cmvspec.spectral import eigenphases, hermitian_eigenphases, rayleigh_value
from cmvspec.torus import Phase, SamplingFunction


# -- references: the per-cluster and per-call loops ---------------------------

def _reference_split(m, H):
    halves, values = [], []
    for rows, weights in m.reflection_halves():
        k = rows.shape[1]
        if k == 0:
            continue
        d = np.einsum("aj,bj,abj->j", weights, weights, H[rows[:, None], rows[None]])
        e = np.einsum("aj,bj,abj->j", weights[:, :-1], weights[:, 1:],
                      H[rows[:, None, :-1], rows[None, :, 1:]])
        vals, W = eigh_tridiagonal(d, e, check_finite=False)
        halves += [(rows, weights, W[:, j]) for j in range(k)]
        values.append(vals)
    h = np.concatenate(values)
    order = np.argsort(h, kind="stable")

    def columns(s, e):
        V = np.zeros((len(h), e - s))
        for t, j in enumerate(order[s:e]):
            rows, weights, w = halves[j]
            V[rows[0], t] = weights[0] * w
            V[rows[1], t] += weights[1] * w
        return V

    return h[order], columns


def reference_eigenphases(m):
    """``hermitian_eigenphases`` with one certificate per cluster."""
    n = m.size
    H = m.dense()
    for off in range(3):
        rows = np.arange(n - off)
        h = 0.5 * (H[rows, rows + off] + np.conj(H[rows + off, rows]))
        H[rows, rows + off] = h
        H[rows + off, rows] = np.conj(h)
    if m.alpha.imag.any():
        h, V = eigh(H.T, overwrite_a=True, driver="evr", check_finite=False)
        np.conjugate(V, out=V)
        columns = lambda s, e: V[:, s:e]
    else:
        h, columns = _reference_split(m, H.real)
    bounds = np.r_[0, np.flatnonzero(np.diff(h) > spectral._GAP_TOL) + 1, n]
    w = np.empty(n, dtype=complex)
    for s, e in zip(bounds[:-1], bounds[1:]):
        Vc = columns(s, e)
        EV = apply_cmv(m, Vc)
        B = Vc.conj().T @ EV
        if not np.linalg.norm(EV - Vc @ B) <= spectral._RES_TOL:
            return eigenphases(m, n)
        w[s:e] = B[0, 0] if e - s == 1 else np.linalg.eigvals(B)
    return spectral._on_circle_by_phase(w)


def reference_probe(m, z):
    """``nearest_eigen_banded`` with L*, its start vector and the first
    right-hand side formed afresh, and checked solves."""
    n = m.size
    diag, off = m._factors[0]
    ls = np.array([np.r_[0.0, off], np.conj(diag), np.r_[off, 0.0]])
    shift = z
    ab = m.zlstar_minus_m_banded(shift)
    rng = np.random.default_rng(1234)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam, res = z, np.inf
    for it in range(cov._PROBE_ITERS):
        rhs = ls[1] * v
        rhs[:-1] += ls[0, 1:] * v[1:]
        rhs[1:] += ls[2, :-1] * v[:-1]
        try:
            with np.errstate(divide="ignore", invalid="ignore"):
                w = solve_banded((1, 1), ab, rhs)
        except np.linalg.LinAlgError:
            w = np.zeros(n)
        nrm = np.linalg.norm(w)
        if not np.isfinite(nrm) or nrm == 0:
            shift *= 1.0 + 8.0 * np.finfo(float).eps
            ab = m.zlstar_minus_m_banded(shift)
            continue
        v = w / nrm
        if it >= 2 or nrm * cov._PROBE_RES_TOL > 1.0:
            lam, res = rayleigh_value(v, apply_cmv(m, v))
            if res < cov._PROBE_RES_TOL:
                break
    return lam, v, res


# -- windows ------------------------------------------------------------------

F_REAL = SamplingFunction(dim=1, coeffs={(1,): 0.3, (-1,): 0.3})    # 0.6 cos 2 pi x


def _window(kind, n, parity, boundary, f_two_mode, freq1, freq2):
    if kind == "real":
        seq = VerblunskySequence(F_REAL, freq1, Phase((0.3,)))
    else:
        seq = VerblunskySequence(f_two_mode, freq2, Phase((0.37, 0.81)))
    a = parity - 2 * (n // 4)
    beta, eta = boundary
    return build_finite_cmv(seq, a, a + n - 1, beta=beta, eta=eta)


# real and complex boundary values; a complex one sends a real window to the
# complex branch, and a one-site window has only its boundary values
CASES = list(itertools.product(("real", "complex"), (1, 2, 3, 21, 161), (0, 1),
                               ((1.0, 1.0), (-1.0, 1.0), (1j, 0.6 + 0.8j))))


@pytest.mark.parametrize("kind,n,parity,boundary", CASES)
def test_eigenphases_equal_the_per_cluster_loop(kind, n, parity, boundary,
                                                f_two_mode, freq1, freq2):
    m = _window(kind, n, parity, boundary, f_two_mode, freq1, freq2)
    complex_branch = (kind == "complex" and n > 1) or bool(np.imag(boundary).any())
    assert bool(m.alpha.imag.any()) == complex_branch
    assert np.array_equal(hermitian_eigenphases(m), reference_eigenphases(m))


def test_eigenphases_of_the_readme_window(f_const, freq1):
    x = Phase((0.3,))
    m = build_finite_cmv(VerblunskySequence(f_const, freq1, x), -400, 400)
    assert np.array_equal(hermitian_eigenphases(m), reference_eigenphases(m))


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_certificate_blocks_are_at_most_a_chunk_wide(kind, f_two_mode, freq1,
                                                     freq2, monkeypatch):
    m = _window(kind, 161, 1, (1.0, 1.0), f_two_mode, freq1, freq2)
    widths = []
    apply = spectral.apply_cmv

    def recorded(mm, v):
        widths.append(v.shape[1])
        return apply(mm, v)

    monkeypatch.setattr(spectral, "apply_cmv", recorded)
    w = hermitian_eigenphases(m)
    assert np.array_equal(w, reference_eigenphases(m))
    assert max(widths) <= spectral._CLUSTER_CHUNK
    assert sum(widths) == m.size                    # every column certified once
    assert len(widths) < m.size // 4                # blocks, not one per cluster


def test_a_failing_cluster_sends_the_window_dense(f_two_mode, freq2, monkeypatch):
    m = _window("complex", 21, 0, (1.0, 1.0), f_two_mode, freq1=None, freq2=freq2)
    monkeypatch.setattr(spectral, "_RES_TOL", 0.0)
    assert np.array_equal(hermitian_eigenphases(m), eigenphases(m))


# -- the probe reads its set-up from the window -------------------------------

@pytest.mark.parametrize("kind,n", [("real", 1), ("real", 3), ("complex", 3),
                                    ("real", 801), ("complex", 801)])
def test_probe_equals_the_per_call_loop(kind, n, f_two_mode, freq1, freq2):
    m = _window(kind, n, 0, (1.0, 1.0), f_two_mode, freq1, freq2)
    w = hermitian_eigenphases(m)
    gaps = [1.0 + 0j, np.exp(0.5j)] if n > 1 else [1.0 + 0j]
    for z in list(w[::max(1, n // 5)]) + gaps:
        lam, vec, res = nearest_eigen_banded(m, z)
        lam_ref, vec_ref, res_ref = reference_probe(m, z)
        assert lam == lam_ref and res == res_ref
        assert vec.tobytes() == vec_ref.tobytes()


def test_probe_set_up_is_read_only_and_kept(f_two_mode, freq2):
    m = _window("complex", 21, 0, (1.0, 1.0), f_two_mode, None, freq2)
    ls, rhs = m.lstar_banded(), m._probe_rhs
    nearest_eigen_banded(m, np.exp(0.3j))
    assert m.lstar_banded() is ls and m._probe_rhs is rhs
    for arr in (ls, rhs):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert rhs.tobytes() == m.lstar_times(cov._start(m.size)).tobytes()


# -- the scan assembles each window once -------------------------------------

def _count(monkeypatch, owner, name):
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("samples", [1, 2])
def test_readme_scan_builds_only_its_seed_windows(samples, f_const, freq1,
                                                  monkeypatch):
    builds = _count(monkeypatch, cov, "build_finite_cmv")
    probes = _count(monkeypatch, cov, "nearest_eigen_banded")
    scan = interval_coverage_scan(f_const, freq1, (0.0, 2 * np.pi), grid=720,
                                  window=400, tol=0.0125, phase_samples=samples)
    assert len(builds) == samples
    assert len(probes) > 720 // 2 and scan.covered_arcs


def test_d2_scan_evaluates_alpha_once_per_probe_window(f_two_mode, freq2,
                                                       monkeypatch):
    alphas = _count(monkeypatch, SamplingFunction, "alpha")
    builds = _count(monkeypatch, cov, "build_finite_cmv")
    built, hits = [], []
    refine = cov._refine

    def recorded(build_at, *args):
        def probe_window(coords):
            m = build_at(coords)
            fresh = build_finite_cmv(VerblunskySequence(
                f_two_mode, freq2, cov.reduce_phase(coords)), -10, 10)
            for field in ("bands", "alpha", "rho"):
                assert getattr(m, field).tobytes() == getattr(fresh, field).tobytes()
            hits.append(m is args[3])       # the seed window itself
            built.append(1)
            return m
        return refine(probe_window, *args)

    monkeypatch.setattr(cov, "_refine", recorded)
    interval_coverage_scan(f_two_mode, freq2, (0.0, 2 * np.pi), grid=36,
                           window=10, tol=0.02, phase_samples=2)
    assert built and any(hits) and not all(hits)
    # two seed windows, then one evaluation per probe window (and one for
    # each fresh window built above); each probe is assembled once, a hit
    # then answered by its seed window
    assert len(alphas) == 2 + 2 * len(built)
    assert len(builds) == 2 + len(built)


# -- the satellites: a converged edge test, phase_samples >= 1 ----------------

def test_unconverged_edge_probe_covers_nothing(f_const, freq1, monkeypatch):
    kwargs = dict(arc=(0.0, 2 * np.pi), grid=60, window=40, tol=0.05,
                  phase_samples=1)
    before = interval_coverage_scan(f_const, freq1, **kwargs)
    assert any(p.covered for p in before.points)

    def unconverged(m, z):
        v = np.zeros(m.size, dtype=complex)
        v[m.size // 2] = 1.0                # edges exactly 0
        return z, v, 1e-3

    monkeypatch.setattr(cov, "nearest_eigen_banded", unconverged)
    after = interval_coverage_scan(f_const, freq1, **kwargs)
    assert not any(p.covered for p in after.points)
    assert after.covered_arcs == []
    for p in after.points:
        if p.best_dist <= 0.05:
            assert np.isnan(p.edge_value)
        else:
            assert p.edge_value == np.inf
    assert any(np.isnan(p.edge_value) for p in after.points)


@pytest.mark.parametrize("samples", [0, -1])
def test_scan_needs_a_phase_sample(samples, f_const, freq1):
    with pytest.raises(ValueError, match="phase_samples"):
        interval_coverage_scan(f_const, freq1, (0.0, 1.0), grid=4, window=5,
                               tol=0.01, phase_samples=samples)
