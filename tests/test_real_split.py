"""The real-window split of ``hermitian_eigenphases`` by the reflection L.

With real coefficients E = L M is a product of two real reflections, so its
Hermitian part H = (L M + M L) / 2 commutes with L and splits over L's
+-1 eigenspaces into two tridiagonal halves, each with a simple spectrum.
"""

import itertools

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigh_tridiagonal

from cmvspec import spectral
from cmvspec.cmv import VerblunskySequence, build_finite_cmv
from cmvspec.presets import constant_function, golden_frequency
from cmvspec.spectral import eigenphases, hermitian_eigenphases
from cmvspec.torus import Phase

ALPHAS = (0.0, 0.5, -0.5, 0.999, -0.999)
SIZES = (1, 2, 3, 4, 5, 8, 21, 90, 161, 801)
# (alpha, parity of a, beta, eta): every value of each axis
GRID = list(itertools.product(ALPHAS, (0, 1), (1.0, -1.0), (1.0, -1.0)))
# each dense 801-site reference takes seconds: three points of the grid there
LARGE = [(0.5, 0, 1.0, 1.0), (-0.999, 1, -1.0, -1.0), (0.0, 1, -1.0, 1.0)]


def window(alpha, parity, beta, eta, n):
    seq = VerblunskySequence(constant_function(alpha), golden_frequency(), Phase((0.3,)))
    a = parity - 2 * (n // 4)
    return build_finite_cmv(seq, a, a + n - 1, beta=beta, eta=eta)


def halves_q(m):
    """Q_+ and Q_- as sparse n x k matrices."""
    out = []
    for rows, weights in m.reflection_halves():
        cols = np.tile(np.arange(rows.shape[1]), 2)
        out.append(sparse.csr_matrix((weights.ravel(), (rows.ravel(), cols)),
                                     shape=(m.size, rows.shape[1])))
    return out


def max_abs(A) -> float:
    A = sparse.csr_matrix(A)
    return float(np.abs(A.data).max(initial=0.0))


@pytest.mark.parametrize("n", SIZES)
def test_premise(n):
    for alpha, parity, beta, eta in GRID:
        m = window(alpha, parity, beta, eta, n)
        E = sparse.csr_matrix(m.dense())
        H = (E + E.conj().T) / 2
        L = sparse.csr_matrix(m.l_dense())
        assert not L.data.imag.any()
        L = L.real
        assert max_abs(L @ L - sparse.identity(n)) <= 1e-15
        assert max_abs(H @ L - L @ H) <= 1e-15
        Qp, Qm = halves_q(m)
        Q = sparse.hstack([Qp, Qm]).tocsr()
        signs = np.r_[np.ones(Qp.shape[1]), -np.ones(Qm.shape[1])]
        assert max_abs(Q.T @ Q - sparse.identity(n)) <= 1e-15
        assert max_abs(Q.T @ L @ Q - sparse.diags(signs)) <= 1e-15
        assert max_abs(Qp.T @ H @ Qm) <= 1e-15
        for Qs in (Qp, Qm):
            T = (Qs.T @ H @ Qs).toarray().real
            k = T.shape[0]
            if k == 0:
                continue
            assert np.abs(np.triu(T, 2)).max(initial=0.0) == 0.0
            assert np.abs(np.tril(T, -2)).max(initial=0.0) == 0.0
            values = eigh_tridiagonal(np.diag(T), np.diag(T, 1), eigvals_only=True)
            assert np.diff(values).min(initial=np.inf) > spectral._GAP_TOL


def nearest_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Largest distance from a value of either array to the nearest of the
    other: an eigenvalue at theta = 0 sorts first or last by the sign of a
    rounding-level imaginary part, so positions need not agree."""
    D = np.abs(a[:, None] - b[None, :])
    return float(max(D.min(axis=1).max(), D.min(axis=0).max()))


@pytest.mark.parametrize("n", SIZES)
def test_matches_eigenphases_without_fallback(n, monkeypatch):
    def no_fallback(*args):
        raise AssertionError("certificate failed, dense fallback taken")
    monkeypatch.setattr(spectral, "eigenphases", no_fallback)
    for point in (LARGE if n > 161 else GRID):
        m = window(*point, n)
        fast, dense = hermitian_eigenphases(m), eigenphases(m)
        assert fast.shape == dense.shape == (n,)
        assert np.max(np.abs(np.abs(fast) - 1.0)) <= 1e-15
        assert nearest_gap(fast, dense) <= 1e-12


def test_failed_certificate_falls_back_to_dense(monkeypatch):
    monkeypatch.setattr(spectral.eigenphases, "__defaults__", (10,))
    m = window(0.5, 1, -1.0, 1.0, 61)
    monkeypatch.setattr(spectral, "_RES_TOL", 0.0)
    assert np.array_equal(hermitian_eigenphases(m), eigenphases(m, m.size))


@pytest.mark.parametrize("boundary", [(1.0, 1.0), (np.exp(0.4j), np.exp(-1.3j))],
                         ids=["real", "complex"])
def test_real_windows_never_call_eigh(boundary, monkeypatch):
    shapes = []
    eigh = spectral.eigh
    monkeypatch.setattr(spectral, "eigh",
                        lambda A, **kw: shapes.append(A.shape) or eigh(A, **kw))
    for n in (1, 2, 3, 21, 161):
        hermitian_eigenphases(window(0.5, n % 2, *boundary, n))
    if boundary[0] == 1.0:
        assert shapes == []
    else:
        assert shapes == [(n, n) for n in (1, 2, 3, 21, 161)]


def test_real_matrix_with_complex_coefficients():
    # beta = eta = i on one site: E = -conj(eta) beta = -1 is real, L = conj(eta)
    # is not, so the window takes the complex solve
    m = window(0.5, 0, 1j, 1j, 1)
    assert not m.bands.imag.any() and m.alpha.imag.any()
    assert np.allclose(hermitian_eigenphases(m), eigenphases(m), atol=1e-15)
