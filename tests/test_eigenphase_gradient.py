"""The eigenphase gradient Im(conj(lambda) d_i lambda) = Im(conj(lambda)
v* (d_i E) v) of ``spectral.eigenphase_gradient``, against central
differences of the phase of ``nearest_eigenvalue``, and the one query per
step that it gives the Gauss-Newton polish of the depth-1 advance."""

import numpy as np
import pytest

import cmvspec.multiscale as ms
from cmvspec import spectral
from cmvspec.cmv import VerblunskySequence, build_finite_cmv
from cmvspec.presets import localization_example, sqrt_frequency
from cmvspec.spectral import eigenphase_gradient, eigenphases, eigensolve, nearest_eigenvalue
from cmvspec.torus import Frequency, Phase, SamplingFunction
from cmvspec.util import phase_of, wrap_angle

from conftest import random_unit

H = 1e-7        # central-difference step


def _d1():      # the function and frequency of the CI d = 1 multiscale run
    f = SamplingFunction(1, {(1,): 0.45, (-1,): 0.45j})
    return f, np.array([(np.sqrt(5.0) - 1.0) / 2.0])


def _d2():
    return localization_example(), sqrt_frequency().array()


def _d3():      # the function and frequency of the CI d = 3 runs
    f = SamplingFunction(3, {(1, 0, 0): 0.3, (0, 1, 0): 0.3, (0, 0, 1): 0.3j})
    om = Frequency.checked([0.41421356237309515, 0.7320508075688772, 0.2360679774997898],
                           p=1e-3, q=4, k_max=80)
    return f, om.array()


FUNCTIONS = {"d1": _d1, "d2": _d2, "d3": _d3}


def _window(f, om, x, half, beta, eta):
    return build_finite_cmv(VerblunskySequence(f, om, Phase(tuple(x))), -half, half,
                            beta=beta, eta=eta)


def _dalpha(f, om, x, half):
    """d alpha / d x_i on the sites -half-1..half of the orbit of x."""
    return f.alpha_gradient(x + np.arange(-half - 1, half + 1)[:, None] * om)


@pytest.mark.parametrize("half, bound", [(10, 1e-6), (45, 1e-4)], ids=["21", "91"])
@pytest.mark.parametrize("case", sorted(FUNCTIONS))
def test_gradient_matches_central_differences(case, half, bound):
    f, om = FUNCTIONS[case]()
    rng = np.random.default_rng(41 + half)
    for _ in range(6):
        x, z = rng.random(f.dim), random_unit(rng)
        beta, eta = random_unit(rng), random_unit(rng)
        lam, grad = eigenphase_gradient(_window(f, om, x, half, beta, eta), z,
                                        _dalpha(f, om, x, half))
        assert lam == nearest_eigenvalue(_window(f, om, x, half, beta, eta), z)[0]
        fd = np.empty(f.dim)
        for i, e in enumerate(H * np.eye(f.dim)):
            # the branch through lam: each side queries nearest lam itself
            up = nearest_eigenvalue(_window(f, om, x + e, half, beta, eta), lam)[0]
            down = nearest_eigenvalue(_window(f, om, x - e, half, beta, eta), lam)[0]
            fd[i] = wrap_angle(phase_of(up) - phase_of(down)) / (2 * H)
        assert np.linalg.norm(grad - fd) <= bound * np.linalg.norm(fd)


@pytest.mark.parametrize("case", sorted(FUNCTIONS))
def test_alpha_gradient_matches_central_differences(case):
    f, _ = FUNCTIONS[case]()
    pts = np.random.default_rng(3).random((5, f.dim))
    fd = np.stack([(f.alpha(pts + e) - f.alpha(pts - e)) / (2 * H)
                   for e in H * np.eye(f.dim)], axis=-1)
    got = f.alpha_gradient(pts)
    assert got.shape == (5, f.dim)
    assert np.abs(got - fd).max() <= 1e-7 * np.abs(fd).max()


def test_cut_sites_carry_no_derivative():
    f, om = _d2()
    rng = np.random.default_rng(9)
    x = rng.random(2)
    m = _window(f, om, x, 10, random_unit(rng), random_unit(rng))
    v = eigensolve(m)[4].vector
    dalpha = _dalpha(f, om, x, 10)
    moved = dalpha.copy()
    moved[[0, -1]] = rng.standard_normal((2, 2)) + 1j
    assert np.array_equal(m.derivative_form(v, dalpha), m.derivative_form(v, moved))


def test_a_tied_query_takes_the_eigensolve_vector(monkeypatch):
    f, om = _d2()
    x = np.random.default_rng(8).random(2)
    m = _window(f, om, x, 8, 1.0, 1.0)
    theta = np.sort(np.angle(eigenphases(m)) % (2 * np.pi))
    z = np.exp(0.5j * (theta[3] + theta[4]))     # midway between two eigenvalues
    assert nearest_eigenvalue(m, z)[1]
    solved = []
    monkeypatch.setattr(spectral, "eigensolve", lambda w: solved.append(w) or eigensolve(w))
    dalpha = _dalpha(f, om, x, 8)
    lam, grad = eigenphase_gradient(m, z, dalpha)
    assert solved == [m]
    assert lam == nearest_eigenvalue(m, z)[0]
    pair = spectral.nearest_eigen(eigensolve(m), lam)[0]
    assert np.array_equal(grad, (np.conj(lam) * m.derivative_form(pair.vector, dalpha)).imag)
    fd = [wrap_angle(phase_of(nearest_eigenvalue(_window(f, om, x + e, 8, 1.0, 1.0), lam)[0])
                     - phase_of(nearest_eigenvalue(_window(f, om, x - e, 8, 1.0, 1.0), lam)[0]))
          / (2 * H) for e in H * np.eye(2)]
    assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd)


def test_a_gauss_newton_step_makes_one_query(monkeypatch):
    f, om = _d2()
    x0 = np.array([0.31, 0.62])
    theta0 = phase_of(nearest_eigenvalue(_window(f, om, x0, 8, 1.0, 1.0), np.exp(2.5j))[0])
    rows, factored, windows = [], [], ms._windows
    monkeypatch.setattr(ms, "_windows",
                        lambda *a: rows.append(len(np.reshape(a[3], (-1, 2)))) or windows(*a))
    zgbtrf = spectral.lapack.zgbtrf
    monkeypatch.setattr(spectral.lapack, "zgbtrf",
                        lambda *a: factored.append(1) or zgbtrf(*a))
    x, dist = ms._gauss_newton_solve(f, om, (-8, 8), theta0, x0 + [0.02, 0.03], 1.0, 1.0)
    assert x is not None and dist < ms._ROOT_TOL
    assert len(rows) > 1 and rows == [1] * len(rows)
    assert len(factored) == len(rows)
