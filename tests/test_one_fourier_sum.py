"""One Fourier sum over real points: ``SamplingFunction._series(pts, coeffs)``
sums the columns of a coefficient matrix from one exp table per mode group.
``alpha`` passes c_k on the real torus and c_k exp(-2 pi k.y) in the strip,
and ``alpha_gradient`` passes the (modes, d) matrix 2 pi i k_i c_k."""

import ast
import inspect
import itertools

import numpy as np
import pytest
from scipy.special import jv

from cmvspec import torus
from cmvspec.presets import strong_coupling
from cmvspec.torus import SamplingFunction


def _phase_modulated(dim, r, lam, K):
    """r exp(i lam sum_j cos 2 pi x_j) truncated to |k_j| <= K:
    c_k = r prod_j i^k_j J_k_j(lam)."""
    coeffs = {}
    for k in itertools.product(range(-K, K + 1), repeat=dim):
        c = complex(r)
        for kj in k:
            c *= (1j ** kj) * jv(kj, lam)
        coeffs[k] = c
    return SamplingFunction(dim, coeffs)


FUNCTIONS = {
    "d1": lambda: _phase_modulated(1, 0.9, 2.0, 12),      # 25 modes
    "d2": lambda: _phase_modulated(2, 0.85, 1.5, 8),      # 289 modes
    # the CI d = 3 function with two more modes
    "d3": lambda: SamplingFunction(3, {(1, 0, 0): 0.3, (0, 1, 0): 0.3, (0, 0, 1): 0.3j,
                                       (1, -1, 1): 0.02, (-2, 0, 1): 0.01j}),
}


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _gradient_coeffs(f):
    return 2j * np.pi * f._ks * f._cs[:, None]


@pytest.mark.parametrize("n", [1, 30, 1000])
@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_each_gradient_column_rounds_as_it_would_alone(name, n):
    f = FUNCTIONS[name]()
    pts = np.random.default_rng(3600 + n).random((n, f.dim))
    got = f.alpha_gradient(pts)
    alone = [f._series(pts, col[:, None]) for col in _gradient_coeffs(f).T]
    assert _same_bits(got, np.hstack(alone))


@pytest.mark.parametrize("n", [1, 30, 92, 1000])
def test_the_gradient_makes_the_exp_calls_of_alpha(monkeypatch, n):
    f = FUNCTIONS["d2"]()
    pts = np.random.default_rng(3610).random((n, 2))
    sizes, exp = [], np.exp

    def recorded_exp(v, *args, **kwargs):
        sizes.append(np.size(v))
        return exp(v, *args, **kwargs)
    monkeypatch.setattr(np, "exp", recorded_exp)
    f.alpha(pts)
    of_alpha, sizes[:] = list(sizes), []
    f.alpha_gradient(pts)
    assert sizes == of_alpha
    assert len(of_alpha) == -(-289 // max(1, 1024 // n))


@pytest.mark.parametrize("name", ["paper_d2", "strong_coupling"])
def test_strip_alpha_is_the_direct_complex_sum(name):
    f = FUNCTIONS["d2"]() if name == "paper_d2" else strong_coupling()
    rng = np.random.default_rng(3620)
    pts = rng.random((200, f.dim))
    for signs in itertools.product((-1.0, 1.0), repeat=f.dim):
        y = 0.9 * f.strip_width * np.asarray(signs) * rng.random(f.dim)
        got = f.alpha(pts, y)
        want = (f._cs * np.exp(2j * np.pi * ((pts + 1j * y) @ f._ks.T))).sum(axis=1)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_one_sum_and_one_strip_factor_in_the_source():
    tree = ast.parse(inspect.getsource(torus))
    series = [node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == "_series"]
    assert len(series) == 1
    assert [a.arg for a in series[0].args.args] == ["self", "pts", "coeffs"]
    assert not series[0].args.defaults
    strip = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.exp"
             and ast.unparse(node.args[0]).startswith("-2 * np.pi")]
    assert len(strip) == 1
