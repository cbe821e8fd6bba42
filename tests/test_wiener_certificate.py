"""The Fourier certificate of a sampling function: one bound on
sup_x |alpha(x + iy)| gives both ``sup_bound`` (y = 0) and ``strip_width``
(the 2^d corners of the strip box)."""

import itertools
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import jv

from cmvspec.presets import constant_function, two_mode, zero_function
from cmvspec.torus import SamplingFunction


def _grid(counts):
    axes = [np.arange(n) / n for n in counts]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(counts))


def _corners(dim):
    return [np.asarray(s) for s in itertools.product((-1.0, 1.0), repeat=dim)]


def _random_function(dim, seed):
    """Random modes with |k_i| <= (6, 3, 2)[dim - 1] and sum |c_k| = 0.95."""
    rng = np.random.default_rng(seed)
    top = (6, 3, 2)[dim - 1]
    modes = [k for k in itertools.product(range(-top, top + 1), repeat=dim)
             if rng.random() < 0.6]
    cs = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
    cs *= np.exp(-0.5 * np.abs(np.asarray(modes)).sum(axis=1))
    cs *= 0.95 / np.abs(cs).sum()
    return SamplingFunction(dim, dict(zip(modes, cs)))


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


RANDOM = [(dim, seed) for dim, seeds in ((1, 4), (2, 4), (3, 2)) for seed in range(seeds)]


@pytest.mark.parametrize("dim,seed", RANDOM, ids=[f"d{d}-{s}" for d, s in RANDOM])
def test_the_bound_dominates_alpha_on_a_grid_four_times_finer(dim, seed):
    f = _random_function(dim, seed)
    dft_grid = [2 * (k.max() - k.min()) + 1 for k in np.array(list(f.coeffs)).T]
    pts = _grid([4 * n for n in dft_grid])
    assert np.abs(f.alpha(pts)).max() <= f.sup_bound
    # never looser than the crude l1 bound
    assert f.sup_bound <= sum(abs(c) for c in f.coeffs.values()) + 1e-12
    for signs in _corners(dim):
        y = 0.999 * f.strip_width * signs
        line = np.abs(f.alpha(pts, y)).max()
        assert line <= f._wiener_sup(y)
        assert line < 1.0


def test_two_mode_and_constant_are_exact():
    for c in (0.1, 0.3, 0.45, 0.475, 0.49):
        assert abs(two_mode(c).sup_bound - 2 * c) < 1e-12
    for c in (0.5, 0.3 - 0.4j, 0.999):
        assert abs(constant_function(c).sup_bound - abs(c)) < 1e-12
        assert constant_function(c).strip_width == 1.0
    assert zero_function().sup_bound == 0.0 and zero_function().strip_width == 1.0


def test_phase_modulated_functions_are_certified():
    # |alpha| is about r everywhere, where a sampled sup plus a Lipschitz
    # slack reads above 1
    f = _phase_modulated(2, 0.85, 1.5, 8)
    assert len(f.coeffs) == 289
    assert 0.85 <= f.sup_bound < 0.8501
    assert f.strip_width > 0
    assert _phase_modulated(1, 0.9, 2.0, 12).sup_bound < 0.9 + 1e-8
    start = time.perf_counter()
    g = _phase_modulated(3, 0.85, 1.5, 5)
    assert time.perf_counter() - start < 1.0
    assert len(g.coeffs) == 1331 and g.sup_bound < 0.86


def test_a_wide_span_is_a_value_error_before_any_allocation(monkeypatch):
    zeros = np.zeros

    def small_zeros(shape, *args, **kwargs):
        assert np.prod(shape) < 1e6, "the certificate allocated its grid"
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", small_zeros)
    with pytest.raises(ValueError, match=r"span \[300, 300, 300\]"):
        SamplingFunction(3, {(0, 0, 0): 0.1, (300, 300, 300): 0.1})
    monkeypatch.undo()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"span \[600\]"):
            SamplingFunction(1, {(0,): 0.1, (600,): 0.1})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert SamplingFunction(1, {(0,): 0.1, (500,): 0.1}).sup_bound < 0.2 + 1e-9


def test_an_uncertifiable_request_names_the_largest_safe_width():
    coeffs = {(1, 0): 0.45, (0, 1): 0.45}
    h = SamplingFunction(2, coeffs).strip_width
    with pytest.raises(ValueError, match=f"largest safe value ~{h:.3g}"):
        SamplingFunction(2, coeffs, strip_width=32 * h)
    assert SamplingFunction(2, coeffs, strip_width=h).strip_width == h
    # a certified request is kept as given, not rounded to a power of 2
    assert SamplingFunction(2, coeffs, strip_width=0.3 * h).strip_width == 0.3 * h


def test_no_certified_width_is_a_value_error():
    # c e^{2 pi h} < 1 needs h < 1.6e-13: no width down to 1e-9 is certified
    with pytest.raises(ValueError, match="no strip width"):
        SamplingFunction(1, {(1,): 1.0 - 1e-12})


def test_an_overflowing_bound_is_uncertified_without_a_warning():
    # at h = 1, exp(2 pi 200) overflows; that width is refused, not a nan < 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = SamplingFunction(1, {(0,): 0.3, (200,): 0.3})
    assert 0.6 <= f.sup_bound < 0.6 + 1e-9
    assert 0 < f.strip_width < 1e-3
    x = np.arange(1600)[:, None] / 1600
    for y in (-0.999 * f.strip_width, 0.999 * f.strip_width):
        assert np.abs(f.alpha(x, (y,))).max() < 1.0
