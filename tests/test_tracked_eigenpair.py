"""``tracked_eigenpair`` against the ``eigensolve`` oracle it replaces.

The pair nearest z and its separation from the rest of the spectrum come
from two banded queries: at z for the value and its vector, then at the
value itself for the distance to the nearest other eigenvalue.  Where either
query falls back, the pair is the old ``eigensolve`` + ``nearest_eigen`` +
``separation_gap`` one bit for bit.  ``multiscale`` reads every tracked
pair through it and makes no ``eigensolve`` call of its own.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack

from cmvspec import spectral
from cmvspec.cmv import VerblunskySequence, build_finite_cmv
from cmvspec.presets import constant_function, localization_example, single_mode
from cmvspec.spectral import (aligned_distance, eigenphases, eigensolve, nearest_eigen,
                              separation_gap, tracked_eigenpair)
from cmvspec.torus import Phase

from conftest import random_unit

MULTISCALE = Path(__file__).resolve().parents[1] / "src" / "cmvspec" / "multiscale.py"


def oracle(m, z):
    """The pair as ``multiscale`` read it before: one full eigensolve."""
    pairs = eigensolve(m)
    p, dist = nearest_eigen(pairs, z)
    return p.value, p.vector, dist, separation_gap(pairs, p.index)


def count_eigensolve(monkeypatch) -> list:
    calls = []
    solve = spectral.eigensolve

    def counted(m, *args, **kwargs):
        calls.append(m.size)
        return solve(m, *args, **kwargs)

    monkeypatch.setattr(spectral, "eigensolve", counted)
    return calls


def _windows(f, om, sites, count, seed):
    rng = np.random.default_rng(seed)
    a = -(sites // 2)
    return [build_finite_cmv(VerblunskySequence(f, om, Phase(tuple(rng.random(f.dim)))),
                             a, a + sites - 1, random_unit(rng), random_unit(rng))
            for _ in range(count)]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("sites", [21, 91])
def test_pair_matches_eigensolve(dim, sites, freq1, freq2, monkeypatch):
    f, om = (single_mode(0.6, dim=1), freq1) if dim == 1 else (localization_example(), freq2)
    rng = np.random.default_rng(7 * sites + dim)
    calls = count_eigensolve(monkeypatch)
    banded = 0
    for m in _windows(f, om, sites, 4, seed=sites + dim):
        for z in (random_unit(rng), 0.6 * random_unit(rng)):
            before = len(calls)
            value, vector, dist, sep = tracked_eigenpair(m, z)
            o_value, o_vector, o_dist, o_sep = oracle(m, z)
            if len(calls) > before:     # a query fell back: the old pair exactly
                assert (value, dist, sep) == (o_value, o_dist, o_sep)
                assert vector.tobytes() == o_vector.tobytes()
                continue
            banded += 1
            assert abs(value - o_value) <= 1e-14
            assert abs(dist - o_dist) <= 1e-14
            assert aligned_distance(o_vector, vector) <= 1e-9
            assert abs(sep - o_sep) <= 1e-9 * o_sep
            assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-14)
            k = int(np.argmax(np.abs(vector)))     # gauged: the largest entry is real
            assert abs(vector[k].imag) <= 1e-15 and vector[k].real > 0
    assert banded >= 7


def assert_old_path(m, z, monkeypatch):
    calls = count_eigensolve(monkeypatch)
    got = tracked_eigenpair(m, z)
    assert calls == [m.size]
    value, vector, dist, sep = oracle(m, z)
    assert (got[0], got[2], got[3]) == (value, dist, sep)
    assert got[1].tobytes() == vector.tobytes()


def test_real_window_ties_at_the_first_query(freq1, monkeypatch):
    # a real window has its eigenvalues in pairs e^{+-i theta}: at z = 1
    # they tie in H, so the first query falls back
    m = build_finite_cmv(VerblunskySequence(constant_function(0.5), freq1, Phase((0.2,))),
                         -10, 10)
    assert spectral._nearest(m, 1.0)[0][3]
    assert_old_path(m, 1.0, monkeypatch)


def close_pair_window(freq2, gap):
    """A window, and an eigenvalue a0 of it, with a second eigenvalue
    a0 e^{i gap}: a unimodular coefficient at site 0 splits the window in
    two blocks, and eta, which moves only the right block, puts one of its
    eigenvalues there (the window's characteristic determinant at a fixed
    point is affine in conj(eta))."""
    seq = VerblunskySequence(localization_example(), freq2, Phase((0.3, 0.6)),
                             overrides={0: 1.0})

    def window(eta):
        return build_finite_cmv(seq, -10, 10, eta=eta)

    w1, w2 = eigenphases(window(1.0)), eigenphases(window(-1.0))
    a0 = next(w for w in w1 if np.min(np.abs(w2 - w)) < 1e-12)     # left block
    zeta = a0 * np.exp(1j * gap)
    det = [np.linalg.det(window(e).dense() - zeta * np.eye(21)) for e in (1.0, -1.0)]
    eta = np.conj(-(det[0] + det[1]) / (det[0] - det[1]))
    return window(eta / abs(eta)), a0


def test_close_neighbour_ties_at_the_second_query(freq2, monkeypatch):
    m, a0 = close_pair_window(freq2, 2e-5)
    w = eigenphases(m)
    assert np.sort(np.abs(w - a0))[1] == pytest.approx(2e-5, rel=1e-6)
    z = a0 * np.exp(-1e-3j)             # a0 is nearest, on the far side from its neighbour
    value, vector, _, tie = spectral._nearest(m, z)[0]
    assert vector is not None and not tie
    assert spectral._nearest(m, value, gap=True)[0][3]
    assert_old_path(m, z, monkeypatch)


def test_singular_shift_at_the_second_query(freq2, monkeypatch):
    # the second query shifts H by its top eigenvalue at u = value, which
    # can make the LU exactly singular; here one is forced
    m, = _windows(localization_example(), freq2, 33, 1, seed=4)
    z = np.exp(1.3j)
    value = spectral._nearest(m, z)[0][0]
    queried = []
    nearest, factor = spectral._nearest, lapack.zgbtrf

    def recorded(m_, z_, gap=False):
        queried.append(z_)
        return nearest(m_, z_, gap)

    def singular_at_value(ab, kl, ku):
        lu, piv, info = factor(ab, kl, ku)
        return lu, piv, 1 if queried[-1] == value else info

    monkeypatch.setattr(spectral, "_nearest", recorded)
    monkeypatch.setattr(lapack, "zgbtrf", singular_at_value)
    assert_old_path(m, z, monkeypatch)
    assert queried == [z, value]


def test_residual_above_tolerance_falls_back(freq2, monkeypatch):
    m, = _windows(localization_example(), freq2, 21, 1, seed=6)
    monkeypatch.setattr(spectral, "_RES_TOL", 0.0)
    assert_old_path(m, np.exp(0.8j), monkeypatch)


def test_second_field_is_the_distance_to_the_second_nearest(freq2):
    m, = _windows(localization_example(), freq2, 33, 1, seed=5)
    w = eigenphases(m)
    for z in (np.exp(0.4j), np.exp(2.9j)):
        value, vector, residual, tie, second = spectral._nearest(m, z, gap=True)[0]
        alone = spectral._nearest(m, z)[0]
        assert (alone[0], alone[2], alone[3]) == (value, residual, tie) and not tie
        assert alone[1].tobytes() == vector.tobytes()
        assert second == pytest.approx(np.sort(np.abs(w - z))[1], rel=1e-9)


def test_multiscale_calls_no_eigensolve():
    tree = ast.parse(MULTISCALE.read_text(encoding="utf-8"))
    called = {getattr(c.func, "attr", getattr(c.func, "id", None))
              for c in ast.walk(tree) if isinstance(c, ast.Call)}
    imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                for a in n.names}
    assert not called & {"eigensolve", "nearest_eigen", "separation_gap"}
    assert not imported & {"eigensolve", "nearest_eigen", "separation_gap"}
