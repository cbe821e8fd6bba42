"""The batched nearest-value query.

``nearest_eigenvalues`` assembles H's band and forms E v once per chunk of
windows and runs the LAPACK calls per window; ``nearest_eigenvalue`` is
its one-window case.  Row k of a batched call must equal the query of
window k alone bit for bit, value and tie flag, on every path: the banded
one, a tie, the dense fallback, windows too small for the band, and z = 0.
"""

import numpy as np
import pytest
from scipy.linalg import lapack

from cmvspec import spectral
from cmvspec.cmv import VerblunskySequence, build_finite_cmv
from cmvspec.presets import localization_example
from cmvspec.spectral import eigenphases, nearest_eigenvalue, nearest_eigenvalues
from cmvspec.torus import Phase

from conftest import random_unit


def _batch(sites, rows, freq2, seed=0):
    """(batch, windows alone) of the localization preset on ``sites`` sites."""
    f = localization_example()
    rng = np.random.default_rng(seed)
    cut = (random_unit(rng), random_unit(rng))
    xs = rng.random((rows, 2))
    a = -(sites // 2)
    batch = build_finite_cmv(VerblunskySequence(f, freq2, xs), a, a + sites - 1, *cut)
    alone = [build_finite_cmv(VerblunskySequence(f, freq2, Phase(tuple(x))),
                              a, a + sites - 1, *cut) for x in xs]
    return batch, alone


def assert_rows_alone(batch, alone, z):
    got = nearest_eigenvalues(batch, z)
    assert len(got) == len(alone)
    for k, (value, tie) in enumerate(got):
        assert (value, tie) == nearest_eigenvalue(batch.row(k), z)
        assert (value, tie) == nearest_eigenvalue(alone[k], z)
    return got


@pytest.mark.parametrize("sites", [21, 91])
def test_rows_equal_the_window_alone(sites, freq2):
    # 19 rows: two full chunks and a partial one
    batch, alone = _batch(sites, 19, freq2, seed=sites)
    for z in np.exp(2j * np.pi * np.array([0.1, 0.45, 0.8])) * np.array([1.0, 1.0, 0.6]):
        assert not any(tie for _, tie in assert_rows_alone(batch, alone, z))


@pytest.mark.parametrize("sites", [21, 91])
def test_tied_row(sites, freq2, monkeypatch):
    batch, alone = _batch(sites, 11, freq2, seed=3)
    theta = np.sort(np.angle(eigenphases(batch.row(9))) % (2 * np.pi))
    z = np.exp(0.5j * (theta[3] + theta[4]))     # midway between two eigenvalues
    dense = []
    monkeypatch.setattr(spectral, "eigenphases",
                        lambda m, *a: dense.append(m.size) or eigenphases(m, *a))
    got = assert_rows_alone(batch, alone, z)
    assert [k for k, (_, tie) in enumerate(got) if tie] == [9]
    assert dense == [sites] * 3


@pytest.mark.parametrize("sites", [21, 91])
def test_row_forced_to_the_dense_fallback(sites, freq2, monkeypatch):
    # window 5's shift reported singular: only that row goes dense
    batch, alone = _batch(sites, 13, freq2, seed=4)
    z = np.exp(2.5j)
    u = z / abs(z)
    n = batch.size
    target = 0.5 * (np.conj(u) * batch.bands[5, 3, :n - 1] + u * np.conj(batch.bands[5, 1, 1:]))
    factor = lapack.zgbtrf

    def singular_for_row_5(ab, kl, ku):
        lu, piv, info = factor(ab, kl, ku)
        return lu, piv, 1 if np.array_equal(ab[3, 1:], target) else info

    monkeypatch.setattr(lapack, "zgbtrf", singular_for_row_5)
    dense = []
    monkeypatch.setattr(spectral, "eigenphases",
                        lambda m, *a: dense.append(m.size) or eigenphases(m, *a))
    got = assert_rows_alone(batch, alone, z)
    assert dense == [sites] * 3
    w = eigenphases(batch.row(5))
    assert got[5] == (w[int(np.argmin(np.abs(w - z)))], False)


@pytest.mark.parametrize("sites", [1, 2])
def test_windows_below_three_sites_go_dense(sites, freq2):
    batch, alone = _batch(sites, 10, freq2, seed=sites)
    for z in (np.exp(1j), 0.3j):
        for k, (value, tie) in enumerate(assert_rows_alone(batch, alone, z)):
            w = eigenphases(alone[k])
            assert value == w[int(np.argmin(np.abs(w - z)))] and not tie


@pytest.mark.parametrize("sites", [21, 91])
def test_zero_goes_dense(sites, freq2):
    batch, alone = _batch(sites, 9, freq2, seed=5)
    for k, (value, tie) in enumerate(assert_rows_alone(batch, alone, 0j)):
        w = eigenphases(alone[k])
        assert value == w[int(np.argmin(np.abs(w)))] and not tie


def test_band_assembly_is_chunked(freq2, monkeypatch):
    # 91-site rows: the band of H and E v are built chunk by chunk
    batch, _ = _batch(91, 19, freq2, seed=6)
    shapes = []
    apply_rows = spectral._apply_rows

    def counted(bands, V):
        shapes.append(V.shape)
        return apply_rows(bands, V)

    monkeypatch.setattr(spectral, "_apply_rows", counted)
    nearest_eigenvalues(batch, np.exp(1j))
    c = spectral._CHUNK
    assert shapes == [(c, 91)] * (19 // c) + [(19 % c, 91)]
