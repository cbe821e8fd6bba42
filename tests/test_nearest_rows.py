"""Every row of the nearest-value query routine is the window queried alone.

``spectral._nearest`` answers one window or a batch with one row per window:
(value, ungauged vector, residual, tie).  Row k of a batch must equal the
row of window k queried alone bit for bit, vector included, on each path:
the banded one, a tie, a shift that ``zgbtrf`` reports singular, and
windows of 1 and 2 sites, which go to ``eigenphases`` directly.
"""

import numpy as np
import pytest
from scipy.linalg import lapack

from cmvspec import spectral
from cmvspec.cmv import VerblunskySequence, build_finite_cmv
from cmvspec.presets import localization_example
from cmvspec.spectral import eigenphases, nearest_eigenpair
from cmvspec.torus import Phase

from conftest import random_unit


def _batch(sites, rows, freq2, seed):
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


def _bits(row):
    value, vector, residual, tie = row
    return (np.complex128(value).tobytes(), None if vector is None else vector.tobytes(),
            np.float64(residual).tobytes(), tie)


def assert_rows_alone(batch, alone, z):
    """Each batched row equals the window alone; returns the rows."""
    rows = spectral._nearest(batch, z)
    assert len(rows) == len(alone)
    for k, row in enumerate(rows):
        assert _bits(row) == _bits(spectral._nearest(alone[k], z)[0])
        assert _bits(row) == _bits(spectral._nearest(batch.row(k), z)[0])
        value, vector, residual = nearest_eigenpair(alone[k], z)
        assert (value, residual) == (row[0], row[2])
        assert (vector is None) == (row[1] is None)
    return rows


@pytest.mark.parametrize("sites", [21, 91])
def test_banded_rows_carry_the_vector_alone(sites, freq2):
    # 11 rows: a full chunk and a partial one
    batch, alone = _batch(sites, 11, freq2, seed=20 + sites)
    for z in (np.exp(0.7j), 0.5 * np.exp(2.2j)):
        rows = assert_rows_alone(batch, alone, z)
        for k, (value, vector, residual, tie) in enumerate(rows):
            assert vector is not None and not tie
            assert residual <= spectral._RES_TOL
            assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-14)
            w = eigenphases(alone[k])
            assert abs(value - w[int(np.argmin(np.abs(w - z)))]) <= 1e-12


def test_tied_row(freq2):
    batch, alone = _batch(21, 11, freq2, seed=3)
    theta = np.sort(np.angle(eigenphases(batch.row(6))) % (2 * np.pi))
    z = np.exp(0.5j * (theta[7] + theta[8]))     # midway between two eigenvalues
    rows = assert_rows_alone(batch, alone, z)
    assert [k for k, row in enumerate(rows) if row[3]] == [6]
    w = eigenphases(alone[6])
    assert rows[6] == (w[int(np.argmin(np.abs(w - z)))], None, 0.0, True)
    assert all(row[1] is not None for k, row in enumerate(rows) if k != 6)


def test_row_sent_dense_by_a_singular_factorization(freq2, monkeypatch):
    batch, alone = _batch(91, 10, freq2, seed=8)
    z = np.exp(1.9j)
    u = z / abs(z)
    n = batch.size
    target = 0.5 * (np.conj(u) * batch.bands[2, 3, :n - 1] + u * np.conj(batch.bands[2, 1, 1:]))
    factor = lapack.zgbtrf

    def singular_for_row_2(ab, kl, ku):
        lu, piv, info = factor(ab, kl, ku)
        return lu, piv, 1 if np.array_equal(ab[3, 1:], target) else info

    monkeypatch.setattr(lapack, "zgbtrf", singular_for_row_2)
    rows = assert_rows_alone(batch, alone, z)
    w = eigenphases(alone[2])
    assert rows[2] == (w[int(np.argmin(np.abs(w - z)))], None, 0.0, False)
    assert all(row[1] is not None for k, row in enumerate(rows) if k != 2)


@pytest.mark.parametrize("sites", [1, 2])
def test_windows_below_three_sites(sites, freq2, monkeypatch):
    def no_band(*args, **kwargs):
        raise AssertionError("a window below 3 sites reached the banded solver")

    monkeypatch.setattr(lapack, "zhbevx", no_band)
    batch, alone = _batch(sites, 9, freq2, seed=sites)
    for z in (np.exp(2.8j), 0.4j):
        for k, row in enumerate(assert_rows_alone(batch, alone, z)):
            w = eigenphases(alone[k])
            assert row == (w[int(np.argmin(np.abs(w - z)))], None, 0.0, False)
