"""The ``_solve_phase`` march builds its step windows as it reaches them.

Each direction of the march builds each step's window when that step's
query comes, so a march that stops early leaves no window built and never
queried, well under the one chunk of ``spectral._CHUNK`` rows these
counts allow.  The rows are the windows alone bit for bit
(``tests/test_batched_queries.py`` pins the march against a per-query
oracle), so only the count of rows built against rows queried is checked
here, per direction.
"""

import numpy as np
import pytest

import cmvspec.multiscale as ms
from cmvspec import spectral
from cmvspec.cmv import FiniteCMV
from cmvspec.presets import localization_example

ONE = 1.0 + 0j
X0 = np.array([0.31, 0.62])
WINDOW = (-8, 8)


def count_rows(monkeypatch, f, om, z, x_init, span, coarse, accept=None):
    """Run ``_solve_phase`` and return (result, {direction: [built,
    queried]}) for the rows of the step batches, by the sign of each row's
    step from x_init; the one-window queries at x_init itself count under 0."""
    t0 = x_init[-1]
    batches, rows = {}, {}
    counts = {-1: [0, 0], 0: [0, 0], 1: [0, 0]}
    keep = []                   # holds every batch and row, so no id is reused
    windows, row, nearest = ms.WindowFamily.at, FiniteCMV.row, ms.nearest_eigenvalues

    def counted_windows(family, points):
        m = windows(family, points)
        dirs = np.sign(np.reshape(points, (-1, f.dim))[:, -1] - t0).astype(int)
        keep.append(m)
        batches[id(m)] = dirs
        for d in dirs:
            counts[d][0] += 1
        return m

    def counted_row(self, k):
        r = row(self, k)
        if id(self) in batches:
            keep.append(r)
            rows[id(r)] = int(batches[id(self)][k])
        return r

    def counted_nearest(m, z_):
        for d in batches[id(m)]:
            counts[d][1] += 1
        return nearest(m, z_)

    monkeypatch.setattr(ms.WindowFamily, "at", counted_windows)
    monkeypatch.setattr(FiniteCMV, "row", counted_row)
    monkeypatch.setattr(ms, "nearest_eigenvalues", counted_nearest)
    got = ms._solve_phase(ms.WindowFamily(f, om, WINDOW, ONE, ONE), z, x_init,
                          span=span, coarse=coarse, accept=accept)
    return got, counts


@pytest.fixture(scope="module")
def loc(freq2):
    f, om = localization_example(), freq2.array()
    z0 = spectral.nearest_eigenvalue(
        ms.WindowFamily(f, om, WINDOW, ONE, ONE).at(X0).row(0), np.exp(2.5j))[0]
    return f, om, z0


@pytest.mark.parametrize("dtheta, offset", [(-0.005, -0.05), (-0.01, 0.1),
                                           (-0.02, 0.01), (-0.03, 0.01)])
@pytest.mark.parametrize("coarse", [33, 91])
def test_rows_built_exceed_rows_queried_by_less_than_a_chunk(loc, dtheta, offset,
                                                             coarse, monkeypatch):
    f, om, z0 = loc
    got, counts = count_rows(monkeypatch, f, om, z0 * np.exp(1j * dtheta),
                             X0 + np.array([0.0, offset]), 0.3, coarse)
    assert got[0] is not None
    for d in (-1, 1):
        built, queried = counts[d]
        assert 0 <= built - queried < spectral._CHUNK, (d, counts)
    built, queried = counts[0]
    assert built == queried == 1


def test_an_early_stop_leaves_the_rest_of_the_direction_unbuilt(loc, monkeypatch):
    # a root a few steps into the first direction: the whole direction
    # built at once would leave most of its 91 rows unqueried
    f, om, z0 = loc
    got, counts = count_rows(monkeypatch, f, om, z0 * np.exp(-0.005j),
                             X0 + np.array([0.0, -0.05]), 0.3, 91)
    assert got[0] is not None
    built, queried = counts[1]
    assert 0 < queried < 91 - spectral._CHUNK
    assert built - queried < spectral._CHUNK
    assert counts[-1] == [0, 0]


def test_a_full_march_queries_every_row_it_builds(loc, monkeypatch):
    f, om, z0 = loc
    got, counts = count_rows(monkeypatch, f, om, z0, X0, 0.2, 11,
                             accept=lambda x: False)
    assert got[0] is None
    assert counts[1][0] == counts[1][1] >= 11
    assert counts[-1][0] == counts[-1][1] >= 11
