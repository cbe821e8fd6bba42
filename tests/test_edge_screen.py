"""The stacked Hermitian screen behind ``suggest_center``.

``eigen_screen`` reads each window's eigenvalues and edge values from
stacked ``np.linalg.eigh`` solves of (E + E*)/2, and ``edge_candidates``
confirms by ``eigensolve`` every window it takes a candidate from.  These
tests compare the screen with ``eigensolve`` window by window, check where
it falls back, and compare ``suggest_center`` with a per-window
``eigensolve`` oracle.
"""

import numpy as np
import pytest

from cmvspec import spectral
from cmvspec.cmv import VerblunskySequence, build_finite_cmv
from cmvspec.cocycle import SpectralPoint
from cmvspec.multiscale import ScaleSchedule, suggest_center
from cmvspec.presets import localization_example, single_mode
from cmvspec.spectral import edge_candidates, edge_value, eigen_screen, eigensolve
from cmvspec.torus import Phase, SamplingFunction

from conftest import random_unit

DESK_OVERRIDES = {
    "separation": 1e-3, "good_dist": 1e-4, "box_radius": 1e-4,
    "arc_radius": 1e-4, "c_threshold": 5e-4, "upsilon_floor": 1e-4,
    "d_floor_log": -8.0, "solver_tol": 1e-9, "step_separation": 1e-4,
}
# d = 1 with edge-localized window states near theta 2.5 (one Fourier mode
# alone is a gauge of constant alpha and has none)
TWO_MODE_D1 = SamplingFunction(dim=1, coeffs={(1,): 0.45, (-1,): 0.45j})


def _batch(f, omega, sites, rows, seed, cut=None):
    rng = np.random.default_rng(seed)
    cut = cut or (random_unit(rng), random_unit(rng))
    xs = rng.random((rows, f.dim))
    a = -(sites // 2)
    return build_finite_cmv(VerblunskySequence(f, omega, xs), a, a + sites - 1, *cut)


@pytest.fixture
def eigensolve_calls(monkeypatch):
    """Sizes of the windows ``spectral.eigensolve`` is called on."""
    calls = []

    def counted(m, *args):
        calls.append(m.size)
        return eigensolve(m, *args)

    monkeypatch.setattr(spectral, "eigensolve", counted)
    return calls


def candidate_oracle(m, z, edge_thr):
    """(dist, value, k) of every pair with edge value below edge_thr, from
    ``eigensolve`` on each window, in ``suggest_center``'s order."""
    found = [(abs(p.value - z), p.value, k) for k in range(len(m.bands))
             for p in eigensolve(m.row(k)) if edge_value(p.vector) < edge_thr]
    return sorted(found, key=lambda c: c[0])


def suggest_center_oracle(f, om, near_theta, n0, schedule, scan_grid):
    """``suggest_center`` without a probe, from ``eigensolve`` on every
    window built alone."""
    axes = [np.arange(scan_grid) / scan_grid] * f.dim
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, f.dim)
    target = np.exp(1j * near_theta)
    candidates = []
    for xv in mesh:
        seq = VerblunskySequence(f, om, Phase(tuple(xv)))
        for p in eigensolve(build_finite_cmv(seq, -n0, n0)):
            if edge_value(p.vector) < schedule.proximity(n0):
                candidates.append((abs(p.value - target), p.value,
                                   tuple(float(v) for v in xv)))
    candidates.sort(key=lambda c: c[0])
    return candidates[0][1], Phase(candidates[0][2])


@pytest.fixture(scope="module")
def sched():
    return ScaleSchedule(n0=10, growth=1.55, overrides=dict(DESK_OVERRIDES))


# --------------------------------------------------------------------------
# the screen, window by window


@pytest.mark.parametrize("sites", [21, 33])
@pytest.mark.parametrize("case", ["d1", "d2"])
def test_rows_match_eigensolve(case, sites, freq1, freq2):
    f, omega = {"d1": (single_mode(0.7, dim=1), freq1),
                "d2": (localization_example(), freq2)}[case]
    m = _batch(f, omega, sites, 20, seed=sites)
    screens = eigen_screen(m)
    assert len(screens) == 20 and None not in screens
    for k, (values, edges) in enumerate(screens):
        pairs = eigensolve(m.row(k))
        assert np.max(np.abs(values - [p.value for p in pairs])) < 1e-13
        assert np.max(np.abs(edges - [edge_value(p.vector) for p in pairs])) < 1e-12


def test_real_window_takes_eigensolve(f_const, freq1, eigensolve_calls):
    # real bands and cuts: the eigenvalues pair up as e^{+-i theta}, one cos each
    m = _batch(f_const, freq1, 21, 3, seed=2, cut=(1.0 + 0j, -1.0 + 0j))
    assert not m.bands.imag.any()
    assert eigen_screen(m) == [None] * 3
    z = np.exp(1j)
    got = list(edge_candidates(m, z, 0.5))
    assert eigensolve_calls == [21] * 3
    assert got and got == candidate_oracle(m, z, 0.5)


def test_zero_residual_tolerance_sends_every_row_to_eigensolve(
        freq2, sched, eigensolve_calls, monkeypatch):
    f, om = localization_example(), freq2.array()
    want = suggest_center(f, om, 2.5, 10, sched, scan_grid=8, probe_halfwidth=35)
    assert len(eigensolve_calls) < 64
    monkeypatch.setattr(spectral, "_SCREEN_RES_TOL", 0.0)
    assert eigen_screen(_batch(f, om, 21, 9, seed=4)) == [None] * 9
    del eigensolve_calls[:]
    got = suggest_center(f, om, 2.5, 10, sched, scan_grid=8, probe_halfwidth=35)
    assert eigensolve_calls == [21] * 64
    assert got[0].theta == want[0].theta and got[1] == want[1]


def test_eigh_sees_at_most_a_chunk(freq2, sched, monkeypatch):
    seen = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        seen.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    suggest_center(localization_example(), freq2, 2.5, 10, sched, scan_grid=7)
    assert max(seen) == spectral._CHUNK
    assert sum(seen) == 49


# --------------------------------------------------------------------------
# candidates and centers against eigensolve on every window


def test_candidates_follow_eigensolve_order(freq2, eigensolve_calls):
    m = _batch(localization_example(), freq2, 17, 24, seed=9, cut=(1.0 + 0j, 1.0 + 0j))
    z, thr = np.exp(2.5j), 0.2
    want = candidate_oracle(m, z, thr)
    del eigensolve_calls[:]
    found = edge_candidates(m, z, thr)
    assert next(found) == want[0]
    assert 1 <= len(eigensolve_calls) < 24      # only windows it yields from
    assert len(want) > 5
    assert list(found) == want[1:]


@pytest.mark.parametrize("case", ["d1", "d2"])
def test_suggest_center_matches_oracle(case, freq1, freq2, sched):
    f, omega, grid = {"d1": (TWO_MODE_D1, freq1.array(), 24),
                      "d2": (localization_example(), freq2.array(), 9)}[case]
    z, x = suggest_center(f, omega, 2.5, 10, sched, scan_grid=grid)
    z_want, x_want = suggest_center_oracle(f, omega, 2.5, 10, sched, grid)
    assert z.theta == SpectralPoint.from_z(z_want).theta and x == x_want
