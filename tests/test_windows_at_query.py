"""Each window is built when its query comes.

The ``_solve_phase`` march builds x_init's window and each step's window
through one ``_windows`` call at that step's query, so the windows it
builds are exactly the windows it queries, in the same order.  A coverage
refinement probe is built first and then looked up among the seed
windows: a probe whose coefficients are a seed window's is that seed
object, so the refinement's cache and the window's kept factors apply.
"""

import numpy as np
import pytest

import cmvspec.coverage as cov
import cmvspec.multiscale as ms
from cmvspec import spectral
from cmvspec.cmv import FiniteCMV, VerblunskySequence, build_finite_cmv
from cmvspec.presets import localization_example
from cmvspec.torus import Phase
from cmvspec.util import counter_rng

ONE = 1.0 + 0j
X0 = np.array([0.31, 0.62])
WINDOW = (-8, 8)


@pytest.fixture(scope="module")
def loc(freq2):
    f, om = localization_example(), freq2.array()
    z0 = spectral.nearest_eigenvalue(ms._windows(f, om, WINDOW, X0, ONE, ONE).row(0),
                                     np.exp(2.5j))[0]
    return f, om, z0


def march(monkeypatch, f, om, z, x_init, span, coarse, accept=None):
    """Run ``_solve_phase``; returns (result, built, queried): the last phase
    coordinate of each row ``_windows`` builds and of each row queried, in
    order, and the number of rows of each ``_windows`` call."""
    built, queried, sizes, tags = [], [], [], {}
    keep = []                   # holds every window and row, so no id is reused
    windows, row, nearest = ms._windows, FiniteCMV.row, ms.nearest_eigenvalue

    def recorded_windows(f_, om_, window, points, beta, eta):
        m = windows(f_, om_, window, points, beta, eta)
        ts = list(np.reshape(points, (-1, f_.dim))[:, -1])
        keep.append(m)
        tags[id(m)] = ts
        built.extend(ts)
        sizes.append(len(ts))
        return m

    def recorded_row(self, k):
        r = row(self, k)
        if id(self) in tags:
            keep.append(r)
            tags[id(r)] = tags[id(self)][k]
        return r

    def recorded_nearest(m, z_):
        queried.append(tags[id(m)])
        return nearest(m, z_)

    monkeypatch.setattr(ms, "_windows", recorded_windows)
    monkeypatch.setattr(FiniteCMV, "row", recorded_row)
    monkeypatch.setattr(ms, "nearest_eigenvalue", recorded_nearest)
    got = ms._solve_phase(f, om, WINDOW, z, x_init, ONE, ONE, span=span,
                          coarse=coarse, accept=accept)
    return got, built, queried, sizes


def by_side(ts, t0):
    """Counts of the phases behind, at and ahead of t0."""
    return {d: sum(1 for t in ts if np.sign(t - t0) == d) for d in (-1, 0, 1)}


# the cases of tests/test_march_chunks.py
@pytest.mark.parametrize("dtheta, offset", [(-0.005, -0.05), (-0.01, 0.1),
                                           (-0.02, 0.01), (-0.03, 0.01)])
@pytest.mark.parametrize("coarse", [33, 91])
def test_the_march_builds_exactly_the_windows_it_queries(loc, dtheta, offset,
                                                         coarse, monkeypatch):
    f, om, z0 = loc
    x_init = X0 + np.array([0.0, offset])
    got, built, queried, sizes = march(monkeypatch, f, om, z0 * np.exp(1j * dtheta),
                                       x_init, 0.3, coarse)
    assert got[0] is not None
    assert sizes == [1] * len(sizes)
    assert built == queried
    assert queried[0] == x_init[-1]
    assert by_side(built, x_init[-1])[0] == 1


def test_a_full_march_builds_exactly_the_windows_it_queries(loc, monkeypatch):
    f, om, z0 = loc
    got, built, queried, sizes = march(monkeypatch, f, om, z0, X0, 0.2, 11,
                                       accept=lambda x: False)
    assert got[0] is None
    assert sizes == [1] * len(sizes)
    assert built == queried
    counts = by_side(built, X0[-1])
    assert counts[0] == 1 and counts[-1] >= 11 and counts[1] >= 11


def test_a_probe_with_a_seed_windows_coefficients_is_that_seed(f_two_mode, freq2,
                                                               monkeypatch):
    samples, seed, window = 2, 3, 10
    builds, probes = [], []
    build, refine = cov.build_finite_cmv, cov._refine

    def recorded_build(*args, **kwargs):
        m = build(*args, **kwargs)
        builds.append(m)
        return m

    def recorded_refine(build_at, z, x0, d0, m0, *rest):
        probes.append((build_at, x0, m0))
        return refine(build_at, z, x0, d0, m0, *rest)

    monkeypatch.setattr(cov, "build_finite_cmv", recorded_build)
    monkeypatch.setattr(cov, "_refine", recorded_refine)
    cov.interval_coverage_scan(f_two_mode, freq2, (0.0, 2 * np.pi), grid=36,
                               window=window, tol=0.02, phase_samples=samples,
                               seed=seed)
    assert probes
    seeds = builds[:samples]
    phases = [counter_rng(seed, s).random(f_two_mode.dim) for s in range(samples)]
    build_at, x0, m0 = probes[0]
    assert any(m0 is s for s in seeds)
    assert build_at(x0.copy()) is m0
    for phase, seed_window in zip(phases, seeds):
        n = len(builds)
        assert build_at(phase.copy()) is seed_window
        assert len(builds) == n + 1             # built once, then looked up
    # a probe off every seed is the window it builds
    off = x0.copy()
    off[-1] += 0.01
    m = build_at(off)
    assert m is builds[-1] and not any(m is s for s in seeds)
    fresh = build_finite_cmv(VerblunskySequence(f_two_mode, freq2,
                                                Phase(tuple(off % 1.0))),
                             -window, window)
    for name in ("bands", "alpha", "rho"):
        assert getattr(m, name).tobytes() == getattr(fresh, name).tobytes()
