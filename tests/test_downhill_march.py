"""The ``_solve_phase`` march walks toward its root first.

The march queries one +1 step.  When that step finds no root and the
phase defect keeps its sign and grows, it marches -1 in full before it
resumes +1 from the second step; otherwise it marches +1 in full, then -1.
Each test records the phase of every window queried, in order, and checks
the result bit for bit against a per-query oracle that builds every window
alone when its query comes: ``solve_phase_oracle`` (copied from
``tests/test_batched_queries.py``) marches +1 in full first, and
``downhill_oracle`` follows the order above.
"""

from itertools import accumulate

import numpy as np
import pytest

import cmvspec.multiscale as ms
from cmvspec.cmv import FiniteCMV, VerblunskySequence, build_finite_cmv
from cmvspec.presets import localization_example
from cmvspec.spectral import nearest_eigenvalue
from cmvspec.torus import reduce_phase
from cmvspec.util import phase_of, wrap_angle

ONE = 1.0 + 0j
X0 = np.array([0.31, 0.62])
WINDOW = (-8, 8)
SPAN, COARSE = 0.15, 31
STEP = SPAN / (COARSE - 1)


@pytest.fixture(scope="module")
def loc(freq2):
    """(f, om, z0): the localization preset and the eigenvalue nearest
    e^{2.5i} of the window at X0, so a root lies at t = X0[-1]."""
    f, om = localization_example(), freq2.array()
    z0 = _query(f, om, WINDOW, X0, np.exp(2.5j))[0]
    return f, om, z0


def _query(f, om, window, coords, z, beta=ONE, eta=ONE):
    seq = VerblunskySequence(f, om, reduce_phase(coords))
    return nearest_eigenvalue(build_finite_cmv(seq, *window, beta=beta, eta=eta), z)


def _gap(lam, theta):
    return wrap_angle(phase_of(lam) - theta)


def _same(got, want):
    (x, d), (x_want, d_want) = got, want
    assert d == d_want
    assert (x is None) == (x_want is None)
    if x is not None:
        assert x.coords == x_want.coords


def solve_phase_oracle(f, om, window, z, x_init, span, coarse, accept=None):
    theta = phase_of(z)

    def point_at(t):
        coords = x_init.copy()
        coords[-1] = t
        return reduce_phase(coords)

    def nearest(t, ref):
        return (*_query(f, om, window, point_at(t).array(), ref), None)

    def accepted(t):
        return accept is None or accept(point_at(t))

    t0 = x_init[-1]
    lam0 = nearest(t0, z)[0]
    best_d, best_t = float(abs(lam0 - z)), t0
    if best_d < ms._ROOT_TOL and accepted(t0):
        return point_at(t0), best_d
    step = span / max(coarse - 1, 1)
    for dirn in (1.0, -1.0):
        t, lam = t0, lam0
        g = _gap(lam, theta)
        for _ in range(coarse):
            t_next = t + dirn * step
            lam_next = nearest(t_next, lam)[0]
            g_next = _gap(lam_next, theta)
            d_next = float(abs(lam_next - z))
            if d_next < best_d:
                best_d, best_t = d_next, t_next
            if d_next < ms._ROOT_TOL and accepted(t_next):
                return point_at(t_next), d_next
            if np.sign(g_next) != np.sign(g) and abs(g_next - g) < np.pi:
                d_root, t_root, _ = ms._bracket_root(nearest, theta, (t, lam),
                                                     (t_next, lam_next))
                if d_root < ms._NEAR_ROOT and accepted(t_root):
                    return point_at(t_root), d_root
            t, lam, g = t_next, lam_next, g_next
    if best_d < ms._NEAR_ROOT and accepted(best_t):
        return point_at(best_t), best_d
    return None, best_d


def downhill_oracle(f, om, window, z, x_init, span, coarse, accept=None):
    theta = phase_of(z)
    best = {}

    def point_at(t):
        coords = x_init.copy()
        coords[-1] = t
        return reduce_phase(coords)

    def nearest(t, ref):
        return (*_query(f, om, window, point_at(t).array(), ref), None)

    def accepted(t):
        return accept is None or accept(point_at(t))

    def walk(dirn, state, n):
        """n steps from state (t, lam, g): (accepted root or None, last state)."""
        t, lam, g = state
        for _ in range(n):
            t_next = t + dirn * step
            lam_next = nearest(t_next, lam)[0]
            g_next = _gap(lam_next, theta)
            d_next = float(abs(lam_next - z))
            if d_next < best["d"]:
                best.update(d=d_next, t=t_next)
            if d_next < ms._ROOT_TOL and accepted(t_next):
                return (point_at(t_next), d_next), None
            if np.sign(g_next) != np.sign(g) and abs(g_next - g) < np.pi:
                d_root, t_root, _ = ms._bracket_root(nearest, theta, (t, lam),
                                                     (t_next, lam_next))
                if d_root < ms._NEAR_ROOT and accepted(t_root):
                    return (point_at(t_root), d_root), None
            t, lam, g = t_next, lam_next, g_next
        return None, (t, lam, g)

    t0 = x_init[-1]
    lam0 = nearest(t0, z)[0]
    best.update(d=float(abs(lam0 - z)), t=t0)
    if best["d"] < ms._ROOT_TOL and accepted(t0):
        return point_at(t0), best["d"]
    step = span / max(coarse - 1, 1)
    start = (t0, lam0, _gap(lam0, theta))
    root, ahead = walk(1.0, start, 1)
    if root is not None:
        return root
    g0, g1 = start[2], ahead[2]
    if np.sign(g1) == np.sign(g0) and abs(g1) > abs(g0):
        legs = [(-1.0, start, coarse), (1.0, ahead, coarse - 1)]
    else:
        legs = [(1.0, ahead, coarse - 1), (-1.0, start, coarse)]
    for dirn, state, n in legs:
        root, _ = walk(dirn, state, n)
        if root is not None:
            return root
    if best["d"] < ms._NEAR_ROOT and accepted(best["t"]):
        return point_at(best["t"]), best["d"]
    return None, best["d"]


def record(monkeypatch):
    """Patch the window builder, ``row`` and the query so that every query
    appends the last phase coordinate of its window to the returned list,
    in order; ``built`` collects the same coordinate of every row built."""
    queried, built, tags = [], [], {}
    keep = []                   # holds every batch and row, so no id is reused
    windows, row, nearest = ms._windows, FiniteCMV.row, ms.nearest_eigenvalue

    def recorded_windows(f_, om_, window, points, beta, eta):
        m = windows(f_, om_, window, points, beta, eta)
        ts = np.reshape(points, (-1, f_.dim))[:, -1]
        keep.append(m)
        tags[id(m)] = ts
        built.extend(ts)
        return m

    def recorded_row(self, k):
        r = row(self, k)
        keep.append(r)
        tags[id(r)] = tags[id(self)][k]
        return r

    def recorded_nearest(m, z):
        queried.append(tags[id(m)])
        return nearest(m, z)

    monkeypatch.setattr(ms, "_windows", recorded_windows)
    monkeypatch.setattr(FiniteCMV, "row", recorded_row)
    monkeypatch.setattr(ms, "nearest_eigenvalue", recorded_nearest)
    return queried, built


def grid(t0, dirn):
    """The march's step phases in one direction, as the march forms them."""
    return list(accumulate([t0] + [dirn * STEP] * COARSE))[1:]


def test_a_root_just_behind_x_init_is_found_at_the_first_minus_step(loc, monkeypatch):
    f, om, z0 = loc
    z = z0 * np.exp(-0.02j)     # its branch is monotone across this root
    root, _ = downhill_oracle(f, om, WINDOW, z, X0, SPAN, COARSE)
    assert root.coords[-1] < X0[-1]
    x_init = np.array(root.coords) + np.array([0.0, 0.5 * STEP])
    t0 = x_init[-1]
    queried, built = record(monkeypatch)
    got = ms._solve_phase(f, om, WINDOW, z, x_init, ONE, ONE, span=SPAN,
                          coarse=COARSE)
    ahead, behind = grid(t0, 1.0), grid(t0, -1.0)
    assert got[0] is not None and got[0].coords[-1] < t0
    # x_init, one +1 step, then the first -1 step and its bracket only
    assert queried[:3] == [t0, ahead[0], behind[0]]
    assert [t for t in queried if t > t0] == [ahead[0]]
    assert [t for t in queried if t in behind] == [behind[0]]
    assert all(behind[0] < t < t0 for t in queried[3:])
    # one -1 row, built when its query comes
    assert [t for t in built if t in behind] == [behind[0]]
    _same(got, solve_phase_oracle(f, om, WINDOW, z, x_init, SPAN, COARSE))
    _same(got, downhill_oracle(f, om, WINDOW, z, x_init, SPAN, COARSE))


# a +1 step that moves the defect away from zero, an accepted root within
# the +1 span all the same, and one a few steps down the -1 side
BOTH_SIDES = (-0.01, -0.02)     # (arg z - arg z0, last coordinate of x_init - X0)


def _both_sides(loc):
    f, om, z0 = loc
    dtheta, offset = BOTH_SIDES
    return f, om, z0 * np.exp(1j * dtheta), X0 + np.array([0.0, offset])


def test_roots_on_both_sides_return_the_minus_root(loc, monkeypatch):
    f, om, z, x_init = _both_sides(loc)
    t0 = x_init[-1]
    old = solve_phase_oracle(f, om, WINDOW, z, x_init, SPAN, COARSE)
    assert old[0] is not None and old[0].coords[-1] > t0
    queried, _ = record(monkeypatch)
    got = ms._solve_phase(f, om, WINDOW, z, x_init, ONE, ONE, span=SPAN,
                          coarse=COARSE)
    assert got[0] is not None and got[0].coords[-1] < t0
    # the +1 side queries its first step only: the -1 side holds the root
    ahead = grid(t0, 1.0)
    assert [t for t in queried if t > t0] == [ahead[0]]
    _same(got, downhill_oracle(f, om, WINDOW, z, x_init, SPAN, COARSE))


def test_a_march_that_accepts_no_root_queries_both_sides_in_full(loc, monkeypatch):
    f, om, z, x_init = _both_sides(loc)
    t0 = x_init[-1]

    def never(x):
        return False

    queried, built = record(monkeypatch)
    got = ms._solve_phase(f, om, WINDOW, z, x_init, ONE, ONE, span=SPAN,
                          coarse=COARSE, accept=never)
    assert got[0] is None
    ahead, behind = grid(t0, 1.0), grid(t0, -1.0)
    marched = [t for t in queried if t in ahead or t in behind]
    # one +1 step, the whole -1 side, then the rest of +1
    assert marched == [ahead[0]] + behind + ahead[1:]
    assert sorted(t for t in built if t in ahead or t in behind) == sorted(marched)
    _same(got, solve_phase_oracle(f, om, WINDOW, z, x_init, SPAN, COARSE, never))
    _same(got, downhill_oracle(f, om, WINDOW, z, x_init, SPAN, COARSE, never))
