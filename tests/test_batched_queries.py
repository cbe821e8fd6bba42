"""Multiscale query sets over one batched window build.

The root solvers and ``suggest_center`` build the windows of a query set in
one ``_windows`` call and query the rows in order.  Each is compared here,
bit for bit, with a per-query oracle that builds every window alone when
its query comes, as the solvers did before the batch: the same queries in
the same order with the same early exits give the same results.
"""

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

import cmvspec.multiscale as ms
from cmvspec import spectral
from cmvspec.cmv import VerblunskySequence, build_finite_cmv
from cmvspec.cocycle import SpectralPoint
from cmvspec.multiscale import (InductiveState, ScaleSchedule, inductive_advance,
                                suggest_center, verify_conditions_ABCD)
from cmvspec.presets import localization_example, single_mode
from cmvspec.spectral import eigenphases, nearest_eigenvalue
from cmvspec.torus import Phase, reduce_phase
from cmvspec.util import phase_of, wrap_angle

from conftest import random_unit

SRC = Path(__file__).resolve().parents[1] / "src" / "cmvspec"
ONE = 1.0 + 0j
DESK_OVERRIDES = {
    "separation": 1e-3, "good_dist": 1e-4, "box_radius": 1e-4,
    "arc_radius": 1e-4, "c_threshold": 5e-4, "upsilon_floor": 1e-4,
    "d_floor_log": -8.0, "solver_tol": 1e-9, "step_separation": 1e-4,
}
X0 = np.array([0.31, 0.62])


@pytest.fixture(scope="module")
def loc(freq2):
    """(f, om, z0): the localization preset and the eigenvalue nearest
    e^{2.5i} of the window [-8, 8] at X0."""
    f, om = localization_example(), freq2.array()
    z0 = _query(f, om, (-8, 8), X0, np.exp(2.5j))[0]
    return f, om, z0


# --------------------------------------------------------------------------
# per-query oracles: one window built alone per query


def _query(f, om, window, coords, z, beta=ONE, eta=ONE):
    seq = VerblunskySequence(f, om, reduce_phase(coords))
    return nearest_eigenvalue(build_finite_cmv(seq, *window, beta=beta, eta=eta), z)


def _gap(lam, theta):
    return wrap_angle(phase_of(lam) - theta)


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


def gauss_newton_oracle(f, om, window, theta0, x_init):
    z = np.exp(1j * theta0)

    def defect(coords):
        lam = _query(f, om, window, coords, z)[0]
        return _gap(lam, theta0), float(abs(lam - z))

    x = x_init.copy() % 1.0
    best_x, best_d = x.copy(), np.inf
    for _ in range(ms._GN_ITERS):
        g, dist = defect(x)
        if dist < best_d:
            best_x, best_d = x.copy(), dist
        if dist < ms._ROOT_TOL:
            return reduce_phase(x), dist
        alone = build_finite_cmv(VerblunskySequence(f, om, reduce_phase(x)), *window)
        grad = spectral.eigenphase_gradient(alone, z, f.alpha_gradient(
            x + np.arange(window[0] - 1, window[1] + 1)[:, None] * om))[1]
        n2 = float(grad @ grad)
        if n2 < 1e-18:
            break
        step = -g * grad / n2
        nrm = float(np.linalg.norm(step))
        if nrm > ms._GN_MAX_STEP:
            step *= ms._GN_MAX_STEP / nrm
        x = (x + step) % 1.0
    if best_d < ms._NEAR_ROOT:
        return reduce_phase(best_x), best_d
    return None, best_d


def planar_oracle(f, om, window, theta0, x_init):
    z = np.exp(1j * theta0)
    d = len(x_init)
    offs = np.linspace(-ms._PLANAR_RADIUS, ms._PLANAR_RADIUS, ms._PLANAR_GRID)
    best_pos, best_neg = None, None
    best_d, best_x = np.inf, x_init
    grid = [np.array([o]) for o in offs] if d == 1 else \
        [np.array([o1, o2]) for o1 in offs for o2 in offs]
    for off in grid:
        xx = x_init + np.pad(off, (d - len(off), 0))
        lam = _query(f, om, window, xx, z)[0]
        g, dist = _gap(lam, theta0), float(abs(lam - z))
        if dist < best_d:
            best_d, best_x = dist, xx.copy()
        if dist < ms._ROOT_TOL:
            return reduce_phase(xx), dist
        if g > 0 and (best_pos is None or g < best_pos[0]):
            best_pos = (g, xx.copy(), lam)
        if g < 0 and (best_neg is None or -g < best_neg[0]):
            best_neg = (-g, xx.copy(), lam)
    if best_pos is not None and best_neg is not None:
        lo, hi = best_neg[1], best_pos[1]

        def query(t, _ref):
            x = lo + t * (hi - lo)
            return (*_query(f, om, window, x, z), x)

        dist, _, x = ms._bracket_root(query, theta0, (0.0, best_neg[2]),
                                      (1.0, best_pos[2]))
        if dist < ms._ROOT_TOL:
            return reduce_phase(x), dist
        if dist < best_d:
            best_d, best_x = dist, x
    return gauss_newton_oracle(f, om, window, theta0, best_x)


def eigen_gradient_oracle(f, om, window, z, x):
    h = ms._D_FD_STEP
    base = np.array(x.coords)
    grad = np.zeros(len(base), dtype=complex)
    rich = 0.0
    for i, e in enumerate(np.eye(len(base))):
        g1 = (_query(f, om, window, base + h * e, z)[0]
              - _query(f, om, window, base - h * e, z)[0]) / (2 * h)
        g2 = (_query(f, om, window, base + 0.5 * h * e, z)[0]
              - _query(f, om, window, base - 0.5 * h * e, z)[0]) / h
        grad[i] = g2
        rich = max(rich, abs(g1 - g2) / max(abs(g2), 1e-12))
    return grad, rich


def suggest_center_oracle(f, om, near_theta, n0, schedule, scan_grid, probe_halfwidth):
    d = f.dim
    edge_thr = schedule.proximity(n0)
    target = np.exp(1j * near_theta)
    candidates = []
    axes = [np.arange(scan_grid) / scan_grid] * d
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    for xv in mesh:
        seq = VerblunskySequence(f, om, Phase(tuple(xv)))
        for p in spectral.eigensolve(build_finite_cmv(seq, -n0, n0)):
            if spectral.edge_value(p.vector) < edge_thr:
                candidates.append((abs(p.value - target), p.value,
                                   tuple(float(v) for v in xv)))
    candidates.sort(key=lambda c: c[0])
    step = 0.01 * np.eye(d)
    offsets = [np.zeros(d), *step, *-step]
    if d == 2:
        offsets += [np.array([0.01, 0.01]), np.array([0.01, -0.01])]
    for _, value, xv in candidates[:40]:
        gs = [_gap(_query(f, om, (-probe_halfwidth, probe_halfwidth),
                          np.array(xv) + off, value)[0], phase_of(value))
              for off in offsets]
        if min(gs) < 0.0 < max(gs) or min(abs(g) for g in gs) < 1e-7:
            return SpectralPoint.from_z(value), Phase(xv)
    raise RuntimeError("no attainable candidate")


def _same(got, want):
    """(Phase or None, dist) pairs equal bit for bit."""
    (x1, d1), (x2, d2) = got, want
    assert d1 == d2
    assert (x1 is None) == (x2 is None)
    if x1 is not None:
        assert np.array_equal(x1.array(), x2.array())


# --------------------------------------------------------------------------
# rows of a batched build


@pytest.mark.parametrize("case", ["d1", "d2"])
def test_row_is_the_single_phase_window(case, freq1, freq2):
    f, omega = {"d1": (single_mode(), freq1), "d2": (localization_example(), freq2)}[case]
    rng = np.random.default_rng(5)
    xs = rng.random((4, f.dim))
    cut = (random_unit(rng), random_unit(rng))
    for (a, b), overrides in itertools.product([(-7, 12), (3, 30), (-1, 1)],
                                               [None, {0: -1j, 5: 1.0}]):
        batch = build_finite_cmv(VerblunskySequence(f, omega, xs, overrides=overrides),
                                 a, b, *cut)
        for k, x in enumerate(xs):
            one = build_finite_cmv(VerblunskySequence(f, omega, Phase(tuple(x)),
                                                      overrides=overrides), a, b, *cut)
            row = batch.row(k)
            assert (row.a, row.b, row.beta, row.eta) == (a, b, *cut)
            for name in ("bands", "alpha", "rho", "sampled_rho"):
                assert np.array_equal(getattr(row, name), getattr(one, name)), name


def test_tied_row_takes_the_dense_fallback(loc, monkeypatch):
    f, om, _ = loc
    xs = np.random.default_rng(8).random((3, 2))
    batch = ms._windows(f, om, (-8, 8), xs, ONE, ONE)
    alone = build_finite_cmv(VerblunskySequence(f, om, Phase(tuple(xs[1]))), -8, 8)
    theta = np.sort(np.angle(eigenphases(batch.row(1))) % (2 * np.pi))
    z = np.exp(0.5j * (theta[3] + theta[4]))     # midway between two eigenvalues
    dense = []
    monkeypatch.setattr(spectral, "eigenphases",
                        lambda m, *a: dense.append(m.size) or eigenphases(m, *a))
    lam, tie = nearest_eigenvalue(batch.row(1), z)
    assert tie and dense == [17]
    assert (lam, tie) == nearest_eigenvalue(alone, z)


# --------------------------------------------------------------------------
# solvers against their per-query oracles


@pytest.mark.parametrize("dtheta", [0.003, -0.02, 0.08])
def test_solve_phase_matches_oracle(loc, dtheta):
    f, om, z0 = loc
    z = z0 * np.exp(1j * dtheta)
    x_init = X0 + np.array([0.0, 0.01])
    for coarse, accept in [(31, None), (9, lambda x: x.coords[-1] > 0.7)]:
        got = ms._solve_phase(f, om, (-8, 8), z, x_init, ONE, ONE, span=0.15,
                              coarse=coarse, accept=accept)
        _same(got, solve_phase_oracle(f, om, (-8, 8), z, x_init, 0.15, coarse, accept))


def test_solve_phase_full_march_matches_oracle(loc):
    f, om, z0 = loc

    def never(x):
        return False

    got = ms._solve_phase(f, om, (-8, 8), z0, X0, ONE, ONE, span=0.2, coarse=11,
                          accept=never)
    assert got[0] is None
    _same(got, solve_phase_oracle(f, om, (-8, 8), z0, X0, 0.2, 11, never))


@pytest.mark.parametrize("offset", [(0.002, -0.001), (0.02, 0.03)])
def test_planar_and_gauss_newton_match_oracle(loc, offset):
    f, om, z0 = loc
    theta0 = phase_of(z0)
    x_init = X0 + np.array(offset)
    _same(ms._planar_solve(f, om, (-12, 12), theta0, x_init, ONE, ONE),
          planar_oracle(f, om, (-12, 12), theta0, x_init))
    _same(ms._gauss_newton_solve(f, om, (-8, 8), theta0, x_init, ONE, ONE),
          gauss_newton_oracle(f, om, (-8, 8), theta0, x_init))


def test_eigen_gradient_matches_oracle(loc):
    f, om, z0 = loc
    x = Phase(tuple(X0))
    grad, rich = ms._eigen_gradient(f, om, (-8, 8), z0, x, ONE, ONE)
    want_grad, want_rich = eigen_gradient_oracle(f, om, (-8, 8), z0, x)
    assert np.array_equal(grad, want_grad) and rich == want_rich


def test_suggest_center_matches_oracle(loc):
    f, om, _ = loc
    sched = ScaleSchedule(n0=10, growth=1.55, overrides=dict(DESK_OVERRIDES))
    z, x = suggest_center(f, om, 2.5, 10, sched, scan_grid=8, probe_halfwidth=35)
    z_want, x_want = suggest_center_oracle(f, om, 2.5, 10, sched, 8, 35)
    assert z.theta == z_want.theta and x == x_want


# --------------------------------------------------------------------------
# failure records


def _state(loc, solver, imag=None):
    f, om, z0 = loc
    zc = SpectralPoint.from_z(z0)
    return InductiveState(depth=0, n_scale=8, window=(8, 8), z_center=zc,
                          arc_radius=1e-4, phi_center=(float(X0[0]),),
                          box_radius=1e-4, grid_phi=[(float(X0[0]),)],
                          grid_theta=[zc.theta],
                          x_map={(0, 0): Phase(tuple(X0), imag=imag)},
                          residuals={(0, 0): 0.0}, gamma=0.1, solver=solver)


def test_strip_containment_reports_the_largest_imaginary_part(loc):
    f, om, _ = loc
    sched = ScaleSchedule(n0=8, growth=1.55, overrides=dict(DESK_OVERRIDES))
    half = f.strip_width / 2

    def unsolved(phi, theta):
        return None, np.inf

    for imag, ok in [(None, True), ((0.0, -0.5 * half), True), ((0.2 * half, 1.5 * half), False)]:
        rep = verify_conditions_ABCD(_state(loc, unsolved, imag), sched, f, om, samples=2)
        strip = next(c for c in rep.a_checks if c.name == "(A) strip containment")
        assert strip.required == half
        assert strip.measured == (0.0 if imag is None else max(map(abs, imag)))
        assert strip.ok is ok


@pytest.mark.parametrize("kind", ["continuation", "parent map"])
def test_divergence_record_requires_a_root(loc, kind, monkeypatch):
    f, om, _ = loc
    sched = ScaleSchedule(n0=8, growth=1.55, overrides=dict(DESK_OVERRIDES))
    x0 = Phase(tuple(X0))
    if kind == "continuation":
        monkeypatch.setattr(ms, "_planar_solve", lambda *args: (None, 0.5))
        parent, measured = (lambda phi, theta: (x0, 0.0)), 0.5
    else:
        parent, measured = (lambda phi, theta: (None, 0.25)), 0.25
    new_state, report = inductive_advance(_state(loc, parent), sched, f, om)
    assert new_state is None
    (check,) = report.checks
    assert check.name == f"{kind} divergence at node (0, 0)"
    assert (check.required, check.measured, check.ok) == (ms._NEAR_ROOT, measured, False)


# --------------------------------------------------------------------------
# one build path for query windows

BUILDERS = {"build_finite_cmv", "build_cut_cmv", "VerblunskySequence",
            "cmv_row_window"}
QUERY_FUNCTIONS = ("_nearest_value", "_bracket_root", "_solve_phase",
                   "_planar_solve", "_gauss_newton_solve", "_eigen_gradient",
                   "suggest_center")


def direct_builds(source: str, names) -> dict:
    """Lines, per named top-level function, that call a window or sequence
    builder directly instead of going through ``_windows``."""
    tree = ast.parse(source)
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in names:
            found[node.name] = sorted(
                n.lineno for n in ast.walk(node) if isinstance(n, ast.Call)
                and getattr(n.func, "attr", getattr(n.func, "id", None)) in BUILDERS)
    return found


def test_checker_flags_direct_builds():
    source = ("def _solve_phase(x):\n"
              "    def inner(t):\n"
              "        return build_finite_cmv(seq, 0, 4)\n"
              "    return _windows(f, om, w, x, 1, 1)\n"
              "def suggest_center():\n"
              "    s = cmv.VerblunskySequence(f, om, x)\n"
              "def other():\n"
              "    build_finite_cmv(seq, 0, 1)\n")
    assert direct_builds(source, QUERY_FUNCTIONS) == {"_solve_phase": [3],
                                                      "suggest_center": [6]}


def test_query_windows_are_built_only_through_windows():
    source = (SRC / "multiscale.py").read_text(encoding="utf-8")
    found = direct_builds(source, QUERY_FUNCTIONS)
    assert set(found) == set(QUERY_FUNCTIONS)
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert "_phase_defect" not in source
