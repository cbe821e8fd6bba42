"""Scale schedules, the inductive conditions, and the finite-depth advance.

Everything here is an empirical harness: each inequality of the inductive
scheme is evaluated numerically and reported as (required, measured, ok).
The paper-faithful thresholds are often unreachable at desk scales (they
are asymptotic in the base scale), so every threshold can be overridden;
reports always show the value actually enforced.  Honest failure with a
named inequality is a first-class outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import accumulate, chain, islice, product

import numpy as np

from .cmv import FiniteCMV, VerblunskySequence, build_finite_cmv
from .cocycle import SpectralPoint, lyapunov_finite
from .spectral import (aligned_distance, decay_ratio, edge_candidates,
                       edge_value, eigenphase_gradient, nearest_eigenvalue,
                       nearest_eigenvalues, spectral_distance, tracked_eigenpair)
from .torus import Phase, SamplingFunction, _dist_to_integer, omega_array, reduce_phase
from .util import WilsonInterval, counter_rng, pad_vector, phase_of, wrap_angle

_ROOT_TOL = 1e-12       # |lam - e^{i theta}| at which a root search stops
_ROOT_ITERS = 60        # queries per bracketed root search
_NEAR_ROOT = 1e-9       # distance at which the nearest point seen is a root
_PLANAR_RADIUS = 0.015  # half-width of the planar search grid
_PLANAR_GRID = 9        # grid points per coordinate of the planar search
_GN_ITERS = 40          # Gauss-Newton steps
_GN_MAX_STEP = 2e-2     # trust-region cap on a Gauss-Newton step
_D_FD_STEP = 1e-6       # finite-difference step of the (D) gradient
_ATTEMPTS = 4           # tries of a grid continuation ...
_SHRINK = 0.125         # ... each shrinking the box and the arc by this factor


# --------------------------------------------------------------------------
# schedule


@dataclass
class ScaleSchedule:
    """Exponent schedule delta = nu'^C0, beta = nu'^C1, mu = nu'^C2.

    The exponent constraints C1 + 1 < C2 < C0 < 2 C1 and 0 < nu' <= nu are
    enforced at construction.  The scale growth N_{s+1} = floor(N_s^(1/beta))
    is astronomically fast for small beta; ``growth`` overrides the exponent
    1/beta for runnable experiments and ``overrides`` replaces individual
    thresholds by name (recorded in every report).  ``THRESHOLDS`` names
    every threshold that ``threshold`` is asked for, here and at its call
    sites in the depth-0 state, the advance and the localization step.
    """

    THRESHOLDS = ("radius", "separation", "good_dist", "proximity", "c_threshold",
                  "c_target", "upsilon_floor", "d_floor_log", "box_radius",
                  "arc_radius", "solver_tol", "step_separation")

    n0: int
    s_max: int = 1
    nu_prime: float = 0.1
    c0: float = 3.5
    c1: float = 2.0
    c2: float = 3.2
    nu: float = 0.1
    growth: float | None = None
    max_scale: int = 4096
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (0 < self.nu_prime <= self.nu):
            raise ValueError("need 0 < nu' <= nu")
        if not (self.c1 + 1 < self.c2 < self.c0 < 2 * self.c1):
            raise ValueError(
                f"exponent constants violate C1+1 < C2 < C0 < 2C1: "
                f"C0={self.c0}, C1={self.c1}, C2={self.c2}")
        self.delta_hat = self.nu_prime ** self.c0
        self.beta_hat = self.nu_prime ** self.c1
        self.mu_hat = self.nu_prime ** self.c2
        self.a_hat = 1.0 / self.beta_hat
        self.validate_chain()

    def validate_chain(self, min_ratio: float = 1.0) -> list:
        """Strict ordering beta^2 < delta < mu < beta*nu < beta < nu.

        With min_ratio > 1 each step must additionally exceed the previous
        by that factor; returns the list of consecutive ratios.
        """
        chain = [self.beta_hat ** 2, self.delta_hat, self.mu_hat,
                 self.beta_hat * self.nu, self.beta_hat, self.nu]
        ratios = [chain[i + 1] / chain[i] for i in range(len(chain) - 1)]
        if any(r <= min_ratio for r in ratios):
            raise ValueError(
                f"exponent chain not separated by factor {min_ratio}: ratios={ratios}")
        return ratios

    def scale(self, s: int) -> int:
        """N_s, growing by the (possibly overridden) exponent per depth."""
        exponent = self.growth if self.growth is not None else self.a_hat
        n = float(self.n0)
        for _ in range(s):
            n = n ** exponent
            if n > self.max_scale:
                raise ValueError(
                    f"scale at depth {s} exceeds max_scale={self.max_scale}; "
                    "set 'growth' for a runnable schedule")
        return int(n)

    def radius(self, s: int) -> float:
        """r_s = exp(-N_s^delta), unless overridden."""
        return self.threshold("radius", np.exp(-float(self.scale(s)) ** self.delta_hat))

    def threshold(self, name: str, value: float) -> float:
        """Overridden value when configured, else the supplied formula value."""
        return float(self.overrides.get(name, value))

    def separation(self, n_scale: int) -> float:
        return self.threshold("separation", np.exp(-float(n_scale) ** self.delta_hat))

    def good_dist(self, n_scale: int) -> float:
        return self.threshold("good_dist", np.exp(-float(n_scale) ** self.beta_hat))

    def proximity(self, n_scale: int) -> float:
        return self.threshold("proximity", np.exp(-2.0 * float(n_scale) ** self.beta_hat))

    def c_threshold(self, n_scale: int) -> float:
        return self.threshold("c_threshold",
                              np.exp(-0.5 * float(n_scale) ** self.beta_hat))

    def c_target(self, n_scale: int) -> float:
        return self.threshold("c_target",
                              np.exp(-float(n_scale) ** (2.0 * self.delta_hat)))

    def upsilon_floor(self, n_scale: int) -> float:
        return self.threshold("upsilon_floor", np.exp(-float(n_scale) ** self.mu_hat))

    def d_floor_log(self, n_scale: int) -> float:
        return self.threshold("d_floor_log", -0.5 * float(n_scale) ** self.mu_hat)


# --------------------------------------------------------------------------
# checks


@dataclass(frozen=True)
class Check:
    name: str
    required: float
    measured: float
    ok: bool

    def __str__(self):
        flag = "ok " if self.ok else "FAIL"
        return f"[{flag}] {self.name}: measured {self.measured:.4g} vs {self.required:.4g}"


# the divisor c of each check bounded by exp(-gamma N0 / c): conclusions (1)
# and (4) of the localization step, and the advance's bulk contractions
_GAMMA_DIVISORS = {"(1) eigenvalue tracking": 40.0, "(4) eigenvector closeness": 40.0,
                   "bulk-(1) phase-map contraction |x1 - x0|": 50.0,
                   "bulk-(2) eigenvector contraction": 500.0}


def _gamma_check(name: str, gamma: float, n0: int, measured: float) -> Check:
    """The check ``name``: measured < exp(-gamma n0 / c), with c its divisor
    in _GAMMA_DIVISORS."""
    required = float(np.exp(-gamma * n0 / _GAMMA_DIVISORS[name]))
    return Check(name, required, measured, measured < required)


def _windows(f: SamplingFunction, om: np.ndarray, window: tuple[int, int],
             points, beta, eta) -> FiniteCMV:
    """The windows E^{beta,eta} on [a, b] at the rows of the (N, d) phase
    array ``points`` (reduced mod 1) from one batched build; ``row(k)`` is
    the window at points[k], equal to its window alone bit for bit."""
    seq = VerblunskySequence(f, om, reduce_phase(np.reshape(points, (-1, f.dim))))
    return build_finite_cmv(seq, window[0], window[1], beta=beta, eta=eta)


def _nearest_value(f: SamplingFunction, om: np.ndarray, window: tuple[int, int],
                   coords, z: complex, beta, eta) -> tuple[complex, bool]:
    """Eigenvalue nearest z of the window on [a, b] at the phase coords, and
    whether two eigenvalues tie as nearest (``nearest_eigenvalue``)."""
    return nearest_eigenvalue(_windows(f, om, window, coords, beta, eta).row(0), z)


def _phase_gap(lam: complex, theta: float) -> float:
    """Wrapped arg lam - theta."""
    return wrap_angle(phase_of(lam) - theta)


def _bracket_root(query, theta: float, lo: tuple, hi: tuple):
    """Root of g(t) = wrapped arg lam(t) - theta between ends (t, lam) with g
    of opposite signs; returns (dist, t, item) of the nearest point queried.

    ``query(t, ref)`` gives (lam, tie, item) or None: lam is the eigenvalue
    nearest ref, the value interpolated between the ends (so a tracking
    query keeps to their branch), and a tie of two eigenvalues equally far
    from the target marks a jump to another branch, not a root.  Each step
    takes the Illinois point (regula falsi, halving the g of an end kept
    twice in a row), or the midpoint when that leaves the bracket, and the
    search stops at a root (|lam - e^{i theta}| < _ROOT_TOL), a tie, a None,
    a bracket down to adjacent floats, or after _ROOT_ITERS queries.
    """
    z = np.exp(1j * theta)
    (t_lo, lam_lo), (t_hi, lam_hi) = lo, hi
    g_lo, g_hi = _phase_gap(lam_lo, theta), _phase_gap(lam_hi, theta)
    best = (np.inf, None, None)
    kept = 0            # -1 / +1: the low / high end was kept at the last step
    for _ in range(_ROOT_ITERS):
        t = t_hi - g_hi * (t_hi - t_lo) / (g_hi - g_lo)
        if not min(t_lo, t_hi) < t < max(t_lo, t_hi):
            t = 0.5 * (t_lo + t_hi)
            if t in (t_lo, t_hi):       # the ends are adjacent floats
                break
        hit = query(t, lam_lo + (t - t_lo) / (t_hi - t_lo) * (lam_hi - lam_lo))
        if hit is None:
            break
        lam, tie, item = hit
        dist = float(abs(lam - z))
        if dist < best[0]:
            best = (dist, t, item)
        if dist < _ROOT_TOL or tie:
            break
        g = _phase_gap(lam, theta)
        if np.sign(g) == np.sign(g_lo):
            t_lo, lam_lo, g_lo = t, lam, g
            g_hi *= 0.5 if kept == 1 else 1.0
            kept = 1
        else:
            t_hi, lam_hi, g_hi = t, lam, g
            g_lo *= 0.5 if kept == -1 else 1.0
            kept = -1
    return best


def _solve_phase(f: SamplingFunction, om: np.ndarray, window: tuple[int, int],
                 z: complex, x_init: np.ndarray, beta: complex, eta: complex,
                 span: float = 0.5, coarse: int = 33, accept=None):
    """Root of (tracked eigenvalue phase) - arg z along the last coordinate.

    Starts from the eigenvalue nearest z at x_init and follows that branch
    by identity tracking (nearest eigenvalue to the previous step's value)
    while marching the last coordinate in both directions.  Where the
    tracked phase crosses arg z, the crossing is refined by ``_bracket_root``
    with the same tracking.  Returns (x, dist) for the first accepted root,
    or (None, best_dist); an ``accept`` callback can reject a converged root
    (e.g. an edge-localized state), sending the march onward.

    The march takes one +1 step first.  When that step finds no root and
    the phase defect keeps its sign and grows, +1 moves away from arg z:
    the -1 direction is marched in full first, and +1 resumes from its
    second step.  Otherwise +1 is marched in full, then -1.  Only one
    result differs from marching +1 in full first: when that first step
    moves away and both directions hold an accepted root, the -1 root, on
    the side where the defect shrinks, is returned.  A march that finds no
    root queries both directions in full either way.  Each window, x_init's
    and each step's, is built when its query comes, so the march builds
    only the windows it queries.
    """
    theta = phase_of(z)

    def coords_at(t: float) -> np.ndarray:
        """x_init with its last coordinate set to t."""
        coords = np.array(x_init)
        coords[-1] = t
        return coords

    def point_at(t: float) -> Phase:
        return reduce_phase(coords_at(t))

    def nearest(t: float, ref: complex):
        return (*_nearest_value(f, om, window, coords_at(t), ref, beta, eta), None)

    def accepted(t: float) -> bool:
        return accept is None or accept(point_at(t))

    def march(ts):
        """One direction, one step per ``next``: yields the step's accepted
        root (x, dist) or None, and its phase defect."""
        nonlocal best_d, best_t
        t, lam, g = t0, lam0, g0
        for t_next in ts:
            lam_next = nearest(t_next, lam)[0]
            g_next = _phase_gap(lam_next, theta)
            d_next = float(abs(lam_next - z))
            if d_next < best_d:
                best_d, best_t = d_next, t_next
            root = None
            if d_next < _ROOT_TOL and accepted(t_next):
                root = point_at(t_next), d_next
            # genuine crossing: signed difference flips without wrapping
            elif np.sign(g_next) != np.sign(g) and abs(g_next - g) < np.pi:
                d_root, t_root, _ = _bracket_root(nearest, theta, (t, lam),
                                                  (t_next, lam_next))
                if d_root < _NEAR_ROOT and accepted(t_root):
                    root = point_at(t_root), d_root
            yield root, g_next
            t, lam, g = t_next, lam_next, g_next

    t0 = x_init[-1]
    step = span / max(coarse - 1, 1)
    ahead, behind = (list(accumulate([t0] + [dirn * step] * coarse))[1:]
                     for dirn in (1.0, -1.0))
    lam0 = nearest(t0, z)[0]
    best_d, best_t = float(abs(lam0 - z)), t0
    if best_d < _ROOT_TOL and accepted(t0):
        return point_at(t0), best_d

    g0 = _phase_gap(lam0, theta)
    plus = march(ahead)
    root, g1 = next(plus)
    if root is not None:
        return root
    away = np.sign(g1) == np.sign(g0) and abs(g1) > abs(g0)
    for side in ((march(behind), plus) if away else (plus, march(behind))):
        for root, _ in side:
            if root is not None:
                return root
    if best_d < _NEAR_ROOT and accepted(best_t):
        return point_at(best_t), best_d
    return None, best_d


@dataclass
class InductiveState:
    """Solved eigenvalue-tracking data at one depth.

    ``x_map`` holds the solved phase for every (phi index, z index) grid
    node; node (0, 0) is the box/arc center.  The window is [-n_neg, n_pos].
    ``solver`` evaluates the map at arbitrary (phi, theta): at depth 0 it
    solves along the last phase coordinate; deeper states search the plane
    around the parent map's solution (``_planar_solver``).
    """

    depth: int
    n_scale: int
    window: tuple[int, int]
    z_center: SpectralPoint
    arc_radius: float
    phi_center: tuple
    box_radius: float
    grid_phi: list
    grid_theta: list
    x_map: dict
    residuals: dict
    gamma: float
    solver: object = field(default=None, repr=False, compare=False)

    @property
    def base_x(self) -> Phase:
        return self.x_map[(0, 0)]

    def window_interval(self) -> tuple[int, int]:
        return (-self.window[0], self.window[1])

    def solve_map(self, phi: tuple, theta: float):
        """x(phi, e^{i theta}) with the node map as the starting guess.

        Returns (Phase, residual) or (None, best residual).
        """
        if self.solver is None:
            raise RuntimeError("state has no solver attached")
        return self.solver(phi, theta)


def _phi_grid(center: tuple, radius: float) -> list:
    """3-per-side grid over the (d-1)-box; the center node comes first."""
    if len(center) == 0:
        return [()]
    axes = [np.linspace(c - radius, c + radius, 3) for c in center]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(center))
    nodes = [tuple(float(v) for v in row) for row in mesh]
    nodes.sort(key=lambda p: sum((v - c) ** 2 for v, c in zip(p, center)))
    return nodes


def _theta_grid(theta0: float, radius: float) -> list:
    """3-point arc grid around theta0, nearest first."""
    return sorted((float(theta0 + o) for o in np.linspace(-radius, radius, 3)),
                  key=lambda t: abs(t - theta0))


def _grid_tries(schedule: ScaleSchedule, depth: int, phi_center: tuple,
                theta0: float):
    """The tries of a grid continuation at the depth, each (box radius, arc
    radius, phi grid, theta grid, nodes), the nodes (phi index, theta index)
    theta-major with the center (0, 0) first; _ATTEMPTS tries, the box and
    the arc shrinking by _SHRINK from one to the next."""
    radius = schedule.radius(depth)
    box = schedule.threshold("box_radius", radius)
    arc = schedule.threshold("arc_radius", radius)
    for _ in range(_ATTEMPTS):
        grid_phi, grid_theta = _phi_grid(phi_center, box), _theta_grid(theta0, arc)
        yield box, arc, grid_phi, grid_theta, [
            (ip, iz) for iz, ip in product(range(len(grid_theta)), range(len(grid_phi)))]
        box *= _SHRINK
        arc *= _SHRINK


def suggest_center(f: SamplingFunction, omega, near_theta: float, n0: int,
                   schedule: ScaleSchedule, scan_grid: int = 24,
                   beta: complex = 1.0 + 0j, eta: complex = 1.0 + 0j,
                   probe_halfwidth: int | None = None) -> tuple[SpectralPoint, Phase]:
    """An exactly-attained admissible center near the requested angle.

    Scans the torus grid for window eigenpairs passing the edge-decay
    hypothesis and returns (z0, x0) where z0 is such an eigenvalue (so the
    eigenvalue equation is solved exactly at x0) nearest to e^{i
    near_theta}.  The induction chooses its center where the conditions
    hold; this helper makes that choice explicit and reproducible.

    The scan windows are built in one batch and screened by
    ``edge_candidates``: stacked Hermitian solves of (E + E*)/2 give each
    window's eigenvalues (Rayleigh quotients with a certified residual) and
    edge values, a window they cannot certify (an H eigenvalue gap below
    1e-9, as in every real window, or a residual above 1e-10) falls back
    to ``eigensolve``, and every candidate is confirmed by ``eigensolve`` on
    its own window before it is used, so z0 is always an ``eigensolve``
    value.

    When ``probe_halfwidth`` is given (typically the next scale), each
    candidate is additionally screened for attainability at that window
    size: the wrapped phase defect of the probe window's nearest eigenvalue
    must change sign over a small phase neighborhood, so a center at the
    extremal edge of its local band (unreachable one scale up) is skipped.
    Each candidate's probe windows are one batch and one batched query.
    """
    om = omega_array(omega)
    d = f.dim
    a, b = -n0, n0
    edge_thr = schedule.proximity(n0)
    target = np.exp(1j * float(near_theta))
    axes = [np.arange(scan_grid) / scan_grid] * d
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    scan = _windows(f, om, (a, b), mesh, beta, eta)
    found = ((value, tuple(float(v) for v in mesh[k]))
             for _, value, k in edge_candidates(scan, target, edge_thr))
    first = next(found, None)
    if first is None:
        raise RuntimeError(
            f"no admissible eigenpair on a {scan_grid}^{d} grid near "
            f"theta={near_theta}: every window state violates the edge "
            f"bound {edge_thr:.3e}")
    if probe_halfwidth is None:
        return SpectralPoint.from_z(first[0]), Phase(first[1])

    step = 0.01 * np.eye(d)
    offsets = [np.zeros(d), *step, *-step]
    if d == 2:
        offsets += [np.array([0.01, 0.01]), np.array([0.01, -0.01])]
    for value, xv in islice(chain([first], found), 40):
        theta_c = phase_of(value)
        probes = _windows(f, om, (-probe_halfwidth, probe_halfwidth),
                          np.array(xv) + np.array(offsets), beta, eta)
        gs = [_phase_gap(lam, theta_c) for lam, _ in nearest_eigenvalues(probes, value)]
        if min(gs) < 0.0 < max(gs) or min(abs(g) for g in gs) < 1e-7:
            return SpectralPoint.from_z(value), Phase(xv)
    raise RuntimeError(
        "no admissible center is attainable at the probe window size; "
        "every candidate sits at the edge of its local band")


def estimate_gamma(f: SamplingFunction, omega, z: SpectralPoint, n0: int,
                   samples: int, seed: int) -> float:
    """The decay rate gamma of a depth-0 state at z: L_n - 3 sigma at n =
    max(100, 2 n0), the ``lyapunov_finite`` estimate less three standard
    errors over ``samples`` phases drawn at ``seed``."""
    est = lyapunov_finite(f, omega, z, max(100, 2 * n0), samples, seed)
    return float(est.value - 3 * est.std_error)


def find_base_state(f: SamplingFunction, omega, z0: SpectralPoint, n0: int,
                    schedule: ScaleSchedule, gamma: float, *, x_hint: Phase,
                    beta: complex = 1.0 + 0j,
                    eta: complex = 1.0 + 0j) -> InductiveState:
    """Construct a depth-0 state around z0 on the window [-n0, n0].

    Starting from the seed ``x_hint`` (from ``suggest_center``), solves the
    eigenvalue equation exactly along the last coordinate at a phase whose
    eigenpair nearest z0 has admissible edge decay (the localization-step
    hypothesis), then extends the solution over the 3 x 3 (phi, z) grid by
    continuation, shrinking the grid when a node fails.  Raises if no
    admissible root is found or the continuation fails at every size.
    """
    om = omega_array(omega)
    window = (-n0, n0)
    edge_thr = schedule.proximity(n0)

    def edge_ok(x: Phase) -> bool:
        _, vector, _, _ = _tracked_pair(VerblunskySequence(f, om, x), window, z0.z,
                                        beta, eta)
        return edge_value(vector) < edge_thr

    sol, dsol = _solve_phase(f, om, window, z0.z, np.array(x_hint.coords),
                             beta, eta, span=0.45, coarse=91, accept=edge_ok)
    if sol is None:
        raise RuntimeError("state construction failed: no admissible root "
                           f"near seed (best dist {dsol:.3e})")
    phi_center = tuple(float(v) for v in sol.coords[:-1])
    for box_r, arc_r, grid_phi, grid_theta, nodes in _grid_tries(schedule, 0, phi_center,
                                                                 z0.theta):
        state = InductiveState(depth=0, n_scale=n0, window=(n0, n0),
                               z_center=z0, arc_radius=arc_r,
                               phi_center=phi_center, box_radius=box_r,
                               grid_phi=grid_phi, grid_theta=grid_theta,
                               x_map={(0, 0): sol}, residuals={(0, 0): dsol},
                               gamma=gamma)
        state.solver = _line_solver(f, om, window, beta, eta, state)
        for ip, iz in nodes[1:]:
            node, dn = state.solve_map(grid_phi[ip], grid_theta[iz])
            if node is None:
                break
            state.x_map[(ip, iz)] = node
            state.residuals[(ip, iz)] = dn
        else:
            return state
    raise RuntimeError("state construction failed: grid continuation failed")


def _memoized(solve):
    """``solve(phi, theta)`` cached on (phi, theta) rounded to 12 digits."""
    cache: dict = {}

    def cached(phi: tuple, theta: float):
        key = (tuple(np.round(phi, 12)), round(theta, 12))
        if key not in cache:
            cache[key] = solve(phi, theta)
        return cache[key]

    return cached


def _line_solver(f: SamplingFunction, om: np.ndarray, window: tuple[int, int],
                 beta, eta, state: InductiveState):
    """Depth-0 map evaluator: root solve along the last phase coordinate,
    seeded from the nearest solved grid node."""

    def solve(phi: tuple, theta: float):
        node = _nearest_node(state, phi, theta)
        init = np.array(list(phi) + [node.coords[-1]])
        return _solve_phase(f, om, window, np.exp(1j * theta), init,
                            beta, eta, span=0.15, coarse=31)

    return _memoized(solve)


def _gauss_newton_solve(f: SamplingFunction, om: np.ndarray,
                        window: tuple[int, int], theta0: float,
                        x_init: np.ndarray, beta, eta):
    """Minimal-norm root of (nearest eigenphase - theta0) over all coordinates.

    Fallback for scales where the reparametrized-curve structure is too
    weak: each step moves x along the gradient of the scalar wrapped phase
    defect by the Gauss-Newton minimal-norm increment, with a trust-region
    cap.  Each step builds the one window at x and makes one query, whose
    eigenvector gives the gradient (``eigenphase_gradient``, from d alpha on
    the window's orbit).  Returns (Phase, dist) or (None, best dist).
    """
    z = np.exp(1j * theta0)
    sites = np.arange(window[0] - 1, window[1] + 1)[:, None]
    x = x_init.copy() % 1.0
    best_x, best_d = x.copy(), np.inf
    for _ in range(_GN_ITERS):
        dalpha = f.alpha_gradient(x + sites * om)   # periodic: no reduction mod 1
        lam, grad = eigenphase_gradient(_windows(f, om, window, x, beta, eta).row(0),
                                        z, dalpha)
        g, dist = _phase_gap(lam, theta0), float(abs(lam - z))
        if dist < best_d:
            best_x, best_d = x.copy(), dist
        if dist < _ROOT_TOL:
            return reduce_phase(x), dist
        n2 = float(grad @ grad)
        if n2 < 1e-18:
            break
        step = -g * grad / n2
        nrm = float(np.linalg.norm(step))
        if nrm > _GN_MAX_STEP:
            step *= _GN_MAX_STEP / nrm
        x = (x + step) % 1.0
    if best_d < _NEAR_ROOT:
        return reduce_phase(best_x), best_d
    return None, best_d


def _planar_solve(f: SamplingFunction, om: np.ndarray, window: tuple[int, int],
                  theta0: float, x_init: np.ndarray, beta, eta):
    """Two-dimensional root search for (nearest eigenphase - theta0) = 0.

    Evaluates the wrapped defect on a small grid around x_init, runs
    ``_bracket_root`` on the segment joining the best grid points of
    opposite sign, then polishes with ``_gauss_newton_solve`` from the
    nearest point seen: minimal-norm steps on the eigenphase gradient, one
    window and one query per step.  A sign change on the segment may be a
    jump of the nearest eigenvalue to another branch rather than a root; the
    search then stops at the first tie.  This is the whole depth-(s+1) solve:
    at desk scale the curve structure of the asymptotic argument is absent.
    The grid's windows are built in one batch and queried in one call.
    """
    z = np.exp(1j * theta0)
    d = len(x_init)
    offs = np.linspace(-_PLANAR_RADIUS, _PLANAR_RADIUS, _PLANAR_GRID)
    grid = offs[:, None] if d == 1 else \
        np.stack(np.meshgrid(offs, offs, indexing="ij"), axis=-1).reshape(-1, 2)
    points = x_init + np.pad(grid, ((0, 0), (d - grid.shape[1], 0)))
    values = nearest_eigenvalues(_windows(f, om, window, points, beta, eta), z)
    best_pos, best_neg = None, None      # (|g|, coords, lam)
    best_d, best_x = np.inf, x_init
    for xx, (lam, _) in zip(points, values):
        g, dist = _phase_gap(lam, theta0), float(abs(lam - z))
        if dist < best_d:
            best_d, best_x = dist, xx
        if dist < _ROOT_TOL:
            return reduce_phase(xx), dist
        if g > 0 and (best_pos is None or g < best_pos[0]):
            best_pos = (g, xx, lam)
        if g < 0 and (best_neg is None or -g < best_neg[0]):
            best_neg = (-g, xx, lam)
    if best_pos is not None and best_neg is not None:
        lo, hi = best_neg[1], best_pos[1]

        def query(t: float, _ref):
            x = lo + t * (hi - lo)
            return (*_nearest_value(f, om, window, x, z, beta, eta), x)

        dist, _, x = _bracket_root(query, theta0, (0.0, best_neg[2]),
                                   (1.0, best_pos[2]))
        if dist < _ROOT_TOL:
            return reduce_phase(x), dist
        if dist < best_d:
            best_d, best_x = dist, x
    return _gauss_newton_solve(f, om, window, theta0, best_x, beta, eta)


def _planar_solver(f: SamplingFunction, om: np.ndarray, big: tuple[int, int],
                  parent: InductiveState, beta, eta):
    """Depth-(s+1) map evaluator: ``_planar_solve`` on the big window from the
    parent's solution at (phi, theta), whose small-window eigenvalue is
    exactly e^{i theta}.  The Gauss-Newton polish moves all phase
    coordinates; callers see that drift in the returned phase."""

    def solve(phi: tuple, theta: float):
        seed_x, _ = parent.solve_map(phi, theta)
        if seed_x is None:
            return None, np.inf
        return _planar_solve(f, om, big, theta, np.array(seed_x.coords),
                             beta, eta)

    return _memoized(solve)


# --------------------------------------------------------------------------
# conditions (A)-(D)


@dataclass
class ConditionsReport:
    a_checks: list
    b_checks: list
    c_estimate: WilsonInterval | None
    c_checks: list
    d_estimate: WilsonInterval | None
    d_checks: list

    @property
    def a_ok(self) -> bool:
        return all(c.ok for c in self.a_checks)

    @property
    def b_ok(self) -> bool:
        return all(c.ok for c in self.b_checks)

    @property
    def c_ok(self) -> bool:
        return all(c.ok for c in self.c_checks)

    @property
    def d_ok(self) -> bool:
        return all(c.ok for c in self.d_checks)

    @property
    def all_ok(self) -> bool:
        return self.a_ok and self.b_ok and self.c_ok and self.d_ok

    def failures(self) -> list:
        return [c for c in (*self.a_checks, *self.b_checks, *self.c_checks,
                            *self.d_checks) if not c.ok]


def _tracked_pair(seq: VerblunskySequence, window: tuple[int, int], z: complex,
                  beta, eta):
    """``tracked_eigenpair`` (value, vector, distance, separation) of the
    window [a, b] of seq at z."""
    return tracked_eigenpair(build_finite_cmv(seq, window[0], window[1],
                                              beta=beta, eta=eta), z)


def _tweaks(n: int) -> list:
    """End shifts (n1, n2), |n_i| < max(1, floor(sqrt n)), of a window of
    scale n; the smallest |n1| + |n2| first."""
    half = max(1, int(np.floor(np.sqrt(n))))
    return sorted(product(range(-half + 1, half), repeat=2),
                  key=lambda t: (abs(t[0]) + abs(t[1]), t))


def _good_window(seq: VerblunskySequence, m: int, n: int, z: complex,
                 margin: float, beta, eta) -> tuple[int, int] | None:
    """The first tweak [m - n + n1, m + n + n2] of seq's window around m
    whose spectrum keeps distance >= margin from z, or None."""
    for n1, n2 in _tweaks(n):
        a, b = m - n + n1, m + n + n2
        if spectral_distance(build_finite_cmv(seq, a, b, beta=beta, eta=eta), z) >= margin:
            return a, b
    return None


def _sampled_map(state: InductiveState, seed: int, first: int, samples: int):
    """x(phi, theta_c) at the sampled phi of the ``_sample_phi`` counters
    first, first + 1, ..., or None where the map fails."""
    for counter in range(first, first + samples):
        yield state.solve_map(_sample_phi(state, seed, counter), state.z_center.theta)[0]


def verify_conditions_ABCD(state: InductiveState, schedule: ScaleSchedule,
                           f: SamplingFunction, omega, samples: int = 60,
                           seed: int = 1, h_hat=None, h0=None,
                           beta: complex = 1.0 + 0j,
                           eta: complex = 1.0 + 0j) -> ConditionsReport:
    """Evaluate the four inductive conditions on the state's grid.

    (A) eigenvalue-equation residual and separation margin per grid node;
    (B) eigenvector decay away from the window center; (C) sampled measure
    of the exceptional phi set for a probe displacement h_hat (drawn
    admissibly when not supplied, rejected when violating the orbit-distance
    floor); (D) sampled measure of the degenerate-gradient phi set for a
    unit vector h0 (random when not supplied), gradients by central
    differences with a half-step consistency check.  (C) and (D) each draw
    ``samples`` phi, or count the one phi of an empty box (d = 1) once.
    """
    om = omega_array(omega)
    d = f.dim
    ns = state.n_scale
    win = state.window_interval()

    a_checks, b_checks = [], []
    sep_req = schedule.separation(ns)
    max_res, min_sep = 0.0, np.inf
    decay_worst = 0.0
    for (ip, iz), x in state.x_map.items():
        zz = np.exp(1j * state.grid_theta[iz])
        _, vector, dist, sep = _tracked_pair(VerblunskySequence(f, om, x), win, zz,
                                             beta, eta)
        max_res = max(max_res, dist)
        min_sep = min(min_sep, sep)
        decay_worst = max(decay_worst,
                          decay_ratio(vector, win, ns / 4.0, state.gamma, 10.0))
    solver_tol = schedule.threshold("solver_tol", 1e-9)
    a_checks.append(Check("(A)-(1) eigenvalue residual", solver_tol, max_res,
                          max_res <= solver_tol))
    a_checks.append(Check("(A)-(2) separation", sep_req, min_sep, min_sep > sep_req))
    strip = max((abs(v) for x in state.x_map.values() for v in x.imag or ()),
                default=0.0)
    a_checks.append(Check("(A) strip containment", f.strip_width / 2, strip,
                          strip < f.strip_width / 2))
    b_checks.append(Check("(B) decay ratio max |u|/bound", 1.0, decay_worst,
                          decay_worst < 1.0))

    # ---- condition (C)
    c_checks: list = []
    ups_floor = schedule.upsilon_floor(ns)
    orbit_pts = np.array([reduce_phase(n * om).array()
                          for n in range(-int(3 * ns / 2), int(3 * ns / 2) + 1)])

    def upsilon_dist(h):
        # sup-norm torus distance from h to the nearest orbit point
        return float(_dist_to_integer(np.abs(h - orbit_pts)).max(axis=1).min())

    if h_hat is not None:
        h_vec = np.asarray(h_hat, dtype=float) % 1.0
        if upsilon_dist(h_vec) < ups_floor:
            raise ValueError(
                f"h_hat violates the orbit-distance floor {ups_floor:.3e}")
    else:
        h_vec = None
        for trial in range(500):
            cand = counter_rng(seed, 77, trial).random(d)
            if upsilon_dist(cand) >= ups_floor:
                h_vec = cand
                break
        if h_vec is None:
            raise RuntimeError("could not draw an admissible h_hat")

    c_thr = schedule.c_threshold(ns)
    c_target = schedule.c_target(ns)
    zz = state.z_center.z
    draws = samples if len(state.phi_center) else 1
    # exceptional: the map fails, or no tweak of [-N, N] at x + h_hat keeps
    # its spectrum c_threshold away from z
    hits = sum(x is None or _good_window(VerblunskySequence(f, om, x.shift(h_vec)), 0,
                                         ns, zz, c_thr, beta, eta) is None
               for x in _sampled_map(state, seed, 0, draws))
    c_est = WilsonInterval.from_counts(hits, draws)
    c_checks.append(Check("(C) exceptional measure", c_target, c_est.estimate,
                          c_est.estimate < c_target))

    # ---- condition (D)
    d_checks: list = []
    if h0 is not None:
        h0_vec = np.asarray(h0, dtype=complex)
        nrm = np.linalg.norm(h0_vec)
        if abs(nrm - 1.0) > 1e-10:
            raise ValueError("h0 must be a unit vector")
    else:
        raw = counter_rng(seed, 99).standard_normal(d) \
            + 1j * counter_rng(seed, 100).standard_normal(d)
        h0_vec = raw / np.linalg.norm(raw)

    floor_log = schedule.d_floor_log(ns)
    d_target = schedule.c_target(ns)
    hits = 0
    richardson_worst = 0.0
    for x in _sampled_map(state, seed, 1000, draws):
        if x is None:
            hits += 1
            continue
        grad, rich = _eigen_gradient(f, om, win, zz, x, beta, eta)
        richardson_worst = max(richardson_worst, rich)
        proj = abs(np.sum(grad * np.conj(h0_vec)))
        if not proj > 0 or np.log(proj) < floor_log:
            hits += 1
    d_est = WilsonInterval.from_counts(hits, draws)
    d_checks.append(Check("(D) degenerate-gradient measure", d_target,
                          d_est.estimate, d_est.estimate < d_target))
    d_checks.append(Check("(D) finite-difference consistency", 1e-3,
                          richardson_worst, richardson_worst < 1e-3))

    return ConditionsReport(a_checks=a_checks, b_checks=b_checks,
                            c_estimate=c_est, c_checks=c_checks,
                            d_estimate=d_est, d_checks=d_checks)


def _sample_phi(state: InductiveState, seed: int, counter: int) -> tuple:
    if len(state.phi_center) == 0:
        return ()
    rng = counter_rng(seed, counter)
    off = (rng.random(len(state.phi_center)) * 2.0 - 1.0) * state.box_radius
    return tuple(float(c + o) for c, o in zip(state.phi_center, off))


def _eigen_gradient(f, om, win, z, x: Phase, beta, eta):
    """Central-difference gradient of the tracked eigenvalue, with a
    half-step consistency estimate; the 4d windows are one batch and one
    batched query."""
    h = _D_FD_STEP
    base = np.array(x.coords)
    d = len(base)
    e = np.eye(d)
    rows = _windows(f, om, win, np.vstack([base + h * e, base - h * e,
                                           base + 0.5 * h * e, base - 0.5 * h * e]),
                    beta, eta)
    lam = [value for value, _ in nearest_eigenvalues(rows, z)]
    grad = np.zeros(d, dtype=complex)
    rich = 0.0
    for i in range(d):
        g1 = (lam[i] - lam[d + i]) / (2 * h)
        g2 = (lam[2 * d + i] - lam[3 * d + i]) / h
        grad[i] = g2
        denom = max(abs(g2), 1e-12)
        rich = max(rich, abs(g1 - g2) / denom)
    return grad, rich


# --------------------------------------------------------------------------
# finite-scale localization step


@dataclass
class LocalizationStepReport:
    hypothesis_checks: list
    window: tuple[int, int] | None
    conclusion_checks: list

    @property
    def hypotheses_ok(self) -> bool:
        return all(c.ok for c in self.hypothesis_checks)

    @property
    def conclusions_ok(self) -> bool:
        return bool(self.conclusion_checks) and all(c.ok for c in self.conclusion_checks)

    def failures(self) -> list:
        return [c for c in (*self.hypothesis_checks, *self.conclusion_checks)
                if not c.ok]


def assemble_window(n0: int, subwindows: dict) -> tuple[int, int]:
    """[-n', n''] = [-3N0/2, 3N0/2] union over the per-site windows.

    The union must be a contiguous interval.
    """
    lo, hi = -int(3 * n0 / 2), int(3 * n0 / 2)
    marks = sorted([(lo, hi), *subwindows.values()])
    cur_hi = marks[0][1]
    for a, b in marks[1:]:
        if a > cur_hi + 1:
            raise ValueError(f"window union is not contiguous: gap before [{a},{b}]")
        cur_hi = max(cur_hi, b)
    return (marks[0][0], cur_hi)


def finite_localization_step(f: SamplingFunction, omega, x0: Phase,
                             z0: SpectralPoint, n0: int, subwindows: dict,
                             schedule: ScaleSchedule, gamma: float,
                             base_window: tuple[int, int] | None = None,
                             x_samples: int = 3, seed: int = 0,
                             beta: complex = 1.0 + 0j, eta: complex = 1.0 + 0j,
                             overrides: dict | None = None) -> LocalizationStepReport:
    """Numeric analogue of the eigenpair-tracking step.

    Hypotheses: per-site window geometry and spectral margins, the base
    eigenvalue proximity (i), and the base eigenvector edge decay (ii).
    When they hold (or not; the step always proceeds to measure), the
    conclusions (1)-(4) are evaluated for phases sampled within the allowed
    displacement of x0: eigenvalue tracking, separation, decay, and
    eigenvector closeness under zero-padding.  ``overrides`` pins chosen
    Verblunsky sites to fixed unimodular values in every window built here.
    """
    om = omega_array(omega)

    def make_seq(x: Phase) -> VerblunskySequence:
        return VerblunskySequence(f, om, x, overrides=overrides)

    hyp: list = []
    if base_window is None:
        base_window = (-n0, n0)

    good = schedule.good_dist(n0)
    prox = schedule.proximity(n0)
    for m, (a, b) in sorted(subwindows.items()):
        edge = min(m - a, b - m)
        need = n0 - np.sqrt(n0)
        if edge < need:
            hyp.append(Check(f"J_{m} boundary distance", need, edge, False))
        if (b - a + 1) > 10 * n0:
            hyp.append(Check(f"J_{m} length <= 10 N0", 10 * n0, b - a + 1, False))
        dist = spectral_distance(build_finite_cmv(make_seq(x0), a, b, beta=beta,
                                                  eta=eta), z0.z)
        hyp.append(Check(f"J_{m} spectral margin", good, dist, dist >= good))

    _, v0, d0, _ = _tracked_pair(make_seq(x0), base_window, z0.z, beta, eta)
    hyp.append(Check("(i) base eigenvalue proximity", prox, d0, d0 < prox))
    edge0 = edge_value(v0)
    hyp.append(Check("(ii) base edge decay", prox, edge0, edge0 < prox))

    try:
        big = assemble_window(n0, subwindows)
    except ValueError as exc:
        hyp.append(Check(f"window assembly ({exc})", 0.0, 1.0, False))
        return LocalizationStepReport(hypothesis_checks=hyp, window=None,
                                      conclusion_checks=[])

    sep_req = float(np.exp(-float(n0) ** schedule.beta_hat)) / 8.0
    sep_req = schedule.threshold("step_separation", sep_req)
    disp = schedule.proximity(n0)
    worst = dict(track=0.0, sep=np.inf, decay=0.0, close=0.0)
    for s in range(x_samples):
        delta = np.zeros(f.dim) if s == 0 else \
            (counter_rng(seed, s).random(f.dim) - 0.5) * 2 * disp * 0.99
        x = x0.shift(delta)
        seqx = make_seq(x)
        value_s, vector_s, _, _ = _tracked_pair(seqx, base_window, z0.z, beta, eta)
        value_b, vector_b, _, sep_b = _tracked_pair(seqx, big, value_s, beta, eta)
        worst["track"] = max(worst["track"], abs(value_b - value_s))
        worst["sep"] = min(worst["sep"], sep_b)
        worst["decay"] = max(worst["decay"],
                             decay_ratio(vector_b, big, 3.0 * n0 / 4.0, gamma, 20.0))
        worst["close"] = max(worst["close"], aligned_distance(
            pad_vector(vector_s, base_window, big), vector_b))
    concl = [_gamma_check("(1) eigenvalue tracking", gamma, n0, worst["track"]),
             Check("(2) separation", sep_req, worst["sep"], worst["sep"] > sep_req),
             Check("(3) decay ratio", 1.0, worst["decay"], worst["decay"] < 1.0),
             _gamma_check("(4) eigenvector closeness", gamma, n0, worst["close"])]
    return LocalizationStepReport(hypothesis_checks=hyp, window=big,
                                  conclusion_checks=concl)


# --------------------------------------------------------------------------
# inductive advance


@dataclass
class AdvanceReport:
    subwindow_failures: list
    window: tuple[int, int] | None
    checks: list
    localization: LocalizationStepReport | None

    @property
    def ok(self) -> bool:
        return (self.window is not None and not self.subwindow_failures
                and all(c.ok for c in self.checks)
                and (self.localization is None or self.localization.conclusions_ok))

    def failures(self) -> list:
        out = [f"subwindow {m}: {msg}" for m, msg in self.subwindow_failures]
        out += [str(c) for c in self.checks if not c.ok]
        if self.localization is not None:
            out += [str(c) for c in self.localization.failures()]
        return out


def inductive_advance(state: InductiveState, schedule: ScaleSchedule,
                      f: SamplingFunction, omega, seed: int = 0,
                      beta: complex = 1.0 + 0j, eta: complex = 1.0 + 0j
                      ) -> tuple[InductiveState | None, AdvanceReport]:
    """One depth of the induction: assemble the next window, continue the
    phase map, and check the contraction inequalities.

    Returns (next_state, report); next_state is None when construction
    itself fails (no admissible subwindows, or solver divergence after
    shrinking the new domain three times).
    Inequality violations never abort: they are recorded as named failing
    checks, which is the harness's honest-failure channel.
    """
    if state.depth + 1 > schedule.s_max:
        raise ValueError("schedule exhausted: depth+1 > s_max")
    om = omega_array(omega)
    n0 = state.n_scale
    n1 = schedule.scale(state.depth + 1)
    x0 = state.base_x
    seq0 = VerblunskySequence(f, om, x0)
    good = schedule.good_dist(n0)
    z1 = state.z_center

    subwindows = {}
    failures = []
    lo_m, hi_m = int(3 * n0 / 2) + 1, n1
    for m in [v for k in range(lo_m, hi_m + 1) for v in (k, -k)]:
        window = _good_window(seq0, m, n0, z1.z, good, beta, eta)
        if window is None:
            failures.append((m, f"no window tweak reaches margin {good:.3e}"))
        else:
            subwindows[m] = window
    if failures:
        return None, AdvanceReport(subwindow_failures=failures, window=None,
                                   checks=[], localization=None)
    # contiguous: a tweak moves an end by <= n0, and the first window starts by lo_m
    big = assemble_window(n0, subwindows)
    small = state.window_interval()
    solver = _planar_solver(f, om, big, state, beta, eta)

    # micro-gaps of the localized spectrum can make an arc point
    # unattainable at the larger window; shrink the new domain and retry
    for new_box, new_arc, grid_phi, grid_theta, nodes in _grid_tries(
            schedule, state.depth + 1, state.phi_center, z1.theta):
        old_map, x_map, residuals = {}, {}, {}
        for node in nodes:
            phi, theta = grid_phi[node[0]], grid_theta[node[1]]
            old_map[node], dist = state.solve_map(phi, theta)
            if old_map[node] is None:
                fail = Check(f"parent map divergence at node {node}", _NEAR_ROOT, dist,
                             False)
                break
            x_map[node], residuals[node] = solver(phi, theta)
            if x_map[node] is None:
                fail = Check(f"continuation divergence at node {node}", _NEAR_ROOT,
                             residuals[node], False)
                break
        else:
            break
    else:
        return None, AdvanceReport(subwindow_failures=[], window=big, checks=[fail],
                                   localization=None)

    worst_dx, worst_du, sep_new = 0.0, 0.0, np.inf
    for node, sol in x_map.items():
        old_x, zz = old_map[node], np.exp(1j * grid_theta[node[1]])
        dx = np.linalg.norm(_dist_to_integer(sol.array() - old_x.array()))
        worst_dx = max(worst_dx, float(dx))
        _, u_new, _, sep = _tracked_pair(VerblunskySequence(f, om, sol), big, zz, beta, eta)
        sep_new = min(sep_new, sep)
        _, u_old, _, _ = _tracked_pair(VerblunskySequence(f, om, old_x), small, zz,
                                       beta, eta)
        worst_du = max(worst_du, aligned_distance(pad_vector(u_old, small, big), u_new))

    sep_req = schedule.separation(n1)
    checks = [_gamma_check("bulk-(1) phase-map contraction |x1 - x0|", state.gamma, n0,
                           worst_dx),
              _gamma_check("bulk-(2) eigenvector contraction", state.gamma, n0, worst_du),
              Check("depth+1 separation", sep_req, sep_new, sep_new > sep_req)]

    loc = finite_localization_step(f, om, x0, z1, n0, subwindows, schedule,
                                   state.gamma, base_window=small,
                                   seed=seed, beta=beta, eta=eta)

    new_state = InductiveState(depth=state.depth + 1, n_scale=n1,
                               window=(-big[0], big[1]), z_center=z1,
                               arc_radius=new_arc, phi_center=state.phi_center,
                               box_radius=new_box, grid_phi=grid_phi,
                               grid_theta=grid_theta, x_map=x_map,
                               residuals=residuals, gamma=state.gamma)
    new_state.solver = solver
    return new_state, AdvanceReport(subwindow_failures=[], window=big,
                                    checks=checks, localization=loc)


def rethreshold_advance(report: AdvanceReport, gamma: float,
                        n0: int) -> AdvanceReport:
    """Re-evaluate an advance report's gamma-dependent bounds.

    The contraction thresholds depend on gamma only through closed formulas,
    so a different gamma hypothesis (e.g. the forced-failure sanity test
    with an absurd value) can be judged against the already-measured
    quantities without re-running the solve.
    """
    def rejudge(checks) -> list:
        return [_gamma_check(c.name, gamma, n0, c.measured) if c.name in _GAMMA_DIVISORS
                else c for c in checks]

    loc = report.localization
    if loc is not None:
        loc = replace(loc, conclusion_checks=rejudge(loc.conclusion_checks))
    return replace(report, localization=loc, checks=rejudge(report.checks))


def _nearest_node(state: InductiveState, phi: tuple, theta: float) -> Phase:
    best = min(state.x_map.keys(),
               key=lambda key: (sum((a - b) ** 2 for a, b in
                                    zip(state.grid_phi[key[0]], phi))
                                + (state.grid_theta[key[1]] - theta) ** 2))
    return state.x_map[best]
