"""Interval-coverage scan: which arc points are approximate eigenvalues.

For each grid point z on an arc the scan hunts for a phase x whose window
spectrum comes within tolerance of z and whose matching eigenvector decays
at the window edges.  Finding one marks z covered; the summary reports the
maximal covered sub-arcs.

The scan computes full spectra only for the seeded phase samples, from one
symmetric eigensolve of the window's Hermitian part each
(``spectral.hermitian_eigenphases``); all local refinement work runs
through shift-invert iteration on the tridiagonal pencil z L* - M, which
costs O(window) per probe.  The edge test shifts at an eigenvalue already
known to rounding, so its probe stops after one solve.  Refinement, a
bracketed root search, moves the last phase coordinate alone, so a function
with no Fourier mode along it is not refined: every probe would be its seed
window.  Each window's work is done once: a refinement probe whose
coefficients are a seed window's is that seed window, so what is kept on it
serves the probe too; the pencil's factors, L*'s band and the first
right-hand side L* v0 of the start vector v0 are kept on the window, not
formed per probe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .cmv import FiniteCMV, VerblunskySequence, _start, apply_cmv, build_finite_cmv
from .multiscale import _bracket_root, _phase_gap
from .spectral import edge_value, hermitian_eigenphases, rayleigh_value
from .torus import Phase, SamplingFunction, omega_array, reduce_phase
from .util import TWO_PI, arc_span, counter_rng, phase_of

_PROBE_ITERS = 30       # inverse-iteration steps per probe
_PROBE_RES_TOL = 1e-10  # residual at which a probe has converged
_REFINE_GATE = 16.0     # refine a seed distance in (tol, 16 tol]


@dataclass(frozen=True)
class CoveragePoint:
    theta: float
    covered: bool
    best_dist: float
    phase: tuple
    edge_value: float


@dataclass(frozen=True)
class CoverageScan:
    points: list
    covered_arcs: list          # (theta_start, theta_end) counterclockwise
    window: int
    tol: float

    @property
    def covered_fraction(self) -> float:
        return sum(1 for p in self.points if p.covered) / len(self.points)


def nearest_eigen_banded(m: FiniteCMV, z: complex):
    """Eigenpair of the window nearest z by tridiagonal shift-invert.

    Inverse iteration v <- (z - E)^{-1} v, one tridiagonal solve per step:
    M = L* E, so (z L* - M)^{-1} L* = (z - E)^{-1}.  Returns (eigenvalue,
    vector, residual); the eigenvalue comes from the Rayleigh quotient of
    the iteration vector, projected to the circle.  The window operator is
    normal, so |z - lam| + residual is a certified upper bound on
    dist(z, spectrum); callers must not trust the raw |z - lam| when the
    residual is large (unconverged iteration deep in a gap).

    The residual is read from the third step on, or from the first when
    the step's growth shows the shift within ``_PROBE_RES_TOL`` of the
    spectrum: a shift at an eigenvalue known to rounding, as in the scan's
    edge test, costs one solve, and a shift in a gap pays for no early
    check.  The window keeps its factors, L*'s band and L* applied to the
    start vector (drawn once per size), so repeated probes of one window
    redo only the pencil and the solves, which skip scipy's finiteness
    check of inputs built here.
    A solve that is exactly singular (z an eigenvalue to working precision;
    on one site, a division by zero) moves the shift off the circle by a
    few ulps and goes on.
    """
    n = m.size
    shift = z
    ab = m.zlstar_minus_m_banded(shift)
    v = _start(n)
    lam, res = z, np.inf
    for it in range(_PROBE_ITERS):
        rhs = m.lstar_times(v) if it else m._probe_rhs
        try:
            with np.errstate(divide="ignore", invalid="ignore"):
                w = solve_banded((1, 1), ab, rhs, check_finite=False)
        except np.linalg.LinAlgError:
            w = np.zeros(n)
        nrm = np.linalg.norm(w)
        if not np.isfinite(nrm) or nrm == 0:
            shift *= 1.0 + 8.0 * np.finfo(float).eps
            ab = m.zlstar_minus_m_banded(shift)
            continue
        v = w / nrm
        # (shift - E) v = v_prev / nrm: only a growth past 1/_PROBE_RES_TOL
        # lets the first two steps have converged
        if it >= 2 or nrm * _PROBE_RES_TOL > 1.0:
            lam, res = rayleigh_value(v, apply_cmv(m, v))
            if res < _PROBE_RES_TOL:
                break
    return lam, v, res


def interval_coverage_scan(f: SamplingFunction, omega, arc: tuple[float, float],
                           grid: int, window: int, tol: float,
                           phase_samples: int = 8, seed: int = 0,
                           beta: complex = 1.0 + 0j,
                           eta: complex = 1.0 + 0j) -> CoverageScan:
    """Scan ``grid`` points of the arc [theta1, theta2] (``util.arc_span``) for coverage.

    Each grid point starts from the best of ``phase_samples`` precomputed
    seeded phases; if that misses tolerance but is within 16*tol, the last
    phase coordinate is refined to a root of the wrapped eigenphase
    difference of the locally nearest eigenvalue (``_refine``).  A function
    with no Fourier mode along the last coordinate is not refined: every
    probe is its seed window, and the point keeps its seed's phase and
    distance.
    Covered additionally requires the matched eigenvector's outer edge
    entries to stay below sqrt(tol); that vector comes from inverse
    iteration shifted at the matched eigenvalue (the seeded sample's, from
    ``hermitian_eigenphases``, or the best refinement probe's), and only a
    converged one (residual below ``_PROBE_RES_TOL``) decides: otherwise
    the point is not covered and its edge value is nan, undecided.
    Refinement probes build their windows through the scan's seed windows:
    coefficients equal to a seed window's (boundary values included) give
    that window, which the scan reads nothing of but what they determine.
    """
    if grid < 2:
        raise ValueError("grid must have at least 2 points")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if phase_samples < 1:
        raise ValueError(f"phase_samples must be at least 1, got {phase_samples}")
    th1, th2 = arc
    span = arc_span(th1, th2)
    om = omega_array(omega)
    d = f.dim
    N = int(window)
    a, b = -N, N

    xs, spectra, matrices = [], [], []
    for s in range(phase_samples):
        x = Phase(tuple(counter_rng(seed, s).random(d).tolist()))
        seq = VerblunskySequence(f, om, x)
        m = build_finite_cmv(seq, a, b, beta=beta, eta=eta)
        xs.append(x)
        spectra.append(hermitian_eigenphases(m))
        matrices.append(m)

    # every probe of _refine moves the last coordinate alone: with no mode
    # along it, every probe is its seed window, which refines nothing
    refines = any(k[-1] for k in f.coeffs)
    seeds = {m.alpha.tobytes(): m for m in matrices}

    def build_at(coords: np.ndarray) -> FiniteCMV:
        # a probe whose coefficients are a seed window's is that window
        m = build_finite_cmv(VerblunskySequence(f, om, reduce_phase(coords)), a, b,
                             beta=beta, eta=eta)
        return seeds.get(m.alpha.tobytes(), m)

    points = []
    sqrt_tol = float(np.sqrt(tol))
    for g in range(grid):
        theta = (th1 + span * g / grid) % TWO_PI
        z = np.exp(1j * theta)
        best_s, best_d, lam = 0, np.inf, z
        for s in range(phase_samples):
            k = int(np.argmin(np.abs(spectra[s] - z)))
            dist = float(np.abs(spectra[s][k] - z))
            if dist < best_d:
                best_s, best_d, lam = s, dist, spectra[s][k]
        phase, dist_best, matched = xs[best_s].coords, best_d, matrices[best_s]
        if refines and tol < dist_best <= _REFINE_GATE * tol:
            x_arr, dist_best, matched, lam = _refine(
                build_at, z, np.array(phase), dist_best, matched, lam)
            phase = reduce_phase(x_arr).coords
        covered = dist_best <= tol
        edge = np.inf
        if covered:
            # an unconverged probe's vector decides nothing: edge nan
            _, vec, res = nearest_eigen_banded(matched, lam)
            edge = edge_value(vec) if res < _PROBE_RES_TOL else np.nan
            covered = edge <= sqrt_tol
        points.append(CoveragePoint(theta=float(theta), covered=bool(covered),
                                    best_dist=float(dist_best),
                                    phase=phase,
                                    edge_value=float(edge)))

    arcs = _covered_arcs(points, span)
    return CoverageScan(points=points, covered_arcs=arcs, window=N, tol=tol)


def _refine(build_at, z: complex, x0: np.ndarray, d0: float, m0: FiniteCMV,
            lam0: complex):
    """Root of the wrapped eigenphase difference along the last coordinate,
    using shift-invert probes: the 16 phases x0 - 0.5 + k/16 are probed once
    each (the first closing the grid as x0 + 0.5) and the first sign change
    is refined by ``_bracket_root``.  Returns (phase, certified distance,
    window, eigenvalue) of the best point, (x0, d0, m0, lam0) when no probe
    beats it.  Each distinct window is probed once: a window seen before
    (the seed's included) reuses its eigenvalue and distance."""
    theta = phase_of(z)
    seen = {m0.alpha.tobytes(): (lam0, d0)}
    best = (x0, d0, m0, lam0)

    def probe(t: float, _ref=None):
        nonlocal best
        coords = x0.copy()
        coords[-1] = t
        m = build_at(coords)
        key = m.alpha.tobytes()
        if key not in seen:
            lam, _, res = nearest_eigen_banded(m, z)
            # certified distance bound for a normal matrix
            seen[key] = (lam, float(abs(lam - z) + res))
        lam, dist = seen[key]
        if dist < best[1]:
            best = (coords, dist, m, lam)
        return lam, False, None

    ts = x0[-1] + np.linspace(-0.5, 0.5, 17)
    lams = [probe(t)[0] for t in ts[:-1]]
    lams.append(lams[0])        # x0 + 0.5 is the phase x0 - 0.5
    signs = [np.sign(_phase_gap(lam, theta)) for lam in lams]
    for i in range(16):
        if signs[i] != signs[i + 1]:
            _bracket_root(probe, theta, (ts[i], lams[i]), (ts[i + 1], lams[i + 1]))
            break
    return best


def _covered_arcs(points, span):
    """Maximal runs of covered grid points, as (start, end) angles."""
    n = len(points)
    covered = [p.covered for p in points]
    if all(covered):
        return [(points[0].theta, (points[0].theta + span) % TWO_PI)]
    if not any(covered):
        return []
    arcs = []
    start = None
    for i in range(n):
        if covered[i] and start is None:
            start = i
        if not covered[i] and start is not None:
            arcs.append((points[start].theta, points[i - 1].theta))
            start = None
    if start is not None:
        arcs.append((points[start].theta, points[n - 1].theta))
    # merge a run that wraps around the grid seam on full circles
    if span == TWO_PI and len(arcs) >= 2 and covered[0] and covered[-1]:
        first, last = arcs[0], arcs.pop()
        arcs[0] = (last[0], first[1])
    return arcs
