"""Eigen-decomposition of unitary windows and eigenvector diagnostics.

The pentadiagonal windows are normal matrices, so a complex Schur
factorization delivers an orthonormal eigenbasis directly (the triangular
factor is numerically diagonal).  Eigenvalues are projected onto the circle
and pairs are ordered by phase; eigenvector gauge fixes the first
largest-magnitude entry to be real positive.  Full spectra without
vectors come either from a dense non-Hermitian solve (``eigenphases``) or,
faster, from one symmetric eigensolve of the Hermitian part (E + E*) / 2
(``hermitian_eigenphases``).  Queries for the single
eigenvalue nearest a point use a banded Hermitian companion of the window
(``nearest_eigenpair``, ``nearest_eigenvalue``) and need no dense solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, lapack, schur

from .cmv import FiniteCMV, apply_cmv
from .util import phase_of

DEFAULT_MAX_DIM = 4096
_GAP_TOL = 1e-9     # eigenvalues of H this close tie or share a cluster
_RES_TOL = 1e-9     # residual above which the Hermitian paths go dense
_ABSTOL = 2 * lapack.dlamch("s")    # zhbevx tolerance, as eigvals_banded sets it
# inverse-iteration start: _START[:n] is default_rng(1234).standard_normal(n)
_START = np.random.default_rng(1234).standard_normal(DEFAULT_MAX_DIM)


@dataclass
class EigenPair:
    index: int
    value: complex            # unit modulus after projection
    vector: np.ndarray
    residual: float
    raw_modulus: float        # |eigenvalue| before projection, health metric

    @property
    def theta(self) -> float:
        return phase_of(self.value)


def _gauge(vec: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(vec)))
    pivot = vec[k]
    if pivot == 0:
        return vec
    return vec * (np.conj(pivot) / abs(pivot))


def eigensolve(m, max_dim: int = DEFAULT_MAX_DIM) -> list[EigenPair]:
    """Complete eigen-decomposition, ordered by eigenvalue phase.

    Accepts a FiniteCMV window or a dense (near-)unitary matrix.  Raises if
    the decomposition degrades (residuals above 1e-10), reporting a content
    hash of the offending matrix.
    """
    A = m.dense() if isinstance(m, FiniteCMV) else np.asarray(m, dtype=complex)
    n = A.shape[0]
    if n > max_dim:
        raise ValueError(f"window size {n} exceeds max_dim={max_dim}")
    if n == 1:
        lam = complex(A[0, 0])
        value = lam / abs(lam)
        return [EigenPair(index=0, value=value, vector=np.ones(1, dtype=complex),
                          residual=abs(lam - value), raw_modulus=abs(lam))]
    T, Z = schur(A, output="complex")
    w = np.diag(T).copy()
    residuals = np.array([np.linalg.norm(A @ Z[:, k] - w[k] * Z[:, k])
                          for k in range(n)])
    if residuals.max() > 1e-10:
        import hashlib
        digest = hashlib.sha256(A.tobytes()).hexdigest()[:16]
        raise RuntimeError(
            f"eigensolve residual {residuals.max():.2e} exceeds 1e-10 "
            f"(matrix sha256 {digest})")
    order = np.argsort(np.angle(w) % (2 * np.pi), kind="stable")
    pairs = []
    for rank, k in enumerate(order):
        lam = w[k]
        mod = abs(lam)
        pairs.append(EigenPair(index=rank, value=lam / mod,
                               vector=_gauge(Z[:, k].copy()),
                               residual=float(residuals[k]), raw_modulus=float(mod)))
    return pairs


def eigenphases(m, max_dim: int = DEFAULT_MAX_DIM) -> np.ndarray:
    """Unit-circle eigenvalues only (no vectors), sorted by phase."""
    A = m.dense() if isinstance(m, FiniteCMV) else np.asarray(m, dtype=complex)
    if A.shape[0] > max_dim:
        raise ValueError(f"window size {A.shape[0]} exceeds max_dim={max_dim}")
    return _on_circle_by_phase(np.linalg.eigvals(A))


def _on_circle_by_phase(w: np.ndarray) -> np.ndarray:
    """Eigenvalues projected to the unit circle, sorted by phase in [0, 2 pi)."""
    w = w / np.abs(w)
    return w[np.argsort(np.angle(w) % (2 * np.pi), kind="stable")]


def hermitian_eigenphases(m: FiniteCMV) -> np.ndarray:
    """``eigenphases`` of a unitary window from the Hermitian part of E.

    E is normal, so H = (E + E*) / 2 has E's eigenvectors, with eigenvalues
    cos(theta_k).  One symmetric eigensolve of H (real when E is) gives an
    orthonormal basis V; eigenvalues of H within 1e-9 of each other form a
    cluster (each pair e^{+-i theta} of a real window is one), and the values
    of E on a cluster's columns V_c are the eigenvalues of B = V_c* E V_c.
    Since E is normal, each is within ||E V_c - V_c B||_F of spec E; when that
    exceeds 1e-9 for any cluster, the dense ``eigenphases`` is returned.
    """
    if m.beta is None or m.eta is None:
        raise ValueError("hermitian_eigenphases needs a unitary window")
    n = m.size
    H = m.dense()
    for off in range(3):                # H in place: only five diagonals change
        rows = np.arange(n - off)
        h = 0.5 * (H[rows, rows + off] + np.conj(H[rows + off, rows]))
        H[rows, rows + off] = h
        H[rows + off, rows] = np.conj(h)
    if not m.bands.imag.any():          # a real solve: faster, half the memory
        H = H.real.copy()
    # H.T is Fortran-ordered, so eigh overwrites it in place; it is conj(H)
    h, V = eigh(H.T, overwrite_a=True, driver="evr", check_finite=False)
    del H
    np.conjugate(V, out=V)
    bounds = np.r_[0, np.flatnonzero(np.diff(h) > _GAP_TOL) + 1, n]
    w = np.empty(n, dtype=complex)
    for s, e in zip(bounds[:-1], bounds[1:]):
        Vc = V[:, s:e]
        EV = apply_cmv(m, Vc)
        B = Vc.conj().T @ EV
        if not np.linalg.norm(EV - Vc @ B) <= _RES_TOL:
            return eigenphases(m, n)
        w[s:e] = B[0, 0] if e - s == 1 else np.linalg.eigvals(B)
    return _on_circle_by_phase(w)


def _banded_nearest(m: FiniteCMV, z: complex):
    """(value, vector, residual) from H = (conj(u) E + u E*) / 2, or why
    not: "tie" when the top two eigenvalues of H nearly coincide, "fail"
    when the shift is exactly singular or the residual is not small."""
    n = m.size
    u = z / abs(z)
    ab = np.zeros((7, n), dtype=complex)      # H in zgbtrf layout (kl = ku = 2)
    for off in range(3):
        d = 0.5 * (np.conj(u) * m.bands[2 + off][:n - off]
                   + u * np.conj(m.bands[2 - off][off:]))
        ab[4 - off, off:] = d
        ab[4 + off, :n - off] = np.conj(d)
    w, _, _, _, info = lapack.zhbevx(ab[2:5], 0.0, 1.0, n - 1, n, compute_v=0,
                                     range=2, lower=0, abstol=_ABSTOL, mmax=1)
    if info:
        raise np.linalg.LinAlgError(f"zhbevx did not converge (info={info})")
    if w[1] - w[0] <= _GAP_TOL:
        return "tie"
    ab[4] -= w[1]
    lub, piv, info = lapack.zgbtrf(ab, 2, 2)
    if info:                            # exactly singular shift
        return "fail"
    v = _START[:n] if n <= len(_START) else np.random.default_rng(1234).standard_normal(n)
    for _ in range(2):
        v = lapack.zgbtrs(lub, 2, 2, v, piv)[0]
        v /= np.linalg.norm(v)
    ev = apply_cmv(m, v)
    lam = complex(np.vdot(v, ev))
    lam /= abs(lam)
    res = float(np.linalg.norm(ev - lam * v))
    if not res <= _RES_TOL:
        return "fail"
    return lam, v, res


def _nearest(m: FiniteCMV, z: complex):
    """(value, ungauged vector, residual, tie) behind ``nearest_eigenpair``."""
    if m.beta is None or m.eta is None:
        raise ValueError("nearest_eigenpair needs a unitary window")
    pair = _banded_nearest(m, z) if m.size >= 3 and z != 0 else "fail"
    if not isinstance(pair, str):
        return (*pair, False)
    w = eigenphases(m)
    return complex(w[int(np.argmin(np.abs(w - z)))]), None, 0.0, pair == "tie"


def nearest_eigenpair(m: FiniteCMV, z: complex) -> tuple[complex, np.ndarray | None, float]:
    """Eigenvalue of a unitary window nearest z, with its vector and residual.

    Works on the Hermitian pentadiagonal H = (conj(u) E + u E*) / 2 with
    u = z/|z|: E is normal, so H shares its eigenvectors and has eigenvalues
    cos(theta_k - arg z), and the top one belongs to the eigenvalue of E
    nearest z (for any z != 0, on or inside the circle).  The top two
    eigenvalues of H come from a banded solver, the vector from two steps of
    inverse iteration at the top one, lambda_max (one LU factorization of
    H - lambda_max, two triangular solves), and the eigenvalue from the
    Rayleigh quotient of E, projected to the circle; sqrt(2 - 2 lambda_max) alone
    would be too coarse near z.  Since E is normal,
    dist(z, spec E) <= |value - z| + residual.

    Falls back to the dense ``eigenphases`` (vector None, residual 0) when
    the window has fewer than 3 sites or z = 0, when the top two
    eigenvalues of H are within 1e-9 (two eigenvalues of E about equally far
    from z; ties then go to the lower phase, as in ``nearest_eigen``), or
    when the residual exceeds 1e-9.
    """
    value, vector, residual, _ = _nearest(m, z)
    return value, None if vector is None else _gauge(vector), residual


def nearest_eigenvalue(m: FiniteCMV, z: complex) -> tuple[complex, bool]:
    """The value of ``nearest_eigenpair`` and whether it is a tie: two
    eigenvalues about equally far from z (the top two eigenvalues of H
    within 1e-9), where a path of phases jumps from one branch to another."""
    value, _, _, tie = _nearest(m, z)
    return value, tie


def spectral_distance(m: FiniteCMV, z: complex) -> float:
    """dist(z, spec E) of a unitary window, from ``nearest_eigenpair``."""
    return float(abs(_nearest(m, z)[0] - z))


def nearest_eigen(pairs: list[EigenPair], z: complex) -> tuple[EigenPair, float]:
    """Pair minimizing chordal distance |z_k - z|; ties go to the lower index."""
    if not pairs:
        raise ValueError("empty eigenpair list")
    best, best_d = pairs[0], abs(pairs[0].value - z)
    for p in pairs[1:]:
        d = abs(p.value - z)
        if d < best_d:
            best, best_d = p, d
    return best, float(best_d)


def separation_gap(pairs: list[EigenPair], k: int) -> float:
    """min over j != k of |z_j - z_k|."""
    if len(pairs) < 2:
        raise ValueError("need at least two eigenpairs")
    zk = pairs[k].value
    return float(min(abs(p.value - zk) for i, p in enumerate(pairs) if i != k))


def edge_value(vector: np.ndarray) -> float:
    """Largest |u(s)| over the four outer sites at each end of the window;
    on fewer than 8 sites the two ends overlap."""
    u = np.abs(vector)
    return float(max(u[:4].max(), u[-4:].max()))


def decay_ratio(vector: np.ndarray, interval: tuple[int, int], cut: float,
                gamma: float, divisor: float) -> float:
    """max |u(s)| / exp(-gamma |s| / divisor) over the sites |s| >= cut of the
    window [a, b], or 0 when it has none: below 1 exactly when u lies under
    that bound on every such site."""
    sites = np.arange(interval[0], interval[1] + 1)
    mask = np.abs(sites) >= cut
    bound = np.exp(-gamma * np.abs(sites[mask]) / divisor)
    return float(np.max(np.abs(vector)[mask] / bound, initial=0.0))


def aligned_distance(target: np.ndarray, vector: np.ndarray) -> float:
    """||target - c vector|| for the unimodular c = <vector, target> /
    |<vector, target>| that best aligns the phase of vector to target
    (c = 1 when the two are orthogonal)."""
    inner = np.vdot(vector, target)
    aligned = vector * (inner / abs(inner)) if inner != 0 else vector
    return float(np.linalg.norm(target - aligned))


@dataclass(frozen=True)
class LocalizationProfile:
    sites: np.ndarray
    log_abs: np.ndarray
    center: int
    fitted_rate: float
    fit_window: tuple[int, int]
    passes: bool
    worst_site: int | None
    threshold_rate: float


def localization_profile(vector: np.ndarray, interval: tuple[int, int],
                         n0: int, gamma: float) -> LocalizationProfile:
    """Per-site log|u(s)| with a decay fit and the exp(-gamma|s|/20) test.

    The pass criterion checks |u(s)| < exp(-gamma |s| / 20) on all sites
    with |s| >= 3 n0 / 4; the decay rate is least-squares fitted on the same
    sites (slope of log|u| against |s|, sign-flipped).
    """
    a, b = interval
    u = np.asarray(vector, dtype=complex)
    if len(u) != b - a + 1:
        raise ValueError("vector length does not match interval")
    sites = np.arange(a, b + 1)
    mags = np.abs(u)
    log_abs = np.log(np.maximum(mags, 1e-300))
    center = int(sites[int(np.argmax(mags))])
    cut = 3.0 * n0 / 4.0
    mask = np.abs(sites) >= cut
    if not mask.any():
        raise ValueError("window has no sites with |s| >= 3 n0 / 4")
    passes = decay_ratio(u, interval, cut, gamma, 20.0) < 1.0
    excess = mags[mask] - np.exp(-gamma * np.abs(sites[mask]) / 20.0)
    worst = None if passes else int(sites[mask][int(np.argmax(excess))])
    A = np.vstack([np.abs(sites[mask]), np.ones(mask.sum())]).T
    slope = float(np.linalg.lstsq(A, log_abs[mask], rcond=None)[0][0])
    return LocalizationProfile(sites=sites, log_abs=log_abs, center=center,
                               fitted_rate=-slope, fit_window=(int(np.ceil(cut)), b),
                               passes=passes, worst_site=worst,
                               threshold_rate=gamma / 20.0)


@dataclass(frozen=True)
class PerturbReport:
    """Outcome of the approximate-eigenvector check.

    part_a: some eigenvalue z0 lies within sqrt(2)*eps_tilde of z and its
    eigenvector overlaps phi by at least (2N)^{-1/2}.
    part_b: when the disk D(z, eps_hat) isolates exactly one eigenvalue,
    the phase-aligned distance ||phi - psi|| is below sqrt(2)/eps_hat*eps_tilde.
    """

    input_residual: float
    z0: complex
    dist_z0: float
    overlap: float
    part_a_dist_ok: bool
    part_a_overlap_ok: bool
    isolated_count: int
    part_b_applicable: bool
    aligned_distance: float | None
    part_b_ok: bool | None


def perturb_eigen_check(A: np.ndarray, phi: np.ndarray, z: complex,
                        eps_tilde: float, eps_hat: float | None = None) -> PerturbReport:
    """Check the two-part eigenvector stability statement on a unitary A."""
    A = np.asarray(A, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    N = A.shape[0]
    if abs(np.linalg.norm(phi) - 1.0) > 1e-10:
        raise ValueError("phi must be normalized")
    res = float(np.linalg.norm(A @ phi - z * phi))
    if res >= eps_tilde:
        raise ValueError(f"hypothesis fails: ||(A - z) phi|| = {res:.3e} >= {eps_tilde:.3e}")
    pairs = eigensolve(A)

    overlaps = np.array([abs(np.vdot(p.vector, phi)) for p in pairs])
    dists = np.array([abs(p.value - z) for p in pairs])
    floor = (2.0 * N) ** -0.5
    candidates = [i for i in range(len(pairs))
                  if dists[i] < np.sqrt(2.0) * eps_tilde and overlaps[i] >= floor]
    if candidates:
        best = max(candidates, key=lambda i: overlaps[i])
    else:
        best = int(np.argmax(overlaps))
    z0 = pairs[best].value
    report = dict(input_residual=res, z0=z0, dist_z0=float(dists[best]),
                  overlap=float(overlaps[best]),
                  part_a_dist_ok=bool(dists[best] < np.sqrt(2.0) * eps_tilde),
                  part_a_overlap_ok=bool(overlaps[best] >= floor))

    if eps_hat is None:
        return PerturbReport(**report, isolated_count=0, part_b_applicable=False,
                             aligned_distance=None, part_b_ok=None)
    if eps_hat <= eps_tilde:
        raise ValueError("need eps_hat > eps_tilde")
    inside = [i for i in range(len(pairs)) if dists[i] < eps_hat]
    if len(inside) != 1:
        return PerturbReport(**report, isolated_count=len(inside),
                             part_b_applicable=False, aligned_distance=None,
                             part_b_ok=None)
    dist = aligned_distance(phi, pairs[inside[0]].vector)
    return PerturbReport(**report, isolated_count=1, part_b_applicable=True,
                         aligned_distance=dist,
                         part_b_ok=bool(dist < np.sqrt(2.0) * eps_tilde / eps_hat))
