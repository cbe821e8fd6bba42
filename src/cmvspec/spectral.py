"""Eigen-decomposition of unitary windows and eigenvector diagnostics.

The pentadiagonal windows are normal matrices, so a complex Schur
factorization delivers an orthonormal eigenbasis directly (the triangular
factor is numerically diagonal).  Eigenvalues are projected onto the circle
and pairs are ordered by phase; eigenvector gauge fixes the first
largest-magnitude entry to be real positive.  Full spectra without
vectors come either from a dense non-Hermitian solve (``eigenphases``) or,
faster, from the Hermitian part (E + E*) / 2 (``hermitian_eigenphases``):
one symmetric eigensolve, or for real coefficients two half-size
tridiagonal ones, since L then is a real reflection that commutes with
(E + E*) / 2 = (L M + M L) / 2.  A batch of windows that needs only
eigenvalues and edge values is screened by stacked Hermitian solves
(``eigen_screen``, ``edge_candidates``).  Queries for the single
eigenvalue nearest a point use a banded Hermitian companion of the window
(``nearest_eigenpair``, ``nearest_eigenvalue``, ``nearest_eigenvalues``
for a batch) and need no dense solve.  A tracked eigenpair with its
separation from the rest of the spectrum (``tracked_eigenpair``) comes
from two such queries, with an ``eigensolve`` fallback, and the gradient of
the nearest eigenvalue's phase from the vector of one
(``eigenphase_gradient``).
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal, lapack, schur

from .cmv import FiniteCMV, apply_cmv, band_product as _apply_rows
from .util import phase_of

DEFAULT_MAX_DIM = 4096
_GAP_TOL = 1e-9     # eigenvalues of H this close tie or share a cluster
_RES_TOL = 1e-9     # residual above which the Hermitian paths go dense
_CHUNK = 8          # windows per stacked eigh and per band assembly of a batch
_CLUSTER_CHUNK = 16     # columns per certificate block of hermitian_eigenphases
_SCREEN_RES_TOL = 1e-10     # column residual above which a screened window goes to eigensolve
_SCREEN_MARGIN = 1e-9       # screened distances or edges this close to a decision are confirmed
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
    cos(theta_k).  An orthonormal eigenbasis V of H comes from one complex
    symmetric eigensolve, or, when every coefficient is real, from two
    half-size tridiagonal ones: then L and M are real reflections (L^2 =
    M^2 = I), so H = (L M + M L) / 2 commutes with L and is block diagonal
    in L's eigenbasis Q (``FiniteCMV.reflection_halves``).  On each of L's
    +-1 eigenspaces it is +-M compressed, a Jacobi matrix with a simple
    spectrum; its diagonals are read from H, and V = Q W for the
    eigenvectors W of the two halves.  Eigenvalues of H within 1e-9 of each
    other form a cluster (each pair e^{+-i theta} of a real window is one,
    one value from each half), and the values of E on a cluster's columns
    V_c are the eigenvalues of B = V_c* E V_c.  Since E is normal and V_c
    orthonormal, each is within ||E V_c - V_c B||_F of spec E, whatever
    rounding separates H from the two halves; when that exceeds 1e-9 for
    any cluster, the dense ``eigenphases`` is returned.  Clusters of one
    size are certified together, up to _CLUSTER_CHUNK columns at a time:
    one E V for the block, then B, the residuals and the eigenvalues of B
    by stacked products and one stacked ``eigvals``, each cluster's arrays
    laid out as it would be alone, so every value is bit for bit the one
    cluster's own.
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
    if m.alpha.imag.any():
        # H.T is Fortran-ordered, so eigh overwrites it in place; it is conj(H)
        h, V = eigh(H.T, overwrite_a=True, driver="evr", check_finite=False)
        np.conjugate(V, out=V)
        # V.T is C-ordered: each cluster's block has the strides of V[:, s:e]
        columns = lambda idx: V.T[idx].transpose(0, 2, 1)
    else:
        h, columns = _reflection_split(m, H.real)
    del H
    bounds = np.r_[0, np.flatnonzero(np.diff(h) > _GAP_TOL) + 1, n]
    sizes = np.diff(bounds)
    w = np.empty(n, dtype=complex)
    # not np.unique: its first call in a process adds 0.25 MB of resident memory
    for k in sorted(set(sizes.tolist())):
        starts = bounds[:-1][sizes == k]
        per = max(1, _CLUSTER_CHUNK // k)
        for i in range(0, len(starts), per):
            idx = starts[i:i + per, None] + np.arange(k)     # (clusters, k)
            Vc = columns(idx)                                # (clusters, n, k)
            EV = apply_cmv(m, Vc.transpose(1, 0, 2).reshape(n, -1))
            # contiguous per cluster: a strided column would reach another
            # BLAS kernel for B and could round differently
            EV = np.ascontiguousarray(EV.reshape(n, -1, k).transpose(1, 0, 2))
            B = Vc.conj().transpose(0, 2, 1) @ EV
            if not (np.linalg.norm(EV - Vc @ B, axis=(1, 2)) <= _RES_TOL).all():
                return eigenphases(m, n)
            w[idx] = B[:, :, 0] if k == 1 else np.linalg.eigvals(B)
    return _on_circle_by_phase(w)


def _reflection_split(m: FiniteCMV, H: np.ndarray):
    """Ascending eigenvalues of the real H of a real window, from its two
    tridiagonal halves Q_s^T H Q_s, and a function that takes a (c, k)
    array of eigenvalue indices to the (c, n, k) stack of the columns Q_s w
    of each row, each half's columns scattered in one indexing step."""
    halves, values = [], []
    for rows, weights in m.reflection_halves():
        k = rows.shape[1]
        if k == 0:
            continue
        # entry (j, j') of Q_s^T H Q_s is sum over a, b of w_a[j] w_b[j'] H[r_a[j], r_b[j']]
        d = np.einsum("aj,bj,abj->j", weights, weights, H[rows[:, None], rows[None]])
        e = np.einsum("aj,bj,abj->j", weights[:, :-1], weights[:, 1:],
                      H[rows[:, None, :-1], rows[None, :, 1:]])
        vals, W = eigh_tridiagonal(d, e, check_finite=False)
        halves.append((rows, weights, W))
        values.append(vals)
    h = np.concatenate(values)
    order = np.argsort(h, kind="stable")
    n = len(h)

    def columns(idx: np.ndarray) -> np.ndarray:
        V = np.zeros((len(idx), n, idx.shape[1]))
        j = order[idx]                  # index into the concatenated halves
        for rows, weights, W in halves:
            c, t = np.nonzero((j >= 0) & (j < W.shape[1]))
            x = W[:, j[c, t]]
            V[c, rows[0][:, None], t] = weights[0][:, None] * x
            V[c, rows[1][:, None], t] += weights[1][:, None] * x
            j = j - W.shape[1]
        return V

    return h[order], columns


def eigen_screen(m: FiniteCMV) -> list:
    """Eigenvalues and edge values of each window of the batch m, without
    a Schur factorization.

    E is normal, so H = (E + E*) / 2 has E's eigenvectors, and a column v
    of H's eigenbasis is one of them when H's eigenvalues are simple; its
    eigenvalue is the Rayleigh quotient v* E v, within the residual
    ||E v - (v* E v) v|| of spec E.  Two eigenvalues of E with nearly equal
    cosines mix in H's eigenbasis V, so B = V* E V is diagonal only up to
    that mixing, and one first-order step V (I + C), C_jk = B_jk /
    (B_kk - B_jj) off the diagonal, removes it before the quotients, the
    residuals and the edge values are read.  The windows go through one
    stacked ``np.linalg.eigh`` per chunk of _CHUNK.  Row k is (values,
    edges): the quotients projected to the circle and sorted by phase, as
    in ``eigensolve``, and ``edge_value`` of each column; or None when two
    eigenvalues of H lie within _GAP_TOL (each pair e^{+-i theta} of a real
    window does) or a column residual exceeds _SCREEN_RES_TOL, where only
    ``eigensolve`` describes the window.
    """
    out = []
    for s in range(0, len(m.bands), _CHUNK):
        E = m.row(slice(s, s + _CHUNK)).dense()
        h, V = np.linalg.eigh(0.5 * (E + np.conj(np.swapaxes(E, 1, 2))))
        B = np.conj(np.swapaxes(V, 1, 2)) @ (E @ V)
        diag = np.arange(E.shape[-1])
        lam = B[:, diag, diag]
        D = lam[:, None, :] - lam[:, :, None]
        D[:, diag, diag] = 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            C = B / D                   # a zero gap gives nan: the residual fails
        C[:, diag, diag] = 1.0
        V = V @ C
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        EV = E @ V
        lam = np.einsum("kij,kij->kj", np.conj(V), EV)
        res = np.linalg.norm(EV - V * lam[:, None, :], axis=1)
        edges = edge_value(np.swapaxes(V, 1, 2))
        for k in range(len(E)):
            if np.diff(h[k]).min(initial=np.inf) <= _GAP_TOL \
                    or not res[k].max() <= _SCREEN_RES_TOL:
                out.append(None)
                continue
            w = lam[k] / np.abs(lam[k])
            order = np.argsort(np.angle(w) % (2 * np.pi), kind="stable")
            out.append((w[order], edges[k, order]))
    return out


def edge_candidates(m: FiniteCMV, z: complex, edge_thr: float):
    """Yield (|value - z|, value, k) for each eigenpair of the windows of the
    batch m whose ``edge_value`` is below edge_thr, nearest z first, ties in
    window then phase order: exactly what ``eigensolve`` on every window
    would give, values included.

    The windows are screened by ``eigen_screen``.  A screened eigenvalue
    and the ``eigensolve`` one each lie within their residual (at most
    1e-10) of spec E, and the screened edge values agree with
    ``eigensolve``'s to about 1e-14, so ``eigensolve`` confirms a window
    before any pair is decided on a screened number closer than
    _SCREEN_MARGIN to the decision: a window the screen cannot describe, or
    with an edge value that close to edge_thr, at the start; a window with
    a screened candidate that close to the nearest one left, before that
    one is yielded.  Only confirmed pairs are yielded.
    """
    exact, screened = [], []    # heap of (dist, k, index, value); sorted (dist, k)

    def confirm(k: int) -> None:
        for p in eigensolve(m.row(k)):
            if edge_value(p.vector) < edge_thr:
                heapq.heappush(exact, (abs(p.value - z), k, p.index, p.value))

    for k, screen in enumerate(eigen_screen(m)):
        if screen is None or (np.abs(screen[1] - edge_thr) <= _SCREEN_MARGIN).any():
            confirm(k)
        else:
            values, edges = screen
            screened += [(abs(v - z), k) for v in values[edges < edge_thr]]
    screened.sort()
    while exact or screened:
        top = min(exact[0][0] if exact else np.inf,
                  screened[0][0] if screened else np.inf)
        near = {k for _, k in screened[:bisect.bisect_right(
            screened, (top + _SCREEN_MARGIN, np.inf))]}
        if near:
            for k in sorted(near):
                confirm(k)
            screened = [c for c in screened if c[1] not in near]
            continue
        dist, k, _, value = heapq.heappop(exact)
        yield dist, value, k


def rayleigh_value(v: np.ndarray, ev: np.ndarray) -> tuple[complex, float]:
    """The Rayleigh quotient v* E v of a unit vector v, projected to the
    circle, and its residual ||E v - value v||, from ev = E v.  For a normal
    E, dist(z, spec E) <= |value - z| + residual."""
    lam = complex(np.vdot(v, ev))
    lam /= abs(lam)
    return lam, float(np.linalg.norm(ev - lam * v))


def _nearest(m: FiniteCMV, z: complex, gap: bool = False) -> list:
    """(value, ungauged vector, residual, tie) behind ``nearest_eigenpair``,
    per window of m, one window or a batch.

    H = (conj(u) E + u E*) / 2 is assembled in band form and E v formed once
    per chunk of _CHUNK windows; the LAPACK calls, the certificate and the
    dense fallback are per window, each as for the window alone.  A window
    goes to ``eigenphases`` (vector None, residual 0) when it has fewer than
    3 sites or z = 0, when the top two eigenvalues of H tie (tie True), when
    the shift is exactly singular, or when the residual exceeds _RES_TOL.
    With ``gap``, each row carries a fifth field, sqrt(2 - 2 w0) for the
    second-largest eigenvalue w0 of H: the distance from u to the
    second-nearest eigenvalue of E (nan on a row that falls back).
    """
    if m.beta is None or m.eta is None:
        raise ValueError("nearest_eigenpair needs a unitary window")
    n = m.size
    bands = m.bands.reshape(-1, 5, n)
    banded = n >= 3 and z != 0
    width = 5 if gap else 4
    if banded:
        u = z / abs(z)
        start = _START[:n] if n <= len(_START) else np.random.default_rng(1234).standard_normal(n)
    out = []
    for s in range(0, len(bands), _CHUNK):
        chunk = bands[s:s + _CHUNK]
        tie = [False] * len(chunk)
        solved = [False] * len(chunk)
        second = [np.nan] * len(chunk)
        if banded:
            ab = np.zeros((len(chunk), 7, n), dtype=complex)    # zgbtrf layout, kl = ku = 2
            for off in range(3):
                d = 0.5 * (np.conj(u) * chunk[:, 2 + off, :n - off]
                           + u * np.conj(chunk[:, 2 - off, off:]))
                ab[:, 4 - off, off:] = d
                ab[:, 4 + off, :n - off] = np.conj(d)
            V = np.zeros((len(chunk), n), dtype=complex)
            for k, abk in enumerate(ab):
                w, _, _, _, info = lapack.zhbevx(abk[2:5], 0.0, 1.0, n - 1, n, compute_v=0,
                                                 range=2, lower=0, abstol=_ABSTOL, mmax=1)
                if info:
                    raise np.linalg.LinAlgError(f"zhbevx did not converge (info={info})")
                tie[k] = bool(w[1] - w[0] <= _GAP_TOL)
                if tie[k]:
                    continue
                second[k] = float(np.sqrt(2.0 - 2.0 * w[0]))
                abk[4] -= w[1]
                lub, piv, info = lapack.zgbtrf(abk, 2, 2)
                if info:                        # exactly singular shift
                    continue
                v = start
                for _ in range(2):
                    v = lapack.zgbtrs(lub, 2, 2, v, piv)[0]
                    v /= np.linalg.norm(v)
                V[k] = v
                solved[k] = True
            EV = _apply_rows(chunk, V)
        for k in range(len(chunk)):
            if solved[k]:
                lam, res = rayleigh_value(V[k], EV[k])
                if res <= _RES_TOL:
                    out.append((lam, V[k], res, False, second[k])[:width])
                    continue
            w = eigenphases(m if m.bands.ndim == 2 else m.row(s + k))
            out.append((complex(w[int(np.argmin(np.abs(w - z)))]), None, 0.0, tie[k],
                        np.nan)[:width])
    return out


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
    value, vector, residual, _ = _nearest(m, z)[0]
    return value, None if vector is None else _gauge(vector), residual


def tracked_eigenpair(m: FiniteCMV, z: complex) -> tuple[complex, np.ndarray, float, float]:
    """(value, gauged vector, |value - z|, separation) of the eigenpair of a
    unitary window nearest z; separation is the distance from value to the
    nearest other eigenvalue.

    Two queries of ``_nearest``: at z for the value and its vector, then at
    u = value, where the top eigenvalue of H belongs to value's own state,
    so the second-nearest eigenvalue of E is the nearest other one.  When
    either query falls back (a tie, fewer than 3 sites, z = 0, an exactly
    singular shift, or a residual above _RES_TOL), the pair comes from
    ``eigensolve``, ``nearest_eigen`` and ``separation_gap`` instead.
    """
    value, vector, _, _ = _nearest(m, z)[0]
    if vector is not None:
        _, again, _, _, separation = _nearest(m, value, gap=True)[0]
        if again is not None:
            return value, _gauge(vector), float(abs(value - z)), separation
    pairs = eigensolve(m)
    p, dist = nearest_eigen(pairs, z)
    return p.value, p.vector, dist, separation_gap(pairs, p.index)


def nearest_eigenvalue(m: FiniteCMV, z: complex) -> tuple[complex, bool]:
    """The value of ``nearest_eigenpair`` and whether it is a tie: two
    eigenvalues about equally far from z (the top two eigenvalues of H
    within 1e-9), where a path of phases jumps from one branch to another."""
    value, _, _, tie = _nearest(m, z)[0]
    return value, tie


def nearest_eigenvalues(m: FiniteCMV, z: complex) -> list[tuple[complex, bool]]:
    """``nearest_eigenvalue`` of each window of the batch m, in order, each
    bit for bit that of the window alone, with one band assembly of H and
    one E v per chunk of windows."""
    return [(value, tie) for value, _, _, tie in _nearest(m, z)]


def eigenphase_gradient(m: FiniteCMV, z: complex,
                        dalpha: np.ndarray) -> tuple[complex, np.ndarray]:
    """The value of ``nearest_eigenvalue`` of a unitary window and the
    gradient Im(conj(lambda) d_i lambda) of its phase, for the derivatives
    d_i alpha on sites a-1..b in the columns of dalpha.

    E is normal, so d_i lambda = v* (d_i E) v for the unit vector v of a
    simple eigenvalue (``FiniteCMV.derivative_form``), and the one query
    gives both.  When that query falls back (a tie, an exactly singular
    shift, a residual above _RES_TOL, fewer than 3 sites or z = 0), v is
    the vector of ``eigensolve``'s pair nearest the value.
    """
    value, vector, _, _ = _nearest(m, z)[0]
    if vector is None:
        vector = nearest_eigen(eigensolve(m), value)[0].vector
    return value, (np.conj(value) * m.derivative_form(vector, dalpha)).imag


def spectral_distance(m: FiniteCMV, z: complex) -> float:
    """dist(z, spec E) of a unitary window, from ``nearest_eigenpair``."""
    return float(abs(_nearest(m, z)[0][0] - z))


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


def edge_value(vector: np.ndarray) -> float | np.ndarray:
    """Largest |u(s)| over the four outer sites at each end of the window;
    on fewer than 8 sites the two ends overlap.  For a stack of vectors, sites
    on the last axis, the array of each vector's value."""
    u = np.abs(vector)
    edge = np.maximum(u[..., :4].max(axis=-1), u[..., -4:].max(axis=-1))
    return float(edge) if edge.ndim == 0 else edge


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
