"""Finite-volume Green's functions, the Poisson representation, and the
covering criterion.

G = (z L* - M)^{-1} on a window; the operator z L* - M is tridiagonal, so
columns of G come from O(n) banded solves.  Green magnitudes also factor
through normalized window determinants, and the two routes are compared in
the tests.  The boundary weights below are derived for this package's
block convention and are exact (Poisson residuals at machine scale).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .cmv import FiniteCMV, VerblunskySequence, build_finite_cmv
from .determinants import log_normalized_phi

_SINGULAR_LOG = -600.0


@dataclass(frozen=True)
class GreenValue:
    a: int
    b: int
    j: int
    k: int
    z: complex
    magnitude: float          # from the determinant-ratio formula
    value: complex            # from the direct banded solve
    singular: bool


def _green_column(m: FiniteCMV, z: complex, k: int) -> np.ndarray:
    """Column k (site index) of (z L* - M)^{-1}."""
    ab = m.zlstar_minus_m_banded(z)
    e = np.zeros(m.size, dtype=complex)
    e[k - m.a] = 1.0
    return solve_banded((1, 1), ab, e)


def _singular(log_den: float) -> bool:
    """Whether a window with log |normalized phi| = log_den is singular at
    z: -inf at an exact eigenvalue, or below _SINGULAR_LOG."""
    return not np.isfinite(log_den) or log_den < _SINGULAR_LOG


def green_value(seq: VerblunskySequence, a: int, b: int, j: int, k: int,
                z: complex, beta: complex = 1.0 + 0j,
                eta: complex = 1.0 + 0j) -> GreenValue:
    """Green's function entry G(j,k) of the [a,b] window, both routes.

    magnitude = (1/rho_k) |phi_{[a,j-1]} phi_{[k+1,b]} / phi_{[a,b]}| with
    normalized determinants carrying the window boundary on the outer side
    and the untouched coefficient on the inner side; value solves the
    tridiagonal system directly.  Requires a <= j <= k <= b.
    """
    if not (a <= j <= k <= b):
        raise ValueError("need a <= j <= k <= b")
    log_num = (log_normalized_phi(seq, a, j - 1, z, beta=beta, eta=None)
               + log_normalized_phi(seq, k + 1, b, z, beta=None, eta=eta))
    log_den = log_normalized_phi(seq, a, b, z, beta=beta, eta=eta)
    singular = _singular(log_den)
    rho_k = seq.raw_rho(k)
    magnitude = float(np.exp(log_num - log_den) / rho_k) if not singular else np.inf

    m = build_finite_cmv(seq, a, b, beta=beta, eta=eta)
    col = _green_column(m, z, k)
    value = complex(col[j - a]) if np.all(np.isfinite(col)) else complex(np.inf)
    return GreenValue(a=a, b=b, j=j, k=k, z=z, magnitude=magnitude,
                      value=value, singular=singular)


def _boundary_weights(seq: VerblunskySequence, a: int, b: int, z: complex,
                      beta: complex, eta: complex):
    """Coefficients of (u(a), u(a+1)) and (u(b-1), u(b)) in (z L* - M) P u.

    Derived from the block structure: for a vector satisfying the
    unmodified five-term recurrence strictly inside [a, b], the product
    (z L* - M) P u vanishes except at the cut sites, where it equals

      a even:  (z alpha_a + beta) u(a) + z rho_a u(a+1)
      a odd:  -(z conj(beta) + conj(alpha_a)) u(a) - rho_a u(a+1)
      b even:  (z eta + alpha_{b-1}) u(b) - rho_{b-1} u(b-1)
      b odd:   z rho_{b-1} u(b-1) - (z conj(alpha_{b-1}) + conj(eta)) u(b)
    """
    aa, ra = seq.raw_value(a), seq.raw_rho(a)
    ab1, rb1 = seq.raw_value(b - 1), seq.raw_rho(b - 1)
    if a % 2 == 0:
        wa = (z * aa + beta, z * ra)
    else:
        wa = (-(z * np.conj(beta) + np.conj(aa)), -ra)
    if b % 2 == 0:
        wb = (-rb1, z * eta + ab1)
    else:
        wb = (z * rb1, -(z * np.conj(ab1) + np.conj(eta)))
    return wa, wb


def poisson_residual(seq: VerblunskySequence, a: int, b: int,
                     z: complex, u: np.ndarray, u_window: tuple[int, int],
                     m: int, beta: complex = 1.0 + 0j,
                     eta: complex = 1.0 + 0j) -> float:
    """|u(m) - G(m,a) w_a - G(m,b) w_b| for an eigenfunction u.

    u lives on sites u_window = [A, B] and must satisfy the eigenvalue
    equation of a window containing [a-2, b+2] strictly, so that the
    unmodified recurrence holds across [a, b].  Requires a < m < b.
    """
    A, B = u_window
    if not (A <= a - 2 and b + 2 <= B):
        raise ValueError("u must be defined on [a-2, b+2] at least")
    if not (a < m < b):
        raise ValueError("need a < m < b")
    u = np.asarray(u, dtype=complex)

    def us(s: int) -> complex:
        return u[s - A]

    (ca0, ca1), (cb0, cb1) = _boundary_weights(seq, a, b, z, beta, eta)
    wa = ca0 * us(a) + ca1 * us(a + 1)
    wb = cb0 * us(b - 1) + cb1 * us(b)

    win = build_finite_cmv(seq, a, b, beta=beta, eta=eta)
    col_a = _green_column(win, z, a)
    col_b = _green_column(win, z, b)
    val = col_a[m - a] * wa + col_b[m - a] * wb
    return float(abs(val - us(m)))


def covering_predicate(seq: VerblunskySequence, z: complex, m: int,
                       window: tuple[int, int],
                       outer: tuple[int, int]) -> tuple[bool, float]:
    """Criterion excluding z from the spectrum of the outer window; beta = eta = 1.

    For the subwindow I_m = [am, bm] containing m, evaluates

      |G_{I_m}(am, m)| (|z a_am + beta| + rho_am)
        + |G_{I_m}(m, bm)| (|z eta + a_{bm-1}| + rho_{bm-1})

    with the parity-matched weight variants; returns (sum < 1, sum).  The
    Green magnitudes use the determinant-ratio route (transpose-symmetric
    in magnitude), so the predicate is meaningful arbitrarily close to the
    subwindow spectrum; a subwindow singular by ``green_value``'s rule
    excludes nothing.
    """
    am, bm = window
    a, b = outer
    if not (a + 1 <= am <= m <= bm <= b - 1):
        raise ValueError("need I_m inside [a+1, b-1] and m inside I_m")
    (ca0, ca1), (cb0, cb1) = _boundary_weights(seq, am, bm, z, 1.0 + 0j, 1.0 + 0j)
    weight_a = abs(ca0) + abs(ca1)
    weight_b = abs(cb0) + abs(cb1)

    def log_g(j: int, k: int) -> float:
        log_num = (log_normalized_phi(seq, am, j - 1, z, eta=None)
                   + log_normalized_phi(seq, k + 1, bm, z, beta=None))
        log_den = log_normalized_phi(seq, am, bm, z)
        if _singular(log_den):
            return np.inf
        return log_num - log_den - np.log(seq.raw_rho(k))

    total = (weight_a * np.exp(min(log_g(am, m), 700.0))
             + weight_b * np.exp(min(log_g(m, bm), 700.0)))
    return bool(total < 1.0), float(total)
