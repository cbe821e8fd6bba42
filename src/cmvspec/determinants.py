"""Characteristic determinants and the determinant-transfer identity.

Determinants of pentadiagonal windows are computed by banded LU in O(n),
carried in log-magnitude + phase form so windows of thousands of sites do
not overflow.  The transfer-matrix identity reconstructs the n-step product
from window determinants; its boundary convention is the pure truncation
(coefficients left unchanged at the cut sites), validated to 1e-15 by the
two-sided residual tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .cmv import VerblunskySequence, build_finite_cmv
from .cocycle import SpectralPoint, transfer_product
from .torus import Phase, SamplingFunction, reduce_phase


@dataclass(frozen=True)
class CharDet:
    """det(z - E) for a window, in overflow-safe form."""

    a: int
    b: int
    z: complex
    log_abs: float
    phase: complex           # unit-modulus; value = exp(log_abs) * phase
    singular: bool
    log_rho: float = 0.0     # log(rho_a ... rho_b) of the unmodified sampling

    @property
    def value(self) -> complex:
        if self.singular:
            return 0j
        if self.log_abs > 700.0:
            return complex(np.inf)
        return complex(np.exp(self.log_abs) * self.phase)


def _banded_logdet(bands: np.ndarray, z: complex, n: int) -> tuple[float, complex, bool]:
    """log|det|, phase, singular flag of (z - E) from pentadiagonal storage."""
    kl = ku = 2
    ab = np.zeros((2 * kl + ku + 1, n), dtype=complex)
    ab[kl + ku] = z
    for off in range(-2, 3):
        # entry (i, i+off) of z - E sits at ab[kl+ku-off, i+off]
        lo, hi = max(0, -off), n - max(0, off)
        ab[kl + ku - off, lo + off:hi + off] -= bands[off + 2, lo:hi]
    lub, ipiv, info = lapack.zgbtrf(ab, kl, ku)
    if info < 0:
        raise RuntimeError(f"zgbtrf failed with info={info}")
    diag = lub[kl + ku, :]
    if info > 0 or np.any(diag == 0):
        return -np.inf, 1.0 + 0j, True
    # scipy returns 0-based pivot indices
    nswap = int(np.sum(ipiv != np.arange(n)))
    log_abs = float(np.sum(np.log(np.abs(diag))))
    phase = complex(np.prod(diag / np.abs(diag)) * (-1.0) ** nswap)
    return log_abs, phase, False


def char_det(seq: VerblunskySequence, a: int, b: int, z: complex,
             beta: complex | None = 1.0 + 0j,
             eta: complex | None = 1.0 + 0j) -> CharDet:
    """Characteristic determinant of the [a,b] window at z.

    beta/eta as in build_finite_cmv; None keeps the sampled coefficient at
    that cut.  Empty windows (a > b) give the constant 1.
    """
    if a > b:
        return CharDet(a=a, b=b, z=z, log_abs=0.0, phase=1.0 + 0j, singular=False)
    m = build_finite_cmv(seq, a, b, beta=beta, eta=eta, _allow_natural=True)
    log_abs, phase, singular = _banded_logdet(m.bands, z, m.size)
    return CharDet(a=a, b=b, z=z, log_abs=log_abs, phase=phase, singular=singular,
                   log_rho=float(np.sum(np.log(m.sampled_rho))))


def normalized_phi(seq: VerblunskySequence, a: int, b: int, z: complex,
                   beta: complex | None = 1.0 + 0j,
                   eta: complex | None = 1.0 + 0j) -> complex:
    """(rho_a ... rho_b)^{-1} det(z - E^{beta,eta}_{[a,b]}); 1 when a > b.

    The normalizing rho's come from the unmodified sampling values, so they
    never vanish.
    """
    if a > b:
        return 1.0 + 0j
    det = char_det(seq, a, b, z, beta=beta, eta=eta)
    if det.singular:
        return 0j
    log_val = det.log_abs - det.log_rho
    if log_val > 700.0:
        return complex(np.inf * det.phase)
    return complex(np.exp(log_val) * det.phase)


def log_normalized_phi(seq: VerblunskySequence, a: int, b: int, z: complex,
                       beta: complex | None = 1.0 + 0j,
                       eta: complex | None = 1.0 + 0j) -> float:
    """log |normalized phi|; -inf at an exact eigenvalue."""
    if a > b:
        return 0.0
    det = char_det(seq, a, b, z, beta=beta, eta=eta)
    if det.singular:
        return -np.inf
    return det.log_abs - det.log_rho


def relation_residual(f: SamplingFunction, omega, z: SpectralPoint, x,
                      n: int) -> float:
    """Relative residual between M_n and its determinant reconstruction.

    The right side combines det(z - E_{[1,n-1]}) and det(z - E_{[0,n-1]})
    of pure truncations with the degree-(n-1) reflected duals
    p*(z) = z^{n-1} conj(p(1/conj z)); the bracket divides by alpha_{-1},
    which must be nonzero.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not isinstance(x, Phase):
        x = reduce_phase(x)
    seq = VerblunskySequence(f, omega, x)
    am1 = seq.value(-1)
    if abs(am1) < 1e-12:
        raise ValueError("formula singular: alpha_{-1} ~ 0; choose a different base phase")

    zz = z.z
    zi = 1.0 / np.conj(zz)

    def phi(a: int, b: int, w: complex) -> complex:
        return char_det(seq, a, b, w, beta=None, eta=None).value

    phi1 = phi(1, n - 1, zz)
    phi0 = phi(0, n - 1, zz)
    bracket = (zz * phi1 - phi0) / am1
    phi1_dual = zz ** (n - 1) * np.conj(phi(1, n - 1, zi))
    bracket_dual = zz ** (n - 1) * np.conj((zi * phi(1, n - 1, zi) - phi(0, n - 1, zi)) / am1)

    prefactor = z.sqrt_z ** (-n) * np.exp(-seq.log_rho_sum(0, n - 1))
    rhs = prefactor * np.array([[zz * phi1, bracket],
                                [zz * bracket_dual, phi1_dual]])
    lhs = transfer_product(f, omega, z, x, n)
    full = np.exp(lhs.log_norm) * lhs.matrix
    scale = float(np.max(np.abs(full)))
    return float(np.max(np.abs(full - rhs)) / scale)
