"""Characteristic determinants and the determinant-transfer identity.

Determinants of pentadiagonal windows are computed by banded LU in O(n),
carried in log-magnitude + phase form so windows of thousands of sites do
not overflow.  The transfer-matrix identity reconstructs the n-step product
from window determinants; its boundary convention is the pure truncation
(coefficients left unchanged at the cut sites), validated to 1e-15 by the
two-sided residual tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import lapack

from .cmv import VerblunskySequence, build_finite_cmv
from .cocycle import SpectralPoint, transfer_product
from .torus import Phase, SamplingFunction, reduce_phase


@dataclass(frozen=True)
class CharDet:
    """det(z - E) for a window, in overflow-safe form; for a batch of windows
    ``log_abs``, ``phase``, ``singular`` and ``log_rho`` are per-row arrays
    (``value`` takes one window)."""

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


def _rows(v):
    """A per-row array as it is, its 0-d form as a Python scalar."""
    return v.item() if v.ndim == 0 else v


def _banded_logdet(bands: np.ndarray, z: complex):
    """log|det|, phase, singular flag of (z - E) from pentadiagonal storage,
    one LU per window of a (..., 5, n) stack; (...) arrays, log|det| -inf
    and phase 1 where singular."""
    kl = ku = 2
    lead, n = bands.shape[:-2], bands.shape[-1]
    bands = bands.reshape(-1, 5, n)
    ab = np.zeros((len(bands), 2 * kl + ku + 1, n), dtype=complex)
    ab[:, kl + ku] = z
    for off in range(-2, 3):
        # entry (i, i+off) of z - E sits at ab[kl+ku-off, i+off]
        lo, hi = max(0, -off), n - max(0, off)
        ab[:, kl + ku - off, lo + off:hi + off] -= bands[:, off + 2, lo:hi]
    diag = np.empty((len(ab), n), dtype=complex)
    ipiv = np.empty((len(ab), n), dtype=np.int32)
    singular = np.empty(len(ab), dtype=bool)
    for i, rows in enumerate(ab):
        lub, ipiv[i], info = lapack.zgbtrf(rows, kl, ku)
        if info < 0:
            raise RuntimeError(f"zgbtrf failed with info={info}")
        diag[i] = lub[kl + ku]
        singular[i] = info > 0
    singular |= np.any(diag == 0, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        # scipy returns 0-based pivot indices
        nswap = np.sum(ipiv != np.arange(n), axis=1)
        log_abs = np.sum(np.log(np.abs(diag)), axis=1)
        phase = np.prod(diag / np.abs(diag), axis=1) * (-1.0) ** nswap
    log_abs = np.where(singular, -np.inf, log_abs).reshape(lead)
    phase = np.where(singular, 1.0 + 0j, phase).reshape(lead)
    return log_abs, phase, singular.reshape(lead)


def char_det(seq: VerblunskySequence, a: int, b: int, z: complex,
             beta: complex | None = 1.0 + 0j,
             eta: complex | None = 1.0 + 0j) -> CharDet:
    """Characteristic determinant of the [a,b] window at z.

    beta/eta as in build_finite_cmv; None keeps the sampled coefficient at
    that cut.  Empty windows (a > b) give the constant 1.  A sequence over
    an (N, d) array of phases gives the N determinants at once: each field
    of the result is then an (N,) array whose rows equal the single-phase
    values bit for bit, with one LU per window.
    """
    if a > b:
        return CharDet(a=a, b=b, z=z, log_abs=0.0, phase=1.0 + 0j, singular=False)
    m = build_finite_cmv(seq, a, b, beta=beta, eta=eta, _allow_natural=True)
    log_abs, phase, singular = _banded_logdet(m.bands, z)
    return CharDet(a=a, b=b, z=z, log_abs=_rows(log_abs), phase=_rows(phase),
                   singular=_rows(singular),
                   log_rho=_rows(np.sum(np.log(m.sampled_rho), axis=-1)))


def normalized_phi(seq: VerblunskySequence, a: int, b: int, z: complex,
                   beta: complex | None = 1.0 + 0j,
                   eta: complex | None = 1.0 + 0j) -> complex:
    """(rho_a ... rho_b)^{-1} det(z - E^{beta,eta}_{[a,b]}); 1 when a > b.

    The normalizing rho's come from the unmodified sampling values, so they
    never vanish; past e^700 the value is ``CharDet.value``'s inf.
    """
    if a > b:
        return 1.0 + 0j
    det = char_det(seq, a, b, z, beta=beta, eta=eta)
    return replace(det, log_abs=det.log_abs - det.log_rho).value


def log_normalized_phi(seq: VerblunskySequence, a: int, b: int, z: complex,
                       beta: complex | None = 1.0 + 0j,
                       eta: complex | None = 1.0 + 0j):
    """log |normalized phi|; -inf at an exact eigenvalue.  Per row, an (N,)
    array, for a sequence over an (N, d) array of phases."""
    if a > b:
        return 0.0
    det = char_det(seq, a, b, z, beta=beta, eta=eta)
    return _rows(np.where(det.singular, -np.inf, det.log_abs - det.log_rho))


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
