"""Five-diagonal unitary operators from Verblunsky coefficients.

The doubly-infinite operator factors as E = L M with L carrying the 2x2
rotation blocks at even positions and M at odd positions.  Finite windows
[a, b] become unitary after replacing the coefficients at sites a-1 and b
by unimodular boundary values, which decouples the window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .torus import Phase, SamplingFunction, _rho_of, omega_array, reduce_phase


@lru_cache(maxsize=8)
def _start(n: int) -> np.ndarray:
    """The unit start vector of inverse iteration on n sites, read-only:
    default_rng(1234)'s standard normal real and then imaginary parts."""
    rng = np.random.default_rng(1234)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    v.flags.writeable = False
    return v


def theta_block(alpha_n: complex) -> np.ndarray:
    """2x2 unitary [[conj(a), r], [r, -a]] with r = sqrt(1-|a|^2); needs |a| <= 1."""
    a = complex(alpha_n)
    mod2 = a.real * a.real + a.imag * a.imag
    if mod2 > 1.0 + 1e-12:
        raise ValueError(f"|alpha|={np.sqrt(mod2):.6f} exceeds 1")
    r = _rho_of(np.asarray(a))
    return np.array([[np.conj(a), r], [r, -a]], dtype=complex)


class VerblunskySequence:
    """Coefficients alpha_n = alpha(x + n w), with optional unimodular overrides.

    ``base`` is one Phase or an (N, d) array of real base phases; for the
    array, ``raw_values`` and ``values`` return (N, sites) arrays whose rows
    equal those of each phase alone bit for bit, and overrides apply to every
    row.  ``raw_values(lo, hi)`` is the sampling function's ``alpha_orbit``
    from site lo, the orbit that the transfer cocycle reads too, so windows
    and cocycle steps see the same coefficients bit for bit; ``values``
    applies the overrides to it, and the single-site accessors wrap them and
    need one Phase.  Overrides replace the sampled value exactly and must
    have unit modulus (they represent boundary conditions).
    """

    def __init__(self, sampling: SamplingFunction, frequency, base,
                 overrides: dict | None = None):
        self.sampling = sampling
        self.omega = omega_array(frequency)
        self.base = base if isinstance(base, Phase) else \
            np.asarray(base, dtype=float).reshape(-1, sampling.dim)
        self.overrides = {}
        if overrides:
            for n, v in overrides.items():
                self.set_override(int(n), v)

    def set_override(self, n: int, value: complex) -> None:
        v = complex(value)
        if abs(abs(v) - 1.0) > 1e-12:
            raise ValueError(f"override at {n} must be unimodular, got |v|={abs(v)}")
        self.overrides[n] = v

    def phase_at(self, n: int) -> Phase:
        return reduce_phase(self.base.array() + n * self.omega, imag=self.base.imag)

    def raw_values(self, lo: int, hi: int) -> np.ndarray:
        """Sampled alpha(x + n w) for n = lo..hi, ignoring overrides: the
        sampling function's orbit from site lo."""
        return self.sampling.alpha_orbit(self.base, self.omega, hi - lo + 1, start=lo)

    def values(self, lo: int, hi: int) -> np.ndarray:
        """Effective alpha_n for n = lo..hi (overrides applied)."""
        vals = self.raw_values(lo, hi)
        for n, v in self.overrides.items():
            if lo <= n <= hi:
                vals[..., n - lo] = v
        return vals

    def raw_value(self, n: int) -> complex:
        """Sampled value alpha(x + n w), ignoring overrides."""
        return complex(self.raw_values(n, n)[0])

    def value(self, n: int) -> complex:
        return complex(self.values(n, n)[0])

    def rho(self, n: int) -> float:
        """sqrt(1-|alpha_n|^2) of the effective value (exactly 0 at overridden sites)."""
        return 0.0 if n in self.overrides else self.raw_rho(n)

    def raw_rho(self, n: int) -> float:
        return float(_rho_of(self.raw_values(n, n))[0])

    def log_rho_sum(self, a: int, b: int) -> float:
        """sum of log rho_n over the window, from the unmodified sampling."""
        return float(np.sum(np.log(_rho_of(self.raw_values(a, b)))))


def _cmv_bands(al: np.ndarray, rh: np.ndarray, first: int) -> np.ndarray:
    """Rows first..first+n-1 of the doubly-infinite operator as five diagonals.

    ``al`` and ``rh`` hold alpha_s and rho_s on sites first-2..first+n on
    their last axis, any leading axes being a batch; ``bands[..., off+2, i]``
    is the entry (first+i, first+i+off).  Even rows carry conj(a_s) r_{s-1},
    conj(a_{s+1}) r_s, r_{s+1} r_s right of -conj(a_s) a_{s-1}; odd rows
    carry r_{s-1} r_{s-2}, -r_{s-1} a_{s-2} left of it and -r_s a_{s-1}
    right of it.
    """
    n = al.shape[-1] - 3
    a2, a1, a0, ap = al[..., :-3], al[..., 1:-2], al[..., 2:-1], al[..., 3:]
    r2, r1, r0, rp = rh[..., :-3], rh[..., 1:-2], rh[..., 2:-1], rh[..., 3:]
    ev = slice(first % 2, None, 2)          # rows of even sites
    od = slice(1 - first % 2, None, 2)
    bands = np.zeros(al.shape[:-1] + (5, n), dtype=complex)
    bands[..., 2, :] = -np.conj(a0) * a1
    bands[..., 1, ev] = np.conj(a0[..., ev]) * r1[..., ev]
    bands[..., 3, ev] = np.conj(ap[..., ev]) * r0[..., ev]
    bands[..., 4, ev] = rp[..., ev] * r0[..., ev]
    bands[..., 0, od] = r1[..., od] * r2[..., od]
    bands[..., 1, od] = -r1[..., od] * a2[..., od]
    bands[..., 3, od] = -r0[..., od] * a1[..., od]
    return bands


@dataclass
class FiniteCMV:
    """Unitary window E^{beta,eta}_{[a,b]} in pentadiagonal storage.

    ``bands[off+2]`` holds diagonal ``off`` (off = -2..2) aligned so that
    entry (i, i+off) sits at band index i for 0 <= i, i+off < n.  ``alpha``
    and ``rho`` hold the effective coefficients on sites a-1..b, boundary
    values in place (rho exactly 0 at a unimodular cut).  They give the
    factors E = L M: L carries the rotation blocks of the even sites and M
    those of the odd ones, and the blocks at a-1 and b are cut to their
    corner inside the window.  A window built from a batch of N phases
    carries a leading N axis on ``bands``, ``alpha``, ``rho`` and
    ``sampled_rho``; ``row(k)`` gives window k (a slice k gives a smaller
    batch), ``dense()`` the (N, n, n) stack, and the other methods below
    take one window.
    """

    a: int
    b: int
    beta: complex
    eta: complex
    bands: np.ndarray
    alpha: np.ndarray = field(repr=False)
    rho: np.ndarray = field(repr=False)
    sampled_rho: np.ndarray = field(repr=False)     # rho_a..rho_b, no overrides

    @property
    def size(self) -> int:
        return self.b - self.a + 1

    def row(self, k: int) -> "FiniteCMV":
        """Window k of a batch, as one window (views of the batch arrays)."""
        return FiniteCMV(a=self.a, b=self.b, beta=self.beta, eta=self.eta,
                         bands=self.bands[k], alpha=self.alpha[k], rho=self.rho[k],
                         sampled_rho=self.sampled_rho[k])

    def dense(self) -> np.ndarray:
        n = self.size
        E = np.zeros(self.bands.shape[:-2] + (n, n), dtype=complex)
        i = np.arange(n)
        for off in range(-2, 3):
            rows = i[max(0, -off):n - max(0, off)]
            E[..., rows, rows + off] = self.bands[..., off + 2, rows]
        return E

    def _blocks(self, alpha: np.ndarray, rho: np.ndarray) -> tuple:
        """Diagonal and (symmetric) first off-diagonal of L, then of M, from
        alpha and rho on sites a-1..b (on the last axis; leading axes are a
        batch).  The map is real-linear in (alpha, rho), so it takes their
        derivatives to the derivatives of the factors."""
        own = np.zeros(self.size, dtype=bool)    # an L block starts on the row:
        own[self.a % 2::2] = True                # the rows of even sites
        return tuple((np.where(starts, np.conj(alpha[..., 1:]), -alpha[..., :-1]),
                      np.where(starts[:-1], rho[..., 1:-1], 0.0))
                     for starts in (own, ~own))

    @cached_property
    def _factors(self) -> tuple:
        """``_blocks`` of the window's coefficients: L is the factor made of
        the blocks at even sites, M of those at odd ones.  Read-only and
        evaluated once per window (nothing mutates a window after it is
        built); each window that ``row`` returns has its own."""
        out = self._blocks(self.alpha, self.rho)
        for diag, off in out:
            diag.flags.writeable = off.flags.writeable = False
        return out

    def derivative_form(self, v: np.ndarray, dalpha: np.ndarray) -> np.ndarray:
        """v* (d_i E) v of a vector v for each column i of dalpha, the (b - a
        + 2, d) derivatives d_i alpha on sites a-1..b, as a complex (d,) array.

        d E = dL M + L dM, with dL and dM the ``_blocks`` of (d alpha, d rho)
        and d rho = -Re(conj(alpha) d alpha) / rho.  The cut sites a-1 and b
        hold boundary values, so their derivative is zero whatever dalpha
        holds there, and d rho is zero wherever rho is (no division by 0).
        For a normal window and a unit eigenvector v of a simple eigenvalue
        lambda, this is d_i lambda (Hellmann-Feynman).  dalpha is copied to C
        order first, so its memory layout does not change the rounding.
        """
        dal = np.array(dalpha, dtype=complex, order="C").T
        dal[:, [0, -1]] = 0.0
        drho = np.zeros(dal.shape)
        np.divide(-(np.conj(self.alpha) * dal).real, self.rho, out=drho,
                  where=self.rho > 0)
        (dl, dm), m = self._blocks(dal, drho), self._factors[1]
        return (np.conj(v) * _tridiagonal_times(dl, _tridiagonal_times(m, v))
                + np.conj(self.lstar_times(v)) * _tridiagonal_times(dm, v)).sum(axis=-1)

    def reflection_halves(self) -> tuple:
        """An orthonormal eigenbasis of L for real coefficients, as (rows,
        weights) for eigenvalue +1 and then for -1, each a pair of (2, k)
        arrays: column j is weights[0, j] e_{rows[0, j]} + weights[1, j]
        e_{rows[1, j]}, and the columns follow the blocks of L in row order.

        A block [[a, r], [r, -a]] = [[cos t, sin t], [sin t, -cos t]] has
        (cos t/2, sin t/2) for +1 and (-sin t/2, cos t/2) for -1; the larger
        of the two halves is sqrt((1 + |a|) / 2) and the other r / 2 times
        its inverse, so neither divides by a small number.  A corner cut to
        1x1 is e_i in the half of its sign.
        """
        diag, off = self._factors[0]
        diag = diag.real
        start = np.flatnonzero(np.arange(self.a, self.b) % 2 == 0)    # 2x2 blocks
        a, r = diag[start], off[start]
        big = np.sqrt((1.0 + np.abs(a)) / 2.0)
        small = r / (2.0 * big)
        p, q = np.where(a >= 0, big, small), np.where(a >= 0, small, big)
        head = [0] if self.a % 2 else []                # cut corners: -beta, conj(eta)
        tail = [self.size - 1] if self.b % 2 == 0 else []
        halves = []
        for sign, w0, w1 in ((1.0, p, q), (-1.0, -q, p)):
            h = [i for i in head if sign * diag[i] > 0]
            t = [i for i in tail if sign * diag[i] > 0]
            rows = np.array([np.r_[h, start, t], np.r_[h, start + 1, t]], dtype=int)
            weights = np.array([np.r_[np.ones(len(h)), w0, np.ones(len(t))],
                                np.r_[np.zeros(len(h)), w1, np.zeros(len(t))]])
            halves.append((rows, weights))
        return tuple(halves)

    def _factor_dense(self, parity: int) -> np.ndarray:
        diag, off = self._factors[parity]
        return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)

    def l_dense(self) -> np.ndarray:
        return self._factor_dense(0)

    def m_dense(self) -> np.ndarray:
        return self._factor_dense(1)

    @cached_property
    def _lstar(self) -> np.ndarray:
        diag, off = self._factors[0]
        ls = np.array([np.r_[0.0, off], np.conj(diag), np.r_[off, 0.0]])
        ls.flags.writeable = False
        return ls

    def lstar_banded(self) -> np.ndarray:
        """Tridiagonal L* in the layout of ``zlstar_minus_m_banded``;
        read-only and evaluated once per window, like ``_factors``."""
        return self._lstar

    def lstar_times(self, v: np.ndarray) -> np.ndarray:
        """L* v of a vector, from the band of ``lstar_banded``."""
        return _tridiagonal_times((self._lstar[1], self._factors[0][1]), v)

    @cached_property
    def _probe_rhs(self) -> np.ndarray:
        """L* applied to ``_start(size)``: the right-hand side of the first
        solve of inverse iteration on the window (``coverage``), read-only
        and evaluated once per window."""
        rhs = self.lstar_times(_start(self.size))
        rhs.flags.writeable = False
        return rhs

    def zlstar_minus_m_banded(self, z: complex) -> np.ndarray:
        """Tridiagonal z L* - M in solve_banded layout (ab[1+i-j, j])."""
        (l_diag, l_off), (m_diag, m_off) = self._factors
        ab = np.zeros((3, self.size), dtype=complex)
        ab[1] = z * np.conj(l_diag) - m_diag
        off = z * l_off - m_off             # real off-diagonals: L* has L's
        ab[0, 1:] = off
        ab[2, :-1] = off
        return ab

    def to_csv(self, path) -> None:
        """Dense entries as "row,col,re,im" rows (nonzeros only)."""
        from .util import format_float
        lines = ["row,col,re,im"]
        n = self.size
        for off in range(-2, 3):
            for i in range(n):
                j = i + off
                if 0 <= j < n and self.bands[off + 2][i] != 0:
                    v = self.bands[off + 2][i]
                    lines.append(f"{i},{j},{format_float(v.real)},{format_float(v.imag)}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def _tridiagonal_times(factor: tuple, v: np.ndarray) -> np.ndarray:
    """T v for the symmetric tridiagonal T = (diag, off) of a factor, any
    leading axes of diag and off a batch of factors."""
    diag, off = factor
    out = diag * v
    out[..., :-1] += off * v[1:]
    out[..., 1:] += off * v[:-1]
    return out


def build_finite_cmv(seq: VerblunskySequence, a: int, b: int,
                     beta: complex = 1.0 + 0j, eta: complex = 1.0 + 0j,
                     _allow_natural: bool = False) -> FiniteCMV:
    """Assemble E^{beta,eta}_{[a,b]} with its L and M factors.

    beta/eta must be unimodular; passing None keeps the sampled coefficient
    at the corresponding cut (producing the non-unitary pure truncation used
    by determinant identities) and requires ``_allow_natural``.  A sequence
    over an (N, d) array of phases gives the N windows at once, with a
    leading N axis on every array, each row equal to its window alone.
    """
    if a > b:
        raise ValueError("need a <= b")
    for name, v in (("beta", beta), ("eta", eta)):
        if v is None:
            if not _allow_natural:
                raise ValueError(f"{name}=None requires _allow_natural=True")
        elif abs(abs(complex(v)) - 1.0) > 1e-12:
            raise ValueError(f"|{name}| must be 1, got {abs(complex(v))}")

    # alpha and rho on sites a-2..b+1, zero at the two outer sites: those
    # reach only entries outside the window, cut below
    vals = seq.values(a - 1, b)
    al = np.zeros(vals.shape[:-1] + (b - a + 4,), dtype=complex)
    rh = np.zeros(al.shape)
    al[..., 1:-1] = vals
    rh[..., 1:-1] = _rho_of(vals)
    sampled = _rho_of(seq.raw_values(a, b)) if seq.overrides else rh[..., 2:-1].copy()
    if beta is not None:
        al[..., 1], rh[..., 1] = beta, 0.0
    if eta is not None:
        al[..., -2], rh[..., -2] = eta, 0.0
    bands = _cmv_bands(al, rh, a)
    bands[..., 0, :2] = bands[..., 1, :1] = bands[..., 3, -1:] = bands[..., 4, -2:] = 0.0
    return FiniteCMV(a=a, b=b, beta=beta, eta=eta, bands=bands, alpha=al[..., 1:-1],
                     rho=rh[..., 1:-1], sampled_rho=sampled)


def build_cut_cmv(seq: VerblunskySequence, a: int, b: int) -> FiniteCMV:
    """Pure projection P E P* with unmodified coefficients (not unitary)."""
    return build_finite_cmv(seq, a, b, beta=None, eta=None, _allow_natural=True)


def band_product(bands: np.ndarray, v: np.ndarray) -> np.ndarray:
    """E v for each window of a (c, 5, n) band stack and its row of v:
    a (c, n) vector per window, or a (c, n, k) block of columns."""
    n = bands.shape[-1]
    d = bands if v.ndim == 2 else bands[..., None]
    out = np.zeros(v.shape, dtype=complex)
    for off in range(-2, 3):
        i0, i1 = max(0, -off), min(n, n - off)
        if i0 < i1:
            out[:, i0:i1] += d[:, off + 2, i0:i1] * v[:, i0 + off:i1 + off]
    return out


def apply_cmv(m: FiniteCMV, v: np.ndarray) -> np.ndarray:
    """Banded product E v of a vector, or of each column of an (n, k) block."""
    v = np.asarray(v, dtype=complex)
    if v.shape[:1] != (m.size,) or v.ndim > 2:
        raise ValueError(f"vector shape {v.shape} does not fit window size {m.size}")
    return band_product(m.bands[None], v[None])[0]


def cmv_row_window(seq: VerblunskySequence, center: int, halfwidth: int) -> np.ndarray:
    """Rows [center-w, center+w] of the doubly-infinite operator.

    Columns cover [center-w-2, center+w+2]; no boundary modification.
    """
    if halfwidth < 2:
        raise ValueError("halfwidth must be >= 2")
    lo, hi = center - halfwidth, center + halfwidth
    al = seq.values(lo - 2, hi + 1)
    bands = _cmv_bands(al, _rho_of(al), lo)
    rows = np.arange(hi - lo + 1)
    E = np.zeros((len(rows), len(rows) + 4), dtype=complex)
    for off in range(-2, 3):
        E[rows, rows + off + 2] = bands[off + 2]
    return E
