"""Torus phases, Diophantine frequencies, and analytic sampling functions.

A sampling function is a finite Fourier series on the d-torus taking values
in the open unit disk; it generates the Verblunsky coefficients of the
operators built elsewhere through evaluation along a rotation orbit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .util import as_integer


# --------------------------------------------------------------------------
# phases


@dataclass(frozen=True)
class Phase:
    """Point of the d-torus, optionally displaced into the analyticity strip.

    Real coordinates are stored reduced into [0, 1); ``imag`` is an additive
    imaginary displacement (one entry per coordinate).
    """

    coords: tuple[float, ...]
    imag: tuple[float, ...] | None = None

    @property
    def dim(self) -> int:
        return len(self.coords)

    def array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)

    def imag_array(self) -> np.ndarray:
        if self.imag is None:
            return np.zeros(len(self.coords))
        return np.asarray(self.imag, dtype=float)

    def shift(self, delta) -> "Phase":
        return reduce_phase(self.array() + np.asarray(delta, dtype=float), imag=self.imag)


def reduce_phase(raw, imag=None):
    """Reduce coordinates mod 1 into [0,1).

    One point (a length-d sequence) gives a Phase carrying ``imag``; an
    (N, d) array of points gives the (N, d) array of reduced rows, each row
    reduced exactly as the same point alone.
    """
    arr = np.asarray(raw, dtype=float) % 1.0
    # -1e-18 % 1.0 == 1.0 on some platforms; force the half-open interval
    arr = np.where(arr >= 1.0, 0.0, arr)
    if arr.ndim == 2:
        return arr
    im = None if imag is None else tuple(float(v) for v in np.atleast_1d(imag))
    return Phase(coords=tuple(float(v) for v in np.atleast_1d(arr)), imag=im)


# --------------------------------------------------------------------------
# frequencies


@dataclass(frozen=True)
class DiophantineCertificate:
    ok: bool
    worst_k: tuple[int, ...]
    worst_ratio: float
    p: float
    q: float
    k_max: int


def _dist_to_integer(x: np.ndarray) -> np.ndarray:
    f = x % 1.0
    return np.minimum(f, 1.0 - f)


def check_diophantine(omega, p: float, q: float, k_max: int) -> DiophantineCertificate:
    """Exhaustively certify ||k.omega|| >= p/|k|_1^q for 0 < |k|_1 <= k_max.

    One enumeration serves every dimension d.  Of each symmetric pair
    (k, -k) only the member whose first nonzero entry is positive is
    scanned: the first entry runs 0..k_max, each later one ascends over
    what the l1 ball leaves, and the last entry is one vector per prefix,
    with k.omega summed left to right.  ``worst_k`` is the first k in that
    order minimizing ||k.omega|| * |k|_1^q; ok means that minimum is >= p.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    d = len(omega)
    if not p > 0:
        raise ValueError(f"p must be positive, got {p!r}")
    if not d < q < np.inf:
        raise ValueError(f"q must be finite and exceed the dimension d={d}, got {q!r}")
    k_max = as_integer(k_max, "k_max")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")

    best_ratio = np.inf
    best_k: tuple[int, ...] = (0,) * d

    def rec(prefix, remaining):
        nonlocal best_ratio, best_k
        first = all(v == 0 for v in prefix)
        if len(prefix) == d - 1:
            k_last = np.arange(1 if first else -remaining, remaining + 1)
            dot = sum(v * w for v, w in zip(prefix, omega[:-1])) + k_last * omega[-1]
            norm = (sum(abs(v) for v in prefix) + np.abs(k_last)).astype(float)
            ratio = _dist_to_integer(dot) * norm ** q
            i = int(np.argmin(ratio))
            if ratio[i] < best_ratio:
                best_ratio, best_k = float(ratio[i]), (*prefix, int(k_last[i]))
            return
        for v in range(0 if first else -remaining, remaining + 1):
            rec((*prefix, v), remaining - abs(v))

    rec((), k_max)
    return DiophantineCertificate(ok=bool(best_ratio >= p), worst_k=best_k,
                                  worst_ratio=best_ratio, p=p, q=q, k_max=k_max)


@dataclass(frozen=True)
class Frequency:
    """Frequency vector with a finite Diophantine certificate."""

    coords: tuple[float, ...]
    certificate: DiophantineCertificate = field(compare=False, repr=False, default=None)

    @classmethod
    def checked(cls, omega, p: float, q: float, k_max: int = 200) -> "Frequency":
        cert = check_diophantine(omega, p, q, k_max)
        if not cert.ok:
            raise ValueError(
                f"Diophantine check failed: worst k={cert.worst_k} "
                f"ratio={cert.worst_ratio:.3e} < p={p}")
        coords = tuple(float(v) % 1.0 for v in np.atleast_1d(omega))
        return cls(coords=coords, certificate=cert)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)


def omega_array(omega) -> np.ndarray:
    """The frequency vector of a Frequency or of any float sequence."""
    return omega.array() if isinstance(omega, Frequency) else np.asarray(omega, float)


# --------------------------------------------------------------------------
# sampling functions


# ``SamplingFunction._series`` passes one exp at most max(N, _EXP_BLOCK)
# values at N points
_EXP_BLOCK = 1024

# largest array of the sup certificate: n = prod(2 span_i + 1) points x longest axis
_DFT_VALUES = 1 << 20


def _rho_of(alpha: np.ndarray) -> np.ndarray:
    """Elementwise sqrt(1-|alpha|^2), clipped at 0 for unimodular values."""
    return np.sqrt(np.maximum(0.0, 1.0 - (alpha.real ** 2 + alpha.imag ** 2)))


class SamplingFunction:
    """Finite Fourier series alpha: T^d -> D with a certified sup bound.

    One Fourier bound (``_wiener_sup``) gives ``sup_bound`` and the strip width
    h (``strip_width``), halved from 1 or a request until the bound is < 1 at
    the 2^d corners (+-h, ..., +-h): by Hadamard's three lines |alpha| < 1 then
    holds on the box max|y_i| < h that ``displacement`` admits, at x +- iy alike.

    ``dim`` and every Fourier index must be integers (an integral float is
    taken as its integer); modes too wide for ``_DFT_VALUES``, a sup bound >= 1
    or a strip width not certified (>= 1e-9, or as requested) is a ValueError.
    """

    def __init__(self, dim: int, coeffs: dict, strip_width: float | None = None):
        self.dim = as_integer(dim, "dim")
        self.coeffs = {}
        for k, c in coeffs.items():
            mode = tuple(as_integer(i, f"an index of Fourier mode {list(k)}") for i in k)
            if len(mode) != self.dim:
                raise ValueError(f"Fourier mode {list(mode)} does not have "
                                 f"dim = {self.dim} entries")
            if c != 0:
                self.coeffs[mode] = complex(c)
        self._ks = np.array(sorted(self.coeffs), dtype=int).reshape(-1, self.dim) \
            if self.coeffs else np.zeros((0, self.dim), dtype=int)
        self._cs = np.array([self.coeffs[tuple(k)] for k in self._ks], dtype=complex)
        if self.coeffs:   # _wiener_sup's grid: each mode's slot and a DFT matrix per axis
            shape = [2 * (int(k.max()) - int(k.min())) + 1 for k in self._ks.T]
            if np.prod(shape, dtype=float) * max(shape) > _DFT_VALUES:
                raise ValueError(f"Fourier modes span {[s // 2 for s in shape]}: "
                                 "too wide to certify")
            self._slots = tuple((self._ks % shape).T)
            self._dfts = [np.exp(2j * np.pi * (np.outer(range(m), range(m)) % m) / m)
                          for m in shape]
        self.sup_bound = self._wiener_sup(np.zeros(self.dim))
        if not self.sup_bound < 1.0:
            raise ValueError(f"certified sup bound {self.sup_bound:.6f} is not < 1")
        self.strip_width = self._fit_strip(strip_width)

    # -- certification ----------------------------------------------------
    def _wiener_sup(self, y) -> float:
        """A bound on sup_x |alpha(x + iy)| (inf or nan on overflow): the sum of the
        moduli of the coefficients of |alpha|^2, exact from a DFT pair on n = prod(2
        span_i + 1) points, plus 4 (sum n_i + 1) n eps sum |c_k e^(-2 pi k.y)|^2."""
        if len(self._cs) == 0:
            return 0.0

        def dft(g):   # a DFT matrix per axis: numpy's FFT or BLAS would page in 0.1-0.6 MB
            for f in self._dfts:
                g = (np.moveaxis(g, 0, -1)[..., None] * f).sum(axis=-2)
            return g
        with np.errstate(over="ignore", invalid="ignore"):
            a = self._strip_coeffs(y)
            grid = np.zeros([len(f) for f in self._dfts], dtype=complex)
            grid[self._slots] = a
            # alpha on the grid, then n conj(coefficients) of the real |alpha|^2
            wiener = np.abs(dft(np.abs(dft(grid)) ** 2)).sum() / grid.size
            slack = 4 * (sum(grid.shape) + 1) * grid.size * 2.0 ** -52 * np.sum(np.abs(a) ** 2)
            return float(np.sqrt(wiener + slack))

    def _fit_strip(self, requested: float | None) -> float:
        if requested is not None and not 0 < requested < np.inf:
            raise ValueError(f"strip width {requested!r} is not finite and positive")
        # one corner at a time: a width that fails stops at its first failing corner
        corners = 2.0 * np.indices((2,) * self.dim).reshape(self.dim, -1).T - 1.0
        h = requested if requested is not None else 1.0
        while not all(self._wiener_sup(h * c) < 1.0 for c in corners):
            h *= 0.5
            if h < 1e-9:
                raise ValueError("no strip width of at least 1e-9 certifies |alpha| < 1")
        if requested is not None and h < requested:
            raise ValueError(
                f"strip width {requested} not certifiable; largest safe value ~{h:.3g}")
        return h

    # -- evaluation --------------------------------------------------------
    def displacement(self, x, y=None):
        """The imaginary part y of the phases x + iy as an array, None on the
        real torus: a Phase's own ``imag``, else ``y``.  A strip Phase with a
        ``y`` as well, or max|y_i| >= strip_width, is a ValueError."""
        if isinstance(x, Phase) and x.imag is not None:
            if y is not None:
                raise ValueError("a strip Phase carries its own imaginary part")
            y = x.imag
        if y is None or not np.any(y):
            return None
        if float(np.max(np.abs(y))) >= self.strip_width:
            raise ValueError("phase leaves the analyticity strip")
        return np.asarray(y, dtype=float)

    def alpha(self, x, imag=None):
        """alpha(x + iy) = sum c_k exp(2 pi i k.(x+iy)) at a Phase (a complex)
        or at an (N, d) array of real points displaced by ``imag`` (d values).

        A Phase runs as a one-row array: it agrees bit for bit with its row.
        """
        y = self.displacement(x, imag)
        cs = (self._cs if y is None else self._strip_coeffs(y))[:, None]
        if isinstance(x, Phase):
            return complex(self._series(x.array()[None, :], cs)[0, 0])
        return self._series(np.asarray(x, dtype=float).reshape(-1, self.dim), cs)[:, 0]

    def alpha_gradient(self, points) -> np.ndarray:
        """The partial derivatives d alpha / d x_i = sum 2 pi i k_i c_k
        exp(2 pi i k.x) at an (N, d) array of real points, as an (N, d)
        array: one ``_series`` sum with a coefficient column per coordinate."""
        pts = np.asarray(points, dtype=float).reshape(-1, self.dim)
        return self._series(pts, 2j * np.pi * self._ks * self._cs[:, None])

    def _strip_coeffs(self, y) -> np.ndarray:
        """c_k exp(-2 pi k.y): the coefficients of x -> alpha(x + iy)."""
        return self._cs * np.exp(-2 * np.pi * sum(v * k for v, k in zip(y, self._ks.T)))

    def _series(self, pts: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """The (N, r) sums over modes k of coeffs[k, j] exp(2 pi i k.x) at the
        (N, d) real points pts, one column per column j of coeffs (one row per
        mode, in the order of ``_ks``).  The modes go in order, max(1,
        _EXP_BLOCK // N) per exp table, which all columns share: an exp takes
        at most max(N, _EXP_BLOCK) values.  k.x, c_k e_k and the mode sum are
        spelled out in real arithmetic, a column at a time (a BLAS product,
        numpy's complex product and an axis sum each round a lone row unlike a
        batch row), so a row rounds alike alone and in any batch, a column too."""
        out = np.zeros((len(pts), coeffs.shape[1]), dtype=complex)
        group = max(1, _EXP_BLOCK // max(1, len(pts)))
        for m in range(0, len(coeffs), group):
            ks = self._ks[m:m + group]
            ph = np.empty((len(pts), len(ks)), dtype=complex)
            ph.imag = 2 * np.pi * sum(pts[:, i, None] * ks[:, i] for i in range(self.dim))
            ph.real = 0.0
            e = np.exp(ph, out=ph)
            for col, cs in zip(out.T, coeffs[m:m + group].T):
                col.real = sum((cs.real * e.real - cs.imag * e.imag).T, col.real)
                col.imag = sum((cs.real * e.imag + cs.imag * e.real).T, col.imag)
        return out

    def rho(self, x: Phase) -> float:
        """rho(x) = sqrt(1 - |alpha(x)|^2) on the real torus."""
        if x.imag is not None and any(v != 0 for v in x.imag):
            raise ValueError("rho is defined for real phases")
        return float(_rho_of(np.asarray(self.alpha(x))))

    def alpha_orbit(self, x0, omega, n: int, y=None, start: int = 0) -> np.ndarray:
        """alpha(x0 + j*omega + iy) for j = start..start+n-1: a vector at a
        Phase, an (N, n) array at an (N, d) array of base points; y is a strip
        Phase's own ``imag`` unless given (see ``displacement``).

        Each point x0 + j*omega is reduced mod 1 and evaluated by one call of
        ``alpha``, so an entry depends on its point, j and y alone: a row
        equals its point's call, and a call from ``start`` equals those
        columns of a call from 0.  Temporaries are (N, n, d).  Windows
        (``VerblunskySequence.raw_values``) and the transfer cocycle both
        read their coefficients here.
        """
        y = self.displacement(x0, y)
        single = isinstance(x0, Phase)
        pts = x0.array()[None, :] if single else \
            np.asarray(x0, float).reshape(-1, self.dim)
        steps = np.arange(start, start + n)
        points = pts[:, None] + steps[:, None] * omega_array(omega)
        vals = self.alpha(reduce_phase(points.reshape(-1, self.dim)), y)
        vals = vals.reshape(len(pts), len(steps))
        return vals[0] if single else vals

    # -- serialization -----------------------------------------------------
    def to_json(self) -> str:
        items = [{"k": list(map(int, k)), "re": float(c.real), "im": float(c.imag)}
                 for k, c in sorted(self.coeffs.items())]
        return json.dumps({"dim": self.dim, "h": self.strip_width, "coeffs": items})

    @classmethod
    def from_json(cls, text: str) -> "SamplingFunction":
        data = json.loads(text)
        coeffs = {tuple(item["k"]): complex(item["re"], item["im"])
                  for item in data["coeffs"]}
        return cls(dim=data["dim"], coeffs=coeffs, strip_width=data.get("h"))


def eval_alpha(f: SamplingFunction, x: Phase) -> complex:
    return f.alpha(x)


def eval_rho(f: SamplingFunction, x: Phase) -> float:
    return f.rho(x)


# --------------------------------------------------------------------------
# truncation


@dataclass(frozen=True)
class TruncationResult:
    function: SamplingFunction
    error_bound: float
    achieved: bool
    target: float


def truncate_fourier(f: SamplingFunction, n: int) -> TruncationResult:
    """Drop Fourier modes of total degree >= n^4.

    The reported bound is the absolute-coefficient tail sum, which dominates
    the sup-norm error.  ``achieved`` records whether the bound meets the
    exp(-n^2) target expected of coefficients with geometric decay.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    cut = n ** 4
    kept = {k: c for k, c in f.coeffs.items() if sum(map(abs, k)) < cut}
    dropped = sum(abs(c) for k, c in f.coeffs.items() if sum(map(abs, k)) >= cut)
    g = SamplingFunction(f.dim, kept, strip_width=None)
    target = float(np.exp(-float(n) ** 2))
    return TruncationResult(function=g, error_bound=float(dropped),
                            achieved=bool(dropped <= target), target=target)


def orbit(x0: Phase, omega, n: int) -> list[Phase]:
    """Rotation orbit x0, x0+w, ..., x0+(n-1)w, reduced mod 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    om = omega_array(omega)
    base = x0.array()
    return [reduce_phase(base + j * om, imag=x0.imag) for j in range(n)]
