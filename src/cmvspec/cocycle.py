"""Szego cocycles, renormalized transfer products, and Lyapunov estimates.

Products of the determinant-1 one-step map are accumulated with the largest
entry stripped into a running log every step, so norms of products with
tens of thousands of factors stay representable.  One kernel advances an
(N, d) array of phases at K spectral points together in a single pass:
the alpha-orbit is evaluated once for all K points, block by block of
steps, and the state is read off at every requested step count, so
L_n at several n costs one product of the largest n.  Each product equals
that of its phase and point alone, and of its step count alone, bit for
bit.  A strip phase x + iy is a strip Phase or an array with one y, where
conj(alpha) continues as conj(alpha(x - iy)); ``cocycle_step`` is the
kernel's step at one phase.  All Monte-Carlo phase averages use
counter-based seeding and are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .torus import Phase, SamplingFunction, _rho_of, omega_array, reduce_phase
from .util import TWO_PI, counter_phases


@dataclass(frozen=True)
class SpectralPoint:
    """Point z = e^{i theta} on the unit circle with the fixed root branch.

    sqrt(z) = e^{i theta/2} with theta in [0, 2 pi); the branch choice only
    rotates transfer matrices by a global phase, but fixing it makes every
    matrix in the test-suite deterministic.
    """

    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta) % TWO_PI)

    @property
    def z(self) -> complex:
        return complex(np.exp(1j * self.theta))

    @property
    def sqrt_z(self) -> complex:
        return complex(np.exp(0.5j * self.theta))

    @classmethod
    def from_z(cls, z: complex) -> "SpectralPoint":
        return cls(theta=float(np.angle(z)))


def cocycle_step(f: SamplingFunction, z: SpectralPoint, x: Phase) -> np.ndarray:
    """One-step map (1/rho) [[sqrt z, -conj(a)/sqrt z], [-a sqrt z, 1/sqrt z]]
    at a real or strip phase: the kernel's step at x."""
    orbit = _orbit(f, np.zeros(f.dim), x.array()[None, :], f.displacement(x), 0, 1)
    s = _step_entries(*orbit, *_roots([z]))
    return s[0, :, :, 0, 0] + 1j * s[1, :, :, 0, 0]


@dataclass
class CocycleProduct:
    """Renormalized n-step transfer matrix, or a stack of them.

    ``matrix`` has unit max-entry norm; the full product is
    exp(log_norm) * matrix.  ``log_det_abs`` accumulates log|det| factor by
    factor (each factor has det 1 up to rounding), giving an overflow-free
    determinant diagnostic.  For an (N, d) array of base phases ``matrix``
    is (N, 2, 2) and the other fields and properties are (N,) arrays.  For
    a sequence of K spectral points ``point`` is their tuple and every array
    field and property gets a leading K axis: (K, N, 2, 2) and (K, N).
    """

    n: int
    matrix: np.ndarray
    log_norm: float
    log_det_abs: float
    point: SpectralPoint | tuple[SpectralPoint, ...]

    @property
    def log_norm2(self) -> float:
        """log of the spectral norm of the full product."""
        # (row, column) leading, as the kernel holds entries
        re, im = (np.moveaxis(p, (-2, -1), (0, 1)) for p in (self.matrix.real,
                                                             self.matrix.imag))
        # a numpy float scalar squares by libm pow, as float_power does (x * x may differ)
        a2 = np.float_power(np.hypot(re, im), 2)
        fro2 = a2[0, 0] + a2[0, 1] + a2[1, 0] + a2[1, 1]
        det2 = np.float_power(_abs_det(re, im), 2)
        disc = np.maximum(fro2 * fro2 - 4 * det2, 0.0)
        return self.log_norm + 0.5 * np.log(0.5 * (fro2 + np.sqrt(disc)))

    @property
    def u_n(self) -> float:
        """(1/n) log ||M_n||."""
        return self.log_norm2 / self.n


# phase-steps per alpha-orbit call and entries per block of product steps:
# temporaries near 1 MB
_BLOCK = 8192


def _mul(ar, ai, br, bi):
    """Parts of (ar + i ai)(br + i bi), rounded as a numpy-scalar product."""
    return ar * br - ai * bi, ar * bi + ai * br


def _abs_det(re, im):
    """|m00 m11 - m01 m10| of 2x2 matrices given by parts, (row, column) the
    first two axes."""
    pr, pi = _mul(re[0, 0], im[0, 0], re[1, 1], im[1, 1])
    qr, qi = _mul(re[0, 1], im[0, 1], re[1, 0], im[1, 0])
    return np.hypot(pr - qr, pi - qi)


def transfer_product(f: SamplingFunction, omega, z, x, n: int, y=None) -> CocycleProduct:
    """Ordered product M(x+(n-1)w) ... M(x), renormalized every step.

    ``x`` is one Phase (strip phases included) or an (N, d) array of phases,
    displaced into the strip by ``y`` (d values) if given; ``z`` is one
    SpectralPoint or a sequence of K of them.  All K N products advance
    together in one pass of n steps, each divided every step by the modulus
    of its largest entry.  The alpha-orbit of the phases is evaluated once
    for every point, about _BLOCK phase-steps per call, so temporaries stay
    bounded whatever N and n.  Each product equals that of its phase and
    point alone bit for bit.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _transfer_products(f, omega, z, x, [n], y)[0]


def _transfer_products(f, omega, z, x, marks, y=None) -> list[CocycleProduct]:
    """transfer_product at each step count in ``marks``, in order and
    duplicates kept, all read from one pass of max(marks) steps; each equals
    transfer_product at its count bit for bit."""
    marks = [int(n) for n in marks]
    if not marks or min(marks) < 1:
        raise ValueError("step counts must be >= 1")
    om = omega_array(omega)
    one_point = isinstance(z, SpectralPoint)
    points = (z,) if one_point else tuple(z)
    if not points:
        raise ValueError("transfer_product needs at least one spectral point")
    single = isinstance(x, Phase)
    pts = x.array()[None, :] if single else np.asarray(x, dtype=float).reshape(-1, f.dim)
    if len(pts) == 0:
        raise ValueError("transfer_product needs at least one phase")
    wanted = sorted(set(marks))
    states = _products(f, om, *_roots(points), pts, f.displacement(x, y), wanted)
    products = {}
    for n, (matrix, log_norm, log_det) in zip(wanted, states):
        if single:
            matrix, log_norm, log_det = matrix[:, 0], log_norm[:, 0], log_det[:, 0]
        if one_point:
            matrix, log_norm, log_det = matrix[0], log_norm[0], log_det[0]
        products[n] = CocycleProduct(n=n, matrix=matrix, log_norm=log_norm,
                                     log_det_abs=log_det, point=z if one_point else points)
    return [products[n] for n in marks]


def _roots(points):
    """sqrt z and 1/sqrt z, each (K, 1), 1/sqrt z a Python complex division
    (a numpy complex quotient may round differently)."""
    return (np.array([[p.sqrt_z] for p in points]),
            np.array([[1.0 / p.sqrt_z] for p in points]))


def _orbit(f, om, pts, y, start, m):
    """alpha, its continued conjugate (None on the real torus: conj(alpha))
    and rho at steps start..start+m-1 of the c phases pts, each (m, 1, c)."""
    a, ab = f.alpha_orbit(pts, om, m, y=y, start=start), None
    if y is None:
        r = _rho_of(a)
    else:
        ab = np.conj(f.alpha_orbit(pts, om, m, y=-y, start=start))
        # by parts: a numpy complex array product rounds by the layout
        pr, pi = _mul(a.real, a.imag, ab.real, ab.imag)
        rad = np.empty(a.shape, dtype=complex)
        rad.real, rad.imag = 1.0 - pr, 0.0 - pi
        r = np.sqrt(rad)
    return tuple(None if v is None else v.T[:, None] for v in (a, ab, r))


def _products(f, om, sz, iz, pts, y, marks):
    """(matrix (K, c, 2, 2), log norm (K, c), log|det| (K, c)) of the
    products at the c phases pts and the K points with roots sz, iz (K, 1),
    at each step count of the increasing ``marks``, from one pass.

    Entries are kept as real and imaginary parts and combined as numpy
    complex scalars would combine them; a numpy complex array product
    (fused multiply-add) rounds differently.  Entries are (row, column)
    leading with the K c products last and contiguous.  Each step divides a
    product by its largest entry modulus, the root of the largest squared
    modulus, and logs are summed step by step, so a product read at a mark
    is the product of that many steps.  The alpha-orbit is evaluated for
    about _BLOCK phase-steps per call, and a block of product steps holds
    about _BLOCK sample-points.
    """
    k, c = len(sz), len(pts)
    rows = k * c
    mr, mi = np.zeros((2, 2, rows)), np.zeros((2, 2, rows))
    mr[0, 0] = mr[1, 1] = 1.0
    log_norm, log_det = np.zeros(rows), np.zeros(rows)
    block = max(1, _BLOCK // rows)
    span = max(1, _BLOCK // c)
    n = marks[-1]
    marks = iter(marks)
    mark, out = next(marks), []
    for o0 in range(0, n, span):
        orbit = _orbit(f, om, pts, y, o0, min(span, n - o0))
        for j0 in range(0, len(orbit[0]), block):
            a, ab, r = (None if v is None else v[j0:j0 + block] for v in orbit)
            s = _step_entries(a, ab, r, sz, iz)
            scale = np.empty((len(a), rows))
            seen = []
            for j in range(len(scale)):
                sr, si = s[0, :, :, j, None], s[1, :, :, j, None]
                pr = sr * mr - si * mi          # (row, inner, column, product)
                pi = sr * mi + si * mr
                nr, ni = pr[:, 0] + pr[:, 1], pi[:, 0] + pi[:, 1]
                scale[j] = np.sqrt((nr * nr + ni * ni).reshape(4, rows).max(axis=0))
                inv = 1.0 / scale[j]
                mr, mi = nr * inv, ni * inv
                if o0 + j0 + j + 1 == mark:
                    seen.append((j, mr, mi))
                    mark = next(marks, None)
            norms = np.add.accumulate(np.vstack((log_norm, np.log(scale))))
            dets = np.add.accumulate(np.vstack((log_det, np.log(_abs_det(s[0], s[1])))))
            out += [((er + 1j * ei).reshape(2, 2, k, c).transpose(2, 3, 0, 1),
                     norms[j + 1].reshape(k, c), dets[j + 1].reshape(k, c))
                    for j, er, ei in seen]
            log_norm, log_det = norms[-1], dets[-1]
    return out


def _step_entries(a, ab, r, sz, iz):
    """Parts of the one-step maps (1/r) [[sz, -ab iz], [-a sz, iz]], ab = conj(a)
    if None, for a, ab, r (step, 1, sample) and sz, iz (point, 1):
    s[part, row, column, step, point * sample], part 0 real and 1 imaginary."""
    if ab is None:
        # a numpy complex scalar divided by a real rounds as a product with
        # 1/r; a Python complex divided by a float is a true division
        inv = 1.0 / r
        ents = [(sz.real / r, sz.imag / r),
                tuple(v * inv for v in _mul(-a.real, a.imag, iz.real, iz.imag)),
                tuple(v * inv for v in _mul(-a.real, -a.imag, sz.real, sz.imag)),
                (iz.real / r, iz.imag / r)]
    else:
        # strip phase: complex rho, also combined by parts, so that no numpy
        # complex array product makes the rounding depend on the layout
        d = r.real * r.real + r.imag * r.imag
        ir, ii = r.real / d, -r.imag / d
        ents = [_mul(er, ei, ir, ii) for er, ei in (
            (sz.real, sz.imag), _mul(-ab.real, -ab.imag, iz.real, iz.imag),
            _mul(-a.real, -a.imag, sz.real, sz.imag), (iz.real, iz.imag))]
    # (row, column, part, step, point, sample) -> (part, row, column, step, product)
    ents = np.array(ents)
    return ents.reshape(2, 2, 2, ents.shape[2], -1).transpose(2, 0, 1, 3, 4)


def transfer_log_norms(f: SamplingFunction, omega, z: SpectralPoint, x,
                       checkpoints) -> dict[int, float]:
    """log ||M_n|| at each n in checkpoints (per sample for an array x), all
    read from one pass of max(checkpoints) steps."""
    marks = sorted(set(int(c) for c in checkpoints))
    if marks[0] < 1:
        raise ValueError("checkpoints must be >= 1")
    products = _transfer_products(f, omega, z, x, marks)
    return {n: p.log_norm2 for n, p in zip(marks, products)}


@dataclass(frozen=True)
class LyapunovEstimate:
    n: int
    value: float
    sample_count: int
    std_error: float
    method: str


def lyapunov_finite(f: SamplingFunction, omega, z, n, samples: int, seed: int,
                    y=None) -> LyapunovEstimate | list:
    """Monte-Carlo estimate of L_n = E_x (1/n) log ||M_n(x + iy)|| over the
    phases x of ``counter_phases(f.dim, samples, seed)``, y = 0 unless given.

    For a sequence of points, one estimate per point in order, all from one
    product over the same phases; each equals the estimate at its point alone.
    For a sequence of scales n, one such result per scale in order,
    duplicates kept, all read from one pass of max(n) steps over one draw;
    each equals the call at its scale alone.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    phases = counter_phases(f.dim, samples, seed)

    def estimates(pr):
        ests = [LyapunovEstimate(
            n=pr.n, value=float(v.mean()), sample_count=samples,
            std_error=float(v.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0,
            method="direct") for v in np.reshape(pr.u_n, (-1, samples))]
        return ests[0] if isinstance(z, SpectralPoint) else ests
    if np.ndim(n) == 0:
        return estimates(transfer_product(f, omega, z, phases, n, y))
    return [estimates(pr) for pr in _transfer_products(f, omega, z, phases, n, y)]


# --------------------------------------------------------------------------
# avalanche principle


@dataclass(frozen=True)
class AvalancheReport:
    """Hypotheses and conclusion of the unimodular product expansion.

    expression = |log||A_m...A_1|| + sum_{j=2}^{m-1} log||A_j||
                 - sum_{j=1}^{m-1} log||A_{j+1} A_j|||.
    """

    m: int
    mu: float
    max_defect: float
    worst_pair: int
    hyp_norms_ok: bool
    hyp_pairs_ok: bool
    expression: float
    bound: float
    log_norms: np.ndarray = field(repr=False, compare=False)    # log||A_j||
    pair_logs: np.ndarray = field(repr=False, compare=False)    # log||A_{j+1} A_j||

    @property
    def hypotheses_ok(self) -> bool:
        return self.hyp_norms_ok and self.hyp_pairs_ok


def _norm2(A: np.ndarray) -> float:
    fro2 = float(np.sum(np.abs(A) ** 2))
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    disc = max(fro2 * fro2 - 4 * abs(det) ** 2, 0.0)
    return float(np.sqrt(0.5 * (fro2 + np.sqrt(disc))))


def avalanche_report(mats, c_a: float = 10.0) -> AvalancheReport:
    """Evaluate the product-expansion identity for explicit 2x2 factors."""
    mats = [np.asarray(A, dtype=complex) for A in mats]
    if len(mats) < 2:
        raise ValueError("need at least two factors")
    return _chain_report(mats, [0.0] * len(mats), c_a)


class AvalancheHypothesisError(RuntimeError):
    def __init__(self, report: AvalancheReport, level_n: int):
        self.report = report
        self.level_n = level_n
        which = []
        if not report.hyp_norms_ok:
            which.append(f"min norm {report.mu:.4g} < m={report.m}")
        if not report.hyp_pairs_ok:
            which.append(f"pair defect {report.max_defect:.4g} at pair "
                         f"{report.worst_pair} >= log(mu)/2")
        super().__init__(f"AP hypotheses violated at factor length {level_n}: "
                         + "; ".join(which))


def _chain_report(ms: list[np.ndarray], logs: list[float],
                  c_a: float = 10.0) -> AvalancheReport:
    """avalanche_report for factors given as (renormalized matrix, log scale)."""
    m = len(ms)
    log_norms = np.array([lg + np.log(_norm2(A)) for A, lg in zip(ms, logs)])
    log_mu = float(log_norms.min())
    pair_logs = np.empty(m - 1)
    for j in range(m - 1):
        pair_logs[j] = logs[j + 1] + logs[j] + np.log(_norm2(ms[j + 1] @ ms[j]))
    defects = log_norms[1:] + log_norms[:-1] - pair_logs
    worst = int(np.argmax(defects))
    P = ms[0]
    log_scale = logs[0]
    for A, lg in zip(ms[1:], logs[1:]):
        P = A @ P
        s = float(np.max(np.abs(P)))
        P /= s
        log_scale += lg + np.log(s)
    expr = abs(log_scale + np.log(_norm2(P))
               + log_norms[1:m - 1].sum() - pair_logs.sum())
    mu = float(np.exp(min(log_mu, 700.0)))
    return AvalancheReport(
        m=m, mu=mu, max_defect=float(defects.max()), worst_pair=worst,
        hyp_norms_ok=bool(log_mu >= np.log(m)),
        hyp_pairs_ok=bool(defects.max() < 0.5 * log_mu) if log_mu > 0 else False,
        expression=float(expr), bound=float(c_a * m * np.exp(-min(log_mu, 700.0))),
        log_norms=log_norms, pair_logs=pair_logs)


def lyapunov_avalanche(f: SamplingFunction, omega, z: SpectralPoint, n0: int,
                       levels: int, samples: int, seed: int,
                       chain: int = 8) -> LyapunovEstimate:
    """Accelerated estimate from short-scale data via the product expansion.

    At level l the per-sample chain A_j = M_n(x + j n w), n = n0 2^l, is
    screened against the expansion hypotheses (first violation aborts with
    the offending pair), then log||M_{chain*n}|| is reconstructed from pair
    products only:  sum log||A_{j+1}A_j|| - sum_{j=2}^{m-1} log||A_j||.
    Averaged over phases this realizes the 2 L_{2n} - L_n combination.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if chain < 2:
        raise ValueError("chain must be >= 2")
    d = f.dim
    om = omega_array(omega)
    est = None
    for lev in range(levels):
        n = n0 * 2 ** lev
        jumps = np.arange(chain)[:, None] * n * om         # x + j n w, j < chain
        x = counter_phases(d, samples, seed, lev)[:, None] + jumps
        starts = reduce_phase(x.reshape(-1, d))
        pr = transfer_product(f, om, z, starts, n)
        vals = np.empty(samples)
        for s in range(samples):
            part = slice(s * chain, (s + 1) * chain)
            rep = _chain_report(list(pr.matrix[part]), list(pr.log_norm[part]))
            if not rep.hypotheses_ok:
                raise AvalancheHypothesisError(rep, n)
            vals[s] = (sum(rep.pair_logs) - sum(rep.log_norms[1:chain - 1])) / (chain * n)
        err = float(vals.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
        est = LyapunovEstimate(n=chain * n, value=float(vals.mean()),
                               sample_count=samples, std_error=err,
                               method="avalanche")
    return est


# --------------------------------------------------------------------------
# regularity checks


@dataclass(frozen=True)
class MonotonicityReport:
    estimates: dict
    violations: list
    fitted_c: float

    @property
    def ok(self) -> bool:
        return not self.violations


def check_ln_monotonicity(f: SamplingFunction, omega, z: SpectralPoint,
                          scales, samples: int, seed: int) -> MonotonicityReport:
    """Check L_n <= L_m + 3 SE for every divisor pair m | n in scales.

    Every estimate is ``lyapunov_finite``'s, all scales from one pass over
    the same sampled orbits, so the comparison is exact in the common-noise
    part.  Also fits the constant in the finite-scale defect C (log n)^2 / n
    against the largest scale.
    """
    scales = sorted(set(int(v) for v in scales))
    estimates = dict(zip(scales, lyapunov_finite(f, omega, z, scales, samples, seed)))
    means = [estimates[n].value for n in scales]
    errs = [estimates[n].std_error for n in scales]
    violations = []
    for i, m in enumerate(scales):
        for j, n in enumerate(scales):
            if m < n and n % m == 0:
                slack = 3.0 * (errs[i] + errs[j]) + 1e-9
                if means[j] > means[i] + slack:
                    violations.append((m, n, float(means[j] - means[i])))
    tail = means[-1]
    cs = [(means[i] - tail) * n / np.log(n) ** 2.0
          for i, n in enumerate(scales[:-1]) if n >= 2]
    fitted = float(max(cs)) if cs else 0.0
    return MonotonicityReport(estimates=estimates, violations=violations,
                              fitted_c=fitted)


@dataclass(frozen=True)
class StripContinuityReport:
    ratios: dict
    max_ratio: float
    base_value: float


def strip_continuity_check(f: SamplingFunction, omega, z: SpectralPoint, n: int,
                           y_list, samples: int = 64,
                           seed: int = 0) -> StripContinuityReport:
    """Empirical Lipschitz ratio |L_n(y) - L_n(0)| / sum |y_i| on the strip,
    each L_n(y) from one kernel pass over the same draw as L_n(0)."""
    base = lyapunov_finite(f, omega, z, n, samples, seed).value
    ratios = {}
    for y in y_list:
        y = tuple(float(v) for v in np.atleast_1d(y))
        if max(abs(v) for v in y) >= f.strip_width / 2:
            raise ValueError(f"y={y} leaves the half-strip |y| < h/2")
        tot = sum(abs(v) for v in y)
        diff = abs(lyapunov_finite(f, omega, z, n, samples, seed, y).value - base)
        ratios[y] = diff / tot if tot > 0 else 0.0
    mx = max(ratios.values()) if ratios else 0.0
    return StripContinuityReport(ratios=ratios, max_ratio=float(mx), base_value=base)


@dataclass(frozen=True)
class UniformUpperReport:
    n: int
    sup_log_norm: float
    mean_log_norm: float
    excess: float
    grid_points: int


def uniform_upper_check(f: SamplingFunction, omega, z: SpectralPoint, n: int,
                        grid: int = 32) -> UniformUpperReport:
    """sup_x log||M_n(x)|| - n L_n with both terms from one phase grid."""
    if grid < 32:
        raise ValueError("grid resolution must be >= 32 per dimension")
    d = f.dim
    axes = [np.arange(grid) / grid] * d
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    logs = transfer_product(f, omega, z, mesh, n).log_norm2
    sup = float(logs.max())
    mean = float(logs.mean())
    return UniformUpperReport(n=n, sup_log_norm=sup, mean_log_norm=mean,
                              excess=sup - mean, grid_points=len(mesh))
