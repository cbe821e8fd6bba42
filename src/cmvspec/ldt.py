"""Large-deviation measure estimates and their spectral / covering forms.

The measure bounds are asymptotic statements; what is computable at desk
scale is the sampled fraction of phases violating a deviation inequality,
reported with Wilson score intervals, plus the implication checks relating
resolvent bounds, determinant lower bounds, and spectral distances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cmv import VerblunskySequence, build_finite_cmv
from .cocycle import SpectralPoint, lyapunov_finite, transfer_product
from .determinants import log_normalized_phi
from .spectral import spectral_distance
from .torus import Phase, SamplingFunction
from .util import WilsonInterval, counter_phases, counter_rng


@dataclass(frozen=True)
class ExceptionalSetEstimate:
    """Sampled measure of a deviation set with its confidence interval."""

    description: str
    n: int
    threshold: float
    interval: WilsonInterval

    @property
    def estimate(self) -> float:
        return self.interval.estimate


@dataclass(frozen=True)
class LdtScan:
    estimates: list
    l_values: dict
    trend_ok: bool
    vacuous: bool
    phases: dict         # n -> the (samples, d) phases drawn for that n


# sample-sites per batched window build of the determinant statistic:
# temporaries near 1 MB
_CHUNK = 2 ** 12


def _scan(f: SamplingFunction, omega, z: SpectralPoint, n_list, tau: float,
          samples: int, seed: int, statistic, label: str,
          measure: LdtScan | None = None) -> LdtScan:
    """Shared scan: fraction of phases with |stat(x) - n L_n| > n^{1-tau}.

    ``statistic(xs, n, products)`` maps the (samples, d) array of phases to
    their statistics; it receives their transfer products M_n, computed here
    in one batch for u_n, so it need not compute them again.  Given
    ``measure``, a scan over the same (n_list, samples, seed), its phases
    and L_n are reused: no phase is drawn, no product is computed and the
    statistic gets None.
    """
    n_list = sorted(set(int(n) for n in n_list))
    estimates = []
    l_values = {}
    phases = {}
    vacuous = False
    for n in n_list:
        if measure is None:
            xs = counter_phases(f.dim, samples, seed, n)
            product = transfer_product(f, omega, z, xs, n)
            ln = float(product.u_n.mean())
        else:
            xs, product, ln = measure.phases[n], None, float(measure.l_values[n])
        stats = statistic(xs, n, product)
        l_values[n] = ln
        phases[n] = xs
        if ln <= 1e-9:
            vacuous = True
        thr = float(n) ** (1.0 - tau)
        hits = int(np.sum(np.abs(stats - n * ln) > thr))
        estimates.append(ExceptionalSetEstimate(
            description=f"|{label} - n L_n| > n^(1-tau)", n=n, threshold=thr,
            interval=WilsonInterval.from_counts(hits, samples)))
    trend = all(estimates[i + 1].interval.lo <= estimates[i].interval.hi
                for i in range(len(estimates) - 1))
    return LdtScan(estimates=estimates, l_values=l_values,
                   trend_ok=trend, vacuous=vacuous, phases=phases)


def ldt_measure_scan(f: SamplingFunction, omega, z: SpectralPoint, n_list,
                     tau: float, samples: int, seed: int) -> LdtScan:
    """Deviation-set estimates for log ||M_n(x)|| around n L_n."""
    def stat(xs: np.ndarray, n: int, products) -> np.ndarray:
        return products.log_norm2
    return _scan(f, omega, z, n_list, tau, samples, seed, stat, "log||M_n||")


def ldt_determinant_scan(f: SamplingFunction, omega, z: SpectralPoint, n_list,
                         tau: float, samples: int, seed: int,
                         beta: complex = 1.0 + 0j,
                         eta: complex = 1.0 + 0j,
                         measure: LdtScan | None = None) -> LdtScan:
    """Deviation-set estimates for log |phi_{[0,n-1]}(x)| around n L_n.

    Exact eigenvalue hits give log|phi| = -inf and count as deviations.
    The windows of one n are built and factored in batches of about
    ``_CHUNK`` sample-sites.  ``measure``, a measure scan over the same
    (n_list, samples, seed), spares drawing its phases again and
    recomputing its transfer products.
    """
    def stat(xs: np.ndarray, n: int, products) -> np.ndarray:
        width = max(1, _CHUNK // n)
        vals = np.concatenate([
            log_normalized_phi(VerblunskySequence(f, omega, xs[lo:lo + width]),
                               0, n - 1, z.z, beta=beta, eta=eta)
            for lo in range(0, len(xs), width)])
        return np.where(np.isfinite(vals), vals, -np.inf)
    return _scan(f, omega, z, n_list, tau, samples, seed, stat, "log|phi|",
                 measure=measure)


@dataclass(frozen=True)
class SpectralFormResult:
    resolvent_ok: bool
    logphi_ok: bool
    dist: float
    resolvent_bound: float
    log_phi: float
    log_phi_floor: float

    @property
    def implication_ok(self) -> bool:
        return (not self.resolvent_ok) or self.logphi_ok


def spectral_form_predicate(seq: VerblunskySequence, n: int, z: SpectralPoint,
                            nu: float, tau: float, l_n: float,
                            beta: complex = 1.0 + 0j,
                            eta: complex = 1.0 + 0j) -> SpectralFormResult:
    """resolvent_ok: ||(E - z)^{-1}|| <= exp(n^{nu/2});
    logphi_ok: log|phi_{[0,n-1]}| > n L_n - n^{1-tau/2}.

    The window operator is normal, so the resolvent norm is the reciprocal
    spectral distance.  l_n is supplied by the caller (one Monte-Carlo
    estimate serves a whole corpus at fixed (omega, z)).
    """
    dist = spectral_distance(build_finite_cmv(seq, 0, n - 1, beta=beta, eta=eta),
                             z.z)
    bound = float(np.exp(float(n) ** (nu / 2.0)))
    resolvent_ok = bool(dist > 0 and 1.0 / dist <= bound)
    log_phi = log_normalized_phi(seq, 0, n - 1, z.z, beta=beta, eta=eta)
    floor = n * l_n - float(n) ** (1.0 - tau / 2.0)
    return SpectralFormResult(resolvent_ok=resolvent_ok,
                              logphi_ok=bool(log_phi > floor),
                              dist=dist, resolvent_bound=bound,
                              log_phi=float(log_phi), log_phi_floor=float(floor))


@dataclass(frozen=True)
class CoveringFormResult:
    precondition_failures: list
    dist: float
    required: float
    conclusion_ok: bool
    margin: float


def covering_form_check(seq: VerblunskySequence, n: int, z: SpectralPoint,
                        subwindows: dict, tau: float,
                        l_values: dict) -> CoveringFormResult:
    """Covering-form check on the window [0, n-1], with beta = eta = 1.

    subwindows maps each site m to an interval [am, bm] inside [0, n-1];
    preconditions per site: (i) dist(m, complement) >= |I_m|/100,
    (ii) |I_m| >= 8, (iii) log|phi_{I_m}| > |I|L_{|I|} - |I|^{1-tau/4}.
    l_values maps window lengths to L_{length}.  The conclusion
    dist(z, spec) >= exp(-2 max |I_m|^{1-tau/4}) is checked by
    ``spectral_distance``, the banded nearest-eigenvalue query.
    """
    failures = []
    max_len_term = 0.0
    for m in range(0, n):
        if m not in subwindows:
            failures.append((m, "no subwindow"))
            continue
        am, bm = subwindows[m]
        if not (0 <= am <= m <= bm <= n - 1):
            failures.append((m, f"window [{am},{bm}] not admissible"))
            continue
        length = bm - am + 1
        # distance from m to [0,n-1] \ I_m (taken as |I_m| if I_m is everything)
        dists = []
        if am > 0:
            dists.append(m - (am - 1))
        if bm < n - 1:
            dists.append(bm + 1 - m)
        inner_dist = min(dists) if dists else length
        if inner_dist < length / 100.0:
            failures.append((m, f"dist to complement {inner_dist} < |I|/100"))
        if length < 8:
            failures.append((m, f"|I| = {length} below floor 8"))
        if length not in l_values:
            failures.append((m, f"no L value for length {length}"))
            continue
        log_phi = log_normalized_phi(seq, am, bm, z.z)
        floor = length * l_values[length] - float(length) ** (1.0 - tau / 4.0)
        if not log_phi > floor:
            failures.append((m, f"log|phi| = {log_phi:.3f} <= floor {floor:.3f}"))
        max_len_term = max(max_len_term, float(length) ** (1.0 - tau / 4.0))

    required = float(np.exp(-2.0 * max_len_term)) if max_len_term > 0 else 1.0
    dist = spectral_distance(build_finite_cmv(seq, 0, n - 1), z.z)
    return CoveringFormResult(precondition_failures=failures, dist=dist,
                              required=required,
                              conclusion_ok=bool(dist >= required),
                              margin=float(dist - required))


@dataclass(frozen=True)
class UnionCoveringResult:
    precondition_failures: list
    union_window: tuple[int, int]
    sampled_dists: list
    required: float
    conclusion_ok: bool


def union_covering_check(seq: VerblunskySequence, targets, windows: dict,
                         k_param: float, nu: float, x0: Phase,
                         displacement_samples: int = 4,
                         seed: int = 0) -> UnionCoveringResult:
    """Union form (beta = eta = 1): per-site windows J_m with spectra exp(-K)-far from the
    target set stay (1/2) exp(-K)-far after assembling J = union J_m and
    displacing the phase by less than exp(-2K).

    targets is a finite set of unit-modulus points; windows maps sites to
    intervals.  Preconditions per window: dist(m, boundary) >= |J_m|/100,
    dist(spec(E_{J_m}(x0)), targets) >= exp(-K), K < (1/2) min |J_m|^{nu/2}.
    """
    targets = [complex(t) for t in targets]
    failures = []
    thr = float(np.exp(-k_param))
    min_len = min(b - a + 1 for a, b in windows.values())
    if not k_param < 0.5 * float(min_len) ** (nu / 2.0):
        failures.append(("K", f"K = {k_param} >= min|J|^(nu/2)/2"))
    f = seq.sampling
    for m, (a, b) in sorted(windows.items()):
        if not (a <= m <= b):
            failures.append((m, "site outside its window"))
            continue
        edge = min(m - a, b - m)
        if edge < (b - a + 1) / 100.0:
            failures.append((m, f"dist to boundary {edge} < |J|/100"))
        seq0 = VerblunskySequence(f, seq.omega, x0)
        m_win = build_finite_cmv(seq0, a, b)
        d = min(spectral_distance(m_win, t) for t in targets)
        if d < thr:
            failures.append((m, f"window spectrum {d:.3e} closer than exp(-K)={thr:.3e}"))

    lo = min(a for a, _ in windows.values())
    hi = max(b for _, b in windows.values())
    covered = np.zeros(hi - lo + 1, dtype=bool)
    for a, b in windows.values():
        covered[a - lo:b - lo + 1] = True
    if not covered.all():
        failures.append(("union", "windows do not form a contiguous interval"))

    dmax = float(np.exp(-2.0 * k_param))
    dists = []
    ok = True
    d_dim = f.dim
    for s in range(displacement_samples):
        delta = (counter_rng(seed, s).random(d_dim) - 0.5) * 2 * dmax * 0.99
        if s == 0:
            delta = np.zeros(d_dim)
        seq_x = VerblunskySequence(f, seq.omega, x0.shift(delta))
        m_union = build_finite_cmv(seq_x, lo, hi)
        d = min(spectral_distance(m_union, t) for t in targets)
        dists.append(d)
        if d < 0.5 * thr:
            ok = False
    return UnionCoveringResult(precondition_failures=failures,
                               union_window=(lo, hi), sampled_dists=dists,
                               required=0.5 * thr,
                               conclusion_ok=bool(ok and not failures))


def estimate_l_values(f: SamplingFunction, omega, z: SpectralPoint, lengths,
                      samples: int, seed: int) -> dict:
    """Convenience: L_n for each requested n, keyed by n, from one pass."""
    lengths = sorted(set(int(v) for v in lengths))
    return {n: est.value for n, est in
            zip(lengths, lyapunov_finite(f, omega, z, lengths, samples, seed))}
