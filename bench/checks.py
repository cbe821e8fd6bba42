"""Output checks for the benchmark workloads, computed apart from cmvspec.

Nothing here imports the package.  Coefficients come straight from the
Fourier series of the presets the workloads use, windows are assembled
from the CMV factorization E = L M, and cocycle products are plain numpy
2x2 products.  Each check returns a list of problems; empty means the
output is right.
"""

import csv
import json
import re
from pathlib import Path

import numpy as np

# Fourier data of the presets, restated: two_mode(c) is
# alpha(x) = c (e^{2 pi i x1} + e^{2 pi i x2}).
TWO_MODE_COUPLING = {"localization": 0.475, "strong_coupling": 0.45}
SQRT_OMEGA = np.array([np.sqrt(2.0) - 1.0, np.sqrt(3.0) - 1.0])
LN_TOL = 1e-10
LN_ROWS_CHECKED = 4
NUMBER = r"[-+]?(?:\d[\d.]*(?:e[-+]?\d+)?|inf|nan)"     # as "%.4g" prints
FAILURE_RE = re.compile(rf"^\[FAIL\] .+: measured {NUMBER} vs {NUMBER}$")


def two_mode_alpha(coupling: float, x: np.ndarray) -> np.ndarray:
    """alpha at phases x[..., 2]."""
    return coupling * np.exp(2j * np.pi * x).sum(axis=-1)


def counter_phases(count: int, *counters: int) -> np.ndarray:
    """The documented counter seeding: phase s draws from SeedSequence([*counters, s])."""
    return np.array([np.random.default_rng(np.random.SeedSequence([*counters, s]))
                     .random(2) for s in range(count)])


def window_eigenvalues(coupling: float, x: np.ndarray, a: int, b: int,
                       beta: complex = 1.0, eta: complex = 1.0) -> np.ndarray:
    """Eigenvalues of the unitary window E^{beta,eta}_{[a,b]} at phase x.

    E = L M, where the 2x2 block [[conj a_k, r_k], [r_k, -a_k]] acts on
    sites (k, k+1) and sits in L for even k, in M for odd k.  The values at
    a-1 and b are replaced by beta and eta; being unimodular they make
    those blocks diagonal, so sites [a, b] decouple from the rest.
    """
    sites = np.arange(a - 1, b + 1)
    al = two_mode_alpha(coupling, x + sites[:, None] * SQRT_OMEGA)
    al[0], al[-1] = beta, eta
    rho = np.sqrt(np.maximum(0.0, 1.0 - np.abs(al) ** 2))
    size = len(sites) + 1                       # sites a-1 .. b+1
    L = np.zeros((size, size), dtype=complex)
    M = np.zeros((size, size), dtype=complex)
    for i, (k, alpha, r) in enumerate(zip(sites, al, rho)):
        F = L if k % 2 == 0 else M
        F[i:i + 2, i:i + 2] = [[np.conj(alpha), r], [r, -alpha]]
    return np.linalg.eigvals((L @ M)[1:-1, 1:-1])


def mean_exponent(coupling: float, theta: float, n: int,
                  phases: np.ndarray) -> float:
    """mean over phases of (1/n) log ||M_n(x)||, M_n = S(x+(n-1)w) ... S(x)."""
    x = phases[:, None, :] + np.arange(n)[None, :, None] * SQRT_OMEGA
    al = two_mode_alpha(coupling, x)
    rho = np.sqrt(1.0 - np.abs(al) ** 2)
    sz = np.exp(0.5j * theta)
    steps = np.empty(al.shape + (2, 2), dtype=complex)
    steps[..., 0, 0] = sz / rho
    steps[..., 0, 1] = -np.conj(al) / (sz * rho)
    steps[..., 1, 0] = -al * sz / rho
    steps[..., 1, 1] = 1.0 / (sz * rho)
    prod = np.broadcast_to(np.eye(2, dtype=complex), (len(phases), 2, 2))
    log_scale = np.zeros(len(phases))
    for k in range(n):
        prod = steps[:, k] @ prod
        s = np.abs(prod).max(axis=(1, 2))
        prod = prod / s[:, None, None]
        log_scale += np.log(s)
    return float(np.mean((log_scale + np.log(np.linalg.norm(prod, 2, axis=(1, 2)))) / n))


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_multiscale(out: Path, cfg: dict, seed: int) -> list[str]:
    """Depth 0 holds, the advance is reached, failures are named, and the
    base window really has an eigenvalue at the solved center."""
    data = json.loads((out / "multiscale.json").read_text(encoding="utf-8"))
    block = cfg["multiscale"]
    problems = []
    if data["depth0"]["all_ok"] is not True:
        problems.append("depth-0 conditions not all ok")
    adv = data.get("advance")
    if adv is None or adv["window"] is None:
        return problems + ["advance not reached"]
    if adv["ok"] != (not adv["failures"]):
        problems.append(f"advance ok={adv['ok']} disagrees with its failures")
    problems += [f"failure not in 'measured ... vs ...' form: {line!r}"
                 for line in adv["failures"] if not FAILURE_RE.match(line)]
    n0 = block["n0"]
    coupling = TWO_MODE_COUPLING[cfg["sampling"]["preset"]]
    w = window_eigenvalues(coupling, np.array(data["base_phase"]), -n0, n0)
    dist = float(np.min(np.abs(w - np.exp(1j * data["theta_center"]))))
    tol = block["schedule"]["overrides"]["solver_tol"]
    if not dist <= tol:
        problems.append(f"base window at base_phase misses e^(i theta_center) "
                        f"by {dist:.3e} > {tol}")
    return problems


def check_spectrum_scan(out: Path, cfg: dict, seed: int) -> list[str]:
    """One covered arc matching the trace-condition band |cos(theta/2)| <= rho."""
    block = cfg["spectrum"]
    rho = np.sqrt(1.0 - abs(cfg["sampling"]["value"]) ** 2)
    lo = 2.0 * np.arccos(rho)
    hi = 2.0 * np.pi - lo
    step = 2.0 * np.pi / block["grid"]
    arcs = json.loads((out / "arc_summary.json").read_text(encoding="utf-8"))["covered_arcs"]
    problems = []
    if len(arcs) != 1:
        return [f"{len(arcs)} covered arcs, expected 1"]
    start, end = arcs[0]
    if abs(start - lo) > 2 * step or abs(end - hi) > 2 * step:
        problems.append(f"covered arc [{start:.5f}, {end:.5f}] not within two grid "
                        f"steps of the band [{lo:.5f}, {hi:.5f}]")
    rows = read_csv(out / "coverage.csv")
    if len(rows) != block["grid"]:
        problems.append(f"{len(rows)} grid points, expected {block['grid']}")
    deep = [float(r["theta"]) for r in rows if r["covered"] == "0"
            and lo + 0.05 < float(r["theta"]) < hi - 0.05]
    if deep:
        problems.append(f"{len(deep)} uncovered points more than 0.05 inside the band")
    return problems


def check_lyapunov(out: Path, cfg: dict, seed: int) -> list[str]:
    """L_n >= 0 everywhere; a seeded subset of rows recomputed with numpy."""
    block = cfg["lyapunov"]
    coupling = TWO_MODE_COUPLING[cfg["sampling"]["preset"]]
    rows = read_csv(out / "lyapunov.csv")
    expected = block["theta_grid"] * len(block["scales"])
    if len(rows) != expected:
        return [f"{len(rows)} rows, expected {expected}"]
    problems = [f"L_n = {r['L_n']} < 0 at theta={r['theta']}, n={r['n']}"
                for r in rows if float(r["L_n"]) < 0]
    phases = counter_phases(block["samples"], seed)
    pick = np.random.default_rng(seed).choice(len(rows), LN_ROWS_CHECKED, replace=False)
    for i in sorted(pick):
        r = rows[i]
        ref = mean_exponent(coupling, float(r["theta"]), int(r["n"]), phases)
        if abs(ref - float(r["L_n"])) > LN_TOL:
            problems.append(f"L_n at theta={r['theta']}, n={r['n']}: program "
                            f"{r['L_n']} vs numpy {ref!r}")
    return problems


def check_ldt(out: Path, cfg: dict, seed: int) -> list[str]:
    """Wilson intervals contain their estimates; L_n >= 0 and, for one
    seeded n, equal to a numpy recomputation."""
    block = cfg["ldt"]
    coupling = TWO_MODE_COUPLING[cfg["sampling"]["preset"]]
    n_check = int(np.random.default_rng(seed).choice(block["n_list"]))
    ref = mean_exponent(coupling, block["theta"], n_check,
                        counter_phases(block["samples"], seed, n_check))
    problems = []
    files = ["ldt_matrix.csv"] + (["ldt_determinant.csv"] if block["determinant"] else [])
    for name in files:
        rows = read_csv(out / name)
        if [int(r["n"]) for r in rows] != sorted(block["n_list"]):
            problems.append(f"{name}: rows {[r['n'] for r in rows]}")
        for r in rows:
            est, lo, hi, ln = (float(r[k]) for k in
                               ("estimate", "wilson_lo", "wilson_hi", "L_n"))
            if not lo <= est <= hi:
                problems.append(f"{name} n={r['n']}: estimate {est} outside [{lo}, {hi}]")
            if ln < 0:
                problems.append(f"{name} n={r['n']}: L_n = {ln} < 0")
            if int(r["n"]) == n_check and abs(ln - ref) > LN_TOL:
                problems.append(f"{name} n={n_check}: L_n {ln!r} vs numpy {ref!r}")
    return problems


CHECKS = {
    "multiscale": check_multiscale,
    "spectrum-scan": check_spectrum_scan,
    "lyapunov": check_lyapunov,
    "ldt": check_ldt,
}
