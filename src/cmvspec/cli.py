"""Command-line driver: config ingestion, experiments, persistent results.

Every command reads a JSON config (or a previously written manifest), runs
one experiment, and writes CSV/JSON outputs plus a manifest capturing the
resolved config, seed, and a content hash.  Outputs are byte-stable: BLAS
threading is pinned to one thread before numpy loads, all randomness is
counter-seeded, and floats are serialized in shortest round-trip form.

Exit codes: 0 success, 2 config error (a config name no reader declares is
one: a command's block and its keys are declared in ``COMMANDS``, threshold
overrides in ``ScaleSchedule.THRESHOLDS``), 3 numeric failure, 4 hypothesis
failure (multiscale preconditions).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .cmv import VerblunskySequence, build_finite_cmv
from .cocycle import SpectralPoint, lyapunov_finite
from .coverage import interval_coverage_scan
from .determinants import relation_residual
from .green import green_value, poisson_residual
from .ldt import ldt_determinant_scan, ldt_measure_scan
from .multiscale import (ScaleSchedule, estimate_gamma, find_base_state,
                         inductive_advance, suggest_center, verify_conditions_ABCD)
from .spectral import DEFAULT_MAX_DIM, eigensolve, localization_profile, nearest_eigen
from .torus import Frequency, Phase, SamplingFunction
from . import presets
from .util import arc_span, as_integer, counter_rng, format_float

EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_HYPOTHESIS = 4
MAX_COUNT = 2 ** 20
MAX_SCAN_WINDOWS = 2 ** 16  # the center scan builds scan_grid^dim windows in one batch


class ConfigError(Exception):
    pass


class HypothesisFailure(Exception):
    pass


# --------------------------------------------------------------------------
# config handling


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def load_config(path: str, command: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if isinstance(data, dict) and "config" in data and "command" in data:    # manifest re-run
        if data["command"] != command:
            raise ConfigError(
                f"manifest was written by '{data['command']}', not '{command}'")
        data = data["config"]
    return data


def config_number(value, name: str, cast=float, low=None):
    """A finite config value converted by ``cast``, at least ``low`` if given.
    ``cast=int`` takes an int or an integral float (``util.as_integer``) within
    int64: a fraction, a bool, a string or a larger integer is a config error,
    not truncated."""
    try:
        out = as_integer(value, f"'{name}'") if cast is int else cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        kind = "an integer" if cast is int else "a number"
        raise ConfigError(f"'{name}' must be {kind}, got {value!r}") from exc
    if cast is int and not -2 ** 63 <= out < 2 ** 63:
        raise ConfigError(f"'{name}' must fit in a 64-bit integer, got {value!r}")
    if not np.isfinite(out):
        raise ConfigError(f"'{name}' must be finite, got {value!r}")
    if low is not None and out < low:
        raise ConfigError(f"'{name}' must be at least {low}, got {out}")
    return out


def config_half_width(value, name: str, low: int) -> int:
    """A window half-width N from ``low`` to 2047: 2N + 1 sites are within
    ``spectral.DEFAULT_MAX_DIM``, the size ``eigensolve`` refuses beyond."""
    n = config_number(value, name, int, low)
    if 2 * n + 1 > DEFAULT_MAX_DIM:
        raise ConfigError(f"'{name}' must be at most {(DEFAULT_MAX_DIM - 1) // 2}, got {n}")
    return n


def config_count(value, name: str, low: int) -> int:
    """A count from ``low`` to MAX_COUNT: each count sizes one axis of an
    array the run allocates (grid points, phase draws, transfer steps, cases),
    and a larger one is refused before that array is made."""
    n = config_number(value, name, int, low)
    if n > MAX_COUNT:
        raise ConfigError(f"'{name}' must be at most {MAX_COUNT}, got {n}")
    return n


def config_object(spec, names, where: str) -> dict:
    """``spec``, a config object whose keys are all among ``names``.  Anything
    else, or any other key, is a config error that names it: a name no reader
    declares is refused, not dropped without a word."""
    if not isinstance(spec, dict):
        raise ConfigError(f"'{where}' must be an object, got {spec!r}")
    unknown = [k for k in spec if k not in names]
    if unknown:
        raise ConfigError(f"unknown name {', '.join(map(repr, unknown))} in {where}"
                          f" (known: {', '.join(names)})")
    return spec


def config_list(value, name: str) -> list:
    """A list-valued config value with at least one item; anything else is a
    config error."""
    if not isinstance(value, list):
        raise ConfigError(f"'{name}' must be a list, got {value!r}")
    if not value:
        raise ConfigError(f"'{name}' must not be empty")
    return value


def resolve_sampling(cfg: dict) -> SamplingFunction:
    spec = cfg.get("sampling")
    if isinstance(spec, dict) and "preset" in spec:
        name = spec["preset"]
        factory = {
            "zero": presets.zero_function,
            "constant": presets.constant_function,
            "single_mode": presets.single_mode,
            "two_mode": presets.two_mode,
            "strong_coupling": presets.strong_coupling,
            "localization": presets.localization_example,
        }.get(name)
        if factory is None:
            raise ConfigError(f"unknown sampling preset '{name}'")
        kwargs = {k: v for k, v in spec.items() if k != "preset"}
        try:
            return factory(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad arguments for preset '{name}': {exc}") from exc
    config_object(spec, ("dim", "coeffs", "h"), "sampling")
    try:
        return SamplingFunction.from_json(json.dumps(spec))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad sampling spec: {exc}") from exc


def resolve_frequency(cfg: dict, dim: int) -> Frequency:
    spec = cfg.get("frequency")
    preset = isinstance(spec, dict) and "preset" in spec
    config_object(spec, ("preset",) if preset else ("coords", "p", "q", "k_max"),
                  "frequency")
    if preset:
        name = spec["preset"]
        factory = {"golden": presets.golden_frequency,
                   "sqrt": presets.sqrt_frequency}.get(name)
        if factory is None:
            raise ConfigError(f"unknown frequency preset '{name}'")
        freq = factory()
    else:
        try:
            freq = Frequency.checked(spec["coords"], p=spec["p"], q=spec["q"],
                                     k_max=spec.get("k_max", 200))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad frequency spec: {exc}") from exc
    if freq.dim != dim:
        raise ConfigError(f"frequency dim {freq.dim} != sampling dim {dim}")
    return freq


def resolve_boundary(cfg: dict):
    spec = config_object(cfg.get("boundary", {}), ("beta", "eta"), "boundary")

    def unit(v, name):
        if not isinstance(v, list):
            c = config_number(v, name, complex)
        elif len(v) == 2:
            c = complex(*(config_number(u, name) for u in v))
        else:
            raise ConfigError(f"'{name}' must be [re, im] or a number, got {v!r}")
        if abs(abs(c) - 1.0) > 1e-12:
            raise ConfigError(f"|{name}| must be 1")
        return c
    beta = unit(spec.get("beta", [1.0, 0.0]), "boundary.beta")
    eta = unit(spec.get("eta", [1.0, 0.0]), "boundary.eta")
    return beta, eta


def write_manifest(outdir: Path, command: str, cfg: dict, seed: int) -> None:
    body = {"command": command, "config": cfg, "seed": seed}
    body["content_hash"] = hashlib.sha256(_canonical(body).encode()).hexdigest()
    write_json(outdir / "manifest.json", body)


def write_json(path: Path, obj) -> None:
    path.write_text(_canonical(obj) + "\n", encoding="utf-8")


def write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(format_float(v) if isinstance(v, float) else str(v)
                              for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# --------------------------------------------------------------------------
# commands


def cmd_lyapunov(block: dict, f, freq, outdir: Path, seed: int) -> int:
    grid = config_count(block.get("theta_grid", 16), "theta_grid", 1)
    thetas = block.get("thetas")
    if thetas is None:
        thetas = [2 * np.pi * g / grid for g in range(grid)]
    scales = [config_count(n, "scales", 1) for n in
              config_list(block.get("scales", [100]), "scales")]
    samples = config_count(block.get("samples", 100), "samples", 1)
    points = [SpectralPoint(config_number(theta, "thetas"))
              for theta in config_list(thetas, "thetas")]
    if block.get("thetas") is not None and "theta_grid" in block:
        raise ConfigError("'thetas' and 'theta_grid' are both given; give one")
    # one draw of phases, one pass over every point and scale
    by_scale = lyapunov_finite(f, freq, points, scales, samples, seed)
    rows = []
    for k, z in enumerate(points):
        for n, ests in zip(scales, by_scale):
            rows.append((float(z.theta), n, float(ests[k].value),
                         float(ests[k].std_error), ests[k].method))
    write_csv(outdir / "lyapunov.csv", "theta,n,L_n,std_error,method", rows)
    return 0


def cmd_spectrum_scan(block: dict, f, freq, outdir: Path, seed: int, beta, eta) -> int:
    arc = block.get("arc", [0.0, 2 * np.pi])
    if not isinstance(arc, list) or len(arc) != 2:
        raise ConfigError("'arc' must be [theta1, theta2]")
    lo, hi = (config_number(v, "arc") for v in arc)
    try:
        arc_span(lo, hi)
    except ValueError as exc:
        raise ConfigError(f"'arc' {exc}") from exc
    tol = config_number(block.get("tol", 0.02), "tol")
    if not tol > 0:
        raise ConfigError(f"'tol' must be finite and positive, got {tol}")
    scan = interval_coverage_scan(
        f, freq, (lo, hi),
        grid=config_count(block.get("grid", 360), "grid", 2),
        window=config_half_width(block.get("window", 100), "window", 0),
        tol=tol,
        phase_samples=config_count(block.get("phase_samples", 8), "phase_samples", 1),
        seed=seed, beta=beta, eta=eta)
    d = f.dim
    header = "theta,covered,best_dist," + ",".join(f"phase_x{i}" for i in range(d)) \
        + ",edge_value"
    rows = [(p.theta, int(p.covered), p.best_dist, *[float(v) for v in p.phase],
             p.edge_value) for p in scan.points]
    write_csv(outdir / "coverage.csv", header, rows)
    summary = {
        "covered_fraction": scan.covered_fraction,
        "covered_arcs": [[float(a), float(b)] for a, b in scan.covered_arcs],
        "window": scan.window,
        "tol": scan.tol,
    }
    write_json(outdir / "arc_summary.json", summary)
    return 0


def cmd_ldt(block: dict, f, freq, outdir: Path, seed: int, beta, eta) -> int:
    z = SpectralPoint(config_number(block.get("theta", 0.0), "theta"))
    n_list = [config_count(v, "n_list", 1)
              for v in config_list(block.get("n_list", [50, 100, 200]), "n_list")]
    tau = config_number(block.get("tau", 0.3), "tau")
    samples = config_count(block.get("samples", 500), "samples", 1)
    determinant = block.get("determinant", False)
    if not isinstance(determinant, bool):
        raise ConfigError(f"'determinant' must be true or false, got {determinant!r}")
    measure = ldt_measure_scan(f, freq, z, n_list, tau, samples, seed)
    scans = {"ldt_matrix.csv": measure}
    if determinant:
        scans["ldt_determinant.csv"] = ldt_determinant_scan(
            f, freq, z, n_list, tau, samples, seed, beta=beta, eta=eta, measure=measure)
    for name, scan in scans.items():
        write_csv(outdir / name, "n,estimate,wilson_lo,wilson_hi,L_n",
                  [(e.n, float(e.estimate), float(e.interval.lo), float(e.interval.hi),
                    float(scan.l_values[e.n])) for e in scan.estimates])
    return 0


def _overrides(block: dict, where: str) -> dict:
    """The block's threshold overrides: declared names, each read as a number."""
    overrides = config_object(block.get("overrides", {}), ScaleSchedule.THRESHOLDS,
                              f"{where}.overrides")
    return {k: config_number(v, f"overrides.{k}") for k, v in overrides.items()}


def _center_and_state(block: dict, f, freq, beta, eta, schedule: ScaleSchedule,
                      seed: int, gamma_samples: int, probe=None):
    """(center, gamma, depth-0 state) for the block's theta: the center
    ``suggest_center`` picks near theta, the block's gamma or else
    ``estimate_gamma`` at the center over gamma_samples draws, and
    ``find_base_state`` around the center.  A configured gamma must be
    positive, with no gamma_samples (a config error otherwise); an estimate
    that is not positive, or a failed search, is a hypothesis failure."""
    near_theta = config_number(block.get("theta", 2.5), "theta")
    scan_grid = config_count(block.get("scan_grid", 16), "scan_grid", 1)
    if scan_grid ** f.dim > MAX_SCAN_WINDOWS:
        raise ConfigError(f"'scan_grid' ^ dim must be at most {MAX_SCAN_WINDOWS}, "
                          f"got {scan_grid}^{f.dim}")
    gamma = block.get("gamma")
    if gamma is not None:
        gamma = config_number(gamma, "gamma")
        if not gamma > 0:       # exp(-gamma |s|) >= 1 would pass every decay check
            raise ConfigError(f"'gamma' must be positive, got {gamma}")
    if gamma is not None and "gamma_samples" in block:
        raise ConfigError("'gamma' and 'gamma_samples' are both given; give one")
    n0 = schedule.n0
    try:
        z, x_hint = suggest_center(f, freq, near_theta, n0, schedule,
                                   scan_grid=scan_grid, beta=beta, eta=eta,
                                   probe_halfwidth=probe)
        if gamma is None:
            gamma = estimate_gamma(f, freq, z, n0, gamma_samples, seed)
            if not gamma > 0:
                raise HypothesisFailure(f"estimated gamma {gamma:.4g} is not positive, "
                                        "so every decay check would pass")
        state = find_base_state(f, freq, z, n0, schedule, gamma,
                                beta=beta, eta=eta, x_hint=x_hint)
    except RuntimeError as exc:
        raise HypothesisFailure(str(exc)) from exc
    return z, gamma, state


def cmd_localize(block: dict, f, freq, outdir: Path, seed: int, beta, eta) -> int:
    n0 = config_half_width(block.get("n0", 16), "n0", 1)
    schedule = ScaleSchedule(n0=n0, s_max=0, overrides=_overrides(block, "localize"))
    gamma_samples = config_count(block.get("gamma_samples", 100), "gamma_samples", 1)
    z, gamma, state = _center_and_state(block, f, freq, beta, eta, schedule, seed,
                                        gamma_samples)
    x = state.base_x
    seq = VerblunskySequence(f, freq, x)
    lo, hi = state.window_interval()
    pairs = eigensolve(build_finite_cmv(seq, lo, hi, beta=beta, eta=eta))
    pair, dist = nearest_eigen(pairs, z.z)
    profile = localization_profile(pair.vector, (lo, hi), n0, gamma)
    rows = [(int(s), float(v)) for s, v in zip(profile.sites, profile.log_abs)]
    write_csv(outdir / "profile.csv", "s,log_abs_u", rows)
    write_csv(outdir / "eigen.csv", "k,theta_k,residual",
              [(p.index, float(p.theta), float(p.residual)) for p in pairs])
    verdict = {
        "theta_center": z.theta,
        "gamma": gamma,
        "eigenvalue_distance": dist,
        "center": profile.center,
        "fitted_rate": profile.fitted_rate,
        "passes": profile.passes,
        "base_phase": [float(v) for v in x.coords],
    }
    write_json(outdir / "localize.json", verdict)
    return 0


def cmd_multiscale(block: dict, f, freq, outdir: Path, seed: int, beta, eta) -> int:
    n0 = config_half_width(block.get("n0", 16), "n0", 1)
    depth = config_number(block.get("depth", 0), "depth", int)
    if depth not in (0, 1):
        raise ConfigError(f"'depth' {depth} is outside the supported range 0-1")
    samples = config_count(block.get("samples", 40), "samples", 1)
    names = ("nu_prime", "c0", "c1", "c2", "nu", "growth")
    sched_cfg = config_object(block.get("schedule", {}), names + ("overrides",),
                              "multiscale.schedule")
    fields = {k: config_number(sched_cfg[k], k) for k in names
              if sched_cfg.get(k) is not None}
    overrides = _overrides(sched_cfg, "multiscale.schedule")
    try:
        schedule = ScaleSchedule(n0=n0, overrides=overrides, **fields)
        probe = schedule.scale(1) + n0 if depth == 1 else None
    except ValueError as exc:
        raise ConfigError(f"bad schedule: {exc}") from exc
    z, gamma, state = _center_and_state(block, f, freq, beta, eta, schedule, seed,
                                        100, probe)
    report = verify_conditions_ABCD(state, schedule, f, freq, samples=samples,
                                    seed=seed, beta=beta, eta=eta)
    out = {
        "theta_center": z.theta,
        "depth0": {
            "A": [str(c) for c in report.a_checks],
            "B": [str(c) for c in report.b_checks],
            "C": [str(c) for c in report.c_checks],
            "D": [str(c) for c in report.d_checks],
            "all_ok": report.all_ok,
        },
        "gamma": gamma,
        "base_phase": [float(v) for v in state.base_x.coords],
    }
    if depth == 1:
        new_state, adv = inductive_advance(state, schedule, f, freq, seed=seed,
                                           beta=beta, eta=eta)
        out["advance"] = {
            "ok": adv.ok,
            "window": list(adv.window) if adv.window else None,
            "failures": adv.failures(),
            "checks": [str(c) for c in adv.checks],
        }
    write_json(outdir / "multiscale.json", out)
    return 0


def cmd_identity_suite(block: dict, f, freq, outdir: Path, seed: int) -> int:
    cases = config_count(block.get("cases", 25), "cases", 1)
    threshold = config_number(block.get("threshold", 1e-8), "threshold")

    def draw(*stream):
        """A counter-seeded generator, and the sequence at the phase it draws first."""
        rng = counter_rng(seed, *stream)
        return rng, VerblunskySequence(f, freq, Phase(tuple(rng.random(f.dim))))

    # each residual draws its sizes from rng after the phase; None marks a
    # draw where the identity is undefined
    def window(rng, seq):
        n = int(rng.integers(4, 40))
        beta = complex(np.exp(2j * np.pi * rng.random()))
        eta = complex(np.exp(2j * np.pi * rng.random()))
        return build_finite_cmv(seq, 0, n - 1, beta=beta, eta=eta)

    def unitarity(rng, seq):
        E = window(rng, seq).dense()
        return np.max(np.abs(E.conj().T @ E - np.eye(len(E))))

    def factorization(rng, seq):
        m = window(rng, seq)
        return np.max(np.abs(m.dense() - m.l_dense() @ m.m_dense()))

    def determinant_transfer(rng, seq):
        n = int(rng.integers(2, 16))
        z = SpectralPoint(float(2 * np.pi * rng.random()))
        try:
            return relation_residual(f, freq, z, seq.base, n)
        except ValueError:          # alpha_{-1} ~ 0
            return None

    def green_ratio(rng, seq):
        n = int(rng.integers(8, 40))
        z = complex(np.exp(1j * 2 * np.pi * rng.random()))
        j = int(rng.integers(0, n))
        k = int(rng.integers(j, n))
        gv = green_value(seq, 0, n - 1, j, k, z)
        if gv.singular or abs(gv.value) < 1e-12:
            return None
        return abs(gv.magnitude - abs(gv.value)) / abs(gv.value)

    def poisson(rng, seq):
        big_n = 30 + int(rng.integers(0, 8))
        pairs = eigensolve(build_finite_cmv(seq, 0, big_n))
        pair = pairs[int(rng.integers(0, len(pairs)))]
        a = 3 + int(rng.integers(0, 2))
        b = big_n - 3 - int(rng.integers(0, 2))
        m_site = int(rng.integers(a + 1, b))
        return poisson_residual(seq, a, b, pair.value, pair.vector, (0, big_n), m_site)

    identities = (("unitarity", 1, unitarity, 1e-12),
                  ("factorization", 1, factorization, 1e-13),
                  ("determinant_transfer", 2, determinant_transfer, threshold),
                  ("green_ratio", 3, green_ratio, threshold),
                  ("poisson", 4, poisson, 1e-9))

    # representative Green-decay scan on one window
    rng, seq = draw(5)
    z = complex(np.exp(1j * 2 * np.pi * rng.random()))
    n_scan = 40
    decay_rows = []
    j0 = n_scan // 2
    for k in range(j0, n_scan):
        gv = green_value(seq, 0, n_scan - 1, j0, k, z)
        mag = gv.magnitude if not gv.singular else np.inf
        decay_rows.append((j0, k, float(np.log(max(mag, 1e-300)))))
    write_csv(outdir / "green_decay.csv", "j,k,log_abs_G", decay_rows)

    results = []
    for case, stream, residual, limit in identities:
        measured = (residual(*draw(stream, c)) for c in range(cases))
        worst = max([0.0] + [float(r) for r in measured if r is not None])
        results.append({"case": case, "residual": worst, "threshold": limit})
    write_json(outdir / "identity_suite.json", {"results": results})
    bad = [r for r in results if r["residual"] > r["threshold"]]
    for r in results:
        print(f"{r['case']}: max residual {r['residual']:.3e} "
              f"(threshold {r['threshold']:.1e})")
    if bad:
        raise RuntimeError("identity residual exceeded threshold: "
                           + ", ".join(r["case"] for r in bad))
    return 0


class Command(NamedTuple):
    """A subcommand's runner, its config block and the keys the runner reads
    there, whether it reads ``boundary``, and whether the block may be absent."""
    run: Callable
    block: str
    keys: tuple
    boundary: bool = True
    optional: bool = False


COMMANDS = {
    "lyapunov": Command(cmd_lyapunov, "lyapunov",
                        ("thetas", "theta_grid", "scales", "samples"), boundary=False),
    "spectrum-scan": Command(cmd_spectrum_scan, "spectrum",
                             ("arc", "tol", "grid", "window", "phase_samples")),
    "ldt": Command(cmd_ldt, "ldt", ("theta", "n_list", "tau", "samples", "determinant")),
    "localize": Command(cmd_localize, "localize", ("theta", "scan_grid", "gamma", "n0",
                                                   "gamma_samples", "overrides")),
    "multiscale": Command(cmd_multiscale, "multiscale", ("theta", "scan_grid", "gamma", "n0",
                                                         "depth", "samples", "schedule")),
    "identity-suite": Command(cmd_identity_suite, "identity", ("cases", "threshold"),
                              boundary=False, optional=True),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cmvspec",
        description="Quasi-periodic CMV spectral experiments")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config or manifest")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="overrides the config seed")
    parser.add_argument("--workers", type=int, default=None,
                        help="accepted and ignored; every run is serial")
    args = parser.parse_args(argv)

    try:
        command = COMMANDS[args.command]
        cfg = load_config(args.config, args.command)
        # one config may serve several commands, so any command's block is known
        config_object(cfg, ("sampling", "frequency", "seed", "boundary")
                      + tuple(c.block for c in COMMANDS.values()), "config")
        seed = args.seed if args.seed is not None else \
            config_number(cfg.get("seed", 0), "seed", int)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        block = config_object(cfg.get(command.block, {} if command.optional else None),
                              command.keys, command.block)
        f = resolve_sampling(cfg)
        freq = resolve_frequency(cfg, f.dim)
        boundary = resolve_boundary(cfg) if command.boundary else ()
        rc = command.run(block, f, freq, outdir, seed, *boundary)
        write_manifest(outdir, args.command, cfg, seed)
        return rc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HypothesisFailure as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
