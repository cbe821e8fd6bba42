"""Benchmark of the cmvspec command line: end-to-end times and traced layers.

    python3 bench/run.py --workload {advance,scan,mc} --seed N --seconds S --trace {0,1}

Run from the repository root.  The workload runs in a fresh interpreter
(bench/worker.py) with BLAS pinned to one thread; the seed reaches the
program only as ``--seed``.  Outputs are checked here, outside the timed
region, against independent computations (bench/checks.py).  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics (the end-to-end set untraced, the per-layer set traced).  See
bench/README.md for the workloads and what each metric should move.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import BLAS_VARS, EXPECTED_NONZERO, WORKLOADS

for _var in BLAS_VARS:
    os.environ[_var] = "1"

import calibrate               # noqa: E402  (imports numpy after the pin)
from checks import CHECKS      # noqa: E402
from tracer import metric_units  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
SETUP_PROBES = 5          # fresh interpreters timed per run; the median is reported
WORKER_TIMEOUT_S = 150    # leaves the probes and checks inside the 180 s budget
PROBE = ("import sys, cmvspec.cli; sys.stdout.write('ready\\n'); "
         "sys.stdout.flush()")


def child_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def setup_seconds(env: dict) -> tuple[list[float], list[float]]:
    """Times from interpreter start until cmvspec.cli (numpy, scipy) is loaded,
    and the seconds per calibration unit of the bursts around them."""
    samples, bursts = [], [calibrate.burst()]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
            if proc.wait(timeout=30) != 0 or line != "ready\n":
                raise RuntimeError("set-up probe failed to import cmvspec.cli")
        bursts.append(calibrate.burst())
    return samples, bursts


def check_round(rnd: dict, steps, seed: int) -> tuple[int, list]:
    """(failed operations, wrong outputs) for one round of CLI invocations.

    An invocation fails if it exits non-zero or its output fails a check;
    a failed check also makes the run incorrect.
    """
    failed, wrong = 0, []
    for k, ((command, cfg), code) in enumerate(zip(steps, rnd["codes"])):
        if code != 0:
            failed += 1
            print(f"bench: {command} exited with {code}", file=sys.stderr)
            continue
        try:
            found = CHECKS[command](Path(rnd["dir"]) / f"step{k}", cfg, seed)
        except (OSError, LookupError, ValueError) as exc:
            found = [f"unreadable output: {exc!r}"]
        failed += bool(found)
        wrong += [f"{command}: {p}" for p in found]
    return failed, wrong


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "cmvspec" / "cli.py").is_file():
        print(f"bench: no cmvspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    steps = WORKLOADS[args.workload]
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = child_env()
    report_path = out / "report.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out), "--report", str(report_path)]
    try:
        # the worker's stdout goes to stderr: our last stdout line is the result
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"bench: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"bench: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    report = json.loads(report_path.read_text(encoding="utf-8"))
    setup_samples, setup_bursts = setup_seconds(env)
    # each time scaled by the host speed measured on either side of it
    setup_scaled = [t * calibrate.speed((setup_bursts[k] + setup_bursts[k + 1]) / 2)
                    for k, t in enumerate(setup_samples)]

    rounds = report["rounds"] + ([report["traced"]] if args.trace else [])
    failed, wrong = 0, []
    for rnd in rounds:
        f, w = check_round(rnd, steps, args.seed)
        failed, wrong = failed + f, wrong + w

    if args.trace:
        layers = report["layers"]
        zero = [k for k in EXPECTED_NONZERO[args.workload] if not layers[k]]
        if zero:
            wrong.append("traced counters read zero: " + ", ".join(zero))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in metric_units().items()}
    else:
        metrics = {
            "run_s": {"value": statistics.median(r["run_s"] * r["speed"] for r in rounds),
                      "unit": "s"},
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    for w in wrong:
        print(f"bench: wrong output: {w}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "round_wall_s": [r["run_s"] for r in rounds],
        "round_speed": [r.get("speed") for r in rounds],
        "setup_wall_s": setup_samples, "setup_burst_unit_s": setup_bursts,
        "round_samples": [r.get("samples") for r in rounds],
        "blas_env": report["blas_env"], "nproc": report["nproc"],
        "versions": report["versions"],
    }))
    print(json.dumps({"correct": not wrong, "attempted": len(steps) * len(rounds),
                      "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
