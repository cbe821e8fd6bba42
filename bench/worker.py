"""One benchmark run of one workload, in a fresh interpreter.

Started by ``bench/run.py``; not meant to be run by hand.  It pins BLAS to
one thread before numpy loads, imports ``cmvspec.cli`` and calls its
``main`` once per step of the workload, round after round, and writes a
JSON report for the driver to check.

Untraced (``--trace 0``): rounds repeat while another round is expected
to end within ``--seconds``, so a run makes at least one round.  Each
round runs under the calibration sampler (calibrate.py), which gives its
host speed; its time excludes the sampling.
Traced (``--trace 1``): one untraced round, then the tracer is installed
and one traced round runs; the difference of the two is the tracing
overhead.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import BLAS_VARS, WORKLOADS

for _var in BLAS_VARS:
    os.environ[_var] = "1"

import numpy as np        # noqa: E402  (after the BLAS pin)
import scipy              # noqa: E402
import calibrate          # noqa: E402
from cmvspec import cli   # noqa: E402


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_round(steps, seed: int, out: Path, calibrated: bool) -> dict:
    """Call cli.main once per step; time from the first call to the last return.

    With ``calibrated``, the calibration sampler runs during the round: its
    time is taken out of ``run_s`` and the round's host speed is recorded.
    """
    out.mkdir(parents=True)
    argvs = []
    for k, (command, cfg) in enumerate(steps):
        path = out / f"step{k}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        argvs.append([command, "--config", str(path), "--out", str(out / f"step{k}"),
                      "--seed", str(seed)])
    codes = []
    sampler = calibrate.Sampler()
    cpu0 = cpu_seconds()
    with sampler if calibrated else contextlib.nullcontext():
        t0 = time.perf_counter()
        for argv in argvs:
            try:
                codes.append(cli.main(argv))
            except Exception:                   # a crash is a failed operation
                traceback.print_exc()
                codes.append(None)
        wall_s = time.perf_counter() - t0
    rnd = {"dir": str(out), "run_s": wall_s - sampler.spent_s,
           "cpu_s": cpu_seconds() - cpu0, "codes": codes}
    if calibrated:
        rnd["speed"] = sampler.mean_speed()
        rnd["samples"] = len(sampler.speeds)
    return rnd


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--report", required=True)
    args = ap.parse_args()
    steps = WORKLOADS[args.workload]
    out = Path(args.out)

    rounds = []
    start = time.perf_counter()
    while not rounds or (not args.trace and time.perf_counter() - start
                         + rounds[-1]["run_s"] <= args.seconds):
        rounds.append(run_round(steps, args.seed, out / f"round{len(rounds)}",
                                calibrated=not args.trace))

    report = {
        "rounds": rounds,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": os.cpu_count(),
    }
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        traced = run_round(steps, args.seed, out / "traced", calibrated=False)
        grid = sum(cfg["spectrum"]["grid"] for c, cfg in steps if c == "spectrum-scan")
        pairs = sum(len(cfg["ldt"]["n_list"]) * cfg["ldt"]["samples"]
                    for c, cfg in steps if c == "ldt")
        layers = tracer.metrics(grid_points=grid, ldt_pairs=pairs)
        layers["process.cpu_s"] = rounds[0]["cpu_s"]
        layers["trace.overhead_s"] = traced["run_s"] - rounds[0]["run_s"]
        report["traced"] = traced
        report["layers"] = layers
    # ru_maxrss is in KiB on Linux
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.report).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
