"""Span tracing of ``cmvspec`` from outside the package.

``Tracer.install`` wraps every public module-level function of the package
(the ``cli`` entry point excepted), a few methods on their classes, and the
numpy/scipy kernels the package calls.  A name bound into another module
by ``from ... import`` is a separate reference, so each wrapper replaces
every binding of the original in every ``cmvspec`` namespace; otherwise
those call sites would bypass it and their counters would read zero.

Each call records one span (name, start, end, parent) in flat arrays kept
in memory until ``metrics`` derives the per-layer figures.  A span's self
time is its duration minus the durations of its direct children; spans
nest strictly because the program is single-threaded.
"""

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

PACKAGE = "cmvspec"
MODULES = ("torus", "cmv", "cocycle", "determinants", "green", "spectral",
           "ldt", "coverage", "multiscale", "presets", "util")

# Methods and kernels, named as the layer metrics name them.
METHODS = (
    ("torus.alpha", "cmvspec.torus", "SamplingFunction", "alpha"),
    ("torus.alpha_orbit", "cmvspec.torus", "SamplingFunction", "alpha_orbit"),
    ("cmv.FiniteCMV.dense", "cmvspec.cmv", "FiniteCMV", "dense"),
    ("cmv.FiniteCMV.zlstar_minus_m_banded", "cmvspec.cmv", "FiniteCMV",
     "zlstar_minus_m_banded"),
)
KERNELS = (
    ("linalg.eigvals", "numpy.linalg", "eigvals"),
    ("linalg.schur", "scipy.linalg", "schur"),
    ("linalg.solve_banded", "scipy.linalg", "solve_banded"),
    ("linalg.zgbtrf", "scipy.linalg.lapack", "zgbtrf"),
)

# Work counted from return values: span name -> (counter suffix, count(result)).
WORK = {
    "torus.alpha_orbit": ("sites", len),
    "cmv.build_finite_cmv": ("sites", lambda m: m.size),
    "spectral.eigensolve": ("sites", len),
    "spectral.eigenphases": ("sites", len),
    "cocycle.transfer_product": ("steps", lambda p: p.n),
    # an inverse-iteration return without a vector or with residual >= 1e-10
    "coverage.nearest_eigen_banded": (
        "unconverged", lambda r: int(r[1] is None or r[2] >= 1e-10)),
}

# Functions reported with .calls and .self_s (plus their WORK counter).
FUNCTIONS = (
    "torus.alpha", "torus.reduce_phase", "torus.alpha_orbit",
    "cmv.build_finite_cmv", "cmv.FiniteCMV.dense",
    "cmv.FiniteCMV.zlstar_minus_m_banded", "cmv.apply_cmv",
    "spectral.eigensolve", "spectral.eigenphases",
    "linalg.eigvals", "linalg.schur", "linalg.solve_banded", "linalg.zgbtrf",
    "coverage.nearest_eigen_banded", "cocycle.transfer_product",
    "determinants.char_det",
)
# Stages reported by inclusive time, as <name>.s.
STAGES = (
    "coverage.interval_coverage_scan", "cocycle.lyapunov_finite",
    "ldt.ldt_measure_scan", "ldt.ldt_determinant_scan",
    "multiscale.suggest_center", "multiscale.find_base_state",
    "multiscale.verify_conditions_ABCD", "multiscale.inductive_advance",
    "multiscale.finite_localization_step",
)
LDT_STAGES = ("ldt.ldt_measure_scan", "ldt.ldt_determinant_scan")


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in WORK:
            units[f"{name}.{WORK[name][0]}"] = "count"
    units["coverage.probes_per_point"] = "probes/point"
    units["cocycle.transfer_product.per_sample"] = "calls/pair"
    for name in STAGES:
        units[f"{name}.s"] = "s"
    units["process.cpu_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.work: dict[str, int] = {}
        self._stack = [-1]

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        count = WORK.get(name, (None, None))[1]
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack, work, clock = self._stack, self.work, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                stack.pop()
            if count is not None:
                work[name] = work.get(name, 0) + count(result)
            return result

        try:
            return functools.wraps(fn)(traced)
        except AttributeError:      # f2py kernels lack some attributes
            return traced

    def install(self) -> None:
        """Wrap the package in place; stays in force for the process."""
        modules = [importlib.import_module(f"{PACKAGE}.{m}")
                   for m in MODULES + ("cli",)]
        replaced = {}                     # id(original) -> (original, wrapper)
        for mod in modules[:-1]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapper = self._wrap(f"{short}.{attr}", obj)
                    replaced[id(obj)] = (obj, wrapper)
        for name, modname, cls, attr in METHODS:
            owner = getattr(importlib.import_module(modname), cls)
            setattr(owner, attr, self._wrap(name, getattr(owner, attr)))
        for name, modname, attr in KERNELS:
            owner = importlib.import_module(modname)
            obj = getattr(owner, attr)
            wrapper = self._wrap(name, obj)
            setattr(owner, attr, wrapper)
            replaced[id(obj)] = (obj, wrapper)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def metrics(self, grid_points: int, ldt_pairs: int) -> dict:
        """Per-layer figures from the recorded spans.

        grid_points and ldt_pairs are the denominators of
        coverage.probes_per_point and cocycle.transfer_product.per_sample
        (0 when the workload has no scan or no ldt step).
        """
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = (np.frombuffer(self.span_end, dtype=np.float64)
               - np.frombuffer(self.span_start, dtype=np.float64))
        k = len(self.names)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=dur - child_time, minlength=k)
        index = {n: i for i, n in enumerate(self.names)}

        out = {}
        for fn in FUNCTIONS:
            i = index[fn]
            out[f"{fn}.calls"] = int(calls[i])
            out[f"{fn}.self_s"] = float(self_s[i])
            if fn in WORK:
                out[f"{fn}.{WORK[fn][0]}"] = int(self.work.get(fn, 0))
        probes = out["coverage.nearest_eigen_banded.calls"]
        out["coverage.probes_per_point"] = probes / grid_points if grid_points else 0.0
        out["cocycle.transfer_product.per_sample"] = (
            self._calls_under("cocycle.transfer_product", LDT_STAGES, name, parent,
                              index) / ldt_pairs if ldt_pairs else 0.0)
        for stage in STAGES:
            out[f"{stage}.s"] = float(total[index[stage]])
        return out

    @staticmethod
    def _calls_under(target, ancestors, name, parent, index) -> int:
        """Spans of target that have a span of one of ancestors above them."""
        want = {index[a] for a in ancestors}
        hits = 0
        for idx in np.flatnonzero(name == index[target]):
            p = parent[idx]
            while p >= 0 and name[p] not in want:
                p = parent[p]
            hits += p >= 0
        return int(hits)
