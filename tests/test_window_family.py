"""``multiscale.WindowFamily``: the windows on one interval as a function of
the phase, and the module's one place that builds a window or reads a state.

Only its methods call the window and sequence builders and the spectral
queries; its one-window reads are those of the window built alone, and a row
of a batched read is the read of that row's window alone, bit for bit.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import cmvspec.multiscale as ms
from cmvspec.cmv import VerblunskySequence, build_finite_cmv
from cmvspec.presets import localization_example, sqrt_frequency
from cmvspec.spectral import nearest_eigenvalue, spectral_distance, tracked_eigenpair
from cmvspec.torus import Frequency, Phase, SamplingFunction, reduce_phase

from conftest import random_unit

MULTISCALE = Path(ms.__file__)
BUILDS_AND_READS = {"build_finite_cmv", "VerblunskySequence", "nearest_eigenvalue",
                    "nearest_eigenvalues", "tracked_eigenpair", "eigenphase_gradient",
                    "spectral_distance"}
GONE = {"_windows", "_nearest_value", "_tracked_pair"}
WINDOW = (-9, 11)
OVERRIDES = {"plain": None, "overrides": {-3: 1j, 4: -1.0}}


def _d1():      # the function and frequency of the CI d = 1 multiscale run
    f = SamplingFunction(1, {(1,): 0.45, (-1,): 0.45j})
    return f, np.array([(np.sqrt(5.0) - 1.0) / 2.0])


def _d2():
    return localization_example(), sqrt_frequency().array()


def _d3():      # the function and frequency of the CI d = 3 runs
    f = SamplingFunction(3, {(1, 0, 0): 0.3, (0, 1, 0): 0.3, (0, 0, 1): 0.3j})
    om = Frequency.checked([0.41421356237309515, 0.7320508075688772, 0.2360679774997898],
                           p=1e-3, q=4, k_max=80)
    return f, om.array()


FUNCTIONS = {"d1": _d1, "d2": _d2, "d3": _d3}


def _bits(values) -> list:
    return [np.asarray(v).tobytes() for v in values]


# --------------------------------------------------------------------------
# one place that builds and reads


def calls_by_scope(source: str) -> dict:
    """{scope: sorted (line, name)} of the calls to BUILDS_AND_READS, the scope
    being the top-level function, 'Class.method' for a method, or
    '<module>' for a top-level statement."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            scopes = [(f"{node.name}.{fn.name}", fn) for fn in node.body
                      if isinstance(fn, ast.FunctionDef)]
        else:
            scopes = [(getattr(node, "name", "<module>"), node)]
        for scope, body in scopes:
            hits = sorted((c.lineno, name) for c in ast.walk(body) if isinstance(c, ast.Call)
                          for name in [getattr(c.func, "attr", getattr(c.func, "id", None))]
                          if name in BUILDS_AND_READS)
            if hits:
                found.setdefault(scope, []).extend(hits)
    return found


def test_checker_finds_calls_by_scope():
    source = ("class WindowFamily:\n"
              "    def at(self, x):\n"
              "        return build_finite_cmv(VerblunskySequence(f, om, x), 0, 4)\n"
              "def solve(family):\n"
              "    def inner(m):\n"
              "        return spectral.tracked_eigenpair(m, 1)\n"
              "    return family.at(x)\n"
              "m = build_finite_cmv(seq, 0, 1)\n")
    assert calls_by_scope(source) == {
        "WindowFamily.at": [(3, "VerblunskySequence"), (3, "build_finite_cmv")],
        "solve": [(6, "tracked_eigenpair")], "<module>": [(8, "build_finite_cmv")]}


def test_only_window_family_methods_build_or_read_a_window():
    source = MULTISCALE.read_text(encoding="utf-8")
    found = calls_by_scope(source)
    assert {scope: hits for scope, hits in found.items()
            if not scope.startswith("WindowFamily.")} == {}
    assert {name for scope, hits in found.items() for _, name in hits} == \
        BUILDS_AND_READS - {"nearest_eigenvalue"}
    names = {n.id for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Name)}
    defined = {n.name for n in ast.parse(source).body if hasattr(n, "name")}
    assert not GONE & (names | defined)
    assert not any(hasattr(ms, name) for name in GONE)


# --------------------------------------------------------------------------
# the reads are those of the window alone


@pytest.mark.parametrize("overrides", sorted(OVERRIDES))
@pytest.mark.parametrize("case", sorted(FUNCTIONS))
def test_pair_is_the_tracked_eigenpair_of_the_window_alone(case, overrides):
    f, om = FUNCTIONS[case]()
    pinned = OVERRIDES[overrides]
    rng = np.random.default_rng(17)
    for _ in range(4):
        x = Phase(tuple(rng.random(f.dim)))
        z, beta, eta = random_unit(rng), random_unit(rng), random_unit(rng)
        family = ms.WindowFamily(f, om, WINDOW, beta, eta, pinned)
        alone = build_finite_cmv(VerblunskySequence(f, om, x, pinned), *WINDOW,
                                 beta=beta, eta=eta)
        assert _bits(family.pair(x, z)) == _bits(tracked_eigenpair(alone, z))
        assert family.distance(x, z) == spectral_distance(alone, z)


@pytest.mark.parametrize("overrides", sorted(OVERRIDES))
@pytest.mark.parametrize("case", sorted(FUNCTIONS))
def test_a_row_of_nearest_is_nearest_eigenvalue_of_the_window_alone(case, overrides):
    f, om = FUNCTIONS[case]()
    pinned = OVERRIDES[overrides]
    rng = np.random.default_rng(23)
    # more rows than one chunk of a batched query, some off [0, 1)
    points = rng.random((11, f.dim)) + rng.integers(-2, 3, (11, f.dim))
    z, beta, eta = random_unit(rng), random_unit(rng), random_unit(rng)
    rows = ms.WindowFamily(f, om, WINDOW, beta, eta, pinned).nearest(points, z)
    assert len(rows) == len(points)
    for point, (value, tie) in zip(points, rows):
        alone = build_finite_cmv(VerblunskySequence(f, om, reduce_phase(point), pinned),
                                 *WINDOW, beta=beta, eta=eta)
        want, want_tie = nearest_eigenvalue(alone, z)
        assert _bits([value]) == _bits([want]) and tie is want_tie
