"""Coverage refinement as one bracketed root search: ``coverage._refine``
probes the 16 phases x0 - 0.5 + k/16 once each, closes its grid with the
first probe, and refines the first sign change with ``multiscale._bracket_root``,
the one bracketed root search of the package."""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import cmvspec.coverage as cov
from cmvspec import multiscale
from cmvspec.cmv import VerblunskySequence, build_finite_cmv
from cmvspec.spectral import edge_value, eigenphases, eigensolve
from cmvspec.torus import Phase, reduce_phase
from cmvspec.util import phase_of, wrap_angle
from test_one_fourier_sum import _phase_modulated

SRC = Path(__file__).resolve().parents[1] / "src" / "cmvspec"


def _builder(f, omega, n, built=None):
    """The scan's ``build_at`` for the window [-n, n], recording each phase."""
    def build_at(coords):
        if built is not None:
            built.append(np.array(coords))
        return build_finite_cmv(VerblunskySequence(f, omega, reduce_phase(coords)), -n, n)
    return build_at


def _nearest(w, ref):
    """The eigenvalue of the spectrum w nearest ref."""
    return w[int(np.argmin(np.abs(w - ref)))]


def _refine_from_seed(build_at, z, x0):
    """``_refine`` from the window at x0 and its eigenvalue nearest z."""
    m0 = build_at(x0)
    lam0 = _nearest(eigenphases(m0), z)
    return cov._refine(build_at, z, x0, float(abs(lam0 - z)), m0, lam0)


def _mod1_gap(a, b):
    d = (a - b) % 1.0
    return min(d, 1.0 - d)


def test_the_grid_phases_are_probed_once_each(f_two_mode, freq2):
    rng = np.random.default_rng(11)
    for n in (10, 20):
        for _ in range(4):
            x0 = rng.random(2)
            z = np.exp(2j * np.pi * rng.random())
            built = []
            _refine_from_seed(_builder(f_two_mode, freq2, n, built), z, x0)
            built = built[1:]                       # the seed window
            grid = [x0[-1] - 0.5 + k / 16 for k in range(16)]
            assert all(_mod1_gap(c[-1], t) < 1e-12 for c, t in zip(built, grid))
            assert all(np.array_equal(c[:-1], x0[:-1]) for c in built)
            # no later probe is a grid phase again (mod 1)
            for t in grid:
                assert sum(_mod1_gap(c[-1], t) < 1e-12 for c in built) == 1


def test_a_genuine_crossing_is_refined_to_the_root(f_two_mode, freq2):
    # genuine: a dense scan of the first sign-change interval follows one
    # eigenvalue, the one nearest z at each step being nearest to the last
    rng = np.random.default_rng(5)
    checked = 0
    for n in (10, 20):
        build_at = _builder(f_two_mode, freq2, n)
        for _ in range(8):
            x0 = rng.random(2)
            z = np.exp(2j * np.pi * rng.random())
            theta = phase_of(z)

            def spectrum_at(t):
                coords = x0.copy()
                coords[-1] = t
                return eigenphases(build_at(coords))

            ts = x0[-1] + np.linspace(-0.5, 0.5, 17)
            lams = [_nearest(spectrum_at(t), z) for t in ts]
            signs = [np.sign(wrap_angle(phase_of(lam) - theta)) for lam in lams]
            i = next((i for i in range(16) if signs[i] != signs[i + 1]), None)
            if i is None:
                continue
            lam = lams[i]
            for t in np.linspace(ts[i], ts[i + 1], 200)[1:]:
                w = spectrum_at(t)
                if _nearest(w, z) != _nearest(w, lam):
                    break                           # a jump, not a crossing
                lam = _nearest(w, z)
            else:
                _, dist, _, _ = _refine_from_seed(build_at, z, x0)
                assert dist < 1e-9
                checked += 1
    assert checked >= 4


@pytest.mark.parametrize("regime", ["strong_coupling", "positive_exponent"])
def test_refined_scan_points_against_a_dense_oracle(regime, f_two_mode, freq2,
                                                    monkeypatch):
    f = f_two_mode if regime == "strong_coupling" else _phase_modulated(2, 0.85, 1.5, 8)
    window, tol = 20, 0.02
    calls = []
    refine = cov._refine

    def counted(*args):
        calls.append(1)
        return refine(*args)

    monkeypatch.setattr(cov, "_refine", counted)
    scan = cov.interval_coverage_scan(f, freq2, (0.0, 2 * np.pi), grid=60, window=window,
                                      tol=tol, phase_samples=3, seed=1)
    assert len(calls) >= 5
    for p in scan.points:
        z = np.exp(1j * p.theta)
        m = build_finite_cmv(VerblunskySequence(f, freq2, Phase(p.phase)), -window, window)
        pairs = eigensolve(m)
        dists = np.array([abs(q.value - z) for q in pairs])
        assert p.best_dist >= dists.min() - 1e-12
        if p.covered:
            assert any(d <= tol and edge_value(q.vector) <= np.sqrt(tol)
                       for d, q in zip(dists, pairs))


def test_one_bracketed_root_search():
    assert cov._bracket_root is multiscale._bracket_root
    assert "steps" not in inspect.signature(cov._refine).parameters
    assert not hasattr(cov, "_REFINE_STEPS")
    callers, defined = set(), []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                if node.name == "_bracket_root":
                    defined.append(path.name)
                if any(isinstance(c, ast.Call) and getattr(c.func, "id", None) == "_bracket_root"
                       for c in ast.walk(node)):
                    callers.add(node.name)
    assert defined == ["multiscale.py"]
    assert {"_solve_phase", "_planar_solve", "_refine"} <= callers
