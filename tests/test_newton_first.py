"""The depth-(s+1) solve follows the parent's branch by Newton first.

``_planar_solver`` runs Gauss-Newton from the parent's root and hands the
node to ``_planar_solve``, from that same root, only when Newton stalls (the
distance not halved over three steps) or its gradient vanishes.  On the
positive-exponent d = 1 function Newton alone continues every node and the
advance verifies; on the bench advance config most nodes converge by Newton
and the verdict names the same failing inequalities as the planar search.
"""

import json

import numpy as np
import pytest
from scipy.special import jv

import cmvspec.multiscale as ms
from cmvspec import spectral
from cmvspec.cli import main
from cmvspec.cmv import VerblunskySequence, build_finite_cmv
from cmvspec.cocycle import SpectralPoint
from cmvspec.multiscale import InductiveState
from cmvspec.presets import localization_example, sqrt_frequency
from cmvspec.torus import Phase, SamplingFunction
from cmvspec.util import phase_of

OVERRIDES = {
    "separation": 1e-3, "good_dist": 1e-4, "box_radius": 1e-4,
    "arc_radius": 1e-4, "c_threshold": 5e-4, "upsilon_floor": 1e-4,
    "d_floor_log": -8.0, "solver_tol": 1e-9, "step_separation": 1e-4,
}
SCHEDULE = {"growth": 1.55, "overrides": OVERRIDES}


def _d1_paper():
    """alpha = r exp(i lam cos 2 pi x), r 0.9, lam 2, |k| <= 12: the function of
    the CI step "d = 1 multiscale in the positive-exponent regime"."""
    r, lam, K = 0.9, 2.0, 12
    return {"dim": 1, "coeffs": [{"k": [k], "re": (r * 1j ** k * jv(k, lam)).real,
                                  "im": (r * 1j ** k * jv(k, lam)).imag}
                                 for k in range(-K, K + 1)]}


CONFIGS = {
    "d1_paper": {"sampling": _d1_paper(), "frequency": {"preset": "golden"},
                 "multiscale": {"theta": 2.5, "n0": 10, "depth": 1, "scan_grid": 64,
                                "schedule": SCHEDULE}},
    "bench_advance": {"sampling": {"preset": "localization"},
                      "frequency": {"preset": "sqrt"},
                      "multiscale": {"theta": 2.5, "n0": 10, "depth": 1, "scan_grid": 16,
                                     "schedule": SCHEDULE}},
}


def _counted(monkeypatch, name: str) -> list:
    """Wrap ``ms.<name>``; the returned list grows by one entry per call."""
    calls, real = [], getattr(ms, name)
    monkeypatch.setattr(ms, name, lambda *args: calls.append(args) or real(*args))
    return calls


def _run(tmp_path, monkeypatch, case: str, seed: int = 1):
    """(advance record, Newton attempts, planar solves) of one CLI run."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIGS[case]))
    newton = _counted(monkeypatch, "_newton_root")
    planar = _counted(monkeypatch, "_planar_solve")
    out = tmp_path / "out"
    assert main(["multiscale", "--config", str(cfg), "--out", str(out),
                 "--seed", str(seed)]) == 0
    report = json.loads((out / "multiscale.json").read_text())
    assert report["depth0"]["all_ok"]
    return report["advance"], newton, planar


def _measured(checks: list, name: str) -> float:
    (line,) = [c for c in checks if name in c]
    return float(line.split("measured ")[1].split(" vs")[0])


def test_d1_positive_exponent_advance_verifies_by_newton_alone(tmp_path, monkeypatch):
    advance, newton, planar = _run(tmp_path, monkeypatch, "d1_paper")
    assert advance["ok"] and advance["failures"] == []
    assert advance["window"] == [-45, 45]
    assert _measured(advance["checks"], "bulk-(2)") < 1e-3
    assert len(newton) == 3 and planar == []


def test_bench_advance_plans_fewer_nodes_than_it_solves(tmp_path, monkeypatch):
    advance, newton, planar = _run(tmp_path, monkeypatch, "bench_advance")
    assert 0 < len(planar) < len(newton) == 9
    assert not advance["ok"]
    assert [f.split(":")[0] for f in advance["failures"]] == [
        "[FAIL] bulk-(2) eigenvector contraction", "[FAIL] (4) eigenvector closeness"]


# --------------------------------------------------------------------------
# a stalled Newton attempt hands the node to the planar search


X0 = (0.31, 0.62)


def _parent(theta: float) -> InductiveState:
    """A depth-0 state whose map returns the root X0 at every (phi, theta)."""
    zc = SpectralPoint.from_z(np.exp(1j * theta))
    return InductiveState(depth=0, n_scale=8, window=(8, 8), z_center=zc,
                          arc_radius=1e-4, phi_center=(X0[0],), box_radius=1e-4,
                          grid_phi=[(X0[0],)], grid_theta=[theta],
                          x_map={(0, 0): Phase(X0)}, residuals={(0, 0): 0.0},
                          gamma=0.1, solver=lambda phi, theta: (Phase(X0), 0.0))


@pytest.mark.parametrize("grad, queries", [((0.0, 0.0), 1), ((0.3, -0.2), 4)])
def test_a_flat_branch_goes_to_the_planar_search_from_the_parent_root(
        monkeypatch, grad, queries):
    theta = 2.5
    steps = []

    def flat(self, x, z):
        """A branch whose value never moves: a defect of 0.01 at every x."""
        steps.append(np.array(x))
        return np.exp(1j * (theta + 0.01)), np.array(grad)

    monkeypatch.setattr(ms.WindowFamily, "gradient", flat)
    found = (Phase((0.25, 0.5)), 3e-13)
    planar = []
    monkeypatch.setattr(ms, "_planar_solve", lambda *args: planar.append(args) or found)
    family = ms.WindowFamily(localization_example(), sqrt_frequency().array(), (-20, 20),
                             1.0 + 0j, 1.0 + 0j)
    assert ms._planar_solver(family, _parent(theta))((X0[0],), theta) is found
    assert len(steps) == queries <= 4
    assert np.array_equal(steps[0], X0)
    ((fam, th, x),) = planar
    assert fam is family and th == theta and np.array_equal(x, X0)


# --------------------------------------------------------------------------
# the gradient is formed only where a step follows


def test_a_lazy_gradient_is_the_gradient_and_none_forms_nothing():
    f, om = localization_example(), sqrt_frequency().array()
    m = build_finite_cmv(VerblunskySequence(f, om, Phase(X0)), -8, 8)
    dalpha = f.alpha_gradient(np.array(X0) + np.arange(-9, 9)[:, None] * om)
    value, grad = spectral.eigenphase_gradient(m, np.exp(2.5j), dalpha)
    seen = []
    lazy = spectral.eigenphase_gradient(m, np.exp(2.5j), lambda v: seen.append(v) or dalpha)
    assert seen == [value] and lazy[0] == value and np.array_equal(lazy[1], grad)
    assert spectral.eigenphase_gradient(m, np.exp(2.5j), lambda v: None) == (value, None)


def test_the_converged_step_forms_no_gradient(monkeypatch):
    f, om = localization_example(), sqrt_frequency().array()
    family = ms.WindowFamily(f, om, (-8, 8), 1.0 + 0j, 1.0 + 0j)
    theta0 = phase_of(family.nearest(np.array(X0), np.exp(2.5j))[0][0])
    queries, formed = [], []
    query, form = ms.WindowFamily.gradient, SamplingFunction.alpha_gradient
    monkeypatch.setattr(ms.WindowFamily, "gradient",
                        lambda *a: queries.append(1) or query(*a))
    monkeypatch.setattr(SamplingFunction, "alpha_gradient",
                        lambda *a: formed.append(1) or form(*a))
    x, dist = ms._gauss_newton_solve(family, theta0, np.array(X0) + [0.02, 0.03])
    assert x is not None and dist < ms._ROOT_TOL
    assert len(queries) > 1 and len(formed) == len(queries) - 1
