"""Depth-0 paths the d = 2 bench config does not reach: a d = 1 multiscale
run end to end, and ``find_base_state``'s shrink-and-retry of a failed grid
continuation."""

import json
import re

import numpy as np
import pytest

from cmvspec import multiscale
from cmvspec.cli import EXIT_HYPOTHESIS, main
from cmvspec.cmv import VerblunskySequence, build_finite_cmv
from cmvspec.multiscale import ScaleSchedule, find_base_state, suggest_center
from cmvspec.presets import golden_frequency, localization_example, sqrt_frequency
from cmvspec.spectral import eigensolve
from cmvspec.torus import Phase, SamplingFunction

OVERRIDES = {
    "separation": 1e-3, "good_dist": 1e-4, "box_radius": 1e-4,
    "arc_radius": 1e-4, "c_threshold": 5e-4, "upsilon_floor": 1e-4,
    "d_floor_log": -8.0, "solver_tol": 1e-9, "step_separation": 1e-4,
}
SCHEDULE = {"growth": 1.55, "overrides": OVERRIDES}

D1 = {
    "sampling": {"dim": 1, "coeffs": [{"k": [1], "re": 0.45, "im": 0.0},
                                      {"k": [-1], "re": 0.0, "im": 0.45}]},
    "frequency": {"preset": "golden"},
    "multiscale": {"theta": 2.5, "n0": 10, "depth": 1, "scan_grid": 64,
                   "schedule": SCHEDULE},
}

D2 = {
    "sampling": {"preset": "localization"},
    "frequency": {"preset": "sqrt"},
    "multiscale": {"theta": 2.5, "n0": 10, "depth": 0, "scan_grid": 16, "samples": 6,
                   "schedule": SCHEDULE},
}

CHECK = re.compile(r"^\[(ok |FAIL)\] .+: measured \S+ vs \S+$")


def _write(tmp_path, cfg):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("seed", [1, 2])
def test_d1_multiscale_end_to_end(tmp_path, seed):
    out = tmp_path / "out"
    assert main(["multiscale", "--config", _write(tmp_path, D1), "--out", str(out),
                 "--seed", str(seed)]) == 0
    report = json.loads((out / "multiscale.json").read_text())
    depth0 = report["depth0"]
    assert depth0["all_ok"]
    lo, hi = report["advance"]["window"]
    assert lo < -10 and hi > 10
    checks = [*depth0["A"], *depth0["B"], *depth0["C"], *depth0["D"],
              *report["advance"]["checks"], *report["advance"]["failures"]]
    assert all(CHECK.match(c) for c in checks), checks
    assert all(c.startswith("[FAIL] ") for c in report["advance"]["failures"])
    # the depth-0 window at the base phase has e^{i theta_center} as an eigenvalue
    f = SamplingFunction(1, {(1,): 0.45, (-1,): 0.45j})
    seq = VerblunskySequence(f, golden_frequency(), Phase(tuple(report["base_phase"])))
    window = build_finite_cmv(seq, -10, 10)
    dist = min(abs(p.value - np.exp(1j * report["theta_center"]))
               for p in eigensolve(window))
    assert dist < OVERRIDES["solver_tol"]


@pytest.fixture(scope="module")
def center():
    f, freq = localization_example(), sqrt_frequency()
    schedule = ScaleSchedule(n0=10, growth=1.55, overrides=dict(OVERRIDES))
    z0, x0 = suggest_center(f, freq, 2.5, 10, schedule, scan_grid=16,
                            probe_halfwidth=schedule.scale(1) + 10)
    return f, freq, schedule, z0, x0


def _failing_line_solver(monkeypatch, fails):
    """Patch ``_line_solver`` so that attempt i's solver fails the nodes
    fails(i, phi, theta) selects; returns the list of attempts' states."""
    attempts = []
    line_solver = multiscale._line_solver

    def patched(family, state):
        solve = line_solver(family, state)
        attempt = len(attempts)
        attempts.append(state)

        def maybe_fail(phi, theta):
            return (None, 1.0) if fails(attempt, phi, theta) else solve(phi, theta)
        return maybe_fail

    monkeypatch.setattr(multiscale, "_line_solver", patched)
    return attempts


def test_a_failed_node_shrinks_the_grid_and_retries(center, monkeypatch):
    f, freq, schedule, z0, x0 = center
    failed = []

    def fails(attempt, phi, theta):
        if attempt == 0 and theta != z0.theta:       # a non-center node
            failed.append((phi, theta))
            return True
        return False

    attempts = _failing_line_solver(monkeypatch, fails)
    state = find_base_state(f, freq, z0, 10, schedule, 0.0, x_hint=x0)
    assert len(attempts) == 2 and len(failed) == 1
    box = schedule.threshold("box_radius", schedule.radius(0))
    arc = schedule.threshold("arc_radius", schedule.radius(0))
    assert attempts[0].box_radius == box and attempts[0].arc_radius == arc
    assert state is attempts[1]
    assert state.box_radius == box * multiscale._SHRINK
    assert state.arc_radius == arc * multiscale._SHRINK
    assert len(state.grid_phi) == len(state.grid_theta) == 3
    assert sorted(state.x_map) == sorted((ip, iz) for ip in range(3) for iz in range(3))
    assert all(isinstance(x, Phase) for x in state.x_map.values())


def test_every_attempt_failing_is_a_hypothesis_failure(center, monkeypatch, tmp_path,
                                                       capsys):
    f, freq, schedule, z0, x0 = center
    attempts = _failing_line_solver(monkeypatch, lambda *_: True)
    with pytest.raises(RuntimeError, match="grid continuation failed"):
        find_base_state(f, freq, z0, 10, schedule, 0.0, x_hint=x0)
    assert len(attempts) == multiscale._ATTEMPTS
    assert main(["multiscale", "--config", _write(tmp_path, D2),
                 "--out", str(tmp_path / "out")]) == EXIT_HYPOTHESIS
    assert "grid continuation failed" in capsys.readouterr().err
