"""The advance's verdict: re-judging a real advance at its own gamma changes
no check, a different gamma re-judges exactly the four gamma-bounded checks,
``AdvanceReport.ok`` needs the localization step's conclusions, and a node
that fails shrinks the new domain and retries, up to an honest failure."""

from dataclasses import replace

import pytest

from cmvspec import multiscale
from cmvspec.cocycle import lyapunov_finite
from cmvspec.multiscale import (Check, ScaleSchedule, find_base_state, inductive_advance,
                                rethreshold_advance, suggest_center)
from cmvspec.presets import localization_example, sqrt_frequency

OVERRIDES = {
    "separation": 1e-3, "good_dist": 1e-4, "box_radius": 1e-4,
    "arc_radius": 1e-4, "c_threshold": 5e-4, "upsilon_floor": 1e-4,
    "d_floor_log": -8.0, "solver_tol": 1e-9, "step_separation": 1e-4,
}
GAMMA_BOUNDED = {"(1) eigenvalue tracking", "(4) eigenvector closeness",
                 "bulk-(1) phase-map contraction |x1 - x0|",
                 "bulk-(2) eigenvector contraction"}


@pytest.fixture(scope="module")
def advanced():
    f, freq = localization_example(), sqrt_frequency()
    schedule = ScaleSchedule(n0=10, growth=1.55, overrides=dict(OVERRIDES))
    z0, x0 = suggest_center(f, freq, 2.5, 10, schedule, scan_grid=16,
                            probe_halfwidth=schedule.scale(1) + 10)
    est = lyapunov_finite(f, freq, z0, 200, 100, seed=0)
    gamma = float(est.value - 3 * est.std_error)
    state = find_base_state(f, freq, z0, 10, schedule, gamma, x_hint=x0)
    new_state, report = inductive_advance(state, schedule, f, freq, seed=1)
    assert new_state is not None and report.localization is not None
    return state, report, (schedule, f, freq)


def _all_checks(report):
    return [*report.checks, *report.localization.conclusion_checks]


def test_rethreshold_at_the_state_gamma_changes_no_check(advanced):
    state, report, _ = advanced
    again = rethreshold_advance(report, state.gamma, state.n_scale)
    assert _all_checks(again) == _all_checks(report)
    assert again == report


def test_rethreshold_rejudges_exactly_the_gamma_bounded_checks(advanced):
    state, report, _ = advanced
    forced = rethreshold_advance(report, 50.0, state.n_scale)
    moved = {old.name for old, new in zip(_all_checks(report), _all_checks(forced))
             if new != old}
    assert moved == GAMMA_BOUNDED
    for old, new in zip(_all_checks(report), _all_checks(forced)):
        assert (new.name, new.measured) == (old.name, old.measured)
        if new.name in GAMMA_BOUNDED:
            assert new.required < old.required
            assert new.ok == (new.measured < new.required)


def _passing(checks):
    return [replace(c, ok=True) for c in checks]


def test_ok_needs_every_localization_conclusion(advanced):
    _, report, _ = advanced
    loc = report.localization
    passing = replace(report, checks=_passing(report.checks),
                      localization=replace(loc, conclusion_checks=_passing(
                          loc.conclusion_checks)))
    assert passing.ok
    concl = passing.localization.conclusion_checks
    for k in range(len(concl)):
        failing = [replace(c, ok=False) if j == k else c for j, c in enumerate(concl)]
        one_fails = replace(passing, localization=replace(
            passing.localization, conclusion_checks=failing))
        assert all(c.ok for c in one_fails.checks) and not one_fails.ok
        assert str(failing[k]) in one_fails.failures()


def _failing_planar_solver(monkeypatch, fails):
    """Patch the advance's map evaluator: (None, 0.5) where fails(theta)."""
    real = multiscale._planar_solver

    def patched(*args):
        solve = real(*args)
        return lambda phi, theta: (None, 0.5) if fails(theta) else solve(phi, theta)

    monkeypatch.setattr(multiscale, "_planar_solver", patched)


def test_a_failed_advance_node_shrinks_the_domain_and_retries(advanced, monkeypatch):
    state, report, (schedule, f, freq) = advanced
    center = state.z_center.theta
    # the first try's arc ends are 1e-4 from the center, the second's 1.25e-5
    _failing_planar_solver(monkeypatch, lambda theta: abs(theta - center) > 5e-5)
    new_state, retried = inductive_advance(state, schedule, f, freq, seed=1)
    assert new_state is not None and retried.window == report.window
    assert new_state.box_radius == OVERRIDES["box_radius"] * multiscale._SHRINK
    assert new_state.arc_radius == OVERRIDES["arc_radius"] * multiscale._SHRINK
    assert sorted(new_state.x_map) == sorted((ip, iz) for ip in range(3) for iz in range(3))
    assert [c.name for c in retried.checks] == [c.name for c in report.checks]


def test_an_advance_failing_every_try_names_the_node(advanced, monkeypatch):
    state, report, (schedule, f, freq) = advanced
    _failing_planar_solver(monkeypatch, lambda theta: True)
    new_state, failed = inductive_advance(state, schedule, f, freq, seed=1)
    assert new_state is None and not failed.ok
    assert failed.window == report.window and failed.localization is None
    assert failed.checks == [Check("continuation divergence at node (0, 0)",
                                   multiscale._NEAR_ROOT, 0.5, False)]


def test_a_parent_map_failure_is_named_before_the_advance_solves(advanced):
    state, report, (schedule, f, freq) = advanced
    broken = replace(state, solver=lambda phi, theta: (None, 2.0))
    new_state, failed = inductive_advance(broken, schedule, f, freq, seed=1)
    assert new_state is None and failed.window == report.window
    assert failed.checks == [Check("parent map divergence at node (0, 0)",
                                   multiscale._NEAR_ROOT, 2.0, False)]
