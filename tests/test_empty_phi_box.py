"""At d = 1 the phi box is empty: conditions (C) and (D) have one phase to
evaluate, and their Wilson intervals count it once, not ``samples`` times."""

from cmvspec.cocycle import lyapunov_finite
from cmvspec.multiscale import (ScaleSchedule, find_base_state, suggest_center,
                                verify_conditions_ABCD)
from cmvspec.presets import golden_frequency
from cmvspec.torus import SamplingFunction

OVERRIDES = {
    "separation": 1e-3, "good_dist": 1e-4, "box_radius": 1e-4,
    "arc_radius": 1e-4, "c_threshold": 5e-4, "upsilon_floor": 1e-4,
    "d_floor_log": -8.0, "solver_tol": 1e-9, "step_separation": 1e-4,
}


def test_d1_conditions_c_and_d_count_one_sample():
    # the CI d = 1 multiscale config at seed 1
    f = SamplingFunction(dim=1, coeffs={(1,): 0.45, (-1,): 0.45j})
    freq = golden_frequency()
    schedule = ScaleSchedule(n0=10, growth=1.55, overrides=OVERRIDES)
    z, x_hint = suggest_center(f, freq, 2.5, 10, schedule, scan_grid=64)
    est = lyapunov_finite(f, freq, z, 100, 100, 1)
    state = find_base_state(f, freq, z, 10, schedule, est.value - 3 * est.std_error,
                            x_hint=x_hint)
    assert state.phi_center == ()
    report = verify_conditions_ABCD(state, schedule, f, freq, samples=60, seed=1)
    assert report.c_estimate.samples == 1
    assert report.d_estimate.samples == 1
