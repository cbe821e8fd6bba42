"""One depth of the inductive scheme, end to end, with honest verdicts.

Constructs a depth-0 state (conditions (A)-(D) checked at desk-scale
thresholds), assembles the next window from per-site good subwindows, and
continues the eigenvalue-tracking map, reporting each contraction
inequality as (required, measured, ok).  At these window sizes the
asymptotic eigenvector-contraction bounds typically fail, and the run
prints exactly which inequality broke -- that is the intended behavior of
the harness, not an error.  Runtime is about 3 s (one BLAS thread, 2-vCPU
VM).
"""

from cmvspec.multiscale import (ScaleSchedule, estimate_gamma, find_base_state,
                                inductive_advance, suggest_center,
                                verify_conditions_ABCD)
from cmvspec.presets import localization_example, sqrt_frequency

f = localization_example()
freq = sqrt_frequency()

schedule = ScaleSchedule(n0=16, s_max=1, growth=1.55, overrides={
    "separation": 1e-3, "good_dist": 1e-4, "box_radius": 1e-4,
    "arc_radius": 1e-4, "c_threshold": 5e-4, "upsilon_floor": 1e-4,
    "d_floor_log": -8.0, "solver_tol": 1e-9, "step_separation": 1e-4})
print(f"scales: N_0 = {schedule.scale(0)}, N_1 = {schedule.scale(1)} "
      f"(growth exponent {schedule.growth}; the asymptotic exponent would be "
      f"{schedule.a_hat:.0f})")

z0, x0 = suggest_center(f, freq, 2.5, 16, schedule, scan_grid=16,
                        probe_halfwidth=schedule.scale(1) + 16)
print(f"center chosen at theta = {z0.theta:.6f} (exactly attained, "
      "attainable one scale up)")

gamma = estimate_gamma(f, freq, z0, 16, samples=100, seed=0)
print(f"gamma = L_100 - 3 sigma over 100 phases = {gamma:.4f}")
state = find_base_state(f, freq, z0, 16, schedule, gamma, x_hint=x0)
print(f"depth-0 state: window [-16,16], {len(state.x_map)} solved grid nodes, "
      f"worst residual {max(state.residuals.values()):.1e}")

report = verify_conditions_ABCD(state, schedule, f, freq, samples=20, seed=1)
print("\nconditions at depth 0:")
for c in (*report.a_checks, *report.b_checks, *report.c_checks,
          *report.d_checks):
    print(f"  {c}")

new_state, adv = inductive_advance(state, schedule, f, freq, seed=0)
print(f"\nadvance to depth 1; window {adv.window}; "
      f"constructed: {new_state is not None}")
for c in adv.checks:
    print(f"  {c}")
if adv.localization is not None:
    print("  eigenpair-tracking conclusions:")
    for c in adv.localization.conclusion_checks:
        print(f"    {c}")
print(f"\noverall: {'all inequalities hold' if adv.ok else 'named failures above'}")
