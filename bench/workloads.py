"""Workload definitions shared by the benchmark driver and its worker process.

A workload is a list of steps, each a ``cmvspec`` subcommand with its
config.  One CLI invocation is one operation; one pass over the steps is
one round.  Configs carry no seed: the workload seed reaches the program
only as ``--seed``.

This module imports nothing numerical, so the worker can read it before it
pins the BLAS thread count and loads numpy.
"""

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The schedule of acceptance criterion 11 (growth 1.55 and its threshold
# overrides) at base scale 10 instead of 16: the advance window is
# [-45, 45] and a round lasts tens of seconds instead of minutes.
ADVANCE_OVERRIDES = {
    "separation": 1e-3, "good_dist": 1e-4, "box_radius": 1e-4,
    "arc_radius": 1e-4, "c_threshold": 5e-4, "upsilon_floor": 1e-4,
    "d_floor_log": -8.0, "solver_tol": 1e-9, "step_separation": 1e-4,
}

ADVANCE = {
    "sampling": {"preset": "localization"},
    "frequency": {"preset": "sqrt"},
    "multiscale": {"theta": 2.5, "n0": 10, "depth": 1, "scan_grid": 16,
                   "schedule": {"growth": 1.55,
                                "overrides": ADVANCE_OVERRIDES}},
}

# The README coverage-scan configuration; the trace condition gives its
# exact answer.
SCAN = {
    "sampling": {"preset": "constant", "value": 0.5, "dim": 1},
    "frequency": {"preset": "golden"},
    "spectrum": {"arc": [0.0, 6.283185307179586], "grid": 720,
                 "window": 400, "tol": 0.0125, "phase_samples": 1},
}

LYAPUNOV = {
    "sampling": {"preset": "strong_coupling"},
    "frequency": {"preset": "sqrt"},
    "lyapunov": {"theta_grid": 16, "scales": [100, 400], "samples": 100},
}

LDT = {
    "sampling": {"preset": "strong_coupling"},
    "frequency": {"preset": "sqrt"},
    "ldt": {"theta": 1.0, "n_list": [50, 100, 200], "samples": 500,
            "determinant": True},
}

WORKLOADS = {
    "advance": [("multiscale", ADVANCE)],
    "scan": [("spectrum-scan", SCAN)],
    "mc": [("lyapunov", LYAPUNOV), ("ldt", LDT)],
}

# Counters the traced run must see above zero; a zero means a wrapper
# missed a binding or the workload stopped exercising its layer.
EXPECTED_NONZERO = {
    "advance": [
        "torus.alpha.calls", "torus.reduce_phase.calls",
        "cmv.build_finite_cmv.calls", "cmv.FiniteCMV.dense.calls",
        "spectral.eigensolve.calls", "spectral.eigenphases.calls",
        "linalg.eigvals.calls", "linalg.schur.calls",
        "cocycle.transfer_product.calls",
        "multiscale.suggest_center.s", "multiscale.find_base_state.s",
        "multiscale.verify_conditions_ABCD.s",
        "multiscale.inductive_advance.s",
        "multiscale.finite_localization_step.s",
    ],
    "scan": [
        "torus.alpha.calls", "torus.reduce_phase.calls",
        "cmv.build_finite_cmv.calls", "cmv.FiniteCMV.dense.calls",
        "cmv.FiniteCMV.zlstar_minus_m_banded.calls", "cmv.apply_cmv.calls",
        "linalg.eigvals.calls", "linalg.solve_banded.calls",
        "coverage.nearest_eigen_banded.calls", "coverage.probes_per_point",
        "coverage.interval_coverage_scan.s",
    ],
    "mc": [
        "torus.alpha.calls", "torus.alpha_orbit.calls",
        "cmv.build_finite_cmv.calls", "cocycle.transfer_product.calls",
        "cocycle.transfer_product.steps", "cocycle.transfer_product.per_sample",
        "cocycle.lyapunov_finite.s", "determinants.char_det.calls",
        "linalg.zgbtrf.calls", "ldt.ldt_measure_scan.s",
        "ldt.ldt_determinant_scan.s",
    ],
}
