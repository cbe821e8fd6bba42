import numpy as np
import pytest

from cmvspec.cmv import VerblunskySequence, build_finite_cmv
from cmvspec.cocycle import SpectralPoint, lyapunov_finite
from cmvspec.multiscale import (ScaleSchedule, assemble_window,
                                find_base_state, finite_localization_step,
                                inductive_advance, rethreshold_advance,
                                suggest_center, verify_conditions_ABCD)
from cmvspec.spectral import eigensolve, nearest_eigen
from cmvspec.torus import Phase
from cmvspec.presets import localization_example
from cmvspec.multiscale import _bracket_root

DESK_OVERRIDES = {
    "separation": 1e-3, "good_dist": 1e-4, "box_radius": 1e-4,
    "arc_radius": 1e-4, "c_threshold": 5e-4, "upsilon_floor": 1e-4,
    "d_floor_log": -8.0, "solver_tol": 1e-9, "step_separation": 1e-4,
}


def desk_schedule(n0=16, s_max=1, growth=1.55):
    return ScaleSchedule(n0=n0, s_max=s_max, growth=growth,
                         overrides=dict(DESK_OVERRIDES))


@pytest.fixture(scope="module")
def f_loc():
    return localization_example()


@pytest.fixture(scope="module")
def depth0(f_loc, freq2):
    sched = desk_schedule()
    z0, x0 = suggest_center(f_loc, freq2, 2.5, 16, sched, scan_grid=16,
                            probe_halfwidth=sched.scale(1) + 16)
    est = lyapunov_finite(f_loc, freq2, z0, 200, 100, seed=0)
    gamma = float(est.value - 3 * est.std_error)
    state = find_base_state(f_loc, freq2, z0, 16, sched, gamma, x_hint=x0)
    return sched, z0, state


class TestScaleSchedule:
    def test_default_exponent_chain(self):
        s = ScaleSchedule(n0=16)
        ratios = s.validate_chain()
        assert all(r > 1.0 for r in ratios)
        assert s.delta_hat == pytest.approx(0.1 ** 3.5)
        assert s.beta_hat == pytest.approx(0.01)
        assert s.mu_hat == pytest.approx(0.1 ** 3.2)

    def test_rejects_bad_constants(self):
        with pytest.raises(ValueError):
            ScaleSchedule(n0=8, c0=3.0, c1=2.0, c2=3.5)   # violates C2 < C0
        with pytest.raises(ValueError):
            ScaleSchedule(n0=8, nu_prime=0.5, nu=0.1)     # nu' > nu

    def test_paper_growth_is_enormous(self):
        s = ScaleSchedule(n0=16, max_scale=4096)
        with pytest.raises(ValueError, match="max_scale"):
            s.scale(1)    # 16^(1/beta) = 16^100 overflows any desk budget

    def test_growth_override(self):
        s = ScaleSchedule(n0=16, growth=1.55)
        assert s.scale(0) == 16
        assert s.scale(1) == int(16 ** 1.55)

    def test_scales_strictly_increasing(self):
        s = ScaleSchedule(n0=12, s_max=3, growth=1.3, max_scale=10 ** 6)
        scales = [s.scale(k) for k in range(4)]
        assert scales == sorted(set(scales))

    def test_radius_formula(self):
        s = ScaleSchedule(n0=16)
        assert s.radius(0) == pytest.approx(np.exp(-16.0 ** s.delta_hat))

    def test_min_ratio_enforcement(self):
        s = ScaleSchedule(n0=16)
        with pytest.raises(ValueError):
            s.validate_chain(min_ratio=10.0)   # spec defaults separate by < 10


class TestAssembleWindow:
    def test_basic_union(self):
        win = assemble_window(16, {30: (14, 46), -30: (-46, -14),
                                   40: (24, 56), -40: (-56, -24)})
        assert win == (-56, 56)

    def test_gap_rejected(self):
        with pytest.raises(ValueError, match="contiguous"):
            assemble_window(4, {30: (24, 36)})


class TestBaseState:
    def test_center_is_exactly_attained(self, depth0, f_loc, freq2):
        sched, z0, state = depth0
        seq = VerblunskySequence(f_loc, freq2, state.base_x)
        pairs = eigensolve(build_finite_cmv(seq, -16, 16))
        _, dist = nearest_eigen(pairs, z0.z)
        assert dist < 1e-9

    def test_grid_residuals(self, depth0):
        _, _, state = depth0
        assert len(state.x_map) == 9
        assert max(state.residuals.values()) < 1e-9

    def test_solver_reusable(self, depth0):
        sched, z0, state = depth0
        phi = (state.phi_center[0] + state.box_radius / 3,)
        x, dist = state.solve_map(phi, z0.theta)
        assert x is not None and dist < 1e-9

    def test_edge_hypothesis_holds(self, depth0, f_loc, freq2):
        sched, z0, state = depth0
        seq = VerblunskySequence(f_loc, freq2, state.base_x)
        pairs = eigensolve(build_finite_cmv(seq, -16, 16))
        p, _ = nearest_eigen(pairs, z0.z)
        u = np.abs(p.vector)
        assert max(u[:4].max(), u[-4:].max()) < sched.proximity(16)

    def test_no_admissible_root_raises(self, depth0, f_loc, freq2):
        _, z0, state = depth0
        strict = desk_schedule()
        strict.overrides["proximity"] = 1e-30
        with pytest.raises(RuntimeError, match="state construction failed: "
                                               "no admissible root near seed"):
            find_base_state(f_loc, freq2, z0, 16, strict, state.gamma,
                            x_hint=state.base_x)


class TestConditions:
    def test_depth0_conditions(self, depth0, f_loc, freq2):
        sched, z0, state = depth0
        rep = verify_conditions_ABCD(state, sched, f_loc, freq2, samples=20,
                                     seed=1)
        assert rep.a_ok, [str(c) for c in rep.a_checks]
        assert rep.b_ok, [str(c) for c in rep.b_checks]
        assert rep.c_ok, [str(c) for c in rep.c_checks]
        assert rep.d_ok, [str(c) for c in rep.d_checks]
        assert rep.all_ok and not rep.failures()

    def test_bad_h_hat_rejected(self, depth0, f_loc, freq2):
        sched, z0, state = depth0
        with pytest.raises(ValueError, match="orbit-distance"):
            verify_conditions_ABCD(state, sched, f_loc, freq2, samples=4,
                                   seed=1, h_hat=np.zeros(2))

    def test_h0_must_be_unit(self, depth0, f_loc, freq2):
        sched, z0, state = depth0
        with pytest.raises(ValueError, match="unit"):
            verify_conditions_ABCD(state, sched, f_loc, freq2, samples=4,
                                   seed=1, h0=np.zeros(2))

    def test_deterministic(self, depth0, f_loc, freq2):
        sched, z0, state = depth0
        a = verify_conditions_ABCD(state, sched, f_loc, freq2, samples=8, seed=3)
        b = verify_conditions_ABCD(state, sched, f_loc, freq2, samples=8, seed=3)
        assert a.c_estimate.estimate == b.c_estimate.estimate
        assert a.d_estimate.estimate == b.d_estimate.estimate


def find_subwindows(seq, z0, n0, m_range, good):
    from cmvspec.spectral import eigenphases
    subwindows = {}
    for m in m_range:
        for n1 in range(-3, 4):
            for n2 in range(-3, 4):
                a, b = m - n0 + n1, m + n0 + n2
                w = eigenphases(build_finite_cmv(seq, a, b))
                if float(np.min(np.abs(w - z0.z))) >= good:
                    subwindows[m] = (a, b)
                    break
            if m in subwindows:
                break
    return subwindows


class TestLocalizationStep:
    def test_synthetic_compact_support(self, f_loc, freq2):
        # unimodular overrides at sites -8 and 8 cut those bonds, so the
        # middle block [-7, 8] decouples: its eigenvectors have exact
        # compact support in every containing window and all four
        # conclusions hold with machine margin
        x0 = Phase((0.31, 0.64))
        overrides = {-8: 1.0 + 0j, 8: 1.0 + 0j}
        seq = VerblunskySequence(f_loc, freq2, x0, overrides=overrides)
        pairs = eigensolve(build_finite_cmv(seq, -16, 16))
        sites = np.arange(-16, 17)
        block = [p for p in pairs
                 if np.max(np.abs(p.vector)[np.abs(sites) > 12]) < 1e-12]
        assert block
        from cmvspec.spectral import separation_gap
        p_best = max(block, key=lambda p: separation_gap(pairs, p.index))
        z0 = SpectralPoint.from_z(p_best.value)
        sched = desk_schedule()
        subwindows = find_subwindows(seq, z0, 16,
                                     [v for k in range(25, 41) for v in (k, -k)],
                                     sched.good_dist(16))
        assert len(subwindows) == 32
        rep = finite_localization_step(f_loc, freq2, x0, z0, 16, subwindows,
                                       sched, gamma=0.5, x_samples=2, seed=0,
                                       overrides=overrides)
        assert rep.hypotheses_ok, [str(c) for c in rep.failures()]
        assert rep.conclusions_ok, [str(c) for c in rep.failures()]
        by_name = {c.name[:3]: c for c in rep.conclusion_checks}
        assert by_name["(1)"].measured < 1e-10
        assert by_name["(3)"].measured < 1e-6
        assert by_name["(4)"].measured < 1e-8

    def test_strong_coupling_verdicts(self, depth0, f_loc, freq2):
        sched, z0, state = depth0
        n0 = 16
        x0 = state.base_x
        seq = VerblunskySequence(f_loc, freq2, x0)
        subwindows = find_subwindows(seq, z0, n0,
                                     [v for k in range(25, 41) for v in (k, -k)],
                                     sched.good_dist(n0))
        assert len(subwindows) == 32
        rep = finite_localization_step(f_loc, freq2, x0, z0, n0, subwindows,
                                       sched, state.gamma, x_samples=2, seed=0)
        assert rep.window is not None
        assert rep.hypotheses_ok, [str(c) for c in rep.failures()]
        # conclusions (1)-(3) hold on this example; (4) is allowed to fail
        # at desk scale and must then name itself precisely
        by_name = {c.name[:3]: c for c in rep.conclusion_checks}
        assert by_name["(1)"].ok
        assert by_name["(2)"].ok
        assert by_name["(3)"].ok

    def test_broken_hypothesis_reported(self, depth0, f_loc, freq2):
        sched, z0, state = depth0
        subwindows = {30: (30 - 16, 30 + 16), -30: (-46, -14)}
        # deliberately break geometry: a window far too short
        subwindows[35] = (34, 36)
        rep = finite_localization_step(f_loc, freq2, state.base_x, z0, 16,
                                       subwindows, sched, state.gamma,
                                       x_samples=1, seed=0)
        names = [c.name for c in rep.hypothesis_checks if not c.ok]
        assert any("J_35 boundary distance" in n for n in names)


@pytest.fixture(scope="module")
def advanced(depth0, f_loc, freq2):
    sched, z0, state = depth0
    new_state, report = inductive_advance(state, sched, f_loc, freq2, seed=0)
    return sched, state, new_state, report


class TestAdvance:
    def test_advance_completes_with_verdicts(self, advanced):
        sched, state, new_state, report = advanced
        assert report.window is not None
        assert not report.subwindow_failures
        # either full success or named failing inequalities
        if not report.ok:
            failures = report.failures()
            assert failures
            assert all(("bulk-(" in f) or ("(4)" in f) or ("(1)" in f)
                       or ("(2)" in f) or ("(3)" in f) or ("separation" in f)
                       for f in failures)

    def test_bulk1_contraction_passes(self, advanced):
        _, _, _, report = advanced
        bulk1 = [c for c in report.checks if c.name.startswith("bulk-(1)")]
        assert len(bulk1) == 1
        assert bulk1[0].ok

    def test_state_produced(self, advanced):
        sched, state, new_state, report = advanced
        assert new_state is not None
        assert new_state.depth == 1
        assert new_state.n_scale == sched.scale(1)
        lo, hi = new_state.window_interval()
        assert lo <= -int(1.5 * 16) and hi >= int(1.5 * 16)
        assert max(new_state.residuals.values()) < 1e-9

    def test_localization_conclusions_reported(self, advanced):
        _, _, _, report = advanced
        assert report.localization is not None
        assert report.localization.hypotheses_ok
        names = [c.name[:3] for c in report.localization.conclusion_checks]
        assert names == ["(1)", "(2)", "(3)", "(4)"]

    def test_forced_gamma_fails_at_bulk1(self, advanced):
        sched, state, new_state, report = advanced
        forced = rethreshold_advance(report, gamma=50.0, n0=state.n_scale)
        bulk1 = [c for c in forced.checks if c.name.startswith("bulk-(1)")]
        assert len(bulk1) == 1
        assert not bulk1[0].ok          # absurd gamma breaks the contraction
        assert bulk1[0].required < 1e-6
        assert not forced.ok

    def test_schedule_exhaustion_guard(self, depth0, f_loc, freq2):
        import dataclasses
        sched, z0, state = depth0
        state1 = dataclasses.replace(state, depth=sched.s_max)
        with pytest.raises(ValueError, match="s_max"):
            inductive_advance(state1, sched, f_loc, freq2)


def _circle_query(h, tie_at=None):
    """Synthetic bracket query: eigenvalue e^{i h(t)} (target arg 0), a tie
    wherever tie_at(t) holds; the queried points are recorded."""
    seen = []

    def query(t, ref):
        seen.append(t)
        return np.exp(1j * h(t)), bool(tie_at and tie_at(t)), t

    return query, seen


class TestBracketRoot:
    @pytest.mark.parametrize("h", [
        lambda t: 0.8 * (t - 0.37) + 0.5 * (t - 0.37) ** 3,
        lambda t: np.exp(t) - 1.5,
        lambda t: np.sin(3.0 * t) - 0.2,
        lambda t: 1e-3 * (t - 0.9),
    ])
    def test_smooth_crossing_reaches_tol(self, h):
        query, seen = _circle_query(h)
        dist, t, item = _bracket_root(query, 0.0, (0.0, np.exp(1j * h(0.0))),
                                      (1.0, np.exp(1j * h(1.0))))
        assert dist < 1e-12
        assert item == t and abs(h(t)) < 1e-12
        assert len(seen) <= 12

    def test_jump_stops_at_first_tie(self):
        # two branches with phases 0.3 - t > 0 and -0.2 - t < 0: the nearest
        # one jumps from the second to the first at t = 0.05 without a root
        def h(t):
            a, b = 0.3 - t, -0.2 - t
            return a if abs(a) < abs(b) else b

        ends = (0.0, np.exp(-0.2j)), (0.2, np.exp(0.1j))
        query, seen = _circle_query(h, tie_at=lambda t: abs(t - 0.05) < 1e-6)
        dist, t, _ = _bracket_root(query, 0.0, *ends)
        ties = [k for k, s in enumerate(seen) if abs(s - 0.05) < 1e-6]
        assert ties and len(seen) == ties[0] + 1 > 1
        assert dist > 0.09
        # without the tie the search spends every query on the jump
        query, seen = _circle_query(h)
        dist, t, _ = _bracket_root(query, 0.0, *ends)
        assert dist > 0.09 and len(seen) > 3 * ties[0]

    def test_failed_query_ends_search(self):
        calls = []

        def query(t, ref):
            calls.append(t)
            return None if len(calls) == 2 else (np.exp(1j * (t * t - 0.3)), False, t)

        dist, t, _ = _bracket_root(query, 0.0, (0.0, np.exp(-0.3j)),
                                   (1.0, np.exp(0.7j)))
        assert len(calls) == 2
        assert t == calls[0]
        assert dist == pytest.approx(abs(np.exp(1j * (t * t - 0.3)) - 1))

    def test_tracking_target_is_interpolated(self):
        refs = []

        def query(t, ref):
            refs.append((t, ref))
            return np.exp(1j * (t - 0.25)), False, t

        lo, hi = np.exp(-0.25j), np.exp(0.75j)
        _bracket_root(query, 0.0, (0.0, lo), (1.0, hi))
        t, ref = refs[0]
        assert ref == pytest.approx(lo + t * (hi - lo), abs=1e-15)


class TestSolvePhaseQueries:
    def test_refined_roots_need_few_queries(self, depth0, f_loc, freq2,
                                            monkeypatch):
        import cmvspec.multiscale as ms
        _, z0, state = depth0
        bracket = ms._bracket_root
        roots = []

        def counted(query, *args, **kwargs):
            n = [0]

            def q(t, ref):
                n[0] += 1
                return query(t, ref)

            out = bracket(q, *args, **kwargs)
            roots.append((n[0], out[0]))
            return out

        monkeypatch.setattr(ms, "_bracket_root", counted)
        x_init = np.array(state.base_x.coords) + np.array([0.0, 0.01])
        for dtheta in (0.003, -0.007, 0.02, -0.05, 0.1):
            z = np.exp(1j * (z0.theta + dtheta))
            x, dist = ms._solve_phase(f_loc, freq2.array(), (-16, 16), z, x_init,
                                      1.0 + 0j, 1.0 + 0j, span=0.15, coarse=31)
            assert x is not None and dist < 1e-12
        refined = [n for n, d in roots if d < 1e-12]
        assert len(refined) >= 5
        assert max(refined) <= 15
