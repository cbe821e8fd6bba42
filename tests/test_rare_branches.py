"""Branches that no run of the other tests reaches: the advance's honest
failures, the seam merge of covered arcs, and the determinants' singular,
overflowing and empty windows."""

import json

import numpy as np
import pytest

from cmvspec.cli import main
from cmvspec.cmv import VerblunskySequence, build_finite_cmv
from cmvspec.cocycle import SpectralPoint
from cmvspec.coverage import CoveragePoint, _covered_arcs
from cmvspec.determinants import CharDet, char_det, normalized_phi
from cmvspec.multiscale import ScaleSchedule, finite_localization_step
from cmvspec.presets import localization_example, sqrt_frequency
from cmvspec.torus import Phase
from cmvspec.util import TWO_PI

DESK_OVERRIDES = {
    "separation": 1e-3, "good_dist": 1e-4, "box_radius": 1e-4,
    "arc_radius": 1e-4, "c_threshold": 5e-4, "upsilon_floor": 1e-4,
    "d_floor_log": -8.0, "solver_tol": 1e-9, "step_separation": 1e-4,
}


def test_an_advance_no_subwindow_reaches_is_an_honest_failure(tmp_path):
    # a spectral margin of 3 exceeds any distance on the unit circle, so no
    # tweak of any subwindow reaches it: the advance reports each site and
    # stops, and the run still exits 0
    cfg = {"sampling": {"preset": "localization"}, "frequency": {"preset": "sqrt"},
           "multiscale": {"theta": 2.5, "n0": 10, "depth": 1, "scan_grid": 16,
                          "schedule": {"growth": 1.55, "overrides": {
                              **DESK_OVERRIDES, "good_dist": 3.0}}}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["multiscale", "--config", str(path), "--out", str(out),
                 "--seed", "1"]) == 0
    advance = json.loads((out / "multiscale.json").read_text())["advance"]
    assert advance["ok"] is False and advance["window"] is None
    assert advance["checks"] == []
    sites = list(range(16, 36)) + list(range(-35, -15))
    assert sorted(advance["failures"]) == sorted(
        f"subwindow {m}: no window tweak reaches margin 3.000e+00" for m in sites)


def test_discontiguous_subwindows_fail_the_localization_step():
    n0 = 8
    report = finite_localization_step(
        localization_example(), sqrt_frequency(), Phase((0.31, 0.64)),
        SpectralPoint(2.5), n0, {30: (22, 38)},
        ScaleSchedule(n0=n0, growth=1.55, overrides=DESK_OVERRIDES), gamma=0.5,
        x_samples=1)
    assert report.window is None and report.conclusion_checks == []
    last = report.hypothesis_checks[-1]
    assert last.name == "window assembly (window union is not contiguous: " \
        "gap before [22,38])"
    assert not last.ok and last in report.failures()
    assert not report.conclusions_ok


def _points(covered, span):
    n = len(covered)
    return [CoveragePoint(theta=span * i / n, covered=c, best_dist=0.0, phase=(0.0,),
                          edge_value=0.0) for i, c in enumerate(covered)]


def test_covered_arcs_merge_across_the_seam_of_a_full_circle():
    points = _points([True, True, False, False, True, False, True, True], TWO_PI)
    theta = [p.theta for p in points]
    assert _covered_arcs(points, TWO_PI) == [(theta[6], theta[1]), (theta[4], theta[4])]


def test_a_partial_arc_covered_at_both_ends_is_not_merged():
    points = _points([True, True, False, True], np.pi)
    theta = [p.theta for p in points]
    assert _covered_arcs(points, np.pi) == [(theta[0], theta[1]), (theta[3], theta[3])]


@pytest.fixture(scope="module")
def seq():
    return VerblunskySequence(localization_example(), sqrt_frequency(), Phase((0.31, 0.64)))


def test_a_singular_window_has_value_zero(seq):
    # a one-site window is the 1 x 1 matrix E; z - E vanishes at z = E
    z = complex(build_finite_cmv(seq, 0, 0).dense()[0, 0])
    det = char_det(seq, 0, 0, z)
    assert det.singular and det.log_abs == -np.inf
    assert det.value == 0j
    assert normalized_phi(seq, 0, 0, z) == 0j


def test_an_overflowing_determinant_is_infinite(seq):
    # |det(z - E)| is about |z|^n: 1000^120 is beyond exp(700)
    det = char_det(seq, 0, 119, 1e3)
    assert det.log_abs > 700.0 and not det.singular
    assert det.value == complex(np.inf)
    assert abs(normalized_phi(seq, 0, 119, 1e3)) == np.inf
    assert np.isfinite(char_det(seq, 0, 59, 1e3).value)


def test_an_empty_window_has_determinant_one(seq):
    det = char_det(seq, 5, 4, 0.3)
    assert det == CharDet(a=5, b=4, z=0.3, log_abs=0.0, phase=1.0 + 0j, singular=False)
    assert det.value == 1.0
