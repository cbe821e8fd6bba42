"""Failure branches of the paper-inequality checks that the other tests do
not run; each test asserts the named failure, not just a False verdict."""

import numpy as np
import pytest

from cmvspec.cmv import VerblunskySequence
from cmvspec.cocycle import (AvalancheHypothesisError, SpectralPoint, avalanche_report,
                             check_ln_monotonicity)
from cmvspec.ldt import covering_form_check, union_covering_check
from cmvspec.presets import (constant_function, golden_frequency, sqrt_frequency,
                             strong_coupling)
from cmvspec.torus import Phase


@pytest.fixture(scope="module")
def seq():
    return VerblunskySequence(constant_function(0.5, dim=1), golden_frequency(),
                              Phase((0.3,)))


def test_covering_form_names_each_bad_site(seq):
    # site 0 has no window, site 2's window misses it, and site 1 is the
    # first site of a 110-site window with no L value for its length
    res = covering_form_check(seq, 120, SpectralPoint(0.0), {1: (1, 110), 2: (3, 5)},
                              tau=0.3, l_values={})
    failures = res.precondition_failures
    assert failures[:4] == [(0, "no subwindow"),
                            (1, "dist to complement 1 < |I|/100"),
                            (1, "no L value for length 110"),
                            (2, "window [3,5] not admissible")]
    assert failures[4:] == [(m, "no subwindow") for m in range(3, 120)]
    assert res.required == 1.0          # no site reached the log|phi| floor


def test_union_covering_names_each_failed_precondition(seq):
    # site 0 sits on the edge of a 121-site window, whose spectrum comes
    # within exp(-K) = 1 of z = -1 in the band; site 5 lies outside its
    # window; sites 121..289 are in no window
    windows = {0: (0, 120), 5: (10, 20), 300: (290, 310)}
    res = union_covering_check(seq, [-1.0 + 0j], windows, k_param=0.0, nu=0.5,
                               x0=seq.base, displacement_samples=2, seed=0)
    failures = res.precondition_failures
    assert failures[0] == (0, "dist to boundary 0 < |J|/100")
    assert failures[1][0] == 0 and failures[1][1].startswith("window spectrum ")
    assert failures[1][1].endswith("closer than exp(-K)=1.000e+00")
    assert failures[2] == (5, "site outside its window")
    assert failures[-1] == ("union", "windows do not form a contiguous interval")
    assert res.union_window == (0, 310) and res.required == 0.5
    # the assembled window's spectrum comes closer than exp(-K)/2 too
    assert min(res.sampled_dists) < res.required and not res.conclusion_ok


def test_monotonicity_records_the_violating_pair():
    # one sample has no standard error: L_8 above L_4 by 0.08 is a violation
    rep = check_ln_monotonicity(strong_coupling(), sqrt_frequency(), SpectralPoint(1.0),
                                [2, 4, 8], 1, seed=0)
    assert not rep.ok
    assert len(rep.violations) == 1
    m, n, excess = rep.violations[0]
    assert (m, n) == (4, 8)
    assert excess == rep.estimates[8].value - rep.estimates[4].value > 1e-9


def test_avalanche_error_names_the_pair_defect():
    # each factor has norm 10, their product norm 1: defect 2 log 10 at pair 0
    rep = avalanche_report([np.diag([10.0, 0.1]), np.diag([0.1, 10.0])])
    assert rep.hyp_norms_ok and not rep.hyp_pairs_ok
    err = AvalancheHypothesisError(rep, 7)
    assert str(err) == ("AP hypotheses violated at factor length 7: "
                        f"pair defect {2 * np.log(10.0):.4g} at pair 0 >= log(mu)/2")
