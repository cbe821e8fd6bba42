"""The coverage scan refines only along a coordinate alpha depends on.

``_refine`` moves the last phase coordinate alone.  With no Fourier mode
along it every probe is its seed window, so the scan skips the refinement;
the oracle is the same scan made to refine through a view of ``coeffs``
that shows a zero mode along the last coordinate, while alpha evaluates
as before.
"""

import copy

import numpy as np
import pytest

from cmvspec import coverage as cov
from cmvspec.coverage import interval_coverage_scan
from cmvspec.presets import constant_function, golden_frequency, sqrt_frequency, \
    strong_coupling
from cmvspec.torus import SamplingFunction

FULL = (0.0, 2 * np.pi)
README = dict(arc=FULL, grid=720, window=400, tol=0.0125, seed=0)
SMALL = dict(arc=FULL, grid=90, window=20, tol=0.02, phase_samples=3, seed=1)
X1_ONLY = SamplingFunction(dim=2, coeffs={(1, 0): 0.45, (-1, 0): 0.3j})
X2_ONLY = SamplingFunction(dim=2, coeffs={(0, 1): 0.45, (0, -1): 0.3j})


def refining(f: SamplingFunction) -> SamplingFunction:
    """f, whose ``coeffs`` alone show a zero mode along the last coordinate."""
    g = copy.copy(f)
    g.coeffs = {**f.coeffs, (0,) * (f.dim - 1) + (1,): 0j}
    return g


def _count(monkeypatch, owner, name):
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _scan_counted(monkeypatch, f, omega, kwargs):
    with monkeypatch.context() as mp:
        refines = _count(mp, cov, "_refine")
        alphas = _count(mp, SamplingFunction, "alpha")
        scan = interval_coverage_scan(f, omega, **kwargs)
    return scan, len(refines), len(alphas)


CASES = [
    (constant_function(0.5, dim=1), golden_frequency(), {**README, "phase_samples": 1}),
    (constant_function(0.5, dim=1), golden_frequency(), {**README, "phase_samples": 2}),
    (X1_ONLY, sqrt_frequency(), SMALL),
]


@pytest.mark.parametrize("f,omega,kwargs", CASES,
                         ids=["readme-1-sample", "readme-2-samples", "x1-only-d2"])
def test_no_mode_along_the_last_coordinate_is_not_refined(monkeypatch, f, omega,
                                                          kwargs):
    scan, refines, alphas = _scan_counted(monkeypatch, f, omega, kwargs)
    forced, forced_refines, forced_alphas = _scan_counted(monkeypatch, refining(f),
                                                          omega, kwargs)
    assert refines == 0 and alphas == kwargs["phase_samples"]
    # the forced scan refines, and ends where the seed windows left it
    assert forced_refines > 0 and forced_alphas > alphas
    assert scan.points == forced.points
    assert scan.covered_arcs == forced.covered_arcs
    assert scan.covered_arcs


@pytest.mark.parametrize("f", [strong_coupling(), X2_ONLY],
                         ids=["strong_coupling", "x2-only-d2"])
def test_a_mode_along_the_last_coordinate_is_refined(monkeypatch, f):
    kwargs = {**SMALL, "grid": 12}
    scan, refines, alphas = _scan_counted(monkeypatch, f, sqrt_frequency(), kwargs)
    assert refines > 0 and alphas > kwargs["phase_samples"]
    # a refined phase is reported reduced into [0, 1), as a seed's is
    assert all(0.0 <= v < 1.0 for p in scan.points for v in p.phase)
