"""One definition each: the scanned arc (``util.arc_span``, read by the CLI's
endpoint check, the scan's grid and its seam merge), the overflow of a
normalized determinant (``CharDet.value``), and a package that loads nothing
until a submodule is imported by name."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cmvspec.cli import main
from cmvspec.cmv import VerblunskySequence
from cmvspec.coverage import interval_coverage_scan
from cmvspec.determinants import normalized_phi
from cmvspec.presets import constant_function, golden_frequency
from cmvspec.torus import Phase
from cmvspec.util import TWO_PI, arc_span

SRC = Path(__file__).resolve().parents[1] / "src"
CONSTANT = {"sampling": {"preset": "constant", "value": 0.5, "dim": 1},
            "frequency": {"preset": "golden"}}


@pytest.mark.parametrize("theta1,theta2,span", [
    (0.0, TWO_PI, TWO_PI),
    (0.0, TWO_PI + 5e-13, TWO_PI),
    (0.0, 7.0, TWO_PI),
    (3.0, 3.0 - TWO_PI, TWO_PI),
    (0.0, 1.0, 1.0),
    (1.0, 0.0, TWO_PI - 1.0),
], ids=["circle", "circle-past", "past-2pi", "circle-backward", "arc", "arc-wrapped"])
def test_arc_span(theta1, theta2, span):
    assert arc_span(theta1, theta2) == span


def test_coincident_endpoints_are_refused_by_the_scan():
    # not read as the whole circle: that takes endpoints 2 pi apart
    with pytest.raises(ValueError, match="endpoints coincide"):
        interval_coverage_scan(constant_function(0.5), golden_frequency(), (1.0, 1.0),
                               grid=4, window=4, tol=0.02, phase_samples=1)


def _scan(tmp_path, name, arc):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps({**CONSTANT, "spectrum": {
        "arc": arc, "grid": 8, "window": 10, "tol": 0.02, "phase_samples": 1}}))
    out = tmp_path / name
    assert main(["spectrum-scan", "--config", str(cfg), "--out", str(out)]) == 0
    return [(out / f).read_text() for f in ("coverage.csv", "arc_summary.json")]


@pytest.mark.parametrize("hi", [TWO_PI + 5e-13, 7.0], ids=["circle-past", "past-2pi"])
def test_an_arc_past_2pi_scans_the_whole_circle(tmp_path, hi):
    # at least 2 pi - 1e-12 apart is the whole circle, for the CLI's check and
    # the scan alike: not a sliver of (hi - lo) mod 2 pi
    assert _scan(tmp_path, "past", [0.0, hi]) == _scan(tmp_path, "circle", [0.0, TWO_PI])


def test_an_overflowing_normalized_determinant_is_infinite_without_nan():
    seq = VerblunskySequence(constant_function(0.5), golden_frequency(), Phase((0.3,)))
    value = normalized_phi(seq, 0, 119, 1e3)
    assert value == complex(np.inf)
    assert not np.isnan(value.imag)


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    code = ("import sys, cmvspec\n"
            "loaded = [m for m in sys.modules if m == 'numpy' or m.startswith('cmvspec.')]\n"
            "print(loaded, hasattr(cmvspec, 'cli'))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "[] False"
