"""Two runs of the ``multiscale`` command write the same bytes.

A depth-1 run goes through every stage of the advance (center scan, base
state, conditions A-D, subwindows, the planar continuation and the
localization step), so any order- or state-dependent result in them shows
up as a byte difference between two runs with the same config and seed.
"""

import json

from cmvspec.cli import main

CONFIG = {
    "sampling": {"preset": "localization"},
    "frequency": {"preset": "sqrt"},
    "seed": 3,
    "multiscale": {"theta": 2.5, "n0": 10, "depth": 1, "scan_grid": 16, "samples": 6,
                   "schedule": {"growth": 1.55, "overrides": {
                       "separation": 1e-3, "good_dist": 1e-4, "box_radius": 1e-4,
                       "arc_radius": 1e-4, "c_threshold": 5e-4, "upsilon_floor": 1e-4,
                       "d_floor_log": -8.0, "solver_tol": 1e-9,
                       "step_separation": 1e-4}}},
}


def test_depth1_rerun_is_byte_identical(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(CONFIG))
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        assert main(["multiscale", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("multiscale.json", "manifest.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    report = json.loads((outs[0] / "multiscale.json").read_text())
    assert report["advance"]["window"] == [-45, 45]
