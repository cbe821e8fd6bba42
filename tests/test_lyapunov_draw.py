"""``lyapunov`` draws its Monte-Carlo phases once for all its scales."""

import json

import numpy as np

from cmvspec import util
from cmvspec.cli import main
from cmvspec.cocycle import SpectralPoint, lyapunov_finite
from cmvspec.presets import sqrt_frequency, strong_coupling

CONFIG = {
    "sampling": {"preset": "strong_coupling"},
    "frequency": {"preset": "sqrt"},
    "lyapunov": {"theta_grid": 16, "scales": [100, 400], "samples": 100},
}


def test_one_draw_for_every_scale(tmp_path, monkeypatch):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(CONFIG))
    streams = []
    counter_rng = util.counter_rng
    monkeypatch.setattr(util, "counter_rng",
                        lambda *key: streams.append(key) or counter_rng(*key))
    assert main(["lyapunov", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--seed", "3"]) == 0
    assert streams == [(3, s) for s in range(100)]

    # the rows are the estimates of each scale drawn on its own
    monkeypatch.setattr(util, "counter_rng", counter_rng)
    f, freq = strong_coupling(), sqrt_frequency()
    points = [SpectralPoint(2 * np.pi * g / 16) for g in range(16)]
    by_scale = {n: lyapunov_finite(f, freq, points, n, 100, 3) for n in (100, 400)}
    rows = (tmp_path / "o" / "lyapunov.csv").read_text().splitlines()[1:]
    want = [(z.theta, n, by_scale[n][k].value) for k, z in enumerate(points)
            for n in (100, 400)]
    assert [(float(t), int(n), float(v)) for t, n, v, *_ in
            (r.split(",") for r in rows)] == want
