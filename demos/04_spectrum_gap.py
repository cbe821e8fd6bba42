"""Interval-coverage scan: which arc points are (approximate) spectrum.

The constant-coefficient operator has a closed-form band from the trace
condition; the scan recovers its gap endpoints from finite windows.  A plot
of covered/uncovered points against the oracle band is saved when
matplotlib is available.
"""

import tempfile
from pathlib import Path

import numpy as np

from cmvspec.coverage import interval_coverage_scan
from cmvspec.presets import constant_function, golden_frequency

ALPHA = 0.5
f = constant_function(ALPHA, dim=1)
freq = golden_frequency()

scan = interval_coverage_scan(f, freq, (0.0, 2 * np.pi), grid=360, window=200,
                              tol=0.02, phase_samples=1, seed=0)

rho = np.sqrt(1 - ALPHA ** 2)
band_lo = 2 * np.arccos(rho)
band_hi = 2 * np.pi - band_lo
print(f"trace-condition band: [{band_lo:.4f}, {band_hi:.4f}]  (pi/3 = {np.pi/3:.4f})")
print(f"covered fraction {scan.covered_fraction:.4f}")
for lo, hi in scan.covered_arcs:
    print(f"covered arc [{lo:.4f}, {hi:.4f}]  "
          f"endpoint errors ({abs(lo - band_lo):.4f}, {abs(hi - band_hi):.4f})")

mismatch = sum(p.covered != (band_lo <= p.theta <= band_hi) for p in scan.points)
print(f"grid points disagreeing with the oracle: {mismatch}/{len(scan.points)} "
      "(all near the band edges)")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None
if plt is not None:
    thetas = [p.theta for p in scan.points]
    dists = [p.best_dist for p in scan.points]
    cov = [p.covered for p in scan.points]
    fig, ax = plt.subplots(figsize=(8, 4))
    ax.semilogy(thetas, dists, ".", ms=3,
                color="tab:blue", label="best spectral distance")
    ax.axhline(scan.tol, color="k", lw=0.8, label="tolerance")
    ax.axvspan(0, band_lo, color="tab:red", alpha=0.15, label="oracle gap")
    ax.axvspan(band_hi, 2 * np.pi, color="tab:red", alpha=0.15)
    ax.set_xlabel("theta")
    ax.set_ylabel("dist(z, window spectrum)")
    ax.legend(loc="upper center", fontsize=8)
    fig.tight_layout()
    path = Path(tempfile.mkdtemp(prefix="cmvspec_demo04_")) / "spectrum_gap.png"
    fig.savefig(path, dpi=150)
    print(f"plot saved to {path}")
