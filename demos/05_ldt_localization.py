"""Large-deviation estimates and an eigenfunction decay profile.

The deviation-set measure for log ||M_n|| around n L_n is sampled at
doubling scales; the fraction is exactly zero for phase-independent
examples and shrinks with n in general.  A localized window eigenfunction
of the sup-0.95 example is profiled against the exp(-gamma |s| / 20) decay
test.
"""

import numpy as np

from cmvspec.cmv import VerblunskySequence, build_finite_cmv
from cmvspec.cocycle import SpectralPoint
from cmvspec.ldt import ldt_measure_scan
from cmvspec.multiscale import ScaleSchedule, estimate_gamma, suggest_center
from cmvspec.spectral import eigensolve, localization_profile, nearest_eigen
from cmvspec.presets import localization_example, sqrt_frequency, strong_coupling

freq = sqrt_frequency()

f = strong_coupling()
z = SpectralPoint(1.0)
scan = ldt_measure_scan(f, freq, z, [50, 100, 200], tau=0.3, samples=800, seed=0)
print("matrix deviation-set estimates at theta = 1.0 (tau = 0.3):")
for est in scan.estimates:
    iv = est.interval
    print(f"  n = {est.n:3d}: fraction {iv.estimate:.4f} "
          f"(Wilson [{iv.lo:.4f}, {iv.hi:.4f}]), threshold n^0.7 = {est.threshold:.1f}, "
          f"L_n = {scan.l_values[est.n]:.4f}")
print(f"trend nonincreasing within intervals: {scan.trend_ok}")

print("\nlocalized eigenfunction profile (sup |alpha| = 0.95):")
f_loc = localization_example()
n0 = 16
sched = ScaleSchedule(n0=n0, s_max=0, overrides={"box_radius": 1e-4,
                                                 "arc_radius": 1e-4})
z0, x0 = suggest_center(f_loc, freq, 2.5, n0, sched, scan_grid=16)
gamma = estimate_gamma(f_loc, freq, z0, n0, samples=60, seed=0)
seq = VerblunskySequence(f_loc, freq, x0)
pairs = eigensolve(build_finite_cmv(seq, -n0, n0))
pair, dist = nearest_eigen(pairs, z0.z)
prof = localization_profile(pair.vector, (-n0, n0), n0, gamma)
print(f"  center angle {z0.theta:.4f}, gamma estimate {gamma:.4f}")
print(f"  profile center site {prof.center}, fitted decay rate "
      f"{prof.fitted_rate:.4f}, passes exp(-gamma|s|/20) test: {prof.passes}")
print("  log10 |u(s)| by site:")
for s, la in zip(prof.sites[::4], prof.log_abs[::4]):
    bar = "#" * max(0, int(18 + la / np.log(10) * 2))
    print(f"   s = {s:+3d}  {la / np.log(10):7.2f}  {bar}")
