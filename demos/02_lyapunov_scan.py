"""Finite-scale top exponents over the spectral angle.

For the constant coefficient the exact value comes from the spectral radius
of a single matrix (zero exactly on the band, positive in the gap); the
quasi-periodic example is compared against the avalanche-accelerated
estimator at a few angles.
"""

import numpy as np

from cmvspec.cocycle import (AvalancheHypothesisError, SpectralPoint,
                             lyapunov_avalanche, lyapunov_finite)
from cmvspec.presets import (constant_function, golden_frequency,
                             sqrt_frequency, strong_coupling)

f_const = constant_function(0.5, dim=1)
w1 = golden_frequency()


def floquet_exponent(theta, a=0.5):
    rho = np.sqrt(1 - a * a)
    t = 2.0 * np.cos(theta / 2.0) / rho
    if abs(t) <= 2.0:
        return 0.0
    return float(np.log((abs(t) + np.sqrt(t * t - 4.0)) / 2.0))


print("constant alpha = 0.5: Monte-Carlo L_200 vs closed form")
print("theta      L_200     exact")
thetas = np.linspace(0.0, np.pi, 7)
ests = lyapunov_finite(f_const, w1, [SpectralPoint(t) for t in thetas], 200, 30, seed=0)
for theta, est in zip(thetas, ests):
    print(f"{theta:6.3f}  {est.value:8.5f}  {floquet_exponent(theta):8.5f}")

f_qp = strong_coupling()
w2 = sqrt_frequency()
print("\ntwo-mode example (sup |alpha| = 0.9): direct vs avalanche-accelerated")
print("theta      direct L_200          accelerated")
for theta in (0.5, 1.0, 1.5, 2.5):
    z = SpectralPoint(theta)
    direct = lyapunov_finite(f_qp, w2, z, 200, 120, seed=1)
    try:
        acc = lyapunov_avalanche(f_qp, w2, z, 25, 2, 60, seed=1)
        acc_txt = f"{acc.value:8.5f} +- {acc.std_error:.1e}  (scale {acc.n})"
    except AvalancheHypothesisError as exc:
        acc_txt = f"hypotheses violated: {exc}"
    print(f"{theta:6.3f}  {direct.value:8.5f} +- {direct.std_error:.1e}   {acc_txt}")
