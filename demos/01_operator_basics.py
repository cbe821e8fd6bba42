"""Build five-diagonal unitary windows and inspect their structure.

Walks through the basic objects: a sampling function on the 2-torus, a
Diophantine frequency, the Verblunsky sequence along an orbit, and a finite
window with modified boundary, checking unitarity and the block
factorization numerically.
"""

import tempfile
from pathlib import Path

import numpy as np

from cmvspec.cmv import VerblunskySequence, apply_cmv, build_finite_cmv
from cmvspec.presets import sqrt_frequency, strong_coupling
from cmvspec.torus import Phase

f = strong_coupling()
print(f"sampling function: {len(f.coeffs)} Fourier modes, "
      f"certified sup |alpha| = {f.sup_bound:.4f}, strip h = {f.strip_width:.4g}")

freq = sqrt_frequency()
print(f"frequency {np.round(freq.array(), 6)}, Diophantine certificate: "
      f"worst ratio {freq.certificate.worst_ratio:.4f} at k = {freq.certificate.worst_k}")

seq = VerblunskySequence(f, freq, Phase((0.13, 0.71)))
print("\nfirst coefficients along the orbit:")
for n in range(5):
    print(f"  alpha_{n} = {seq.value(n):+.4f}")

m = build_finite_cmv(seq, 0, 24, beta=1.0, eta=1.0)
E = m.dense()
unitary_defect = np.max(np.abs(E.conj().T @ E - np.eye(m.size)))
factor_defect = np.max(np.abs(E - m.l_dense() @ m.m_dense()))
print(f"\nwindow [0, 24]: unitarity defect {unitary_defect:.2e}, "
      f"factorization defect {factor_defect:.2e}")

v = np.zeros(m.size, dtype=complex)
v[12] = 1.0
w = apply_cmv(m, v)
print(f"banded apply touches {np.count_nonzero(np.abs(w) > 1e-14)} entries "
      "of a basis vector (pentadiagonal stencil)")

with tempfile.TemporaryDirectory(prefix="cmvspec_demo01_") as tmp:
    path = Path(tmp) / "window_0_24.csv"
    m.to_csv(path)
    rows = len(path.read_text(encoding="utf-8").splitlines()) - 1
print(f"dense entries exported as CSV: {rows} nonzero entries")
