"""Standard sampling functions and frequencies used across tests and demos.

None of these choices is canonical; they are concrete instances with the
properties each experiment needs (certified sup bounds, Diophantine
frequencies verified to a finite cutoff, empirically positive top exponent
where stated).
"""

from __future__ import annotations

import numpy as np

from .torus import Frequency, SamplingFunction


def zero_function(dim: int = 2) -> SamplingFunction:
    """alpha identically 0: free case, all transfer factors are rotations."""
    return SamplingFunction(dim=dim, coeffs={})


def constant_function(value: complex = 0.5, dim: int = 1) -> SamplingFunction:
    """Constant alpha; the closed-form one-matrix oracle applies."""
    return SamplingFunction(dim=dim, coeffs={(0,) * dim: complex(value)})


def single_mode(amplitude: complex = 0.5, dim: int = 2) -> SamplingFunction:
    """One Fourier mode in the first coordinate."""
    k = tuple([1] + [0] * (dim - 1))
    return SamplingFunction(dim=dim, coeffs={k: complex(amplitude)})


def two_mode(coupling: float = 0.45) -> SamplingFunction:
    """alpha(x) = c (e^{2pi i x1} + e^{2pi i x2}); sup |alpha| = 2c.

    coupling 0.45 gives the sup-0.9 example; 0.475 the sup-0.95 one used in
    localization experiments.  The top exponent is positive around
    theta ~ 1.5 and ~ 2.5, but both are gap points; on the covered arcs the
    measured exponent is about 0 (L_800 of 0.001-0.004).
    """
    return SamplingFunction(dim=2, coeffs={(1, 0): coupling, (0, 1): coupling})


def strong_coupling() -> SamplingFunction:
    """The seeded strong-coupling example: sup |alpha| = 0.9, d = 2."""
    return two_mode(0.45)


def localization_example() -> SamplingFunction:
    """sup |alpha| = 0.95 two-mode example with localized window states."""
    return two_mode(0.475)


def golden_frequency() -> Frequency:
    """d=1 golden-mean frequency (sqrt(5)-1)/2."""
    return Frequency.checked([(np.sqrt(5.0) - 1.0) / 2.0], p=0.2, q=2.0, k_max=1000)


def sqrt_frequency() -> Frequency:
    """d=2 frequency (sqrt(2)-1, sqrt(3)-1) with a verified certificate."""
    return Frequency.checked([np.sqrt(2.0) - 1.0, np.sqrt(3.0) - 1.0],
                             p=0.05, q=3.0, k_max=200)
