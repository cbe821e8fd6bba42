"""Shared helpers: deterministic seeding, circle geometry, interval estimates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


def counter_rng(seed: int, *counters: int) -> np.random.Generator:
    """Generator keyed by (seed, counters).

    Every Monte-Carlo sample draws from its own stream, so results do not
    depend on evaluation order or on how samples are split across workers.
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, counters)]))


def counter_phases(dim: int, samples: int, seed: int, *counters: int) -> np.ndarray:
    """(samples, dim) array of phases; row s is counter_rng(seed, *counters, s)."""
    return np.array([counter_rng(seed, *counters, s).random(dim)
                     for s in range(samples)]).reshape(samples, dim)


def as_integer(value, name: str) -> int:
    """An int or an integral float as an int; anything else (a bool, a
    string, a fractional or non-finite float) is a ValueError naming it."""
    integral = isinstance(value, (float, np.floating)) and float(value).is_integer()
    if integral or isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def wrap_angle(theta: float) -> float:
    """Reduce an angle difference to (-pi, pi]."""
    return -((-theta + np.pi) % TWO_PI - np.pi)


def phase_of(z: complex) -> float:
    """Argument of z folded into [0, 2*pi)."""
    return float(np.angle(z) % TWO_PI)


def arc_span(theta1: float, theta2: float) -> float:
    """Counterclockwise length, in (0, 2*pi], of the arc from theta1 to
    theta2: the whole circle when |theta2 - theta1| >= 2*pi - 1e-12, and a
    ValueError when the endpoints otherwise coincide."""
    whole = abs(theta2 - theta1) >= TWO_PI - 1e-12
    span = TWO_PI if whole else (theta2 - theta1) % TWO_PI
    if span == 0:
        raise ValueError("endpoints coincide")
    return span


@dataclass(frozen=True)
class WilsonInterval:
    """Wilson score interval (95%, z = 1.96) for a binomial proportion."""

    estimate: float
    lo: float
    hi: float
    hits: int
    samples: int

    @classmethod
    def from_counts(cls, hits: int, samples: int) -> "WilsonInterval":
        if samples <= 0:
            raise ValueError("samples must be positive")
        p, z = hits / samples, 1.96
        denom = 1.0 + z * z / samples
        center = (p + z * z / (2 * samples)) / denom
        half = z * np.sqrt(p * (1 - p) / samples + z * z / (4 * samples * samples)) / denom
        return cls(estimate=p, lo=max(0.0, center - half), hi=min(1.0, center + half),
                   hits=hits, samples=samples)


def pad_vector(vec: np.ndarray, src: tuple[int, int], dst: tuple[int, int]) -> np.ndarray:
    """Embed a vector indexed by sites src=[a,b] into sites dst=[c,d], zero-filled.

    Site labels align; dst must contain src.
    """
    a, b = src
    c, d = dst
    if not (c <= a and b <= d):
        raise ValueError(f"destination window {dst} does not contain {src}")
    if len(vec) != b - a + 1:
        raise ValueError("vector length does not match source window")
    out = np.zeros(d - c + 1, dtype=complex)
    out[a - c:b - c + 1] = vec
    return out


def format_float(x: float) -> str:
    """Shortest round-trip decimal form, used for byte-stable CSV output."""
    return repr(float(x))
