"""Right-hand-side source terms F(x, t, u) for the strip problem.

The built-in kinds cover the cases with known asymptotics: a zero source,
a linear (u-independent, spectrally given) source, the biased sine source
F(u) = sin(u) - bias of the damped pendulum chain, exponentially and
algebraically vanishing profiles, and an arbitrary callback.

This module deliberately depends on numpy only.  The finite-difference
verification solver consumes these objects too, and must not pull in any
spectral machinery; the linear kind therefore synthesises its sine series
inline when asked for pointwise values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SourceTerm",
    "ZeroSource",
    "LinearSource",
    "SineGordonSource",
    "ExpDecayingSource",
    "AlgebraicSource",
    "CustomSource",
    "evaluate_source",
    "depends_on_u",
]


class SourceTerm:
    """Base marker for source kinds."""


@dataclass(frozen=True)
class ZeroSource(SourceTerm):
    pass


@dataclass(frozen=True)
class LinearSource(SourceTerm):
    """u-independent source given as t -> sine spectrum of f(., t)."""

    f: Callable[[float], object]


@dataclass(frozen=True)
class SineGordonSource(SourceTerm):
    """F(x, t, u) = sin(u) - bias; |F| <= 1 + |bias| for any iterate."""

    bias: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.bias):
            raise ValueError("bias must be finite")


@dataclass(frozen=True)
class ExpDecayingSource(SourceTerm):
    """F(x, t) = profile(x) * exp(-mu*t) with mu > 0."""

    profile: Callable[[np.ndarray], np.ndarray]
    mu: float

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError(f"mu must be positive, got {self.mu}")


@dataclass(frozen=True)
class AlgebraicSource(SourceTerm):
    """F(x, t) = h / (k0 + t)^(1 + alpha), constant in x."""

    h: float
    k0: float
    alpha: float

    def __post_init__(self):
        for name in ("h", "k0", "alpha"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class CustomSource(SourceTerm):
    """Arbitrary callback (x_array, t, u_array) -> array of F values."""

    fn: Callable[[np.ndarray, float, np.ndarray], np.ndarray]


def depends_on_u(source: SourceTerm) -> bool:
    return isinstance(source, (SineGordonSource, CustomSource))


def _synthesize_inline(spec, x: np.ndarray) -> np.ndarray:
    coeffs = np.asarray(spec.coeffs, dtype=float)
    gammas = np.arange(1, coeffs.size + 1) * (math.pi / spec.l)
    return np.sin(np.outer(x, gammas)) @ coeffs


def evaluate_source(source: SourceTerm, x: np.ndarray, t: float,
                    u: np.ndarray) -> np.ndarray:
    """Pointwise values F(x, t, u) on an array of x positions."""
    if isinstance(source, SineGordonSource):  # the oracle's per-step case first
        return np.sin(u) - source.bias
    x = np.asarray(x, dtype=float)
    if isinstance(source, ZeroSource):
        return np.zeros_like(x)
    if isinstance(source, LinearSource):
        return _synthesize_inline(source.f(t), x)
    if isinstance(source, ExpDecayingSource):
        return np.asarray(source.profile(x), dtype=float) * math.exp(-source.mu * t)
    if isinstance(source, AlgebraicSource):
        return np.full_like(x, source.h / (source.k0 + t) ** (1.0 + source.alpha))
    if isinstance(source, CustomSource):
        return np.asarray(source.fn(x, t, u), dtype=float)
    raise TypeError(f"unknown source kind: {type(source).__name__}")
