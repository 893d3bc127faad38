"""Sine-series representation of functions on (0, l).

All solution operators of the strip problem act diagonally on the
coefficients g_n of g(x) ~ sum_n g_n sin(gamma_n x), gamma_n = n*pi/l.
``analyze`` computes g_n = (2/l) * int_0^l g(xi) sin(gamma_n xi) dxi,
``synthesize`` evaluates the partial sum.

Quadrature: ``g`` is a callable, sampled on a fine uniform grid and
passed through the type-I discrete sine transform, whose round trip is
exact at the sample nodes and which resolves band-limited input to
machine precision.

Solution-theory hypotheses on the data (vanishing end derivatives) are
enforced softly: non-zero boundary values beyond 1e-8 trigger a warning,
not an error, since slightly incompatible inputs are common in practice.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SineSpectrum",
    "analyze",
    "synthesize",
    "constant_coefficients",
    "pad_modes",
    "check_length",
    "dst",
    "BOUNDARY_WARN_TOL",
]

BOUNDARY_WARN_TOL = 1e-8
DEFAULT_NUM_POINTS = 2049
DST_BLOCK = 64


@dataclass(frozen=True)
class SineSpectrum:
    """Coefficients g_n, n = 1..N, of a sine series on (0, l).

    ``coeffs`` is a read-only float copy of the input, which must be real,
    finite, 1-D and non-empty.
    """

    l: float
    coeffs: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.l) and self.l > 0):
            raise ValueError(f"length must be positive, got {self.l!r}")
        if np.asarray(self.coeffs).dtype.kind == "c":
            raise ValueError("coefficients must be real")
        c = np.array(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coeffs must be a non-empty 1-D array")
        # a finite sum has only finite terms; the exact check runs only when
        # that sum is not finite.  A Python float sum overflows to inf
        # without the RuntimeWarning a numpy reduction would raise.
        if not (math.isfinite(sum(c.tolist())) or np.isfinite(c).all()):
            raise ValueError("coefficients must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def n_modes(self) -> int:
        return self.coeffs.size

    def gammas(self) -> np.ndarray:
        return np.arange(1, self.n_modes + 1) * (math.pi / self.l)


def check_length(l: float, **spectra: SineSpectrum) -> None:
    """Raise ValueError unless every named spectrum lives on length ``l``."""
    for name, spec in spectra.items():
        if abs(spec.l - l) > 1e-12 * l:
            raise ValueError(f"{name} lives on length {spec.l}, params have {l}")


def _warn_incompatible(v0, vl):
    if max(abs(v0), abs(vl)) > BOUNDARY_WARN_TOL:
        warnings.warn(
            "data does not vanish at the strip ends "
            f"(|g(0)| = {abs(v0):.3g}, |g(l)| = {abs(vl):.3g}); the series "
            "solution attains such data only away from the boundary",
            stacklevel=3,
        )


def dst(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Unnormalised type-I discrete sine transform of ``x`` along ``axis``.

    y_k = 2 * sum_{j=0}^{N-1} x_j sin(pi*(j+1)*(k+1)/(N+1)), computed as
    minus the imaginary part of the real FFT of the odd extension
    [0, x, 0, -x reversed].  That is how pocketfft evaluates a DST-I, so on
    numpy >= 2 (whose FFTs are pocketfft's) the result is bitwise equal to
    ``scipy.fft.dst(x, type=1, axis=axis)``.

    Columns are transformed ``DST_BLOCK`` at a time through one reused
    extension buffer: on wide input, fresh full-size buffers for the
    extension and its spectrum cost more than the transforms.
    """
    x = np.swapaxes(np.asarray(x, dtype=float), axis, 0)
    cols = x.reshape(x.shape[0], -1)
    n, m = cols.shape
    out = np.empty((n, m))
    ext = np.zeros((2 * n + 2, min(m, DST_BLOCK)))
    for j in range(0, m, DST_BLOCK):
        block = cols[:, j:j + DST_BLOCK]
        e = ext[:, :block.shape[1]]
        e[1:n + 1] = block
        np.negative(block[::-1], out=e[n + 2:])
        np.negative(np.fft.rfft(e, axis=0).imag[1:n + 1], out=out[:, j:j + DST_BLOCK])
    return np.swapaxes(out.reshape(x.shape), 0, axis)


def analyze(g, n_modes: int = 64, *, l: float) -> SineSpectrum:
    """Sine coefficients of the callable ``g`` on [0, l].

    ``g`` is sampled at max(DEFAULT_NUM_POINTS, 4*n_modes + 1) uniform
    nodes, called once on the node array or, if it does not vectorise,
    once per node.  ``l`` and ``n_modes`` are checked before ``g`` is sampled.
    """
    if not isinstance(n_modes, numbers.Integral):
        raise ValueError(f"n_modes must be an integer, got {n_modes!r}")
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    if not callable(g):
        raise TypeError("g must be a callable")
    length = float(l)
    if not (math.isfinite(length) and length > 0):
        raise ValueError(f"length must be positive, got {l!r}")
    m = max(DEFAULT_NUM_POINTS, 4 * n_modes + 1) - 1
    nodes = np.linspace(0.0, length, m + 1)
    try:
        values = np.asarray(g(nodes), dtype=float)
        if values.shape != nodes.shape:
            raise TypeError
    except TypeError:
        values = np.array([float(g(x)) for x in nodes])
    if not np.all(np.isfinite(values)):
        raise ValueError("function is undefined (non-finite) at a quadrature node")
    _warn_incompatible(values[0], values[-1])
    # g_n = (2/m) * sum_{j=1}^{m-1} g_j sin(pi*j*n/m); the DST-I returns
    # twice that sum
    return SineSpectrum(l=length, coeffs=(dst(values[1:-1]) / m)[:n_modes])


def synthesize(s: SineSpectrum, x):
    """Partial sum sum_n g_n sin(gamma_n x); exactly 0 at x = 0 and x = l.

    ``x`` may be a scalar or an array with entries in [0, l].
    """
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    if np.any((xs < 0) | (xs > s.l)):
        raise ValueError("evaluation point outside [0, l]")
    out = np.sin(xs[:, None] * s.gammas()[None, :]) @ s.coeffs
    out[(xs == 0.0) | (xs == s.l)] = 0.0
    return float(out[0]) if scalar else out


def constant_coefficients(value: float, l: float, n_modes: int) -> np.ndarray:
    """Exact sine coefficients of the constant function ``value`` on (0, l).

    g_n = value * 2*(1 - (-1)^n)/(n*pi); used to expand x-independent
    source components without sampling error.
    """
    n = np.arange(1, n_modes + 1)
    return value * 2.0 * (1.0 - (-1.0) ** n) / (n * math.pi)


def pad_modes(coeffs, n_modes: int) -> np.ndarray:
    """The first ``n_modes`` coefficients, zero-padded when there are fewer.

    Cutting returns a view of ``coeffs``; padding returns a new array.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.size >= n_modes:
        return c[:n_modes]
    out = np.zeros(n_modes)
    out[: c.size] = c
    return out
