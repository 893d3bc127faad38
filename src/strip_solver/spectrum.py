"""Sine-series representation of functions on (0, l).

All solution operators of the strip problem act diagonally on the
coefficients g_n of g(x) ~ sum_n g_n sin(gamma_n x), gamma_n = n*pi/l.
``analyze`` computes g_n = (2/l) * int_0^l g(xi) sin(gamma_n xi) dxi,
``synthesize`` evaluates the partial sum.

Quadrature: uniformly sampled input (and analytic callbacks, which are
sampled on a fine uniform grid) goes through the type-I discrete sine
transform, whose round trip is exact at the sample nodes and which
resolves band-limited input to machine precision.  Non-uniform samples
fall back to composite Simpson quadrature (order 4 on smooth data).

Solution-theory hypotheses on the data (vanishing end derivatives) are
enforced softly: non-zero boundary values beyond 1e-8 trigger a warning,
not an error, since slightly incompatible inputs are common in practice.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SineSpectrum",
    "SampledFunction",
    "analyze",
    "synthesize",
    "second_derivative",
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
    """Coefficients g_n, n = 1..N, of a sine series on (0, l)."""

    l: float
    coeffs: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.l) and self.l > 0):
            raise ValueError(f"length must be positive, got {self.l!r}")
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coeffs must be a non-empty 1-D array")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c = c.copy()
        c.flags.writeable = False
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


@dataclass(frozen=True)
class SampledFunction:
    """Function values at strictly increasing nodes spanning [0, l]."""

    l: float
    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if nodes.ndim != 1 or nodes.shape != values.shape:
            raise ValueError("nodes and values must be 1-D arrays of equal length")
        if nodes.size < 3:
            raise ValueError("need at least 3 nodes")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        if nodes[0] != 0.0 or abs(nodes[-1] - self.l) > 1e-12 * self.l:
            raise ValueError("nodes must span [0, l] exactly")
        if not np.all(np.isfinite(values)):
            raise ValueError("sampled values must be finite")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)


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


def _dst_coefficients(interior_values: np.ndarray, m: int) -> np.ndarray:
    # g_n = (2/m) * sum_{j=1}^{m-1} g_j sin(pi*j*n/m); the DST-I returns
    # twice that sum.
    return dst(interior_values) / m


def analyze(g, n_modes: int = 64, *, l: float | None = None,
            num_points: int | None = None) -> SineSpectrum:
    """Sine coefficients of ``g`` (a SampledFunction or a callable on [0, l]).

    Callables are sampled on a uniform grid of ``num_points`` nodes
    (default 2049) and transformed; uniformly sampled input is transformed
    directly; non-uniformly sampled input is integrated with composite
    Simpson quadrature against each sine.
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    if isinstance(g, SampledFunction):
        nodes, values, length = g.nodes, g.values, g.l
    elif callable(g):
        if l is None:
            raise ValueError("analyzing a callable requires the strip length l")
        length = float(l)
        m = (num_points or max(DEFAULT_NUM_POINTS, 4 * n_modes + 1)) - 1
        nodes = np.linspace(0.0, length, m + 1)
        try:
            values = np.asarray(g(nodes), dtype=float)
            if values.shape != nodes.shape:
                raise TypeError
        except TypeError:
            values = np.array([float(g(x)) for x in nodes])
        if not np.all(np.isfinite(values)):
            raise ValueError("function is undefined (non-finite) at a quadrature node")
    else:
        raise TypeError("g must be a SampledFunction or a callable")

    _warn_incompatible(values[0], values[-1])
    m = nodes.size - 1
    if n_modes > m - 1:
        raise ValueError(
            f"n_modes = {n_modes} exceeds the {m - 1} modes resolvable on {m + 1} nodes")
    spacing = np.diff(nodes)
    if np.allclose(spacing, spacing[0], rtol=1e-9, atol=0.0):
        coeffs = _dst_coefficients(values[1:-1], m)[:n_modes]
    else:
        from scipy.integrate import simpson  # loaded only for non-uniform nodes

        gammas = np.arange(1, n_modes + 1) * (math.pi / length)
        integrand = values[None, :] * np.sin(gammas[:, None] * nodes[None, :])
        coeffs = (2.0 / length) * simpson(integrand, x=nodes, axis=1)
    return SineSpectrum(l=length, coeffs=coeffs)


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


def second_derivative(s: SineSpectrum) -> SineSpectrum:
    """Coefficient-wise multiplication by -gamma_n^2."""
    return SineSpectrum(l=s.l, coeffs=-s.gammas() ** 2 * s.coeffs)


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
