"""Pointwise evaluation of the strip Green's function and its companions.

The Green's function of the dissipative strip operator is the sine series

    G(x, xi, t) = (2/l) * sum_n H_n(t) sin(gamma_n xi) sin(gamma_n x).

This module evaluates G, its time derivative G_t and the flux combination
eps*G_t + c^2*G with a certified truncation: the returned value differs
from the full series by at most the requested tolerance.  Tail estimates
combine

  * the uniform kernel bound |H_n| <= (1-k)^(-1/2)/(q - a/2) * exp(-p*t)/n^2
    valid for overdamped modes with (b_n/h_n)^2 <= k,
  * Gaussian-in-n envelopes exp(-h_n*t) <= exp(-sigma*n^2*t) for the fast
    components of the derivative and flux series, and
  * exact summation of the finitely many oscillatory or near-critical
    modes that the closed forms do not cover.

Flux series terms gain an extra n^-2 factor because the slow coefficient
c^2 - eps*(h_n - omega_n) collapses to c^2*(a - (h-omega))/(h+omega); the
flux series is therefore the only one differentiated twice in x by the
verification suite.

Decay rates: p = c^2/(eps + a*(l/pi)^2), q = (a + eps*(pi/l)^2)/2 and
beta = min(p, q) lower-bound the exponential decay of all three series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TruncationError
from .modes import (
    Params,
    classify_modes,
    decay_rate_p,
    flux_values,
    kernel_dt_values,
    kernel_values,
    mode_table,
    sigma_rate,
    term_bounds,
)

__all__ = [
    "DecayConstants",
    "TruncationPlan",
    "decay_constants",
    "plan_truncation",
    "green_eval",
    "green_dt_eval",
    "flux_eval",
    "green_profile",
    "MODE_CAP",
]

MODE_CAP = 10**6
_KINDS = ("green", "dt", "flux")


@dataclass(frozen=True)
class DecayConstants:
    """Decay rates p, q and beta = min(p, q) of the Green's function."""

    p: float
    q: float
    beta: float


@dataclass(frozen=True)
class TruncationPlan:
    """Number of modes to sum and the certified bound on the dropped tail."""

    n_terms: int
    tail_bound: float
    tolerance: float


def decay_constants(p: Params) -> DecayConstants:
    rate_p = decay_rate_p(p)
    rate_q = 0.5 * (p.a + p.epsilon * (math.pi / p.l) ** 2)
    return DecayConstants(p=rate_p, q=rate_q, beta=min(rate_p, rate_q))


def _closed_tail(p: Params, t: float, k: float, kind: str, n0: int) -> float:
    """Bound on the series tail beyond n0, all such modes overdamped with
    (b/h)^2 <= k."""
    rk = 1.0 / math.sqrt(1.0 - k)
    sigma = sigma_rate(p)
    rate_p = decay_rate_p(p)
    c2 = p.c**2
    e_p = math.exp(-rate_p * t)
    st = sigma * t
    gauss = math.exp(-st * n0**2) / (2.0 * st * n0) if st * n0**2 < 745 else 0.0
    if kind == "green":
        return (rk / sigma) * e_p / n0
    if kind == "dt":
        slow = (2.0 * c2 / p.epsilon) * (rk / (2.0 * sigma)) * e_p / n0
        fast = 0.5 * (rk + 1.0) * gauss
        return slow + fast
    if kind == "flux":
        c_f = c2 * (p.a / sigma + c2 * math.pi**2 / (p.l**2 * sigma**2))
        slow = c_f * rk / (2.0 * sigma) * e_p / (3.0 * n0**3)
        fast = rk * (c2 / (2.0 * sigma) + p.epsilon) * gauss
        return slow + fast
    raise ValueError(f"unknown series kind {kind!r}")


def plan_truncation(p: Params, t: float, tol: float, *, k: float = 0.5,
                    kind: str = "green", n_cap: int = MODE_CAP) -> TruncationPlan:
    """Smallest mode count whose certified tail bound falls below ``tol``.

    The tail beyond N sums the per-term bounds: the finitely many modes
    not covered by the uniform 1/n^2 chain are bounded individually, the
    remainder in closed form.  Raises TruncationError when the tolerance
    is unreachable within ``n_cap`` modes (the kernel bounds only decay
    like 1/n at fixed t, so very tight tolerances are not certifiable by
    direct summation).
    """
    if t <= 0:
        raise ValueError(f"truncation planning requires t > 0, got {t}")
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    cls = classify_modes(p, k)
    n_free = max(cls.nk, cls.n2_star)
    head_table = mode_table(p, n_free - 1) if n_free > 1 else None
    head_bounds = term_bounds(head_table, p, t, k, kind) if head_table is not None else None
    two_over_l = 2.0 / p.l

    def tail(n: int) -> float:
        n0 = max(n, n_free - 1, 1)
        total = _closed_tail(p, t, k, kind, n0)
        if n < n_free - 1:
            total += float(np.sum(head_bounds[n:]))
        return two_over_l * total

    if tail(n_cap) > tol:
        raise TruncationError(
            f"series tolerance {tol:.3g} for kind {kind!r} at t = {t:.3g} is not "
            f"certifiable within {n_cap} modes (tail bound {tail(n_cap):.3g})")
    lo, hi = 1, 1
    while tail(hi) > tol:
        lo, hi = hi, min(2 * hi, n_cap)
    while lo < hi:
        mid = (lo + hi) // 2
        if tail(mid) <= tol:
            hi = mid
        else:
            lo = mid + 1
    return TruncationPlan(n_terms=hi, tail_bound=tail(hi), tolerance=tol)


def _series_eval(p: Params, xs: np.ndarray, xi: float, t: float, kind: str,
                 tol: float, k: float, n_terms: int | None) -> np.ndarray:
    if np.any((xs < 0) | (xs > p.l)) or not (0 <= xi <= p.l):
        raise ValueError("x and xi must lie in [0, l]")
    if not 0 < t < math.inf:
        raise ValueError(f"series evaluation requires finite t > 0, got {t}")
    out = np.zeros_like(xs)
    if xi == 0.0 or xi == p.l:
        return out
    interior = (xs != 0.0) & (xs != p.l)
    if not np.any(interior):
        return out
    n = n_terms if n_terms is not None else plan_truncation(p, t, tol, k=k, kind=kind).n_terms
    table = mode_table(p, n)
    if kind == "green":
        vals = kernel_values(table, t)
    elif kind == "dt":
        vals = kernel_dt_values(table, t)
    else:
        vals = flux_values(table, t)
    weights = vals * np.sin(table.gamma * xi)
    out[interior] = (2.0 / p.l) * _sine_synthesis(xs[interior] * (math.pi / p.l), weights)
    return out


def _sine_synthesis(theta: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_{n=1..N} w_n sin(n*theta) at every theta, by blocked angle addition.

    With n = q*B + m, B = isqrt(N), q = 0..Q-1 and m = 1..B,

        sin(n*theta) = sin(q*B*theta)*cos(m*theta) + cos(q*B*theta)*sin(m*theta),

    so the sum is two (nx x B) @ (B x Q) products of the in-block sines and
    cosines with the weights, recombined with the block sines and cosines:
    2*nx*(B + Q) trig calls instead of nx*N.
    """
    n_terms = weights.size
    block = math.isqrt(n_terms)
    n_blocks = -(-n_terms // block)
    w = np.zeros(n_blocks * block)
    w[:n_terms] = weights
    w = w.reshape(n_blocks, block).T           # w[m - 1, q] = w_{q*B + m}
    in_phase = np.outer(theta, np.arange(1, block + 1))
    block_phase = np.outer(theta, block * np.arange(n_blocks))
    return np.sum(np.sin(block_phase) * (np.cos(in_phase) @ w)
                  + np.cos(block_phase) * (np.sin(in_phase) @ w), axis=1)


def green_profile(p: Params, xs, xi: float, t: float, *, kind: str = "green",
                  tol: float = 1e-6, k: float = 0.5,
                  n_terms: int | None = None) -> np.ndarray:
    """Evaluate G (or G_t, or eps*G_t + c^2*G) along an array of x values.

    ``kind`` is one of "green", "dt", "flux".  ``n_terms`` overrides the
    certified truncation plan; verification stencils use it to difference
    partial sums of matched depth.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    return _series_eval(p, xs, float(xi), float(t), kind, tol, k, n_terms)


def green_eval(p: Params, x: float, xi: float, t: float, tol: float = 1e-6,
               *, k: float = 0.5, n_terms: int | None = None) -> float:
    """G(x, xi, t) with certified absolute error at most ``tol``."""
    return float(green_profile(p, [x], xi, t, kind="green", tol=tol, k=k,
                               n_terms=n_terms)[0])


def green_dt_eval(p: Params, x: float, xi: float, t: float, tol: float = 1e-6,
                  *, k: float = 0.5, n_terms: int | None = None) -> float:
    """Time derivative G_t(x, xi, t); requires t > 0 strictly."""
    return float(green_profile(p, [x], xi, t, kind="dt", tol=tol, k=k,
                               n_terms=n_terms)[0])


def flux_eval(p: Params, x: float, xi: float, t: float, tol: float = 1e-6,
              *, k: float = 0.5, n_terms: int | None = None) -> float:
    """Flux combination (eps*G_t + c^2*G)(x, xi, t)."""
    return float(green_profile(p, [x], xi, t, kind="flux", tol=tol, k=k,
                               n_terms=n_terms)[0])
