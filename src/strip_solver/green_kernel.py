"""Pointwise evaluation of the strip Green's function and its companions.

The Green's function of the dissipative strip operator is the sine series

    G(x, xi, t) = (2/l) * sum_n H_n(t) sin(gamma_n xi) sin(gamma_n x).

This module evaluates G, its time derivative G_t and the flux combination
eps*G_t + c^2*G with a certified truncation: the returned value differs
from the full series by at most the requested tolerance.  The certificate
(``term_bounds`` per mode, ``_closed_tail`` beyond a depth) combines

  * the uniform kernel bound |H_n| <= (1-k)^(-1/2)/(q - a/2) * exp(-p*t)/n^2
    valid for overdamped modes with (b_n/h_n)^2 <= k, with k = CHAIN_K = 1/2
    fixed,
  * Gaussian-in-n envelopes exp(-h_n*t) <= exp(-sigma*n^2*t) for the fast
    components of the derivative and flux series, and
  * per-mode bounds on the finitely many oscillatory or near-critical
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
    ModeTable,
    Params,
    classify_modes,
    flux_values,
    kernel_dt_values,
    kernel_values,
    mode_table,
)

__all__ = [
    "DecayConstants",
    "TruncationPlan",
    "decay_constants",
    "term_bounds",
    "plan_truncation",
    "green_profile",
    "KINDS",
    "MODE_CAP",
]

# "green" is G (kernel H_n), "dt" is G_t (H_n') and "flux" is eps*G_t + c^2*G
KINDS = ("green", "dt", "flux")
# the deepest certified truncation
MODE_CAP = 10**6
# the uniform 1/n^2 kernel chain covers overdamped modes with (b/h)^2 <= CHAIN_K
CHAIN_K = 0.5


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


def decay_rate_p(p: Params) -> float:
    """Uniform slow-decay rate: c^2/(eps + a*(l/pi)^2)."""
    return p.c**2 / (p.epsilon + p.a * (p.l / math.pi) ** 2)


def sigma_rate(p: Params) -> float:
    """Quadratic-growth constant of h_n: h_n > sigma*n^2 with sigma = eps*(pi/l)^2/2."""
    return 0.5 * p.epsilon * (math.pi / p.l) ** 2


def decay_constants(p: Params) -> DecayConstants:
    rate_p = decay_rate_p(p)
    rate_q = 0.5 * (p.a + p.epsilon * (math.pi / p.l) ** 2)
    return DecayConstants(p=rate_p, q=rate_q, beta=min(rate_p, rate_q))


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


def _check_request(t: float, tol: float, kind: str) -> None:
    """A certified series needs a known kind and finite t > 0 and tol > 0."""
    _check_kind(kind)
    for name, value in (("time", t), ("tolerance", tol)):
        if not 0.0 < value < math.inf:  # also rejects NaN
            raise ValueError(f"{name} must be positive and finite, got {value}")


def _chain(p: Params, t: float) -> tuple[float, float, float]:
    """Constants of the uniform chain |H_n(t)| <= rk/sigma * e_p/n^2:
    rk = (1 - CHAIN_K)^(-1/2), sigma and e_p = exp(-p*t)."""
    rk = 1.0 / math.sqrt(1.0 - CHAIN_K)
    return rk, sigma_rate(p), math.exp(-decay_rate_p(p) * t)


def term_bounds(table: ModeTable, p: Params, t: float, kind: str = "green") -> np.ndarray:
    """Certified upper bounds on the kernel of every table mode at time t.

    ``kind`` selects the kernel: "green" bounds |H_n(t)|, "dt" bounds
    |H_n'(t)| and "flux" bounds |eps*H_n'(t) + c^2*H_n(t)|.  For H,
    oscillatory modes use exp(-h*t)*min(t, 1/omega) and critical modes the
    exact t*exp(-h*t); overdamped modes with (b/h)^2 <= CHAIN_K use the
    uniform bound (1-k)^(-1/2)/(q - a/2) * exp(-p*t)/n^2, and near-critical
    overdamped modes (where that chain is invalid) fall back to the direct
    bound exp(-(h-omega)*t)*min(t, 1/(2*omega)).  The H' and flux bounds
    take the smaller of the two-exponential split and the envelope bound.
    Raises ValueError unless 0 <= t < inf and ``kind`` is one of KINDS.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"time must be non-negative and finite, got {t}")
    _check_kind(kind)
    c2 = p.c**2
    h, om, n = table.h, table.omega, table.n
    dm, dp = table.dm, table.dp
    decay_h = np.exp(-h * t)
    decay_dm = np.exp(-dm * t)
    om_safe = np.where(om > 0, om, 1.0)
    osc_amp = np.minimum(t, 1.0 / om_safe)        # |sin(om t)|/om <= min(t, 1/om)

    if kind == "green":
        rk, sigma, e_p = _chain(p, t)
        eligible = table.over & ((table.b / h) ** 2 <= CHAIN_K)
        out = np.where(table.osc, decay_h * osc_amp, t * decay_h)
        direct = decay_dm * np.minimum(t, 0.5 / om_safe)
        out = np.where(table.over, direct, out)
        return np.where(eligible, (rk / sigma) * e_p / n**2, out)
    if kind == "dt":
        out = np.where(table.osc, decay_h * (1.0 + h * osc_amp), (1.0 + h * t) * decay_h)
        split = (dp * np.exp(-dp * t) + dm * decay_dm) / (2.0 * om_safe)
        fallback = (1.0 + h * t) * decay_dm
        return np.where(table.over, np.minimum(split, fallback), out)
    amp = p.epsilon + np.abs(c2 - p.epsilon * h) * np.where(table.osc, osc_amp, t)
    out = decay_h * amp
    coef_slow = c2 * np.abs(p.a - dm) / dp
    split = (coef_slow * decay_dm + np.abs(c2 - p.epsilon * dp) * np.exp(-dp * t)) / (2.0 * om_safe)
    fallback = decay_dm * (p.epsilon + np.abs(c2 - p.epsilon * h) * t)
    return np.where(table.over, np.minimum(split, fallback), out)


def _closed_tail(p: Params, t: float, kind: str, n0: int) -> float:
    """Bound on the series tail beyond n0, all such modes overdamped with
    (b/h)^2 <= CHAIN_K: the sum over n > n0 of ``term_bounds``."""
    rk, sigma, e_p = _chain(p, t)
    c2 = p.c**2
    st = sigma * t
    gauss = math.exp(-st * n0**2) / (2.0 * st * n0) if st * n0**2 < 745 else 0.0
    if kind == "green":
        return (rk / sigma) * e_p / n0
    if kind == "dt":
        slow = (2.0 * c2 / p.epsilon) * (rk / (2.0 * sigma)) * e_p / n0
        fast = 0.5 * (rk + 1.0) * gauss
        return slow + fast
    c_f = c2 * (p.a / sigma + c2 * math.pi**2 / (p.l**2 * sigma**2))
    slow = c_f * rk / (2.0 * sigma) * e_p / (3.0 * n0**3)
    fast = rk * (c2 / (2.0 * sigma) + p.epsilon) * gauss
    return slow + fast


def plan_truncation(p: Params, t: float, tol: float, *, kind: str = "green") -> TruncationPlan:
    """Smallest mode count whose certified tail bound falls below ``tol``.

    The tail beyond N sums the per-term bounds: the finitely many modes
    not covered by the uniform 1/n^2 chain are bounded individually, the
    remainder in closed form.  Raises TruncationError when the tolerance
    is unreachable within MODE_CAP modes (the kernel bounds only decay
    like 1/n at fixed t, so very tight tolerances are not certifiable by
    direct summation), and ValueError for a kind outside KINDS or a time
    or tolerance that is not positive and finite.
    """
    _check_request(t, tol, kind)
    cls = classify_modes(p, CHAIN_K)
    n_free = max(cls.nk, cls.n2_star)
    head_table = mode_table(p, n_free - 1) if n_free > 1 else None
    head_bounds = term_bounds(head_table, p, t, kind) if head_table is not None else None
    two_over_l = 2.0 / p.l

    def tail(n: int) -> float:
        n0 = max(n, n_free - 1, 1)
        total = _closed_tail(p, t, kind, n0)
        if n < n_free - 1:
            total += float(np.sum(head_bounds[n:]))
        return two_over_l * total

    if tail(MODE_CAP) > tol:
        raise TruncationError(
            f"series tolerance {tol:.3g} for kind {kind!r} at t = {t:.3g} is not "
            f"certifiable within {MODE_CAP} modes (tail bound {tail(MODE_CAP):.3g})")
    lo, hi = 1, 1
    while tail(hi) > tol:
        lo, hi = hi, min(2 * hi, MODE_CAP)
    while lo < hi:
        mid = (lo + hi) // 2
        if tail(mid) <= tol:
            hi = mid
        else:
            lo = mid + 1
    return TruncationPlan(n_terms=hi, tail_bound=tail(hi), tolerance=tol)


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
                  tol: float = 1e-6, n_terms: int | None = None) -> np.ndarray:
    """Evaluate G (or G_t, or eps*G_t + c^2*G) along an array of x values.

    ``kind`` is one of KINDS; the result differs from the full series by at
    most ``tol``.  ``n_terms`` overrides the certified truncation plan;
    verification stencils use it to difference partial sums of matched
    depth.  A point value is ``green_profile(p, [x], xi, t)[0]``.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    xi, t = float(xi), float(t)
    _check_request(t, tol, kind)
    if not (np.all((xs >= 0) & (xs <= p.l)) and 0 <= xi <= p.l):  # also rejects NaN
        raise ValueError("x and xi must lie in [0, l]")
    out = np.zeros_like(xs)
    if xi == 0.0 or xi == p.l:
        return out
    interior = (xs != 0.0) & (xs != p.l)
    if not np.any(interior):
        return out
    n = n_terms if n_terms is not None else plan_truncation(p, t, tol, kind=kind).n_terms
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
