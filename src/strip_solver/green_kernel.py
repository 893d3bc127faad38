"""Pointwise evaluation of the strip Green's function and its companions.

The Green's function of the dissipative strip operator is the sine series

    G(x, xi, t) = (2/l) * sum_n H_n(t) sin(gamma_n xi) sin(gamma_n x).

This module evaluates G, its time derivative G_t and the flux combination
eps*G_t + c^2*G with a certified truncation: the returned value differs
from the full series by at most the requested tolerance.

``green_profile`` sums an accelerated series (Kummer's transformation).
Every kernel tends to A_n = exp(-c^2 t/eps)/(eps*gamma_n^2), and G_t's to
-(c^2/eps)*A_n, whose series have the closed form

    (2/l) * sum_n sin(gamma_n x) sin(gamma_n xi)/gamma_n^2 = min(x, xi)*(l - max(x, xi))/l,

so the evaluator adds that closed form and sums only the remainders
r_n = K_n - A_n, which fall off like 1/n^4 (the flux kernel's two
asymptotes cancel, so its direct terms already do).  ``plan_accelerated``
certifies the head depth with a bound C(t)/gamma_n^4 on the remainders of
overdamped modes (``_remainder_tail``); tolerances of 1e-10 take a few
thousand modes.

``plan_truncation`` certifies the direct partial sum instead (per-mode
``term_bounds`` and ``_closed_tail`` beyond a depth).  It combines

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
    "plan_accelerated",
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
# most (x, mode) elements of one sine matrix in green_profile (8 MB)
SYNTH_ELEMS = 2**20


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


# The tail bounds below are builders: ``bound = _closed_tail(p, t, kind)``
# computes every constant of the bound once, and ``bound(n0)`` then costs a
# few float operations, so the depth search of a plan pays for its constants
# once, not once per probed depth.

def _gauss_tail(sigma: float, t: float):
    """Bound n0 -> sum_{n > n0} exp(-sigma*n^2*t), the envelope of the fast parts."""
    st = sigma * t

    def bound(n0: int) -> float:
        n0_sq = n0**2
        return math.exp(-st * n0_sq) / (2.0 * st * n0) if st * n0_sq < 745 else 0.0

    return bound


def _closed_tail(p: Params, t: float, kind: str):
    """Bound n0 -> the series tail beyond n0, all such modes overdamped with
    (b/h)^2 <= CHAIN_K: the sum over n > n0 of ``term_bounds``."""
    rk, sigma, e_p = _chain(p, t)
    c2 = p.c**2
    gauss = _gauss_tail(sigma, t)
    if kind == "green":
        slow = (rk / sigma) * e_p
        return lambda n0: slow / n0
    if kind == "dt":
        slow = (2.0 * c2 / p.epsilon) * (rk / (2.0 * sigma)) * e_p
        fast = 0.5 * (rk + 1.0)
        return lambda n0: slow / n0 + fast * gauss(n0)
    c_f = c2 * (p.a / sigma + c2 * math.pi**2 / (p.l**2 * sigma**2))
    slow = c_f * rk / (2.0 * sigma) * e_p
    fast = rk * (c2 / (2.0 * sigma) + p.epsilon)
    return lambda n0: slow / (3.0 * n0**3) + fast * gauss(n0)


def _search_depth(tail, t: float, tol: float, kind: str) -> TruncationPlan:
    """Smallest depth n <= MODE_CAP with ``tail(n) <= tol``, for a tail bound
    that does not grow with n: doubling, then bisection.  Raises
    TruncationError when even MODE_CAP modes do not reach ``tol``."""
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


def _free_depth(p: Params) -> int:
    """n_free = max(nk, n2_star): every mode n >= n_free is overdamped with
    (b/h)^2 <= CHAIN_K."""
    cls = classify_modes(p, CHAIN_K)
    return max(cls.nk, cls.n2_star)


def plan_truncation(p: Params, t: float, tol: float, *, kind: str = "green") -> TruncationPlan:
    """Smallest mode count whose certified tail bound falls below ``tol``.

    This certifies the *direct* partial sum of the kernel series (what
    ``plan_accelerated`` certifies is the asymptote-subtracted sum that
    ``green_profile`` evaluates).  The tail beyond N sums the per-term
    bounds: the finitely many modes not covered by the uniform 1/n^2 chain
    are bounded individually, the remainder in closed form.  Raises
    TruncationError when the tolerance is unreachable within MODE_CAP
    modes (the G and G_t bounds only decay like 1/n at fixed t, so tight
    tolerances are not certifiable by direct summation), and ValueError
    for a kind outside KINDS or a time or tolerance that is not positive
    and finite.
    """
    _check_request(t, tol, kind)
    n_free = _free_depth(p)
    head_table = mode_table(p, n_free - 1) if n_free > 1 else None
    head_bounds = term_bounds(head_table, p, t, kind) if head_table is not None else None
    two_over_l = 2.0 / p.l
    closed_tail = _closed_tail(p, t, kind)

    def tail(n: int) -> float:
        n0 = max(n, n_free - 1, 1)
        total = closed_tail(n0)
        if n < n_free - 1:
            total += float(np.sum(head_bounds[n:]))
        return two_over_l * total

    return _search_depth(tail, t, tol, kind)


def _remainder_tail(p: Params, t: float, kind: str):
    """Bound n0 -> sum_{n > n0} |r_n(t)|, the remainders of G ("green") or G_t
    ("dt") after subtracting the asymptote, all such modes overdamped with
    (b/h)^2 <= CHAIN_K.

    With lam = c^2/eps, an overdamped H_n splits into the slow part
    e^(-dm t)/(2w) - e^(-lam t)/(eps g^2) (asymptote included) and the fast
    part e^(-dp t)/(2w).  From eps g^2 - 2w = 2dm - a and
    dm - lam = c^2 (dm - a)/(eps (h + w)), with w >= h/rk, h >= eps g^2/2,
    dm <= 2 lam and e^(-dm t), e^(-lam t) <= e^(-p t):

      |dm - lam| <= shift/g^2,           shift  = 2 c^2 max(2 lam, a)/((1 + 1/rk) eps^2)
      |1/(2w) - 1/(eps g^2)| <= off/g^4, off    = rk max(4 lam, a)/eps^2

    so by the mean-value theorem the slow part of r_n is at most
    (t shift rk/eps + off) e^(-p t)/g^4, and its time derivative (the slow
    part of the G_t remainder) at most
    (max(1, 2 lam t) shift rk/eps + lam off) e^(-p t)/g^4.  The tail sum
    uses sum_{n > n0} g_n^-4 <= (l/pi)^4/(3 n0^3).  The fast parts,
    e^(-dp t)/(2w) <= rk/(2 sigma n^2) e^(-sigma n^2 t) and
    dp e^(-dp t)/(2w) <= (rk + 1)/2 e^(-sigma n^2 t), go under
    the Gaussian envelope ``_gauss_tail``.
    """
    rk, sigma, e_p = _chain(p, t)
    eps, c2 = p.epsilon, p.c**2
    lam = c2 / eps
    shift = 2.0 * c2 * max(2.0 * lam, p.a) / ((1.0 + 1.0 / rk) * eps**2)
    off = rk * max(4.0 * lam, p.a) / eps**2
    l_pi4 = (p.l / math.pi) ** 4
    gauss = _gauss_tail(sigma, t)
    if kind == "green":
        slow = (t * shift * rk / eps + off) * e_p
        return lambda n0: slow * (l_pi4 / (3.0 * n0**3)) + rk / (2.0 * sigma * n0**2) * gauss(n0)
    slow = (max(1.0, 2.0 * lam * t) * shift * rk / eps + lam * off) * e_p
    fast = 0.5 * (rk + 1.0)
    return lambda n0: slow * (l_pi4 / (3.0 * n0**3)) + fast * gauss(n0)


def _asymptote_factor(p: Params, t: float, kind: str) -> float:
    """Kernel asymptote times eps*gamma_n^2: e^(-lam t) for H_n, -lam e^(-lam t)
    for H_n' (lam = c^2/eps), and 0 for the flux, whose two cancel."""
    lam = p.c**2 / p.epsilon
    return {"green": 1.0, "dt": -lam, "flux": 0.0}[kind] * math.exp(-lam * t)


def plan_accelerated(p: Params, t: float, tol: float, *, kind: str = "green") -> TruncationPlan:
    """Smallest head depth N that certifies ``green_profile``'s sum to ``tol``.

    ``green_profile`` sums the remainders r_n = K_n - A_n of the kernels
    after their asymptote A_n (zero for the flux, whose direct terms
    already fall off like 1/n^4) and adds the asymptote's series in closed
    form, so the dropped tail is sum_{n > N} |r_n| (``_remainder_tail``).
    N is at least n_free - 1, so every dropped mode is overdamped with
    (b/h)^2 <= CHAIN_K.  For the flux this is ``plan_truncation``.  Raises
    like ``plan_truncation``.
    """
    _check_request(t, tol, kind)
    if kind == "flux":
        return plan_truncation(p, t, tol, kind=kind)
    n_min = max(_free_depth(p) - 1, 1)
    two_over_l = 2.0 / p.l
    remainder_tail = _remainder_tail(p, t, kind)

    def tail(n: int) -> float:
        if n < n_min:
            return math.inf
        return two_over_l * remainder_tail(n)

    return _search_depth(tail, t, tol, kind)


def green_profile(p: Params, xs, xi: float, t: float, *, kind: str = "green",
                  tol: float = 1e-6, n_terms: int | None = None) -> np.ndarray:
    """Evaluate G (or G_t, or eps*G_t + c^2*G) along an array of x values.

    ``kind`` is one of KINDS; the result differs from the full series by at
    most ``tol``.  The series is summed in accelerated form: the kernels'
    asymptote A_n = a(t)/(eps*gamma_n^2) (``_asymptote_factor``) is
    subtracted from the first N terms and its whole series added back in
    closed form, (2/l) sum_n sin(gamma_n x) sin(gamma_n xi)/gamma_n^2 =
    min(x, xi)*(l - max(x, xi))/l, so the head depth N is certified by
    ``plan_accelerated``.  ``n_terms`` overrides that N; verification
    stencils use it to difference partial sums of matched depth.  A point
    value is ``green_profile(p, [x], xi, t)[0]``.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    xi, t = float(xi), float(t)
    _check_request(t, tol, kind)
    if not (((xs >= 0.0) & (xs <= p.l)).all() and 0.0 <= xi <= p.l):  # also rejects NaN
        raise ValueError("x and xi must lie in [0, l]")
    out = np.zeros(xs.shape)
    if xi == 0.0 or xi == p.l:
        return out
    interior = (xs != 0.0) & (xs != p.l)
    x = xs[interior]
    if not x.size:
        return out
    n = n_terms if n_terms is not None else plan_accelerated(p, t, tol, kind=kind).n_terms
    table = mode_table(p, n)
    if kind == "green":
        vals = kernel_values(table, t)
    elif kind == "dt":
        vals = kernel_dt_values(table, t)
    else:
        vals = flux_values(table, t)
    asym = _asymptote_factor(p, t, kind) / p.epsilon
    weights = (vals - asym / table.gamma**2) * np.sin(table.gamma * xi)
    closed = asym * np.minimum(x, xi) * (p.l - np.maximum(x, xi)) / p.l
    step = max(1, SYNTH_ELEMS // x.size)
    head = sum(np.sin(x[:, None] * table.gamma[None, i:i + step]) @ weights[i:i + step]
               for i in range(0, n, step))
    out[interior] = closed + (2.0 / p.l) * head
    return out
