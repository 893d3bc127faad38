"""Decay-rate estimation for solution and kernel sup-norm histories.

``decay_fit`` fits log(sup-norm) against t by least squares and reports
the exponential rate.  The measured rates are lower-bounded by the
operator constant beta = min(p, q) but are usually larger (the slowest
surviving mode decides), so verification asserts inequalities against
beta, never equality.  ``algebraic_decay_check`` tests whether a history
decays at least like t^(-alpha) by inspecting sup_norm(t) * t^alpha on
the tail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DecayFit",
    "decay_fit",
    "algebraic_decay_check",
    "default_window",
    "MIN_SAMPLES",
    "SLOPE_TOL",
]

MIN_SAMPLES = 10
# Largest log-log slope of sup_norm * t^alpha that still counts as bounded.
SLOPE_TOL = 0.05
_FLOOR = 1e-300


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential fit sup_norm ~ exp(log_amplitude - rate*t)."""

    rate: float
    log_amplitude: float
    max_residual: float
    window: tuple


def default_window(horizon: float) -> tuple:
    """Fit window skipping early transients and the tail-truncation noise."""
    return (max(5.0, 0.2 * horizon), 0.9 * horizon)


def _history(ts, sup_norms) -> tuple:
    """Times and sup norms as matching 1-D float arrays; rejects non-finite
    times and non-finite or negative sup norms (zeros are fine)."""
    ts, sups = np.asarray(ts, dtype=float), np.asarray(sup_norms, dtype=float)
    if ts.shape != sups.shape or ts.ndim != 1:
        raise ValueError("need matching 1-D arrays of times and sup-norms")
    if not np.isfinite(ts).all():
        raise ValueError("times must be finite")
    if not ((sups >= 0.0) & (sups < np.inf)).all():  # also rejects NaN
        raise ValueError("sup norms must be finite and non-negative")
    return ts, sups


def decay_fit(ts, sup_norms, window: tuple | None = None) -> DecayFit:
    """Fit a line through (t, log sup_norm) on the window; rate = -slope.
    Zero sup norms count as 1e-300; arrays that are not matching and 1-D,
    non-finite times and non-finite or negative sup norms raise ValueError."""
    ts, sups = _history(ts, sup_norms)
    sups = np.maximum(sups, _FLOOR)
    if window is None:
        window = (float(ts[0]), float(ts[-1]))
    lo, hi = window
    if not lo < hi:
        raise ValueError(f"empty fit window {window}")
    mask = (ts >= lo) & (ts <= hi)
    if int(np.sum(mask)) < MIN_SAMPLES:
        raise ValueError(
            f"need at least {MIN_SAMPLES} samples in the window, got {int(np.sum(mask))}")
    t_w, y_w = ts[mask], np.log(sups[mask])
    slope, intercept = np.polyfit(t_w, y_w, 1)
    resid = np.max(np.abs(np.polyval([slope, intercept], t_w) - y_w))
    return DecayFit(rate=-float(slope), log_amplitude=float(intercept),
                    max_residual=float(resid), window=(float(lo), float(hi)))


def algebraic_decay_check(ts, sup_norms, alpha: float) -> tuple:
    """Whether sup_norm(t) * t^alpha stays bounded on the tail t >= 1.

    Returns (bounded, sup_of_product).  Boundedness is judged from the
    log-log slope of the product over the later half of the tail: a slope
    above ``SLOPE_TOL`` flags growth.  Requires coverage of t in [1, 50];
    rejects data as ``decay_fit`` does.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    ts, sups = _history(ts, sup_norms)
    tail = ts >= 1.0
    if int(np.sum(tail)) < MIN_SAMPLES or ts.min() > 1.0 or ts.max() < 50.0:
        raise ValueError("history must cover t in [1, 50] with enough samples")
    t_tail = ts[tail]
    product = np.maximum(sups[tail], _FLOOR) * t_tail**alpha
    sup_product = float(np.max(product))
    late = t_tail >= np.sqrt(t_tail[0] * t_tail[-1])  # geometric midpoint
    slope = np.polyfit(np.log(t_tail[late]), np.log(product[late]), 1)[0]
    return (bool(slope <= SLOPE_TOL), sup_product)
