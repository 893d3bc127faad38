"""Mode decomposition of the dissipative strip operator.

The operator ``L = d_xx(eps*d_t + c^2) - d_t(d_t + a)`` with homogeneous
Dirichlet conditions on (0, l) diagonalises over the sine basis
``sin(gamma_n x)``, ``gamma_n = n*pi/l``.  Each mode carries a damped
temporal kernel ``H_n`` solving

    H_n'' + 2*h_n*H_n' + b_n^2*H_n = 0,   H_n(0) = 0,  H_n'(0) = 1,

with ``b_n = c*gamma_n`` and ``h_n = (a + eps*gamma_n^2)/2``.  Depending on
the sign of ``h_n - b_n`` the kernel is overdamped (sinh-type), critically
damped (t*exp) or oscillatory (sin-type).

Numerical policy: no hyperbolic function of a large argument is ever
formed.  Overdamped kernels use the split

    H_n(t) = (exp(-(h-w)*t) - exp(-(h+w)*t)) / (2*w)

with the cancellation-free slow rate ``h - w = b^2/(h + w)``; both
exponents are non-positive, so the evaluation cannot overflow for any mode
index or time.  Phases ``|w*t|`` below ``SERIES_SWITCH`` use a four-term
Maclaurin series of sinh(x)/x (sin(x)/x in the oscillatory regime), which
keeps the relative error at machine level and makes H(0) = 0 and
H'(0) = 1 exact in every regime.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

__all__ = [
    "Params",
    "ModeClassification",
    "ModeTable",
    "mode_table",
    "kernel_values",
    "kernel_dt_values",
    "flux_values",
    "propagate_state",
    "classify_modes",
    "CRITICAL_REL_TOL",
    "SERIES_SWITCH",
]

# |h - b| <= CRITICAL_REL_TOL * h is treated as critically damped.
CRITICAL_REL_TOL = 1e-12
# |w*t| below this uses the Maclaurin branch instead of exp/sin splits.
SERIES_SWITCH = 1e-4


@dataclass(frozen=True)
class Params:
    """Physical constants of the operator on the strip (0, l).

    epsilon: diffusion of the third-order term, a: damping, c: wave speed,
    l: strip length.  All strictly positive.
    """

    epsilon: float
    a: float
    c: float
    l: float

    def __post_init__(self):
        for name in ("epsilon", "a", "c", "l"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"parameter {name!r} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class ModeClassification:
    """Integer brackets of the oscillatory band.

    ``n1_star``: largest index strictly below the lower band edge,
    ``n2_star``: smallest index strictly above the upper band edge,
    ``nk``: smallest index from which every mode satisfies
    (b_n/h_n)^2 <= k (the k given to ``classify_modes``), the validity
    threshold of the 1/n^2 kernel bound.
    When c^2 <= a*eps there is no oscillatory band and the sentinel
    (n1_star, n2_star) = (0, 1) is returned.
    """

    n1_star: int
    n2_star: int
    nk: int


@dataclass(frozen=True)
class ModeTable:
    """Per-mode quantities of modes 1..n_max, one array entry per mode.

    gamma = n*pi/l, b = c*gamma, h = (a + eps*gamma^2)/2.  ``omega`` is
    sqrt(|h^2 - b^2|), 0 for critical modes; the masks ``over``, ``crit``
    and ``osc`` give each mode's damping regime.  ``sign`` is +1 for
    sinh-type (overdamped/critical) and -1 for sin-type modes; ``dm``/``dp``
    are the slow/fast decay rates h -+ omega (dm is the cancellation-free
    b^2/(h + omega) for overdamped modes and falls back to h otherwise).
    The arrays of a table from ``mode_table`` are read-only.
    """

    epsilon: float
    a: float
    c: float
    l: float
    n: np.ndarray
    gamma: np.ndarray
    b: np.ndarray
    h: np.ndarray
    omega: np.ndarray
    sign: np.ndarray
    dm: np.ndarray
    dp: np.ndarray
    osc: np.ndarray
    crit: np.ndarray
    over: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.n.size


# the columns of a ModeTable that hold one entry per mode
_COLUMNS = tuple(f.name for f in fields(ModeTable) if f.type == "np.ndarray")
# mode_table's memory: the last Params it was given, the deepest table built
# for them and the views of its first rows handed out so far, by depth, at
# most _MAX_VIEWS of them (a green-series unit asks for up to 31 depths of
# one Params; a view is ~1.5 KB)
_slot = (None, None, {})
_MAX_VIEWS = 64


def mode_table(p: Params, n_max: int) -> ModeTable:
    """Mode quantities for n = 1..n_max as arrays; n_max is an integer >= 1.

    Every per-mode quantity is elementwise in n, so the first m rows of a
    deeper table are bitwise the m-mode table.  The function keeps one
    slot: the last ``p``, the deepest table built for it and the views of
    its first rows already handed out, one per depth and at most
    _MAX_VIEWS of them.  A request for the same ``p`` at or below that depth
    gets that table or such a view; anything else builds a new table, which
    replaces the slot.  So one table is kept alive, plus a bounded number
    of small view objects, and table arrays are read-only: writing to one
    raises ValueError.
    """
    if not isinstance(n_max, numbers.Integral):
        raise ValueError(f"n_max must be an integer, got {n_max!r}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    global _slot
    n_max = int(n_max)
    params, base, views = _slot
    if params != p or base.n_modes < n_max:
        _slot = (None, None, {})  # let the old table go before the new one is built
        base = _build_table(p, n_max)
        views = {n_max: base}
        _slot = (p, base, views)
    table = views.get(n_max)
    if table is None:
        if len(views) >= _MAX_VIEWS:  # a long depth sweep: start the memo afresh
            views.clear()
        table = views[n_max] = replace(base, **{k: getattr(base, k)[:n_max] for k in _COLUMNS})
    return table


def _build_table(p: Params, n_max: int) -> ModeTable:
    """A fresh n_max-mode table with read-only arrays; ``mode_table`` without its slot.

    Each column is a view of a read-only array, so numpy refuses to make it
    writeable again.
    """
    n_idx = np.arange(1, n_max + 1, dtype=float)
    gamma = n_idx * (math.pi / p.l)
    b = p.c * gamma
    h = 0.5 * (p.a + p.epsilon * gamma**2)
    gap = h - b
    crit = np.abs(gap) <= CRITICAL_REL_TOL * h
    osc = (b > h) & ~crit
    over = ~(osc | crit)
    omega = np.where(crit, 0.0, np.sqrt(np.abs(gap * (h + b))))
    sign = np.where(osc, -1.0, 1.0)
    dp = h + omega
    dm = np.where(over, b * b / dp, h)
    columns = dict(n=n_idx, gamma=gamma, b=b, h=h, omega=omega, sign=sign,
                   dm=dm, dp=dp, osc=osc, crit=crit, over=over)
    for arr in columns.values():
        arr.flags.writeable = False
    return ModeTable(epsilon=p.epsilon, a=p.a, c=p.c, l=p.l,
                     **{k: arr[:] for k, arr in columns.items()})


def _maclaurin(table: ModeTable, col, tt, kind: str):
    """Small-phase branch |omega*t| < SERIES_SWITCH; exact at t = 0.

    The series runs in y = sign*(omega*t)^2 (sinh(x)/x and cosh(x), or
    sin(x)/x and cos(x), by the sign of the mode).
    """
    h = col(table.h)
    x = col(table.omega) * tt
    y = col(table.sign) * x * x
    # y = 0 (critical modes, t = 0) makes both series exactly 1: skip them
    exact = not y.any()
    sinc_s = 1.0 if exact else 1.0 + y / 6.0 * (1.0 + y / 20.0 * (1.0 + y / 42.0))
    decay = np.exp(-h * tt)
    if kind == "green":
        return tt * decay * sinc_s
    cosh_s = 1.0 if exact else 1.0 + y / 2.0 * (1.0 + y / 12.0 * (1.0 + y / 30.0))
    if kind == "dt":
        return decay * (cosh_s - h * tt * sinc_s)
    eps = table.epsilon
    return decay * (eps * cosh_s + (table.c**2 - eps * h) * tt * sinc_s)


def _oscillatory(table: ModeTable, col, tt, kind: str):
    """sin-type branch; the phase x = omega*t is at least SERIES_SWITCH."""
    h = col(table.h)
    x = col(table.omega) * tt
    decay = np.exp(-h * tt)
    sinc_o = np.sin(x) / x
    if kind == "green":
        return decay * tt * sinc_o
    cos_o = np.cos(x)
    if kind == "dt":
        return decay * (cos_o - h * tt * sinc_o)
    eps = table.epsilon
    return decay * (eps * cos_o + (table.c**2 - eps * h) * tt * sinc_o)


def _overdamped(table: ModeTable, col, tt, kind: str):
    """Split into two exponentials whose exponents are non-positive."""
    dm = col(table.dm)
    dp = col(table.dp)
    two_om = 2.0 * col(table.omega)
    e_slow = np.exp(-dm * tt)
    e_fast = np.exp(-dp * tt)
    if kind == "green":
        return (e_slow - e_fast) / two_om
    if kind == "dt":
        return (dp * e_fast - dm * e_slow) / two_om
    c2 = table.c**2
    # stable slow coefficient: c^2 - eps*dm = c^2*(a - dm)/(h + omega)
    coef_slow = c2 * (table.a - dm) / dp
    coef_fast = c2 - table.epsilon * dp
    return (coef_slow * e_slow - coef_fast * e_fast) / two_om


def _kernel_core(table: ModeTable, t, kind: str):
    """Evaluate H, H' or eps*H' + c^2*H for all table modes.

    ``t`` may be a scalar or a 1-D array of non-negative times (a negative,
    infinite or NaN time raises ValueError); the result has shape
    (n_modes,) for scalar t and (n_modes, len(t)) otherwise.

    Every (mode, time) element goes through exactly one branch, chosen by
    its phase omega*t and the mode's regime: the Maclaurin series below
    SERIES_SWITCH (this covers critical modes, whose omega is 0), the
    sin/cos form for oscillatory modes, and the two-exponential split for
    overdamped ones.  Each branch evaluates its formula only on the
    elements it owns: it gets ``col``, which maps a per-mode table array to
    those elements, and their times ``tt``.

    A scalar t takes its own path, which pays no per-element dispatch: the
    branch masks are per mode (1-D), each branch gathers its modes' table
    entries with one boolean index and takes t as a Python float, a branch
    that owns no mode is skipped, and one that owns every mode gathers
    nothing and its values are returned as they are.  A time array builds
    (mode, time) masks and broadcasts the table columns against the times
    (``_kernel_grid``).  Both paths apply the same operations to every
    element, so a scalar t gives bitwise the column of the same t in an
    array.
    """
    if not isinstance(t, (float, int)):  # np.float64 is a float
        tt = np.asarray(t, dtype=float)
        if tt.ndim:
            return _kernel_grid(table, tt, kind)
    t = float(t)
    if not 0.0 <= t < math.inf:  # also rejects NaN
        raise ValueError(f"time must be non-negative and finite, got {t}")
    small = table.omega * t < SERIES_SWITCH
    # critical modes (omega = 0) are always small, so the modes left over
    # are oscillatory or overdamped
    large = ~small
    out = np.empty(small.size)
    for mask, branch in ((small, _maclaurin), (table.osc & large, _oscillatory),
                         (table.over & large, _overdamped)):
        owned = np.count_nonzero(mask)
        if owned == mask.size:  # the masks are disjoint: no other branch owns a mode
            return branch(table, lambda v: v, t, kind)
        if owned:
            out[mask] = branch(table, lambda v, m=mask: v[m], t, kind)
    return out


def _kernel_grid(table: ModeTable, tt: np.ndarray, kind: str):
    """``_kernel_core`` on a 1-D array of times: (mode, time) masks."""
    valid = (tt >= 0.0) & (tt < np.inf)  # also rejects NaN
    if not valid.all():
        raise ValueError(f"time must be non-negative and finite, got {tt[~valid][0]}")
    small = table.omega[:, None] * tt[None, :] < SERIES_SWITCH
    osc = table.osc[:, None]
    masks = (small, osc & ~small, ~(osc | small))
    shape = small.shape
    out = np.empty(shape)
    for mask, branch in zip(masks, (_maclaurin, _oscillatory, _overdamped)):
        if mask.all():  # one branch for the whole table: broadcast, copy nothing
            out[...] = branch(table, lambda v: v[:, None], tt[None, :], kind)
        elif mask.any():
            out[mask] = branch(table, lambda v, m=mask: np.broadcast_to(v[:, None], shape)[m],
                               np.broadcast_to(tt, shape)[mask], kind)
    return out


def kernel_values(table: ModeTable, t):
    """H_n(t) for all modes of the table; t scalar or 1-D array, t >= 0.

    H_n(0) = 0 and H_n'(0) = 1 hold exactly in every regime.
    """
    return _kernel_core(table, t, "green")


def kernel_dt_values(table: ModeTable, t):
    """dH_n/dt for all modes of the table."""
    return _kernel_core(table, t, "dt")


def flux_values(table: ModeTable, t):
    """eps*H_n'(t) + c^2*H_n(t) for all modes of the table."""
    return _kernel_core(table, t, "flux")


def propagate_state(table: ModeTable, u0, v0, hv, hd):
    """Modal state (u, u_t) at time t from u = u0, u_t = v0 at time 0.

    ``hv`` and ``hd`` are H_n(t) and H_n'(t) with the modes along axis 0
    (as returned by ``kernel_values``/``kernel_dt_values``); ``u0`` and
    ``v0`` broadcast against them.  With no source,

        u   = v0*H_n + u0*(H_n' + 2*h_n*H_n),
        u_t = v0*H_n' - u0*b_n^2*H_n,

    so the state is returned unchanged at t = 0.
    """
    col = (slice(None),) + (None,) * (np.ndim(hv) - 1)
    h, b2 = table.h[col], (table.b**2)[col]
    return v0 * hv + u0 * (hd + 2.0 * h * hv), v0 * hd - u0 * b2 * hv


def classify_modes(p: Params, k: float = 0.5) -> ModeClassification:
    """Integer brackets of the oscillatory band and the 1/n^2-bound threshold.

    For c^2 > a*eps the band edges are the real roots
    N_{1,2} = (c*l/(eps*pi)) * (1 -+ sqrt(1 - a*eps/c^2)) of h_n = b_n;
    modes strictly between them oscillate.  ``nk`` is the smallest integer
    strictly above (c*l/(eps*pi*sqrt(k))) * (1 + sqrt(1 - a*eps*k/c^2)),
    from which (b_n/h_n)^2 <= k holds for every n >= nk.
    """
    if not (0.0 < k < 1.0):
        raise ValueError(f"k must lie in (0, 1), got {k}")
    c2 = p.c**2
    ae = p.a * p.epsilon
    scale = p.c * p.l / (p.epsilon * math.pi)
    if c2 > ae:
        root = math.sqrt(1.0 - ae / c2)
        n1 = scale * (1.0 - root)
        n2 = scale * (1.0 + root)
        n1_star = math.ceil(n1) - 1
        n2_star = math.floor(n2) + 1
    else:
        n1_star, n2_star = 0, 1
    if c2 > ae * k:
        fk = (scale / math.sqrt(k)) * (1.0 + math.sqrt(1.0 - ae * k / c2))
        nk = max(1, math.floor(fk) + 1)
    else:
        nk = 1
    return ModeClassification(n1_star=n1_star, n2_star=n2_star, nk=nk)
