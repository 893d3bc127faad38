"""Spectral solution of the linear strip problem.

The unique solution of

    d_xx(eps*u_t + c^2*u) - d_t(u_t + a*u) = f,
    u(x, 0) = g0,  u_t(x, 0) = g1,  u(0, t) = u(l, t) = 0,

is assembled from three diagonal actions on sine coefficients:

  * velocity data:      g1_n -> g1_n * H_n(t)
  * displacement data:  g0_n -> g0_n * (H_n'(t) + 2*h_n*H_n(t))
  * source:             f_n(.) -> int_0^t f_n(tau) H_n(t - tau) dtau

and combined as u = u_velocity + u_displacement - u_forced.  The first two
are the modal state map ``modes.propagate_state``, which also carries the
time derivative and the restarts below.  The spectral
representation is exact in x up to series truncation; the output grid only
enters at the final synthesis step.

The source convolution samples f once on a uniform grid over [0, max t]
and convolves the samples with H_n and H_n' by the Gregory/FFT rule shared
with the nonlinear solver (``nonlinear_solver.volterra_convolve``).  An
output time t = t_k + s between grid nodes is reached from the node t_k
below it by the modal restart identity

    U(t_k + s) = U(t_k)*(H_n'(s) + 2*h_n*H_n(s)) + U'(t_k)*H_n(s)
                 + int_{t_k}^{t_k+s} f_n(tau) H_n(t_k + s - tau) dtau,

with the short integral by three-node Simpson (U' = int f_n H_n' restarts
the same way).  A time before the second node, where the grid rule is the
trapezoid and two grids may both reach the time by the same Simpson step,
is instead two-panel Simpson from 0, with |S_2 - S_1| (S_1 the one-panel
sum) as its estimate, divided by 15 where the panel resolves the fast rate;
it does not depend on the grid, and is formed once.  f is called once per
time: a sample off the grid (a Simpson node) is kept, and reused when a
finer grid has a node there or another step needs it again.

The grid starts at step ``START_STEP``, with at least GREGORY_ROW steps
(``nonlinear_solver.GREGORY_ROW``, the first row of the Gregory rule), and
is halved, reusing its samples; from the third grid on, it is accepted
when the estimate of the value returned meets the quadrature tolerance.
With U_dt the value on step dt, each mode and output time takes the first
of these that applies:

  * the 4dt grid resolves the fast rate (dp_n*4*dt <= 1) and reaches the
    time by its Gregory rows (t >= GREGORY_ROW*4*dt): the rule converges at
    fourth order, and the Richardson value R_dt = U_dt + (U_dt - U_2dt)/15
    is returned, with estimate |R_dt - R_2dt|/7;
  * the same holds for the 2dt grid: U_dt, with estimate |U_dt - U_2dt|/7;
  * otherwise U_dt, with the larger of |U_dt - U_2dt| and |U_2dt - U_4dt|
    as estimate.  A boundary layer of width 1/dp_n that the grid does not
    resolve converges at about first order, and there the raw difference
    bounds the error; at times the 2dt grid reaches by its Newton-Cotes
    rows the error changes rule from grid to grid, and one difference can
    vanish by chance.

A mode whose slow rate (dm_n; for an oscillating mode the fast rate
h_n + omega_n) the 2dt grid does not resolve is sampled almost nowhere on
its kernel, and two such grids can agree on a wrong value.  Its estimate
is instead a bound on the error, |U_dt| + max|f_n| * int_0^inf |H_n|
(|H_n'| for U'), with the integrals bounded by 1/dm_n^2 and 2/dm_n and
the maximum taken over the grid's samples; a mode too small to matter
passes, a larger one keeps the grid from being accepted.  The estimate is
the largest over the modes, the output times and U' when the grid asks
for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nonlinear_solver
from .errors import AccuracyError
from .fields import Field
from .modes import ModeTable, Params, kernel_dt_values, kernel_values, mode_table, propagate_state
from .spectrum import SineSpectrum, check_length, pad_modes

__all__ = [
    "LinearProblem",
    "GridSpec",
    "Field",
    "QuadConfig",
    "solve_linear",
]


# Initial step of the uniform source grid.
START_STEP = 0.04
# Halvings of the source grid before AccuracyError is raised: the finest
# reachable step is START_STEP / 2**10.
MAX_DOUBLINGS = 10
# Source spectra ``_sampled`` holds at once: a bound on memory; speed is flat
# from 32 to 512.
SAMPLE_CHUNK = 128


@dataclass(frozen=True)
class QuadConfig:
    """Source-convolution accuracy.

    ``tol`` bounds the estimate of the error of the forced part returned at
    the output times, Richardson-extrapolated where the grids resolve it
    (with its time derivative when the grid asks for it; see the module
    docstring); the source grid is halved at most ``MAX_DOUBLINGS`` times
    before AccuracyError is raised.
    """

    tol: float = 1e-9

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")


@dataclass(frozen=True)
class LinearProblem:
    """Data of the linear strip problem on (0, l) x (0, T]."""

    params: Params
    g0: SineSpectrum
    g1: SineSpectrum
    f: object = None            # None or callable t -> SineSpectrum
    horizon: float = 1.0

    def __post_init__(self):
        if not (self.horizon > 0 and math.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        check_length(self.params.l, g0=self.g0, g1=self.g1)
        if self.f is not None and not callable(self.f):
            raise ValueError("f must be None or a callable t -> SineSpectrum")

    @property
    def n_modes(self) -> int:
        return max(self.g0.n_modes, self.g1.n_modes)


@dataclass(frozen=True)
class GridSpec:
    """Output grid: x nodes in [0, l], t nodes in [0, T]."""

    x_nodes: np.ndarray
    t_nodes: np.ndarray
    with_dt: bool = False

    def __post_init__(self):
        object.__setattr__(self, "x_nodes", np.asarray(self.x_nodes, dtype=float))
        object.__setattr__(self, "t_nodes", np.asarray(self.t_nodes, dtype=float))
        for name in ("x_nodes", "t_nodes"):
            nodes = getattr(self, name)
            if nodes.ndim != 1 or nodes.size < 1 or np.any(np.diff(nodes) <= 0):
                raise ValueError(f"{name} must be strictly increasing and non-empty")
            if not np.all(np.isfinite(nodes)):
                raise ValueError(f"{name} must be finite")


def _sampled(f, taus: np.ndarray, n_modes: int, known: dict,
             on_grid: bool = False) -> np.ndarray:
    """Source spectra f(tau) as columns, padded or cut to n_modes.

    ``known`` maps the times sampled before, off the grid, to their
    columns: those are reused (and taken out of it when ``on_grid``, since
    the grid keeps them), and ``f`` is called once at each other distinct
    time, in increasing order, with a Python float.  Times off the grid add
    their new columns to ``known``.  The spectra are gathered
    ``SAMPLE_CHUNK`` at a time and copied into their columns by one
    concatenation, so they are not all held at once.
    """
    times = taus.tolist()
    reused = np.fromiter((tau in known for tau in times), bool, len(times))
    out = np.empty((n_modes, len(times)))
    for i in np.flatnonzero(reused).tolist():
        out[:, i] = known.pop(times[i]) if on_grid else known[times[i]]
    new, where = np.unique(taus[~reused], return_inverse=True)
    fresh = np.empty((n_modes, new.size))
    for start in range(0, new.size, SAMPLE_CHUNK):
        coeffs = [f(tau).coeffs for tau in new[start:start + SAMPLE_CHUNK].tolist()]
        rows = np.concatenate([c if c.size == n_modes else pad_modes(c, n_modes)
                               for c in coeffs])
        fresh[:, start:start + len(coeffs)] = rows.reshape(-1, n_modes).T
    out[:, ~reused] = fresh[:, where]
    if not on_grid:
        known.update(zip(new.tolist(), fresh.T))
    return out


def _from_zero(sample, table: ModeTable, f0: np.ndarray, t_out: np.ndarray,
               early: np.ndarray, with_dt: bool):
    """U, U' and the estimate of their error by two-panel Simpson from 0.

    U and U' are given at the ``early`` times and are zero at the others
    (U' stays zero without ``with_dt``).  The estimate, per time, is the
    largest over the modes of |S_2 - S_1|, S_1 the one-panel Simpson sum on
    the nodes 0, t/2, t, divided by 15 where that panel resolves the fast
    rate (dp*t/2 <= 1).  ``f0`` is the column f(0); ``sample`` gives the
    columns at t/4, t/2, 3t/4 and, for U', at t.
    """
    n = table.n_modes
    u, du = np.zeros((n, t_out.size)), np.zeros((n, t_out.size))
    estimate = np.zeros(t_out.size)
    t = t_out[early]
    if t.size == 0:
        return u, du, estimate
    fq = sample(np.outer(t, (0.25, 0.5, 0.75)).ravel()).reshape(n, t.size, 3)
    f0 = f0[:, None]
    lags = np.outer((1.0, 0.75, 0.5, 0.25), t).ravel()
    divisor = np.where(np.outer(table.dp, t / 2.0) <= 1.0, 15.0, 1.0)

    def simpson(kernel, end):
        # f(t) enters with the kernel at lag 0: ``end`` is f(t)*H(0)
        h1, h34, h12, h14 = kernel(table, lags).reshape(n, 4, t.size).transpose(1, 0, 2)
        two = t / 12.0 * (f0 * h1 + 4.0 * fq[..., 0] * h34 + 2.0 * fq[..., 1] * h12
                          + 4.0 * fq[..., 2] * h14 + end)
        one = t / 6.0 * (f0 * h1 + 4.0 * fq[..., 1] * h12 + end)
        return two, np.max(np.abs(two - one) / divisor, axis=0)

    # H(0) = 0 and H'(0) = 1
    u[:, early], estimate[early] = simpson(kernel_values, 0.0)
    if with_dt:
        du[:, early], du_estimate = simpson(kernel_dt_values, sample(t))
        estimate[early] = np.maximum(estimate[early], du_estimate)
    return u, du, estimate


def _forced_at(sample, table: ModeTable, fgrid: np.ndarray, dt: float,
               t_out: np.ndarray, with_dt: bool, start):
    """U = int_0^t f_n H_n(t - tau) dtau at t_out from the samples ``fgrid``.

    Also returns U' = int_0^t f_n H_n'(t - tau) dtau when ``with_dt`` (else
    None), and the estimate of the error at the times before the second
    node (0 when there are none), which take their values and estimates
    from ``start``, ``_from_zero``'s.  ``sample`` gives the source columns
    off the grid.
    """
    steps = fgrid.shape[1] - 1
    nodes = dt * np.arange(steps + 1)
    # looked up on its module at call time, so that a wrapper installed on
    # nonlinear_solver.volterra_convolve (perfbench's tracer) sees these calls
    u_grid = nonlinear_solver.volterra_convolve(kernel_values(table, nodes), fgrid, dt)
    du_grid = nonlinear_solver.volterra_convolve(kernel_dt_values(table, nodes), fgrid, dt)
    k = np.minimum(np.floor(t_out / dt).astype(int), steps)
    s = np.maximum(t_out - k * dt, 0.0)
    u, du = u_grid[:, k], du_grid[:, k]
    # before the second node the grid rule is the trapezoid, and two grids
    # may both reach a time by the same Simpson step from 0
    early = (k < 2) & (t_out > 0.0)
    off = (s > 0.0) & ~early
    if np.any(off):
        k, s = k[off], s[off]
        hs, hds = kernel_values(table, s), kernel_dt_values(table, s)
        hm, hdm = kernel_values(table, s / 2.0), kernel_dt_values(table, s / 2.0)
        f0 = fgrid[:, k]
        fm = sample(k * dt + s / 2.0)
        w = s / 6.0
        u_s, du_s = propagate_state(table, u[:, off], du[:, off], hs, hds)
        # H(0) = 0 drops f(t) from the Simpson sum for U
        u[:, off] = u_s + w * (f0 * hs + 4.0 * fm * hm)
        if with_dt:
            du[:, off] = du_s + w * (f0 * hds + 4.0 * fm * hdm + sample(t_out[off]))
    start_u, start_du, start_estimate = start
    u[:, early] = start_u[:, early]
    du[:, early] = start_du[:, early]
    return u, (du if with_dt else None), float(np.max(start_estimate[early], initial=0.0))


def _extrapolated(table: ModeTable, t_out: np.ndarray, dt: float, f_max: np.ndarray,
                  fine, coarse, coarser):
    """The value returned at step ``dt`` and the estimate of its error.

    ``fine``, ``coarse`` and ``coarser`` are the (U, U' or None) pairs on
    the steps dt, 2dt and 4dt, and ``f_max`` is each mode's largest |f_n|
    on the dt grid.  Per mode and output time, as the module docstring sets
    out: Richardson's R = U_dt + (U_dt - U_2dt)/15 with estimate
    |R_dt - R_2dt|/7 where the 4dt grid resolves the fast rate and reaches
    the time by its Gregory rows; else U_dt, with estimate |U_dt - U_2dt|/7
    where the 2dt grid does so and the larger of the last two differences
    where it does not; and, for a mode whose slow rate the 2dt grid does
    not resolve, the bound |U_dt| + f_max * int_0^inf |H_n| (|H_n'| for U').
    """
    first_row = nonlinear_solver.GREGORY_ROW

    def gregory(step):
        # modes the grid of this step resolves, at times its Gregory rows reach
        return (table.dp * step <= 1.0)[:, None] & (t_out >= first_row * step)[None, :]

    resolved = gregory(2.0 * dt)
    extrapolate = gregory(4.0 * dt)
    # an oscillation is resolved only with its fast rate h + omega
    blind = (np.where(table.osc, table.dp, table.dm) * (2.0 * dt) > 1.0)[:, None]
    # |H_n(t)| <= t e^{-dm t} in every regime, and H_n' integrates in
    # absolute value to twice the peak of a one-hump H_n, or, for an
    # oscillation, |H_n'| <= (1 + h t) e^{-h t}: int |H_n| <= 1/dm^2 and
    # int |H_n'| <= 2/dm
    bounds = (f_max / table.dm**2, 2.0 * f_max / table.dm)
    values, estimate = [], 0.0
    for u, u2, u4, bound in zip(fine, coarse, coarser, bounds):
        if u is None:
            values.append(None)
            continue
        change = u - u2
        richardson = u + change / 15.0
        change = np.where(extrapolate, (richardson - (u2 + (u2 - u4) / 15.0)) / 7.0,
                          np.where(resolved, change / 7.0,
                                   np.maximum(np.abs(change), np.abs(u2 - u4))))
        change = np.where(blind, np.abs(u) + bound[:, None], change)
        values.append(np.where(extrapolate, richardson, u))
        estimate = max(estimate, float(np.max(np.abs(change))))
    return tuple(values), estimate


def _forced(f, f0, table: ModeTable, t_out: np.ndarray, quad: QuadConfig,
            with_dt: bool):
    """Forced part (U, U' or None) at t_out, refined by step halving.

    ``f0`` is the spectrum f(0.0), node 0 of every source grid.  A grid is
    accepted from the third on, when its estimate meets the tolerance.
    """
    horizon = float(np.max(t_out))
    n = table.n_modes
    if horizon == 0.0:
        zero = np.zeros((n, t_out.size))
        return zero, (zero.copy() if with_dt else None)
    known = {0.0: pad_modes(f0.coeffs, n)}  # source columns sampled off the grid

    def sample(taus, on_grid=False):
        return _sampled(f, taus, n, known, on_grid)

    # the first grid reaches the horizon by a Gregory row
    steps = max(math.ceil(horizon / START_STEP), nonlinear_solver.GREGORY_ROW)
    dt = horizon / steps
    fgrid = sample(dt * np.arange(steps + 1), on_grid=True)
    # every grid's times before its second node are among the first grid's
    start = _from_zero(sample, table, fgrid[:, 0], t_out,
                       (t_out > 0.0) & (t_out < 2.0 * dt), with_dt)
    levels = []  # (U, U') on the last two grids, the finer first
    estimate = math.inf
    for doubling in range(MAX_DOUBLINGS + 1):
        if doubling:
            steps, dt = 2 * steps, dt / 2.0
            finer = np.empty((n, steps + 1))
            finer[:, ::2] = fgrid
            finer[:, 1::2] = sample(dt * np.arange(1, steps, 2), on_grid=True)
            fgrid = finer
        *fine, early_estimate = _forced_at(sample, table, fgrid, dt, t_out, with_dt, start)
        if len(levels) == 2:
            value, estimate = _extrapolated(table, t_out, dt, np.max(np.abs(fgrid), axis=1),
                                            fine, *levels)
            estimate = max(estimate, early_estimate)
            if estimate <= quad.tol:
                return value
        levels = [fine] + levels[:1]
    raise AccuracyError(
        f"convolution quadrature did not reach tol = {quad.tol:.3g} on [0, {horizon:.3g}] "
        f"(last error estimate {estimate:.3g})", estimate=estimate)


def solve_linear(prob: LinearProblem, grid: GridSpec,
                 quad: QuadConfig = QuadConfig()) -> Field:
    """Sample u = u_velocity + u_displacement - u_forced on the grid.

    Satisfies u(., 0) = g0, u_t(., 0) = g1 and exact zeros on the lateral
    boundary.  With ``grid.with_dt`` the time derivative is assembled from
    the per-mode derivative identities (no finite differencing).
    """
    p = prob.params
    # x_nodes increase strictly, so their ends bound them
    if grid.x_nodes[0] < 0 or grid.x_nodes[-1] > p.l:
        raise ValueError("grid x nodes must lie in [0, l]")
    n = prob.n_modes
    f0 = None
    if prob.f is not None:
        f0 = prob.f(0.0)
        if not isinstance(f0, SineSpectrum):
            raise TypeError(f"f(0.0) must be a SineSpectrum, got {type(f0).__name__}")
        check_length(p.l, f=f0)
        n = max(n, f0.n_modes)
    table = mode_table(p, n)
    g0c = pad_modes(prob.g0.coeffs, n)[:, None]
    g1c = pad_modes(prob.g1.coeffs, n)[:, None]
    ts = grid.t_nodes
    if np.any(ts > prob.horizon + 1e-12) or np.any(ts < 0):
        raise ValueError("grid times must lie in [0, horizon]")
    sin_mat = np.sin(np.outer(grid.x_nodes, table.gamma))
    boundary = (grid.x_nodes == 0.0) | (grid.x_nodes == p.l)
    sin_mat[boundary, :] = 0.0
    coeffs, dt_coeffs = propagate_state(table, g0c, g1c, kernel_values(table, ts),
                                        kernel_dt_values(table, ts))
    if prob.f is not None:
        uf, uf_dt = _forced(prob.f, f0, table, ts, quad, grid.with_dt)
        coeffs = coeffs - uf
        if grid.with_dt:
            dt_coeffs = dt_coeffs - uf_dt
    values_dt = sin_mat @ dt_coeffs if grid.with_dt else None
    return Field(x_nodes=grid.x_nodes.copy(), t_nodes=ts.copy(),
                 values=sin_mat @ coeffs, values_dt=values_dt)
