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

The source convolution samples f on a uniform grid over [0, max t].  On
each step it integrates the cubic through the nodes k-2..k+1 (0..3 on the
first two steps) against the exact H_n and H_n', by the rule shared with
the nonlinear solver (``nonlinear_solver.step_weights`` and
``volterra_convolve``).  Its error is the cubic's interpolation error of
f times int |H_n|, whatever the mode's rates.  An output time
t = t_k + s after node k is reached from the node by the modal restart
identity

    U(t_k + s) = U(t_k)*(H_n'(s) + 2*h_n*H_n(s)) + U'(t_k)*H_n(s)
                 + int_{t_k}^{t_k+s} f_n(tau) H_n(t_k + s - tau) dtau,

with the last integral a partial step of the same stencil (U' restarts
the same way), so every sample is a grid node and f is called once per
node.

The grid starts at step ``START_STEP``, with at least three steps, and is
halved, reusing its samples.  With U_dt the value on step dt, each grid
from the second forms the Richardson value R_dt = U_dt + (U_dt - U_2dt)/15,
and from the third grid on R_dt is returned when the estimate of its
error, |R_dt - R_2dt|/4, meets the quadrature tolerance.  The divisor 7
would be exact for an error of order dt^3; 4 leaves a margin for grids
on which the error has not yet taken its dt^4 form and the Richardson
value over-corrects.  Before the third node of the 2dt grid one cubic
carries the whole integral, the error does not scale as dt^4 from grid
to grid, and the estimate there is the plain difference |U_dt - U_2dt|.
The estimate is the largest over the modes, the output times and U' when
the grid asks for it.
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
    the output times, Richardson-extrapolated (with its time derivative
    when the grid asks for it; see the module docstring); the source grid
    is halved at most ``MAX_DOUBLINGS`` times before AccuracyError is
    raised.
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


def _sampled(f, taus: np.ndarray, n_modes: int) -> np.ndarray:
    """Source spectra f(tau) as columns, padded or cut to n_modes.

    ``f`` is called once per time, in order, with a Python float.  The
    spectra are gathered ``SAMPLE_CHUNK`` at a time and copied into their
    columns by one concatenation, so they are not all held at once.
    """
    out = np.empty((n_modes, taus.size))
    for start in range(0, taus.size, SAMPLE_CHUNK):
        coeffs = [f(tau).coeffs for tau in taus[start:start + SAMPLE_CHUNK].tolist()]
        rows = np.concatenate([c if c.size == n_modes else pad_modes(c, n_modes)
                               for c in coeffs])
        out[:, start:start + len(coeffs)] = rows.reshape(-1, n_modes).T
    return out


def _forced_at(table: ModeTable, fgrid: np.ndarray, dt: float, t_out: np.ndarray):
    """U = int_0^t f_n H_n(t - tau) dtau and U' (with H_n') at t_out.

    ``fgrid`` holds the source samples on the grid of step ``dt`` from 0.
    A time t_k + s after node k < steps, 0 < s <= dt, is reached from the
    node by ``propagate_state`` and a partial step of the same stencil.
    """
    steps = fgrid.shape[1] - 1
    k = np.minimum(np.floor(t_out / dt).astype(int), steps - 1)
    s = t_out - k * dt
    off = s > 0.0
    # the kernels at the grid's nodes, then at the partial steps' lengths;
    # one step_weights call for the grid's step (node 1) and the partial steps
    times = np.concatenate([dt * np.arange(steps + 1), s[off]])
    hmat, hdmat = kernel_values(table, times), kernel_dt_values(table, times)
    lengths = np.r_[1, steps + 1:times.size]
    a, c = nonlinear_solver.step_weights(table, times[lengths], dt, hmat[:, lengths])
    grid, partial = slice(0, steps + 1), slice(steps + 1, None)
    w = propagate_state(table, a[..., :1], c[..., :1], hmat[:, None, grid], hdmat[:, None, grid])
    # looked up on its module at call time, so that a wrapper installed on
    # nonlinear_solver.volterra_convolve (perfbench's tracer) sees these calls
    u, du = (nonlinear_solver.volterra_convolve(wk, fgrid)[:, k] for wk in w)
    if np.any(off):
        # the stencil's nodes k-2..k+1
        stencil = nonlinear_solver.with_ghosts(fgrid)[:, k[off][:, None] + np.arange(4)]
        state = propagate_state(table, u[:, off], du[:, off], hmat[:, partial], hdmat[:, partial])
        u[:, off], du[:, off] = (part + np.einsum("nqm,nmq->nm", wk[..., 1:], stencil)
                                 for part, wk in zip(state, (a, c)))
    return u, du


def _forced(f, f0, table: ModeTable, t_out: np.ndarray, quad: QuadConfig,
            with_dt: bool):
    """Forced part (U, U' or None) at t_out, refined by step halving.

    ``f0`` is the spectrum f(0.0), node 0 of every source grid.  From the
    third grid on, the Richardson value is returned when its estimate (see
    the module docstring) meets the tolerance.
    """
    horizon = float(np.max(t_out))
    n = table.n_modes
    if horizon == 0.0:
        zero = np.zeros((n, t_out.size))
        return zero, (zero.copy() if with_dt else None)
    steps = max(math.ceil(horizon / START_STEP), 3)  # a cubic needs four nodes
    dt = horizon / steps
    fgrid = np.empty((n, steps + 1))
    fgrid[:, 0] = pad_modes(f0.coeffs, n)
    fgrid[:, 1:] = _sampled(f, dt * np.arange(1, steps + 1), n)
    parts = 2 if with_dt else 1
    coarse = richardson = None
    estimate = math.inf
    for doubling in range(MAX_DOUBLINGS + 1):
        if doubling:
            steps, dt = 2 * steps, dt / 2.0
            finer = np.empty((n, steps + 1))
            finer[:, ::2] = fgrid
            finer[:, 1::2] = _sampled(f, dt * np.arange(1, steps, 2), n)
            fgrid = finer
        fine = _forced_at(table, fgrid, dt, t_out)[:parts]
        if coarse is not None:
            last = richardson
            richardson = [u + (u - u2) / 15.0 for u, u2 in zip(fine, coarse)]
            if last is not None:
                # before the third node of the 2dt grid one cubic carries the
                # whole integral and the error is not C*dt^4 from grid to grid
                early = t_out < 6.0 * dt
                estimate = max(float(np.max(np.where(early, np.abs(u - u2), np.abs(r - r2) / 4.0)))
                               for u, u2, r, r2 in zip(fine, coarse, richardson, last))
                if estimate <= quad.tol:
                    return richardson[0], (richardson[1] if with_dt else None)
        coarse = fine
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
