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
the same way).  The grid starts at step ``START_STEP`` and is halved,
reusing its samples, until the step-halving estimate falls below the
quadrature tolerance.  The estimate is max|U_dt - U_dt/2| at the output
times, divided by 7 for the modes whose fast rate the coarse step resolves
(dp_n*2*dt <= 1, where the rule converges at third order) and taken as it
is for the others: a boundary layer of width 1/dp_n that the grid does
not resolve converges at about first order, and there the raw difference
bounds the error.
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
    "forced_response",
    "solve_linear",
]


# Initial step of the uniform source grid.
START_STEP = 0.01
# Halvings of the source grid before AccuracyError is raised.
MAX_DOUBLINGS = 8
# Source spectra ``_sampled`` holds at once: a bound on memory; speed is flat
# from 32 to 512.
SAMPLE_CHUNK = 128


@dataclass(frozen=True)
class QuadConfig:
    """Source-convolution accuracy.

    ``tol`` bounds the step-halving estimate of the forced part at the
    output times (with its time derivative when the grid asks for it; see
    the module docstring); the source grid is halved at most
    ``MAX_DOUBLINGS`` times before AccuracyError is raised.
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


def _sampled(f, taus: np.ndarray, n_modes: int, first=None) -> np.ndarray:
    """Source spectra f(tau) as columns, padded or cut to n_modes.

    ``f`` is called once per node, in order, with a Python float; ``first``,
    when given, is the spectrum f(taus[0]) already computed, and that node
    is not sampled again.  The spectra are gathered ``SAMPLE_CHUNK`` at a
    time and copied into their columns by one concatenation, so neither all
    spectra nor all times as floats are held at once.
    """
    out = np.empty((n_modes, taus.size))
    begin = 0
    if first is not None:
        out[:, 0] = pad_modes(first.coeffs, n_modes)
        begin = 1
    for start in range(begin, taus.size, SAMPLE_CHUNK):
        coeffs = [f(tau).coeffs for tau in taus[start:start + SAMPLE_CHUNK].tolist()]
        rows = np.concatenate([c if c.size == n_modes else pad_modes(c, n_modes)
                               for c in coeffs])
        out[:, start:start + len(coeffs)] = rows.reshape(-1, n_modes).T
    return out


def _forced_at(f, table: ModeTable, fgrid: np.ndarray, dt: float,
               t_out: np.ndarray, with_dt: bool):
    """U = int_0^t f_n H_n(t - tau) dtau at t_out from the samples ``fgrid``.

    Also returns U' = int_0^t f_n H_n'(t - tau) dtau when ``with_dt``.
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
    off = s > 0.0
    if np.any(off):
        k, s = k[off], s[off]
        hs, hds = kernel_values(table, s), kernel_dt_values(table, s)
        hm, hdm = kernel_values(table, s / 2.0), kernel_dt_values(table, s / 2.0)
        f0 = fgrid[:, k]
        fm = _sampled(f, k * dt + s / 2.0, table.n_modes)
        w = s / 6.0
        u_s, du_s = propagate_state(table, u[:, off], du[:, off], hs, hds)
        # H(0) = 0 drops f(t) from the Simpson sum for U
        u[:, off] = u_s + w * (f0 * hs + 4.0 * fm * hm)
        if with_dt:
            f1 = _sampled(f, t_out[off], table.n_modes)
            du[:, off] = du_s + w * (f0 * hds + 4.0 * fm * hdm + f1)
    return u, (du if with_dt else None)


def _forced(f, f0, table: ModeTable, t_out: np.ndarray, quad: QuadConfig,
            with_dt: bool):
    """Forced part (U, U' or None) at t_out, refined by step halving.

    ``f0`` is the spectrum f(0.0), node 0 of every source grid.
    """
    horizon = float(np.max(t_out))
    if horizon == 0.0:
        zero = np.zeros((table.n_modes, t_out.size))
        return zero, (zero.copy() if with_dt else None)
    steps = math.ceil(horizon / START_STEP)
    dt = horizon / steps
    fgrid = _sampled(f, dt * np.arange(steps + 1), table.n_modes, first=f0)
    coarse = _forced_at(f, table, fgrid, dt, t_out, with_dt)
    estimate = math.inf
    for _ in range(MAX_DOUBLINGS):
        steps, dt = 2 * steps, dt / 2.0
        finer = np.empty((table.n_modes, steps + 1))
        finer[:, ::2] = fgrid
        finer[:, 1::2] = _sampled(f, dt * np.arange(1, steps, 2), table.n_modes)
        fgrid = finer
        fine = _forced_at(f, table, fgrid, dt, t_out, with_dt)
        # the third-order divisor holds only where the coarse step resolves
        # the fast rate; elsewhere the rule converges at about first order
        # and the raw difference bounds the error
        divisor = np.where(table.dp * (2.0 * dt) <= 1.0, 7.0, 1.0)[:, None]
        estimate = max(float(np.max(np.abs(a - b) / divisor))
                       for a, b in zip(fine, coarse) if a is not None)
        if estimate <= quad.tol:
            return fine
        coarse = fine
    raise AccuracyError(
        f"convolution quadrature did not reach tol = {quad.tol:.3g} on [0, {horizon:.3g}] "
        f"(last step-halving estimate {estimate:.3g})", estimate=estimate)


def forced_response(p: Params, f, t: float, quad: QuadConfig = QuadConfig()) -> SineSpectrum:
    """Source component u_f(., t): per-mode convolution of f_n with H_n.

    The mode count is that of f(0).
    """
    if not (t >= 0 and math.isfinite(t)):
        raise ValueError(f"time must be non-negative and finite, got {t}")
    f0 = f(0.0)
    table = mode_table(p, np.asarray(f0.coeffs).size)
    coeffs, _ = _forced(f, f0, table, np.array([float(t)]), quad, with_dt=False)
    return SineSpectrum(l=p.l, coeffs=coeffs[:, 0])


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
        n = max(n, np.asarray(f0.coeffs).size)
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
