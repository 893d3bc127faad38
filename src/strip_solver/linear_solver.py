"""Spectral solution of the linear strip problem.

The unique solution of

    d_xx(eps*u_t + c^2*u) - d_t(u_t + a*u) = f,
    u(x, 0) = g0,  u_t(x, 0) = g1,  u(0, t) = u(l, t) = 0,

is assembled from three diagonal actions on sine coefficients:

  * velocity data:      g1_n -> g1_n * H_n(t)
  * displacement data:  g0_n -> g0_n * (H_n'(t) + 2*h_n*H_n(t))
  * source:             f_n(.) -> int_0^t f_n(tau) H_n(t - tau) dtau

and combined as u = u_velocity + u_displacement - u_forced.  The spectral
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
reusing its samples, until the step-halving estimate
max|U_dt - U_dt/2| / 7 at the output times (the rule converges at third
order) falls below the quadrature tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nonlinear_solver
from .errors import AccuracyError
from .fields import Field
from .modes import ModeTable, Params, kernel_dt_values, kernel_values, mode_table
from .spectrum import SineSpectrum

__all__ = [
    "LinearProblem",
    "GridSpec",
    "Field",
    "QuadConfig",
    "propagate_velocity",
    "propagate_displacement",
    "forced_response",
    "solve_linear",
    "residual",
]


# Initial step of the uniform source grid.
START_STEP = 0.01


@dataclass(frozen=True)
class QuadConfig:
    """Source-convolution accuracy.

    ``tol`` bounds the step-halving estimate max|U_dt - U_dt/2| / 7 of the
    forced part at the output times (with its time derivative when the
    grid asks for it); the source grid is halved at most ``max_doublings``
    times before AccuracyError is raised.
    """

    tol: float = 1e-9
    max_doublings: int = 8


@dataclass(frozen=True)
class LinearProblem:
    """Data of the linear strip problem on (0, l) x (0, T]."""

    params: Params
    g0: SineSpectrum
    g1: SineSpectrum
    f: object = None            # None or callable t -> SineSpectrum
    horizon: float = 1.0

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        for name in ("g0", "g1"):
            spec = getattr(self, name)
            if abs(spec.l - self.params.l) > 1e-12 * self.params.l:
                raise ValueError(f"{name} lives on length {spec.l}, params have {self.params.l}")
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


def _pad(coeffs: np.ndarray, n: int) -> np.ndarray:
    if coeffs.size >= n:
        return coeffs[:n]
    out = np.zeros(n)
    out[: coeffs.size] = coeffs
    return out


def propagate_velocity(p: Params, g1: SineSpectrum, t: float,
                       table: ModeTable | None = None) -> SineSpectrum:
    """Velocity-data component: coefficient-wise multiplication by H_n(t)."""
    if t < 0:
        raise ValueError(f"time must be non-negative, got {t}")
    table = table or mode_table(p, g1.n_modes)
    coeffs = _pad(g1.coeffs, table.n_modes) * kernel_values(table, float(t))
    return SineSpectrum(l=p.l, coeffs=coeffs)


def propagate_displacement(p: Params, g0: SineSpectrum, t: float,
                           table: ModeTable | None = None) -> SineSpectrum:
    """Displacement-data component: multiplication by H_n'(t) + 2*h_n*H_n(t).

    This is the diagonal action of (d_t + a - eps*d_xx) applied to the
    velocity propagator, and returns g0 unchanged at t = 0.
    """
    if t < 0:
        raise ValueError(f"time must be non-negative, got {t}")
    table = table or mode_table(p, g0.n_modes)
    factor = kernel_dt_values(table, float(t)) + 2.0 * table.h * kernel_values(table, float(t))
    return SineSpectrum(l=p.l, coeffs=_pad(g0.coeffs, table.n_modes) * factor)


def _sampled(f, taus: np.ndarray, n_modes: int) -> np.ndarray:
    """Source spectra f(tau) as columns, padded or cut to n_modes."""
    out = np.empty((n_modes, taus.size))
    for j, tau in enumerate(taus):
        out[:, j] = _pad(np.asarray(f(float(tau)).coeffs, dtype=float), n_modes)
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
        u_k, du_k = u[:, off], du[:, off]
        # H(0) = 0 drops f(t) from the Simpson sum for U
        u[:, off] = (u_k * (hds + 2.0 * table.h[:, None] * hs) + du_k * hs
                     + w * (f0 * hs + 4.0 * fm * hm))
        if with_dt:
            f1 = _sampled(f, t_out[off], table.n_modes)
            du[:, off] = (du_k * hds - (table.b**2)[:, None] * hs * u_k
                          + w * (f0 * hds + 4.0 * fm * hdm + f1))
    return u, (du if with_dt else None)


def _forced(f, table: ModeTable, t_out: np.ndarray, quad: QuadConfig,
            with_dt: bool):
    """Forced part (U, U' or None) at t_out, refined by step halving."""
    horizon = float(np.max(t_out))
    if horizon == 0.0:
        zero = np.zeros((table.n_modes, t_out.size))
        return zero, (zero.copy() if with_dt else None)
    steps = math.ceil(horizon / START_STEP)
    dt = horizon / steps
    fgrid = _sampled(f, dt * np.arange(steps + 1), table.n_modes)
    coarse = _forced_at(f, table, fgrid, dt, t_out, with_dt)
    estimate = math.inf
    for _ in range(quad.max_doublings):
        steps, dt = 2 * steps, dt / 2.0
        finer = np.empty((table.n_modes, steps + 1))
        finer[:, ::2] = fgrid
        finer[:, 1::2] = _sampled(f, dt * np.arange(1, steps, 2), table.n_modes)
        fgrid = finer
        fine = _forced_at(f, table, fgrid, dt, t_out, with_dt)
        estimate = max(float(np.max(np.abs(a - b)))
                       for a, b in zip(fine, coarse) if a is not None) / 7.0
        if estimate <= quad.tol:
            return fine
        coarse = fine
    raise AccuracyError(
        f"convolution quadrature did not reach tol = {quad.tol:.3g} on [0, {horizon:.3g}] "
        f"(last step-halving estimate {estimate:.3g})", estimate=estimate)


def forced_response(p: Params, f, t: float, quad: QuadConfig = QuadConfig(),
                    n_modes: int | None = None,
                    table: ModeTable | None = None) -> SineSpectrum:
    """Source component u_f(., t): per-mode convolution of f_n with H_n."""
    if t < 0:
        raise ValueError(f"time must be non-negative, got {t}")
    if n_modes is None:
        n_modes = np.asarray(f(0.0).coeffs).size
    table = table or mode_table(p, n_modes)
    coeffs, _ = _forced(f, table, np.array([float(t)]), quad, with_dt=False)
    return SineSpectrum(l=p.l, coeffs=coeffs[:, 0])


def solve_linear(prob: LinearProblem, grid: GridSpec,
                 quad: QuadConfig = QuadConfig()) -> Field:
    """Sample u = u_velocity + u_displacement - u_forced on the grid.

    Satisfies u(., 0) = g0, u_t(., 0) = g1 and exact zeros on the lateral
    boundary.  With ``grid.with_dt`` the time derivative is assembled from
    the per-mode derivative identities (no finite differencing).
    """
    p = prob.params
    n = prob.n_modes
    if prob.f is not None:
        n = max(n, np.asarray(prob.f(0.0).coeffs).size)
    table = mode_table(p, n)
    g0c = _pad(prob.g0.coeffs, n)[:, None]
    g1c = _pad(prob.g1.coeffs, n)[:, None]
    ts = grid.t_nodes
    if np.any(ts > prob.horizon + 1e-12) or np.any(ts < 0):
        raise ValueError("grid times must lie in [0, horizon]")
    sin_mat = np.sin(np.outer(grid.x_nodes, table.gamma))
    boundary = (grid.x_nodes == 0.0) | (grid.x_nodes == p.l)
    sin_mat[boundary, :] = 0.0
    hv = kernel_values(table, ts)
    hd = kernel_dt_values(table, ts)
    coeffs = g1c * hv + g0c * (hd + 2.0 * table.h[:, None] * hv)
    dt_coeffs = g1c * hd - g0c * (table.b**2)[:, None] * hv if grid.with_dt else None
    if prob.f is not None:
        uf, uf_dt = _forced(prob.f, table, ts, quad, grid.with_dt)
        coeffs = coeffs - uf
        if grid.with_dt:
            dt_coeffs = dt_coeffs - uf_dt
    values_dt = sin_mat @ dt_coeffs if grid.with_dt else None
    return Field(x_nodes=grid.x_nodes.copy(), t_nodes=ts.copy(),
                 values=sin_mat @ coeffs, values_dt=values_dt)

def residual(p: Params, u: Field, f_values) -> float:
    """Sup-norm of the discrete operator residual L u - f on interior nodes.

    Uses second-order central differences in x and t and the mixed
    d_xx d_t stencil; the grid must be uniform in each direction with at
    least five interior nodes per axis.
    """
    x, t, vals = u.x_nodes, u.t_nodes, u.values
    if x.size < 7 or t.size < 7:
        raise ValueError("need at least 5 interior nodes per axis (7 total)")
    dxs, dts = np.diff(x), np.diff(t)
    if not (np.allclose(dxs, dxs[0], rtol=1e-9) and np.allclose(dts, dts[0], rtol=1e-9)):
        raise ValueError("residual evaluation requires uniform grids")
    dx, dt = dxs[0], dts[0]
    if callable(f_values):
        f_grid = np.asarray([[f_values(xi, tj) for tj in t] for xi in x], dtype=float)
    elif f_values is None:
        f_grid = np.zeros_like(vals)
    else:
        f_grid = np.asarray(f_values, dtype=float)
        if f_grid.shape != vals.shape:
            raise ValueError("f grid shape must match the field values")
    uxx = (vals[:-2, :] - 2.0 * vals[1:-1, :] + vals[2:, :]) / dx**2
    ut = (vals[:, 2:] - vals[:, :-2]) / (2.0 * dt)
    utt = (vals[:, 2:] - 2.0 * vals[:, 1:-1] + vals[:, :-2]) / dt**2
    uxxt = (uxx[:, 2:] - uxx[:, :-2]) / (2.0 * dt)
    res = (p.epsilon * uxxt + p.c**2 * uxx[:, 1:-1]
           - utt[1:-1, :] - p.a * ut[1:-1, :] - f_grid[1:-1, 1:-1])
    return float(np.max(np.abs(res)))
