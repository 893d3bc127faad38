"""Independent finite-difference solver used to validate the spectral path.

Method of lines for L u = F written as the first-order system

    u_t = v,
    v_t = eps*D2 v + c^2*D2 u - a*v - F(x, t, u),

with D2 the standard second difference carrying homogeneous Dirichlet
rows.  A theta-weighted one-step scheme advances (u, v); eliminating
u^{m+1} leaves one symmetric positive-definite tridiagonal solve per step.
Its matrix is fixed for a fixed step size, so ``oracle_solve`` builds it
once as a dense array, checks it by a Cholesky factorisation and inverts
it; every inner solve is then one matrix-vector product.  The explicit
half of that solve's right-hand side is linear in (u, v),

    alpha*v + D2(beta*u + gamma*v) - (1 - theta)*dt*F_old,

so each step applies the stencil once, with coefficients folded once per
solve.  The scheme is second-order accurate in space, and in time at
theta = 1/2, where it is also unconditionally stable for the linear
problem.  Nonlinear sources are handled by fixed-point inner iteration
within each step.

This module deliberately shares no numerical kernels with the spectral
modules: it imports only the parameter container and the source-term
definitions, so agreement between the two solvers is meaningful evidence.
It needs nothing beyond numpy.

The dense product costs O(nx^2) per solve, against O(nx) for a banded
Cholesky solve (LAPACK ``pbtrs``), and the inverse holds 8*nx^2 bytes.
Below the crossover the product wins because a call costs more than the
arithmetic.  Microseconds per solve, one thread:

    nx       63     127    255    511    1023
    banded   1.70   2.75   5.2    9.3    18
    dense    1.25   2.99   9.0    46     221

Every grid of the configs and the benchmark has nx <= 127, and the tests
go above it only for a few hundred steps, so there is one path and no
size switch.  Grids well above nx 127 would want the banded solve back.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import StepFailureError
from .fields import Field
from .modes import Params
from .sources import SourceTerm, depends_on_u, evaluate_source

__all__ = ["OracleConfig", "StudyRecord", "oracle_solve", "convergence_study"]

# Inner fixed-point iteration of a u-dependent source within one step.
NONLINEAR_INNER_TOL = 1e-12
MAX_INNER = 60


def cho_solve_banded(inverse, b):
    """Solve A x = b as ``inverse @ b``, from the inverse of A formed once per solve.

    The name is kept from the banded Cholesky solve this replaced: the
    benchmark's tracer (``perfbench/tracing.py``) wraps it to count inner
    solves, and derives the oracle's step count from that count.
    """
    return inverse @ b


@dataclass(frozen=True)
class OracleConfig:
    """Grid and scheme settings: nx interior nodes, step dt, weight theta."""

    nx: int = 127
    dt: float = 0.005
    theta: float = 0.5

    def __post_init__(self):
        if not isinstance(self.nx, numbers.Integral):
            raise ValueError(f"nx must be an integer, got {self.nx!r}")
        if self.nx < 8:
            raise ValueError(f"need at least 8 interior nodes, got {self.nx}")
        if not 0.0 < self.dt < math.inf:  # also rejects NaN
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")


def _finite(v: np.ndarray) -> bool:
    """Whether every entry of ``v`` is finite.

    A finite sum of squares has only finite terms, so the exact elementwise
    check runs only when the sum is not finite: for a non-finite entry, or
    for entries beyond ~1e154, where the sum overflows (``oracle_solve``
    runs its steps with overflow warnings off).
    """
    return math.isfinite(v.dot(v)) or bool(np.isfinite(v).all())


def _sample(data, x: np.ndarray, name: str) -> np.ndarray:
    if callable(data):
        vals = np.asarray(data(x), dtype=float)
    else:
        vals = np.asarray(data, dtype=float)
    if vals.shape != x.shape:
        raise ValueError(f"{name} must provide one value per grid node")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{name} contains non-finite values")
    return vals


def oracle_solve(p: Params, g0, g1, source: SourceTerm, horizon: float,
                 cfg: OracleConfig = OracleConfig(),
                 t_out=None) -> Field:
    """Integrate the strip problem on a uniform grid with the theta scheme.

    ``t_out`` selects output times (defaults to every step); requested
    times must be finite and snap to the nearest step, those outside
    [0, horizon] to the first or last one.  Identical inputs produce
    bit-identical fields: the stepping is strictly sequential, and a BLAS
    that splits the step's matrix-vector product over threads still sums
    each entry in one order (a test checks one and two OpenBLAS threads).
    """
    if not (horizon > 0 and math.isfinite(horizon)):
        raise ValueError("horizon must be positive and finite")
    nx = cfg.nx
    x_full = np.linspace(0.0, p.l, nx + 2)
    x = x_full[1:-1]
    dx = x_full[1] - x_full[0]
    u = _sample(g0, x_full, "g0")
    v = _sample(g1, x_full, "g1")
    if max(abs(u[0]), abs(u[-1])) > 1e-10:
        raise ValueError("g0 must vanish at the strip ends (Dirichlet data)")
    u, v = u[1:-1].copy(), v[1:-1].copy()

    n_steps = max(1, round(horizon / cfg.dt))
    dt = horizon / n_steps
    theta = cfg.theta
    eps, c2, a = p.epsilon, p.c**2, p.a

    # LHS of the eliminated v-equation: (1 + a*theta*dt) I - theta*dt*(eps + theta*dt*c^2) D2
    kappa = theta * dt * (eps + theta * dt * c2)
    diag = 1.0 + a * theta * dt + 2.0 * kappa / dx**2
    if not math.isfinite(diag):
        raise ValueError(f"the step matrix overflows at dt = {dt:.6g}")
    off = np.full(nx - 1, -kappa / dx**2)
    lhs = np.diag(np.full(nx, diag)) + np.diag(off, 1) + np.diag(off, -1)
    np.linalg.cholesky(lhs)  # raises LinAlgError unless positive definite
    inverse = np.linalg.inv(lhs)

    # Its RHS: alpha*v + D2(beta*u + gamma*v) - w_old*F_old - w_new*F_new,
    # with 1/dx^2 folded into beta and gamma
    w_old, w_new = (1.0 - theta) * dt, theta * dt
    alpha = 1.0 - w_old * a
    beta = dt * c2 / dx**2
    gamma = w_old * (eps + theta * dt * c2) / dx**2

    if t_out is None:
        out_steps = np.arange(n_steps + 1)
    else:
        t_req = np.atleast_1d(np.asarray(t_out, dtype=float))
        if not np.all(np.isfinite(t_req)):
            raise ValueError("output times must be finite")
        out_steps = np.unique(np.clip(np.round(t_req / dt).astype(int), 0, n_steps))
    t_nodes = out_steps * dt
    values = np.zeros((nx + 2, out_steps.size))
    out_map = {int(s): i for i, s in enumerate(out_steps)}
    nonlinear = depends_on_u(source)

    def store(step, u_now):
        idx = out_map.get(step)
        if idx is not None:
            values[1:-1, idx] = u_now

    store(0, u)
    t = 0.0
    # an overflow in a step ends as a non-finite value, which _finite raises
    with np.errstate(over="ignore"):
        for step in range(1, n_steps + 1):
            t_new = step * dt
            f_old = evaluate_source(source, x, t, u)
            w = beta * u + gamma * v
            base_rhs = alpha * v - 2.0 * w - w_old * f_old
            base_rhs[:-1] += w[1:]
            base_rhs[1:] += w[:-1]
            u_pre = u + w_old * v
            u_guess = u + dt * v
            for _ in range(MAX_INNER):
                f_new = evaluate_source(source, x, t_new, u_guess)
                rhs = base_rhs - w_new * f_new
                if not _finite(rhs):
                    raise StepFailureError(
                        f"non-finite right-hand side in the step to t = {t_new:.6g}", t=t_new)
                v_new = cho_solve_banded(inverse, rhs)
                u_new = u_pre + w_new * v_new
                if not nonlinear:
                    break
                change = float(np.abs(u_new - u_guess).max())
                u_guess = u_new
                if change <= NONLINEAR_INNER_TOL:
                    break
            else:
                raise StepFailureError(
                    f"inner iteration did not converge at t = {t_new:.6g}", t=t_new)
            if not _finite(u_new):
                raise StepFailureError(f"non-finite state at t = {t_new:.6g}", t=t_new)
            u, v, t = u_new, v_new, t_new
            store(step, u)
    return Field(x_nodes=x_full, t_nodes=t_nodes, values=values)


@dataclass(frozen=True)
class StudyRecord:
    """One rung of a refinement study; ``convergence_study`` says when ``order`` is nan."""

    nx: int
    dt: float
    sup_diff: float
    order: float


def convergence_study(solve, refinements, reference) -> list:
    """Disagreement with a reference solution for each grid refinement.

    ``solve(cfg)`` returns the oracle's Field on the grid of one
    OracleConfig, for example ``functools.partial(oracle_solve, p, g0, g1,
    source, horizon)``; ``refinements`` is a sequence of OracleConfig;
    ``reference(x_nodes, t_nodes)`` returns the reference values on a run's
    own output grid, in the shape of ``Field.values``.  The order between
    consecutive rungs is log2(prev/diff), close to 2 when both steps halve;
    it is nan on the first rung and wherever prev or diff is 0.
    """
    records, prev = [], math.nan
    for cfg in refinements:
        fld = solve(cfg)
        exact = reference(fld.x_nodes, fld.t_nodes)
        diff = float(np.max(np.abs(exact - fld.values)))
        order = math.log2(prev / diff) if prev > 0 and diff > 0 else math.nan
        records.append(StudyRecord(cfg.nx, cfg.dt, diff, order))
        prev = diff
    return records
