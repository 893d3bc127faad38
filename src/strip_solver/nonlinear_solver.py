"""Fixed-point solution of the nonlinear strip problem.

The nonlinear problem L u = F(x, t, u) is equivalent to the integral
equation

    u = u_linear - int_0^t int_0^l G(x, xi, t - tau) F(xi, tau, u) dxi dtau

(u_linear carries the initial data), and is solved by Picard iteration
starting from the linear part.  Each sweep evaluates F on a space-time
collocation grid, expands it into sine spectra, and applies the per-mode
Volterra convolution with the kernel H_n.  Every source kind goes through
the same sweep; one that does not depend on u is done after the first.

The Volterra integrals use end-corrected trapezoid (Gregory) weights of
order four, evaluated as one FFT convolution per mode plus boundary
fixups, so a sweep costs O(n_modes * nt log nt); ``volterra_convolve`` is
also the source-convolution rule of the linear solver.  Because the integral
operator is of Volterra type the iteration converges on any window, but
the iteration count grows with the window length; long horizons are
integrated window by window, restarting from the computed end state
(u, u_t), and a window that fails to converge in ``max_iter`` sweeps is
bisected.

For the biased sine source F = sin(u) - bias, the constant bias is
expanded with its exact sine coefficients rather than sampled, which
avoids the Gibbs error of transforming a function that does not vanish at
the strip ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import dst
from scipy.signal import fftconvolve

from . import green_kernel
from .errors import NumericalError
from .fields import Field
from .modes import Params, kernel_dt_values, kernel_values, mode_table, propagate_state
from .sources import (
    AlgebraicSource,
    ExpDecayingSource,
    LinearSource,
    SineGordonSource,
    SourceTerm,
    ZeroSource,
    depends_on_u,
    evaluate_source,
)
from .spectrum import SineSpectrum, analyze, check_length, constant_coefficients, pad_modes

__all__ = [
    "PicardConfig",
    "PicardReport",
    "NonlinearProblem",
    "picard_solve",
    "sine_gordon_apriori_bound",
]


@dataclass(frozen=True)
class PicardConfig:
    """Collocation grid and iteration controls for the fixed-point solve."""

    tol: float = 1e-8
    max_iter: int = 50
    nx: int = 65
    dt: float = 0.01
    n_modes: int = 32
    window: float = 10.0

    def __post_init__(self):
        if not self.tol > 0 or self.max_iter < 1:  # not > 0 also rejects NaN
            raise ValueError("tol must be positive and max_iter >= 1")
        if self.nx < 9 or not self.dt > 0 or not self.window > 0:
            raise ValueError("invalid collocation grid")
        if self.n_modes > self.nx - 2:
            raise ValueError(f"n_modes = {self.n_modes} needs at least {self.n_modes + 2} x-nodes")


@dataclass
class PicardReport:
    """Convergence trace: per-sweep sup-norm differences, flat across windows."""

    iterations: int
    residuals: list
    converged: bool
    window_traces: list = field(default_factory=list)


@dataclass(frozen=True)
class NonlinearProblem:
    """Strip problem data with a (possibly u-dependent) source term."""

    params: Params
    g0: SineSpectrum
    g1: SineSpectrum
    source: SourceTerm
    horizon: float

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        check_length(self.params.l, g0=self.g0, g1=self.g1)
        if not isinstance(self.source, SourceTerm):
            raise ValueError("source must be a SourceTerm")


# Exact Newton-Cotes weights for the short rows j = 1..4 of int_0^{j*dt} on
# nodes 0..j (unit spacing): trapezoid, Simpson, 3/8 and Boole.
_NEWTON_COTES = (
    np.array([0.5, 0.5]),
    np.array([1.0, 4.0, 1.0]) / 3.0,
    np.array([3.0, 9.0, 9.0, 3.0]) / 8.0,
    np.array([14.0, 64.0, 24.0, 64.0, 14.0]) / 45.0,
)


def volterra_convolve(kern: np.ndarray, f: np.ndarray, dt: float) -> np.ndarray:
    """Row-wise Volterra convolution U[:, j] ~ int_0^{t_j} f(tau) K(t_j - tau) dtau.

    ``kern`` and ``f`` hold samples on the uniform grid j*dt along axis 1.
    Rows j >= 5 use the order-four Gregory end correction on top of a
    single FFT convolution; shorter rows use exact Newton-Cotes weights.
    """
    if kern.shape != f.shape:
        raise ValueError("kernel and integrand sample arrays must have equal shape")
    nt = kern.shape[1]
    out = np.zeros_like(kern)
    if nt == 1:
        return out
    base = fftconvolve(f, kern, axes=1)[:, :nt]
    # trapezoid = raw convolution with halved end samples
    base = base - 0.5 * f[:, [0]] * kern - 0.5 * f * kern[:, [0]]
    # Gregory order-4 end weights (3/8, 7/6, 23/24) relative to trapezoid
    deltas = (-1.0 / 8.0, 1.0 / 6.0, -1.0 / 24.0)
    if nt > 5:
        sl = slice(5, nt)
        corr = np.zeros((kern.shape[0], nt - 5))
        for i, d in enumerate(deltas):
            corr += d * (f[:, [i]] * kern[:, 5 - i:nt - i] + f[:, 5 - i:nt - i] * kern[:, [i]])
        out[:, sl] = base[:, sl] + corr
    for j in range(1, min(5, nt)):
        out[:, j] = (f[:, :j + 1] * kern[:, j::-1]) @ _NEWTON_COTES[j - 1]
    return out * dt


def _source_spectra(source: SourceTerm, p: Params, n_modes: int, u_interior: np.ndarray,
                    x_interior: np.ndarray, t_abs: np.ndarray) -> np.ndarray:
    """Sine spectra of F(., t, u) at each collocation time, one column per time.

    Kinds with known spectra use them exactly (the constant bias of the sine
    source too); the others are sampled on the interior collocation nodes
    and transformed by DST-I.
    """
    if isinstance(source, ZeroSource):
        return np.zeros((n_modes, t_abs.size))
    if isinstance(source, LinearSource):
        return np.column_stack([pad_modes(source.f(float(t)).coeffs, n_modes) for t in t_abs])
    if isinstance(source, ExpDecayingSource):
        prof = analyze(lambda x: np.asarray(source.profile(x), dtype=float),
                       n_modes, l=p.l)
        return prof.coeffs[:, None] * np.exp(-source.mu * t_abs)[None, :]
    if isinstance(source, AlgebraicSource):
        const = constant_coefficients(1.0, p.l, n_modes)
        return const[:, None] * (source.h / (source.k0 + t_abs) ** (1.0 + source.alpha))[None, :]
    if isinstance(source, SineGordonSource):
        fvals = np.sin(u_interior)
    else:
        fvals = np.empty_like(u_interior)
        for j, t in enumerate(t_abs):
            fvals[:, j] = evaluate_source(source, x_interior, float(t), u_interior[:, j])
    fhat = dst(fvals, type=1, axis=0)[:n_modes, :] / (x_interior.size + 1)
    if isinstance(source, SineGordonSource):
        fhat = fhat + constant_coefficients(-source.bias, p.l, n_modes)[:, None]
    return fhat


def _window_sweeps(p, table, hmat, hdmat, sin_int, x_int, g0c, g1c, source, t_abs,
                   dt, cfg):
    """Iterate one window to tolerance; return modal history and trace.

    ``hmat`` and ``hdmat`` hold H_n and H_n' at the window's relative times
    t_abs - t_abs[0].  A source that does not depend on u needs one sweep.
    """
    lin, lin_dt = propagate_state(table, g0c[:, None], g1c[:, None], hmat, hdmat)
    modal = lin
    grid = sin_int @ modal
    residuals = []
    for _ in range(cfg.max_iter):
        try:
            fhat = _source_spectra(source, p, table.n_modes, grid, x_int, t_abs)
        except Exception as exc:
            raise RuntimeError(f"source evaluation failed: {exc}") from exc
        modal_next = lin - volterra_convolve(hmat, fhat, dt)
        grid_next = sin_int @ modal_next
        if not np.all(np.isfinite(grid_next)):
            raise NumericalError("non-finite iterate in the fixed-point sweep")
        diff = float(np.max(np.abs(grid_next - grid)))
        residuals.append(diff)
        modal, grid = modal_next, grid_next
        if diff <= cfg.tol or not depends_on_u(source):
            return modal, lin_dt, fhat, residuals, True
        if len(residuals) >= 6 and diff > 10.0 * residuals[0]:
            break  # clearly diverging; let the caller shrink the window
    return modal, lin_dt, fhat, residuals, False


def picard_solve(prob: NonlinearProblem, cfg: PicardConfig = PicardConfig(),
                 ) -> tuple[Field, PicardReport]:
    """Fixed-point solution on [0, horizon] with window restarts.

    Returns the field on the collocation grid together with the iteration
    trace.  Non-convergence is reported (``converged=False``), not raised;
    non-finite iterates raise NumericalError.
    """
    p = prob.params
    n_modes = cfg.n_modes
    table = mode_table(p, n_modes)
    x = np.linspace(0.0, p.l, cfg.nx)
    sin_int = np.sin(np.outer(x[1:-1], table.gamma))
    sin_full = np.zeros((cfg.nx, n_modes))
    sin_full[1:-1, :] = sin_int
    g0c, g1c = pad_modes(prob.g0.coeffs, n_modes), pad_modes(prob.g1.coeffs, n_modes)
    window = prob.horizon if not depends_on_u(prob.source) else min(cfg.window, prob.horizon)
    t_cols, v_cols = [], []
    traces, residuals_flat = [], []
    iterations = 0
    all_converged = True
    t0 = 0.0
    min_steps = 8
    # (length, steps) -> (H, H') at the window's relative times; windows of
    # equal length share them
    kernels = {}
    while t0 < prob.horizon - 1e-12 * prob.horizon:
        t1 = min(t0 + window, prob.horizon)
        span = t1 - t0
        steps = max(2, round(span / cfg.dt))
        t_rel = span * np.arange(steps + 1) / steps
        t_abs = t0 + t_rel
        dt = span / steps
        if (span, steps) not in kernels:
            kernels[span, steps] = (kernel_values(table, t_rel),
                                    kernel_dt_values(table, t_rel))
        hmat, hdmat = kernels[span, steps]
        modal, lin_dt, fhat, res, ok = _window_sweeps(
            p, table, hmat, hdmat, sin_int, x[1:-1], g0c, g1c, prob.source, t_abs, dt, cfg)
        if not ok and steps > min_steps:
            window = max(span / 2.0, min_steps * cfg.dt)
            continue
        iterations += len(res)
        residuals_flat.extend(res)
        traces.append({"t_start": t0, "t_end": t1, "iterations": len(res),
                       "converged": ok})
        all_converged &= ok
        modal_dt_end = lin_dt[:, -1] - volterra_convolve(hdmat, fhat, dt)[:, -1]
        start = 1 if t_cols else 0
        t_cols.append(t_abs[start:])
        v_cols.append(sin_full @ modal[:, start:])
        g0c, g1c = modal[:, -1], modal_dt_end
        t0 = t1
    values = np.concatenate(v_cols, axis=1)
    t_nodes = np.concatenate(t_cols)
    fld = Field(x_nodes=x, t_nodes=t_nodes, values=values)
    report = PicardReport(iterations=iterations, residuals=residuals_flat,
                          converged=all_converged, window_traces=traces)
    return fld, report


def sine_gordon_apriori_bound(prob: NonlinearProblem, linear_sup: float,
                              t_probe=(0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0,
                                       10.0, 20.0, 30.0)) -> float:
    """Bound sup|u| <= sup|u_linear| + l*M*(1+|bias|)/beta for the sine source.

    M is the measured envelope constant sup |G| e^{beta t} over a coarse
    probe grid; the integral-equation estimate then bounds the source
    contribution by l*M*(1+|bias|)/beta.
    """
    if not isinstance(prob.source, SineGordonSource):
        raise ValueError("a-priori bound applies to the sine source")
    p = prob.params
    beta = green_kernel.decay_constants(p).beta
    xs = np.linspace(0.0, p.l, 9)[1:-1]
    m_env = 0.0
    for t in t_probe:
        for xi in xs:
            prof = green_kernel.green_profile(p, xs, float(xi), float(t), tol=1e-3)
            m_env = max(m_env, float(np.max(np.abs(prof))) * math.exp(beta * t))
    return linear_sup + p.l * m_env * (1.0 + abs(prob.source.bias)) / beta
