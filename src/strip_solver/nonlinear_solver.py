"""Fixed-point solution of the nonlinear strip problem.

The nonlinear problem L u = F(x, t, u) is equivalent to the integral
equation

    u = u_linear - int_0^t int_0^l G(x, xi, t - tau) F(xi, tau, u) dxi dtau

(u_linear carries the initial data), solved by Picard iteration.  A sweep
evaluates F on a space-time collocation grid, expands it into sine
spectra, and applies the per-mode Volterra convolution with the kernel
H_n.

The Volterra integrals use end-corrected trapezoid (Gregory) weights of
order four; ``volterra_convolve`` evaluates them for a whole grid as one
FFT convolution per mode plus boundary fixups, and is also the
source-convolution rule of the linear solver.  Because H_n(0) = 0, row j
of the rule only involves F at the nodes before j, so the discrete
equations are explicit in time and a window is marched block by block
(``BLOCK`` steps):

  * the first BLOCK + 1 rows are swept with ``volterra_convolve`` on the
    window's prefix;
  * before a later block, the contribution of every earlier node is the
    first component of one per-mode two-state recursion: H_n solves
    y'' + 2 h_n y' + b_n^2 y = 0, so A = sum_i f_i H_n(t - t_i) and its time
    derivative, carried from the end of the previous block, propagate over
    the block's times through ``modes.propagate_state``;
  * the block's own rows (with the Gregory end weights) are a strictly
    lower-triangular Toeplitz per mode, and the Gregory start weights are
    three columns of H_n;
  * a block is swept, starting from the spectra of the last known node
    (node 0 for the first block) held constant over the block, until its
    grid change is within ``tol``; with a strictly lower-triangular
    operator that takes at most BLOCK + 1 sweeps, and a few in practice.

After each window, one full sweep of the marched window with
``volterra_convolve`` gives its fixed-point residual, the certificate
that ``tol`` bounds.  Long horizons are split into equal windows of at
most ``window``, which share one set of kernel samples, and integrated
window by window, restarting from the end state (u, u_t).  Each window
is synthesised straight into its columns of one field allocated before
the first, so the working memory above that field is one window's,
whatever the horizon.  A source that
does not depend on u goes, as spectra f(t), to
``linear_solver.solve_linear`` on the collocation grid, and ``tol`` then
bounds its estimate of the error of the value it returns.

For the biased sine source F = sin(u) - bias, the constant bias is
expanded with its exact sine coefficients rather than sampled, which
avoids the Gibbs error of transforming a function that does not vanish at
the strip ends.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import linear_solver
from .errors import NumericalError
from .fields import Field
from .modes import (
    ModeTable,
    Params,
    classify_modes,
    kernel_dt_values,
    kernel_values,
    mode_table,
    propagate_state,
)
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
from .spectrum import SineSpectrum, analyze, check_length, constant_coefficients, dst, pad_modes

__all__ = [
    "PicardConfig",
    "PicardReport",
    "NonlinearProblem",
    "picard_solve",
    "sine_gordon_apriori_bound",
]

# time steps per block of the march
BLOCK = 32


@dataclass(frozen=True)
class PicardConfig:
    """Collocation grid and iteration controls for the fixed-point solve.

    ``max_iter`` caps the sweeps of each block of the march.  For a
    u-independent source, ``tol`` bounds ``solve_linear``'s estimate of
    the error of its value, and ``max_iter`` and ``window`` are unused.
    """

    tol: float = 1e-8
    max_iter: int = 50
    nx: int = 65
    dt: float = 0.01
    n_modes: int = 32
    window: float = 10.0

    def __post_init__(self):
        for name in ("max_iter", "nx", "n_modes"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not 0.0 < self.tol < math.inf or self.max_iter < 1:  # also rejects NaN
            raise ValueError("tol must be positive and finite and max_iter >= 1")
        if self.nx < 9 or not 0.0 < self.dt < math.inf or not self.window > 0:
            raise ValueError("invalid collocation grid")
        if self.window < self.dt:
            raise ValueError(f"window = {self.window!r} is shorter than dt = {self.dt!r}")
        if self.n_modes < 1:
            raise ValueError(f"n_modes must be >= 1, got {self.n_modes}")
        if self.n_modes > self.nx - 2:
            raise ValueError(f"n_modes = {self.n_modes} needs at least {self.n_modes + 2} x-nodes")


@dataclass
class PicardReport:
    """Convergence trace of a solve.

    ``iterations`` counts the block sweeps of all windows.  Each window
    trace holds ``t_start``, ``t_end``, ``iterations`` (the most sweeps any
    one block needed), ``residual`` (the window's fixed-point residual, its
    certificate) and ``converged``.  A u-independent source is not
    iterated: ``iterations`` is 0, there are no window traces and
    ``converged`` is True (``solve_linear`` raises when it misses ``tol``).
    """

    iterations: int
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
        if not (self.horizon > 0 and math.isfinite(self.horizon)):
            raise ValueError("horizon must be positive and finite")
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
# Gregory order-four end weights (3/8, 7/6, 23/24) relative to trapezoid
_GREGORY = (-1.0 / 8.0, 1.0 / 6.0, -1.0 / 24.0)
# First row of the Gregory rule; the rows before it use Newton-Cotes weights
GREGORY_ROW = len(_NEWTON_COTES) + 1
# the same weights relative to a plain sum at the start nodes 0, 1, 2 of a row
_START_WEIGHTS = (_GREGORY[0] - 0.5, _GREGORY[1], _GREGORY[2])


def _fast_len(n: int) -> int:
    """The smallest 5-smooth length 2^i 3^j 5^k >= n.

    Equal to ``scipy.fft.next_fast_len(n, real=True)``, the length at which
    ``scipy.signal.fftconvolve`` transforms real input.
    """
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << ((n - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def fftconvolve(a: np.ndarray, b: np.ndarray, axes: int = 1) -> np.ndarray:
    """Full linear convolution of real ``a`` and ``b`` along axis ``axes``.

    numpy's real FFTs at ``_fast_len``, the steps ``scipy.signal.fftconvolve``
    takes for real input.  numpy >= 2 and scipy share pocketfft, so the
    result is bitwise equal to scipy's.  The inputs are zero-padded here:
    on input of many rows numpy's own padding (the ``n`` argument of
    ``rfft``) takes about twice as long.
    """
    n = a.shape[axes] + b.shape[axes] - 1
    n_fft = _fast_len(n)
    lead = (slice(None),) * axes

    def padded(x):
        out = np.zeros(x.shape[:axes] + (n_fft,) + x.shape[axes + 1:])
        out[lead + (slice(x.shape[axes]),)] = x
        return out

    spectrum = np.fft.rfft(padded(a), axis=axes) * np.fft.rfft(padded(b), axis=axes)
    full = np.fft.irfft(spectrum, n_fft, axis=axes)
    return full[lead + (slice(n),)]


def volterra_convolve(kern: np.ndarray, f: np.ndarray, dt: float) -> np.ndarray:
    """Row-wise Volterra convolution U[:, j] ~ int_0^{t_j} f(tau) K(t_j - tau) dtau.

    ``kern`` and ``f`` hold samples on the uniform grid j*dt along axis 1.
    Rows j >= GREGORY_ROW use the order-four Gregory end correction on top
    of a single FFT convolution; shorter rows use exact Newton-Cotes weights.
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
    g = GREGORY_ROW
    if nt > g:
        sl = slice(g, nt)
        corr = np.zeros((kern.shape[0], nt - g))
        for i, d in enumerate(_GREGORY):
            corr += d * (f[:, [i]] * kern[:, g - i:nt - i] + f[:, g - i:nt - i] * kern[:, [i]])
        out[:, sl] = base[:, sl] + corr
    for j in range(1, min(g, nt)):
        out[:, j] = (f[:, :j + 1] * kern[:, j::-1]) @ _NEWTON_COTES[j - 1]
    return out * dt


def _row_weights(n: int) -> np.ndarray:
    """Weights of row n >= 1 of ``volterra_convolve`` on nodes 0..n (unit spacing)."""
    if n < GREGORY_ROW:
        return _NEWTON_COTES[n - 1]
    w = np.ones(n + 1)
    w[[0, n]] = 0.5
    for i, d in enumerate(_GREGORY):
        w[[i, n - i]] += d
    return w


def _block_operator(hmat: np.ndarray) -> np.ndarray:
    """The in-block rows of the Gregory rule: one Toeplitz per mode.

    Entry (r, c) is H_n((r - c)*dt) times the weight of lag r - c relative
    to a plain sum: 7/6 at lag 1, 23/24 at lag 2, 1 beyond; it is strictly
    lower triangular because H_n(0) = 0 and later nodes do not enter.
    """
    size = min(BLOCK, hmat.shape[1])
    kern = hmat[:, :size].copy()
    kern[:, 1:3] *= 1.0 + np.array(_GREGORY[1:])
    lag = np.abs(np.subtract.outer(np.arange(size), np.arange(size)))
    return np.ascontiguousarray(np.tril(kern[:, lag], -1))  # C order: fast batched matmul


def _linear_f(source: SourceTerm, l: float, n_modes: int):
    """A u-independent source as f(t) -> SineSpectrum of ``n_modes``, None if zero.

    The algebraic source's constant uses its exact sine coefficients.
    """
    if isinstance(source, ZeroSource):
        return None
    if isinstance(source, LinearSource):
        def spectrum(t):
            spec = source.f(t)
            check_length(l, f=spec)
            return SineSpectrum(l=l, coeffs=pad_modes(spec.coeffs, n_modes))
        return spectrum
    if isinstance(source, ExpDecayingSource):
        prof = analyze(lambda x: np.asarray(source.profile(x), dtype=float),
                       n_modes, l=l).coeffs
        return lambda t: SineSpectrum(l=l, coeffs=prof * math.exp(-source.mu * t))
    if isinstance(source, AlgebraicSource):
        const = constant_coefficients(1.0, l, n_modes)
        return lambda t: SineSpectrum(
            l=l, coeffs=const * (source.h / (source.k0 + t) ** (1.0 + source.alpha)))
    raise TypeError(f"unknown u-independent source kind: {type(source).__name__}")


def _source_spectra(source: SourceTerm, p: Params, n_modes: int, x_interior: np.ndarray):
    """``spectra(u_interior, t_abs)``: sine spectra of F(., t, u), one column per time.

    The constant bias of the sine source uses its exact sine coefficients,
    computed once per solve; other values are sampled on the interior
    collocation nodes and transformed by DST-I.
    """
    def transformed(fvals):
        return dst(fvals, axis=0)[:n_modes, :] / (x_interior.size + 1)

    if isinstance(source, SineGordonSource):
        bias = constant_coefficients(-source.bias, p.l, n_modes)[:, None]
        return lambda u, t_abs: transformed(np.sin(u)) + bias

    def sampled(u, t_abs):
        fvals = np.empty_like(u)
        for j, t in enumerate(t_abs):
            fvals[:, j] = evaluate_source(source, x_interior, float(t), u[:, j])
        return transformed(fvals)

    return sampled


def _evaluating(fn, *args):
    """``fn(*args)``, with any failure reported as a failed source evaluation."""
    try:
        return fn(*args)
    except Exception as exc:
        raise RuntimeError(f"source evaluation failed: {exc}") from exc


def _finite(grid: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(grid)):
        raise NumericalError("non-finite iterate in the fixed-point sweep")
    return grid


def _sweep_block(lin, conv, f_guess, sin_int, spectra, t_abs, cfg):
    """Picard sweeps of u = lin - conv(F(u)) until the grid change is <= tol.

    The first sweep starts from lin - conv(f_guess), with the spectra
    column ``f_guess`` held constant over the block.  Returns the last
    iterate, the spectra it was computed from, the number of sweeps and
    whether ``tol`` was met within ``max_iter`` sweeps.
    """
    grid = sin_int @ (lin - conv(np.repeat(f_guess, lin.shape[1], axis=1)))
    for sweep in range(1, cfg.max_iter + 1):
        fhat = _evaluating(spectra, grid, t_abs)
        modal = lin - conv(fhat)
        grid_next = _finite(sin_int @ modal)
        diff = float(np.max(np.abs(grid_next - grid)))
        grid = grid_next
        if diff <= cfg.tol:
            return modal, fhat, sweep, True
    return modal, fhat, cfg.max_iter, False


def _march_window(table, hmat, hdmat, block_op, lin, sin_int, spectra, t_abs, dt, cfg):
    """March u = lin - volterra_convolve(H, F(u)) over one window, block by block.

    ``hmat``/``hdmat`` hold H_n and H_n' at the window's relative times.
    Returns the modal solution, the sweeps of each block and whether every
    block met ``tol``.
    """
    steps = lin.shape[1] - 1
    modal, fhat = np.empty_like(lin), np.empty_like(lin)
    j0 = min(BLOCK, steps)
    cols = slice(0, j0 + 1)
    f_start = _evaluating(spectra, sin_int @ lin[:, :1], t_abs[:1])
    modal[:, cols], fhat[:, cols], sweeps, ok = _sweep_block(
        lin[:, cols], lambda f: volterra_convolve(hmat[:, cols], f, dt), f_start,
        sin_int, spectra, t_abs[cols], cfg)
    counts = [sweeps]
    # the history A = sum_{i <= j0} f_i H_n((j0 - i) dt) and its derivative
    acc = (fhat[:, :j0 + 1] * hmat[:, j0::-1]).sum(axis=1)
    acc_dt = (fhat[:, :j0 + 1] * hdmat[:, j0::-1]).sum(axis=1)
    w1, w2 = _GREGORY[1:]
    while j0 < steps:
        size = min(BLOCK, steps - j0)
        cols = slice(j0 + 1, j0 + size + 1)
        hist, hist_dt = propagate_state(table, acc[:, None], acc_dt[:, None],
                                        hmat[:, 1:size + 1], hdmat[:, 1:size + 1])
        known = hist.copy()
        for i, w in enumerate(_START_WEIGHTS):
            known += w * fhat[:, [i]] * hmat[:, j0 + 1 - i:j0 + size + 1 - i]
        # end weights of the block's first two rows that fall on nodes j0 - 1, j0
        known[:, 0] += w1 * fhat[:, j0] * hmat[:, 1] + w2 * fhat[:, j0 - 1] * hmat[:, 2]
        if size > 1:
            known[:, 1] += w2 * fhat[:, j0] * hmat[:, 2]
        op = block_op[:, :size, :size]
        modal[:, cols], fhat[:, cols], sweeps, block_ok = _sweep_block(
            lin[:, cols], lambda f: dt * (known + (op @ f[:, :, None])[:, :, 0]),
            fhat[:, [j0]], sin_int, spectra, t_abs[cols], cfg)
        counts.append(sweeps)
        ok &= block_ok
        acc = hist[:, -1] + (fhat[:, cols] * hmat[:, size - 1::-1]).sum(axis=1)
        acc_dt = hist_dt[:, -1] + (fhat[:, cols] * hdmat[:, size - 1::-1]).sum(axis=1)
        j0 += size
    return modal, counts, ok


def _solve_linear_source(prob: NonlinearProblem, cfg: PicardConfig, x: np.ndarray) -> Field:
    """``solve_linear`` to ``tol`` for a u-independent source, on the collocation grid."""
    p, n_modes = prob.params, cfg.n_modes
    f = _evaluating(_linear_f, prob.source, p.l, n_modes)
    g0, g1 = (SineSpectrum(l=p.l, coeffs=pad_modes(g.coeffs, n_modes)) for g in (prob.g0, prob.g1))
    lin_prob = linear_solver.LinearProblem(
        p, g0, g1, None if f is None else (lambda t: _evaluating(f, t)), prob.horizon)
    steps = max(2, round(prob.horizon / cfg.dt))
    grid = linear_solver.GridSpec(x, prob.horizon * np.arange(steps + 1) / steps)
    # through its module, so that a wrapper on linear_solver.solve_linear
    # (perfbench's tracer) sees the call
    return linear_solver.solve_linear(lin_prob, grid, linear_solver.QuadConfig(tol=cfg.tol))


def picard_solve(prob: NonlinearProblem, cfg: PicardConfig = PicardConfig(),
                 ) -> tuple[Field, PicardReport]:
    """Fixed-point solution on [0, horizon], marched window by window.

    Returns the field on the collocation grid together with the iteration
    trace.  Non-convergence is reported (``converged=False``), not raised;
    non-finite iterates raise NumericalError.  A u-independent source goes
    to ``solve_linear``, which raises AccuracyError when it misses ``tol``.
    """
    p = prob.params
    n_modes = cfg.n_modes
    x = np.linspace(0.0, p.l, cfg.nx)
    if not depends_on_u(prob.source):
        return _solve_linear_source(prob, cfg, x), PicardReport(
            iterations=0, converged=True)
    table = mode_table(p, n_modes)
    sin_int = np.sin(np.outer(x[1:-1], table.gamma))
    sin_full = np.zeros((cfg.nx, n_modes))
    sin_full[1:-1, :] = sin_int
    g0c, g1c = pad_modes(prob.g0.coeffs, n_modes), pad_modes(prob.g1.coeffs, n_modes)
    spectra = _evaluating(_source_spectra, prob.source, p, n_modes, x[1:-1])
    traces = []
    iterations = 0
    # equal windows of at most cfg.window share H, H' and the block operator
    # at their relative times; a window past the horizon (inf too) is one
    n_windows = max(1, math.ceil(prob.horizon / cfg.window * (1.0 - 1e-12)))
    span = prob.horizon / n_windows
    steps = max(2, round(span / cfg.dt))
    t_rel = span * np.arange(steps + 1) / steps
    dt = span / steps
    hmat, hdmat = kernel_values(table, t_rel), kernel_dt_values(table, t_rel)
    block_op = _block_operator(hmat)
    # window k fills columns k*steps .. (k+1)*steps; a window's first column
    # is its predecessor's last, written once
    t_nodes = np.empty(n_windows * steps + 1)
    values = np.empty((cfg.nx, t_nodes.size))
    for k in range(n_windows):
        t0, t1 = k * span, (k + 1) * span
        t_abs = t0 + t_rel
        # the initial data's u over the window; its u_t only at the end, below
        lin = propagate_state(table, g0c[:, None], g1c[:, None], hmat, hdmat)[0]
        modal, counts, ok = _march_window(table, hmat, hdmat, block_op, lin, sin_int,
                                          spectra, t_abs, dt, cfg)
        # one full sweep of the marched window: its fixed-point residual
        grid = sin_int @ modal
        fhat = _evaluating(spectra, grid, t_abs)
        swept = _finite(sin_int @ (lin - volterra_convolve(hmat, fhat, dt)))
        swept -= grid
        residual = float(np.abs(swept, out=swept).max())
        ok = ok and residual <= cfg.tol
        lin_dt_end = propagate_state(table, g0c, g1c, hmat[:, -1], hdmat[:, -1])[1]
        modal_dt_end = lin_dt_end - dt * (fhat * hdmat[:, ::-1]) @ _row_weights(steps)
        iterations += sum(counts)
        traces.append({"t_start": t0, "t_end": t1, "iterations": max(counts),
                       "residual": residual, "converged": ok})
        start = 1 if k else 0
        cols = slice(k * steps + start, (k + 1) * steps + 1)
        t_nodes[cols] = t_abs[start:]
        values[:, cols] = sin_full @ modal[:, start:]
        g0c, g1c = modal[:, -1], modal_dt_end
    fld = Field(x_nodes=x, t_nodes=t_nodes, values=values)
    report = PicardReport(iterations=iterations,
                          converged=all(w["converged"] for w in traces),
                          window_traces=traces)
    return fld, report


def _oscillation_excess(table: ModeTable) -> np.ndarray:
    """(kappa_n - 1)/b_n^2 per mode, with int_0^inf |H_n(t)| dt = kappa_n/b_n^2.

    A non-oscillatory kernel is non-negative and integrates to 1/b_n^2, so
    kappa_n = 1.  An oscillatory one, exp(-h t) sin(omega t)/omega, has
    kappa_n = coth(pi h/(2 omega)), whose excess over 1 is formed here
    without cancellation as 2 e^{-x}/(1 - e^{-x}), x = pi h/omega.
    """
    x = math.pi * table.h / np.where(table.osc, table.omega, 1.0)
    return np.where(table.osc, 2.0 * np.exp(-x) / -np.expm1(-x), 0.0) / table.b**2


def sine_gordon_apriori_bound(prob: NonlinearProblem, linear_sup: float) -> float:
    """Bound sup|u| <= linear_sup + (1 + |bias|) (4/pi) sum_n kappa_n/b_n^2 for the sine source.

    ``linear_sup`` bounds the linear part |u_linear|.  The rest is the
    integral term, with |F| <= 1 + |bias|, |sin(gamma_n x)| <= 1 and
    int_0^l |sin(gamma_n xi)| dxi = 2l/pi, so by Tonelli it is at most
    (1 + |bias|) (4/pi) sum_n int_0^inf |H_n|.  That sum is
    sum_n 1/b_n^2 = l^2/(6 c^2) plus the excess of the finitely many
    oscillatory modes (``_oscillation_excess``), all below n2_star.
    """
    if not isinstance(prob.source, SineGordonSource):
        raise ValueError("a-priori bound applies to the sine source")
    if not (math.isfinite(linear_sup) and linear_sup >= 0.0):
        raise ValueError(f"linear_sup must be non-negative and finite, got {linear_sup!r}")
    p = prob.params
    table = mode_table(p, classify_modes(p).n2_star)
    l1_sum = p.l**2 / (6.0 * p.c**2) + float(np.sum(_oscillation_excess(table)))
    return linear_sup + (1.0 + abs(prob.source.bias)) * (4.0 / math.pi) * l1_sum
