"""Fixed-point solution of the nonlinear strip problem.

The nonlinear problem L u = F(x, t, u) is equivalent to the integral
equation

    u = u_linear - int_0^t int_0^l G(x, xi, t - tau) F(xi, tau, u) dxi dtau

(u_linear carries the initial data), solved by Picard iteration.  A sweep
evaluates F on a space-time collocation grid, expands it into sine
spectra, and applies the per-mode Volterra convolution with the kernel
H_n.

The Volterra integrals integrate, on each time step, the cubic through
the source at the nodes k-2..k+1 (0..3 on the first two steps) against
the exact kernel: H_n solves y'' + 2 h_n y' + b_n^2 y = 0, so one step's
weights are closed-form exponential moments (``step_weights``), and
``modes.propagate_state`` carries them over any number of later steps.
The error is the cubic's interpolation error of F times int |H_n|,
whatever the mode's rates.  On a uniform grid the weights are lag
weights, so ``volterra_convolve`` evaluates the rule for a whole grid as
one FFT convolution per mode; the linear solver convolves its sources
with it.  From the third step on, a step's stencil ends at the step's
end, so the march goes block by block (``BLOCK`` steps), carrying one
modal state (u, u_t): the initial data's part less the integrals against
H_n and H_n' of every earlier step, (g0, g1) at t = 0.  The state's free
motion over a block is one ``modes.propagate_state`` call; the block's
own steps are one operator per mode on the nodes from two before the
block to its end, lower triangular on the block's nodes (at t = 0 the
nodes -2 and -1 are those of the cubic through the nodes 0..3,
``with_ghosts``).  A block is swept, from the spectra of the node before
it held constant, until its grid change is within ``tol``.  It keeps the
iterate u whose spectra the last sweep evaluated, and the next state
(the free motion's end less the operator's last row applied to them) and
F's spectra at its last three nodes are built from them, so that sweep's
change is sup|T(u) - u| on the block for the field returned.

So the kernels are sampled once per solve, at one block's relative
times, and nothing restarts: the state and F's spectra cross window
joins unchanged.  A window cuts the blocks at its end, and the largest
last-sweep change of its blocks is its fixed-point residual, the
certificate that ``tol`` bounds.  Each block writes its field into one
field allocated before the march, so the working memory above it is one
block's, whatever the horizon or the window.  A source that does not
depend on u goes, as spectra f(t), to ``linear_solver.solve_linear`` on
the collocation grid, and ``tol`` then bounds its estimate of the error
of the value it returns.

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

    ``max_iter`` caps the sweeps of each block of the march.  The horizon
    is cut into equal spans of at most ``window`` (``inf``: one span), each
    a whole number of steps near ``dt``, with a block cut and a trace at
    every span's end.  For a u-independent source, ``tol`` bounds
    ``solve_linear``'s estimate of the error of its value, and
    ``max_iter`` and ``window`` are unused.
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
    one block needed), ``residual`` (the window's certificate: the largest
    last-sweep change among its blocks, sup|T(u) - u| of the field
    returned) and ``converged``.  A u-independent source is not
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


# Monomial coefficients (columns: powers 0..3 of u) of the cubic Lagrange
# basis on the stencil nodes u = -2, -1, 0, 1 (rows), in units of the step
_LAGRANGE = np.array([[0.0, 1.0, 0.0, -1.0],
                      [0.0, -6.0, 3.0, 3.0],
                      [6.0, 3.0, -6.0, -3.0],
                      [0.0, 2.0, 3.0, 1.0]]) / 6.0
# (1 - v)^p = sum_i _BINOMIAL[p, i] v^i
_BINOMIAL = np.array([[1.0, 0.0, 0.0, 0.0],
                      [1.0, -1.0, 0.0, 0.0],
                      [1.0, -2.0, 1.0, 0.0],
                      [1.0, -3.0, 3.0, -1.0]])
# the values at nodes -2, -1 of the cubic through nodes 0..3
_GHOSTS = np.array([[10.0, 4.0], [-20.0, -6.0], [15.0, 4.0], [-4.0, -1.0]])


def with_ghosts(f: np.ndarray) -> np.ndarray:
    """Source samples (axis 1) with nodes -2 and -1 prepended: column c is node c - 2.

    The two new nodes take the values of the cubic through nodes 0..3, so
    the stencil k-2..k+1 of the steps k = 0, 1 is that cubic.
    """
    return np.concatenate([f[:, :4] @ _GHOSTS, f], axis=1)


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


def _exp_moments(z: np.ndarray, top: int) -> np.ndarray:
    """psi_i(z) = int_0^1 v^i e^{z v} dv for i = 0..top, on a new last axis.

    Re z <= 0.  Taylor series sum_k z^k/(k! (i + k + 1)) for |z| < 1, else
    the recurrence psi_i = (e^z - i psi_{i-1})/z from psi_0 = (e^z - 1)/z,
    which loses at most a factor top!/|z|^top.
    """
    out = np.empty(z.shape + (top + 1,), dtype=z.dtype)
    small = np.abs(z) < 1.0
    if small.any():
        zs = z[small][:, None]
        powers = np.arange(top + 1)
        term, acc, bound = 1.0, 0.0, 1.0
        radius = float(np.max(np.abs(zs)))
        for k in range(18):  # 1/18! < 2^-52
            acc = acc + term / (powers + k + 1)
            term = term * zs / (k + 1)
            bound *= radius / (k + 1)
            if bound < 2.0**-53:  # the terms left are below rounding
                break
        out[small] = acc
    if not small.all():
        zl = z[~small]
        ez = np.exp(zl)
        psi = [(ez - 1.0) / zl]
        for i in range(1, top + 1):
            psi.append((ez - i * psi[-1]) / zl)
        out[~small] = np.stack(psi, axis=-1)
    return out


def step_weights(table: ModeTable, s: np.ndarray, dt: float, h_end: np.ndarray):
    """Exact-kernel weights of one step of length s, 0 < s <= dt (a 1-D array).

    The source on the step is the cubic through the grid nodes at -2dt,
    -dt, 0 and dt from the step's start.  Returns (a, c), each of shape
    (n_modes, 4, s.size): a[:, q] = int_0^s l_q(sigma) H_n(s - sigma) dsigma,
    with l_q the Lagrange basis polynomial of node q, and c the same with
    H_n'.  H_n solves y'' + 2h y' + b^2 y = 0, so ``propagate_state`` carries
    the pair (a, c) on by m dt: its first component is then node q's weight
    in the integral against H_n at m dt after the step's end, the second
    the weight against H_n'.  ``h_end`` is H_n(s), as ``kernel_values``
    gives it.

    The moments m_i = int_0^s (r/s)^i H_n(r) dr are closed forms
    (``_exp_moments``) in the kernel's exponential rates, complex for an
    oscillatory mode.  Where omega*s <= 0.1, critical modes included,
    they come from H_n's Maclaurin series in (omega r)^2 around e^{-h r}
    instead, which avoids the cancellation of two nearly equal rates.
    """
    s = np.asarray(s, dtype=float)
    shape = (table.n_modes, s.size)

    def at(mask, *columns):
        # the step lengths and per-mode columns at the (mode, step) pairs of mask
        return [np.broadcast_to(v, shape)[mask] for v in (s, *(c[:, None] for c in columns))]

    near = np.outer(table.omega, s) <= 0.1
    m = np.empty(shape + (4,))
    # m_i = s^2 sum_k (sign (omega s)^2)^k / (2k+1)! psi_{i+2k+1}(-h s); five
    # terms leave (omega s)^10 / 11! < 2^-52 of the first
    sn, h, omega, sign = at(near, table.h, table.omega, table.sign)
    psi = _exp_moments(-h * sn, 12)
    y, coef = sign * (omega * sn) ** 2, 1.0
    m[near] = 0.0
    for k in range(5):
        m[near] += coef * psi[:, 2 * k + 1:2 * k + 5]
        coef = coef * y[:, None] / ((2 * k + 2) * (2 * k + 3))
    m[near] *= (sn * sn)[:, None]
    # elsewhere H_n = (e^{-dm r} - e^{-dp r}) / (dp - dm), or for an
    # oscillatory mode Im e^{-(h - i omega) r} / omega
    over = ~near & table.over[:, None]
    so, dm, dp = at(over, table.dm, table.dp)
    m[over] = (so * so)[:, None] * (_exp_moments(-dm * so, 3) - _exp_moments(-dp * so, 3)) / (
        (dp - dm) * so)[:, None]
    osc = ~near & table.osc[:, None]
    so, h, omega = at(osc, table.h, table.omega)
    m[osc] = (so * so)[:, None] * _exp_moments(-(h - 1j * omega) * so, 3).imag / (
        omega * so)[:, None]
    # int_0^s (r/s)^i H_n'(r) dr = H_n(s) - i m_{i-1} / s, by parts
    m_dt = h_end[:, :, None] - np.arange(4) * np.concatenate(
        [np.zeros_like(m[..., :1]), m[..., :3]], axis=-1) / s[:, None]
    # l_q(u) at u = (s/dt)(1 - r/s), expanded in powers of r/s
    scale = (s / dt)[:, None] ** np.arange(4)
    return tuple(np.moveaxis((mom @ _BINOMIAL.T * scale) @ _LAGRANGE.T, 1, 2)
                 for mom in (m, m_dt))


def volterra_convolve(w: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Row-wise Volterra convolution U[:, j] = int_0^{t_j} p(tau) K(t_j - tau) dtau.

    ``f`` holds source samples on a uniform grid, at least four nodes,
    along axis 1.  On each step p is the cubic through the nodes k-2..k+1,
    and through nodes 0..3 on the first two steps (``with_ghosts``).
    ``w[:, q, m]`` is the weight of stencil node q of a step that ends m
    steps before the row, for K = H_n or H_n' (``step_weights`` carried by
    ``propagate_state``).  Summed over the steps that reach a node, these
    are lag weights sum_q w[:, q, L - 3 + q], applied by one FFT
    convolution; the first rows then lose the step before node 0, which
    does not exist, and gain the steps 0 and 1 on the nodes -2 and -1.
    It serves ``linear_solver`` and the tests' independent sweeps; the
    march applies the same weights block by block (``_block_operator``).
    """
    nt = f.shape[1]
    lag = w[:, 3].copy()
    for q in range(3):
        lag[:, 3 - q:] += w[:, q, :q - 3]
    out = fftconvolve(f, lag, axes=1)[:, :nt]
    ghost = with_ghosts(f[:, :4])  # nodes -2, -1, then 0..3
    out -= f[:, :1] * w[:, 3]
    out[:, 1:] += ghost[:, :1] * w[:, 0, :-1] + ghost[:, 1:2] * w[:, 1, :-1]
    out[:, 2:] += ghost[:, 1:2] * w[:, 0, :-2]
    out[:, 0] = 0.0
    return out


def _block_operator(w) -> np.ndarray:
    """A block's own steps, one operator per mode, for H_n and H_n'.

    ``w`` is the pair of weights ``volterra_convolve`` takes, to lag BLOCK.
    In a block after node j0, entry (r, c) is the weight of node j0 - 2 + c
    at node j0 + 1 + r from the steps j0..j0 + r: the stencils of the first
    three reach back to the nodes j0 - 2..j0, and the last gives the diagonal.
    """
    size = min(BLOCK, w[0].shape[-1] - 1)
    lags = np.stack([wk[..., :size] for wk in w])
    op = np.zeros(lags.shape[:2] + (size, size + 3))
    r, k = np.tril_indices(size)
    for q in range(4):
        op[..., r, k + q] += lags[..., q, r - k]
    return op


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


def _sweep_block(free, conv, f_guess, sin_int, spectra, t_abs, cfg):
    """Picard sweeps of u = T(u) = free - conv(F(u)) until the grid change is <= tol.

    The first iterate is free - conv(f_guess), with the spectra column
    ``f_guess`` held constant over the block.  Returns the iterate u whose
    spectra F(u) were evaluated last, those spectra, that sweep's change
    sup|T(u) - u| on the block and the number of sweeps, also when
    ``max_iter`` sweeps fall short of ``tol``.
    """
    swept = sin_int @ (free - conv(np.repeat(f_guess, free.shape[1], axis=1)))
    for sweep in range(1, cfg.max_iter + 1):
        grid = swept
        fhat = _evaluating(spectra, grid, t_abs)
        swept = _finite(sin_int @ (free - conv(fhat)))
        change = float(np.max(np.abs(swept - grid)))
        if change <= cfg.tol:
            break
    return grid, fhat, change, sweep


def _march_window(table, hmat, hdmat, block_op, state, lead, sin_int, spectra, t_abs, cfg, out):
    """March u = T(u) over one window's nodes 1..steps at times ``t_abs``, block by block.

    ``state`` is the modal (u, u_t) at the window's node 0, ``lead`` F's
    spectra at its nodes -2..0 (node 0 alone at t = 0), and ``hmat``/
    ``hdmat`` H_n and H_n' at a block's relative times.  Writes u into
    the columns 1..steps of ``out`` and returns the state and ``lead`` at
    the window's end, which start the next window as they are, the sweeps
    of each block and the window's residual: the largest last-sweep change
    of its blocks, sup|T(u) - u| of the u written.  A window sets only
    where its last block ends and which blocks its residual covers.
    """
    steps = t_abs.size - 1
    counts, residual, j0 = [], 0.0, 0
    while j0 < steps:
        size = min(BLOCK, steps - j0)
        cols = slice(j0 + 1, j0 + size + 1)
        # the free motion over the block of the state at node j0
        free = propagate_state(table, state[0][:, None], state[1][:, None],
                               hmat[:, 1:size + 1], hdmat[:, 1:size + 1])
        op = block_op[..., :size, :size + 3]

        def stencil(f):
            # F at the nodes j0 - 2..j0 + size; at t = 0 the nodes -2 and
            # -1 come from the cubic through the nodes 0..3
            nodes = np.concatenate([lead, f], axis=1)
            return with_ghosts(nodes) if lead.shape[1] == 1 else nodes

        def conv(f):
            return (op[0] @ stencil(f)[:, :, None])[:, :, 0]

        out[:, cols], fhat, change, sweeps = _sweep_block(
            free[0], conv, lead[:, -1:], sin_int, spectra, t_abs[cols], cfg)
        counts.append(sweeps)
        residual = max(residual, change)
        nodes = stencil(fhat)
        state = tuple(fk[:, -1] - (opk[:, -1] * nodes).sum(axis=1) for fk, opk in zip(free, op))
        lead = nodes[:, -3:]
        j0 += size
    return state, lead, counts, residual


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
    g0c, g1c = pad_modes(prob.g0.coeffs, n_modes), pad_modes(prob.g1.coeffs, n_modes)
    spectra = _evaluating(_source_spectra, prob.source, p, n_modes, x[1:-1])
    traces = []
    iterations = 0
    # equal windows of at most cfg.window; a window past the horizon (inf
    # too) is one; a cubic step needs four nodes
    n_windows = max(1, math.ceil(prob.horizon / cfg.window * (1.0 - 1e-12)))
    span = prob.horizon / n_windows
    steps = max(3, round(span / cfg.dt))
    t_rel = span * np.arange(steps + 1) / steps
    dt = span / steps
    # H, H' and the block operator at a block's relative times
    t_block = t_rel[:BLOCK + 1]
    hmat, hdmat = kernel_values(table, t_block), kernel_dt_values(table, t_block)
    block_op = _block_operator(propagate_state(
        table, *step_weights(table, t_rel[1:2], dt, hmat[:, 1:2]),
        hmat[:, None], hdmat[:, None]))
    # window k fills columns k*steps .. (k+1)*steps; a window's first column
    # is its predecessor's last, written once
    t_nodes = np.zeros(n_windows * steps + 1)
    values = np.zeros((cfg.nx, t_nodes.size))
    values[1:-1, 0] = sin_int @ g0c
    # (u, u_t) and F's spectra cross window joins unchanged
    state = (g0c, g1c)
    lead = _evaluating(spectra, values[1:-1, :1], t_nodes[:1])
    for k in range(n_windows):
        t0, t1 = k * span, (k + 1) * span
        win = slice(k * steps, (k + 1) * steps + 1)
        t_nodes[k * steps + 1:win.stop] = t0 + t_rel[1:]
        state, lead, counts, residual = _march_window(
            table, hmat, hdmat, block_op, state, lead, sin_int, spectra, t_nodes[win], cfg,
            values[1:-1, win])
        iterations += sum(counts)
        traces.append({"t_start": t0, "t_end": t1, "iterations": max(counts),
                       "residual": residual, "converged": residual <= cfg.tol})
    return Field(x_nodes=x, t_nodes=t_nodes, values=values), PicardReport(
        iterations=iterations, converged=all(w["converged"] for w in traces),
        window_traces=traces)


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
