"""Workloads of the strip-solver benchmark: seeded inputs, units and checks.

A unit is one validated solve.  Each workload turns (seed, unit index) into
the unit's inputs, runs the library on them (the timed part, ``solve``) and
checks the outputs against references that do not use the solver under test
(the untimed part, ``check``).  The library is always reached through module
attributes, so the tracer can wrap the names the library's own callers look
up.

Why these workloads:

* ``linear-decay`` (acceptance criterion C6, both halves): the linear
  convolution and source-callback path on a one-mode table.  Adaptive
  Simpson restarts from tau = 0 at every output time, so ``f(t)`` calls
  dominate and the kernel does almost no work.
* ``sine-gordon`` (criterion C7, bias 0 and one seeded bias): the only
  workload with Picard sweeps, FFT Gregory convolution, DST and the
  finite-difference oracle.
* ``green-series`` (the ``green`` CLI command done in process): kernel
  evaluation and sine synthesis over tables of up to ~1.7e5 modes.

Perturbation ranges keep per-unit work nearly seed-independent.  Measured on
unit 0 of seeds 1-10: every linear-decay unit makes 880,886 f(t) calls; every
sine-gordon unit takes 195 Picard sweeps and 30,000 oracle steps, with
36,941-37,007 banded solves; green-series units sum 4.348-4.378 million
series terms.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from strip_solver import asymptotics, fd_oracle, green_kernel, linear_solver, nonlinear_solver
from strip_solver.modes import Params
from strip_solver.sources import SineGordonSource
from strip_solver.spectrum import SineSpectrum

L = math.pi
# parameter sets of the test suite: c^2 < a*eps, c^2 = a*eps, c^2 > a*eps
P_LESS = Params(epsilon=2.0, a=2.0, c=1.0, l=L)
P_EQ = Params(epsilon=1.0, a=1.0, c=1.0, l=L)
P_GTR = Params(epsilon=0.1, a=0.1, c=1.0, l=L)


def _spec1(amplitude: float) -> SineSpectrum:
    return SineSpectrum(l=L, coeffs=np.array([amplitude]))


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return h.hexdigest()


def _unit_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _sup(a) -> float:
    return float(np.max(np.abs(a)))


# --------------------------------------------------------------------------
# linear-decay: criterion C6

EXP_HORIZON, EXP_TOL = 40.0, 1e-10
EXP_TIMES = np.linspace(0.5, EXP_HORIZON, 80)
ALG_HORIZON, ALG_TOL = 100.0, 1e-9
# C6's grid: 10 linear times on [1, 5] and 40 geometric ones on [5, 100]
# share t = 5, which leaves 49 output times
ALG_TIMES = np.unique(np.concatenate([np.linspace(1.0, 5.0, 10),
                                      np.geomspace(5.0, ALG_HORIZON, 40)]))
C6_X = np.linspace(0.0, L, 33)
RATE_REL_TOL = 0.05


@dataclass(frozen=True)
class DecayInputs:
    mu: float           # decay rate of the exponential source
    amp_exp: float      # amplitude of exp(-mu t) sin x
    amp_alg: float      # amplitude of (1+t)^-1.5 sin x


@dataclass(frozen=True)
class ExpHalf:
    field: object
    rate: float


@dataclass(frozen=True)
class AlgHalf:
    field: object
    bounded: bool


def _source(f, tracer):
    return tracer.wrap(f, "sources.f") if tracer is not None else f


def solve_exp_half(mu: float, amp: float, tracer=None) -> ExpHalf:
    """C6 first half: source amp*exp(-mu t) sin x, T=40, 80 times, tol 1e-10."""
    f = _source(lambda t: _spec1(amp * math.exp(-mu * t)), tracer)
    zero = _spec1(0.0)
    prob = linear_solver.LinearProblem(P_EQ, zero, zero, f, EXP_HORIZON)
    fld = linear_solver.solve_linear(prob, linear_solver.GridSpec(C6_X, EXP_TIMES),
                                     linear_solver.QuadConfig(tol=EXP_TOL))
    fit = asymptotics.decay_fit(EXP_TIMES, fld.sup_norm_per_time(),
                                window=asymptotics.default_window(EXP_HORIZON))
    return ExpHalf(fld, fit.rate)


def solve_alg_half(amp: float, tracer=None) -> AlgHalf:
    """C6 second half: source amp*(1+t)^-1.5 sin x, T=100, tol 1e-9."""
    f = _source(lambda t: _spec1(amp * (1.0 + t) ** -1.5), tracer)
    zero = _spec1(0.0)
    prob = linear_solver.LinearProblem(P_EQ, zero, zero, f, ALG_HORIZON)
    fld = linear_solver.solve_linear(prob, linear_solver.GridSpec(C6_X, ALG_TIMES),
                                     linear_solver.QuadConfig(tol=ALG_TOL))
    bounded, _ = asymptotics.algebraic_decay_check(ALG_TIMES, fld.sup_norm_per_time(),
                                                   alpha=0.5)
    return AlgHalf(fld, bounded)


def exp_half_exact(x, t, mu: float, amp: float) -> np.ndarray:
    """Closed form of C6's first half on P_EQ, whose mode-1 kernel is t e^-t.

    u = -amp * int_0^t e^{-mu s} (t-s) e^{-(t-s)} ds * sin x
      = -amp * e^{-mu t} (1 - (1 + k t) e^{-k t}) / k^2 * sin x,  k = 1 - mu.
    """
    k = 1.0 - mu
    t = np.asarray(t, dtype=float)
    amp_t = -amp * np.exp(-mu * t) * (1.0 - (1.0 + k * t) * np.exp(-k * t)) / k**2
    return np.outer(np.sin(x), amp_t)


def alg_half_reference(x, t, amp: float) -> np.ndarray:
    """C6's second half by scipy quadrature of (1+s)^-1.5 against t e^-t."""
    from scipy.integrate import quad

    amp_t = []
    for tj in np.asarray(t, dtype=float):
        val, _ = quad(lambda s: (1.0 + s) ** -1.5 * (tj - s) * math.exp(-(tj - s)),
                      0.0, tj, epsabs=1e-14, epsrel=1e-13, limit=200)
        amp_t.append(-amp * val)
    return np.outer(np.sin(x), amp_t)


def check_exp_half(res: ExpHalf, mu: float, amp: float) -> list:
    problems = []
    fld = res.field
    err = _sup(fld.values - exp_half_exact(fld.x_nodes, fld.t_nodes, mu, amp))
    if not err <= EXP_TOL:
        problems.append(f"exp half: sup error {err:.3g} > tol {EXP_TOL:.3g}")
    if not abs(res.rate - mu) <= RATE_REL_TOL * mu:
        problems.append(f"exp half: fitted rate {res.rate:.6g} not within 5% of mu={mu:.6g}")
    return problems


def check_alg_half(res: AlgHalf, amp: float) -> list:
    problems = []
    fld = res.field
    err = _sup(fld.values - alg_half_reference(fld.x_nodes, fld.t_nodes, amp))
    if not err <= ALG_TOL:
        problems.append(f"algebraic half: sup error {err:.3g} > tol {ALG_TOL:.3g}")
    if not res.bounded:
        problems.append("algebraic half: t^0.5 sup|u| is not bounded")
    return problems


class LinearDecay:
    name = "linear-decay"

    def inputs(self, seed: int, index: int) -> DecayInputs:
        rng = _unit_rng(seed, index)
        return DecayInputs(mu=0.25 * (1.0 + rng.uniform(-0.04, 0.04)),
                           amp_exp=rng.uniform(0.9, 1.1), amp_alg=rng.uniform(0.9, 1.1))

    def solve(self, inp: DecayInputs, tracer=None):
        halves = (solve_exp_half(inp.mu, inp.amp_exp, tracer),
                  solve_alg_half(inp.amp_alg, tracer))
        return halves, {}

    def check(self, inp: DecayInputs, out) -> list:
        exp_half, alg_half = out
        return (check_exp_half(exp_half, inp.mu, inp.amp_exp)
                + check_alg_half(alg_half, inp.amp_alg))

    def digest(self, out) -> str:
        return _digest([half.field.values for half in out])


# --------------------------------------------------------------------------
# sine-gordon: criterion C7

SG_HORIZON = 100.0
SG_TIMES = np.arange(0.0, SG_HORIZON + 0.01, 1.0)
SG_PICARD = nonlinear_solver.PicardConfig(tol=1e-8, max_iter=50, nx=129, dt=0.01,
                                          n_modes=64, window=10.0)
SG_COARSE = fd_oracle.OracleConfig(nx=63, dt=0.02)
SG_FINE = fd_oracle.OracleConfig(nx=127, dt=0.01)


@dataclass(frozen=True)
class SineGordonInputs:
    amp: float          # g0 = amp * sin x
    bias: float         # the seeded nonzero bias; bias 0 runs too


@dataclass(frozen=True)
class SineGordonRun:
    bias: float
    picard: object
    report: object
    coarse: object
    fine: object


def solve_sine_gordon(amp: float, bias: float) -> SineGordonRun:
    """Picard solve of C7 plus the coarse and fine oracle solves."""
    source = SineGordonSource(bias=bias)
    prob = nonlinear_solver.NonlinearProblem(params=P_EQ, g0=_spec1(amp), g1=_spec1(0.0),
                                             source=source, horizon=SG_HORIZON)
    fld, report = nonlinear_solver.picard_solve(prob, SG_PICARD)

    def g0(x):
        return amp * np.sin(x)

    def g1(x):
        return np.zeros_like(x)

    coarse = fd_oracle.oracle_solve(P_EQ, g0, g1, source, SG_HORIZON, SG_COARSE,
                                    t_out=SG_TIMES)
    fine = fd_oracle.oracle_solve(P_EQ, g0, g1, source, SG_HORIZON, SG_FINE,
                                  t_out=SG_TIMES)
    return SineGordonRun(bias, fld, report, coarse, fine)


def check_sine_gordon(run: SineGordonRun) -> list:
    """C7's rule: |picard - fine| <= 2*(4/3)|coarse - fine| + 1e-8, converged."""
    problems = []
    rep = run.report
    if not rep.converged or max(w["iterations"] for w in rep.window_traces) >= SG_PICARD.max_iter:
        problems.append(f"bias {run.bias:.4g}: Picard iteration did not converge")
    jt = np.searchsorted(run.picard.t_nodes, SG_TIMES)
    if not (np.all(jt < run.picard.t_nodes.size)
            and np.array_equal(run.picard.t_nodes[jt], run.fine.t_nodes)):
        return problems + [f"bias {run.bias:.4g}: Picard grid misses the oracle times"]
    diff = _sup(run.picard.values[:, jt] - run.fine.values)
    oracle_err = (4.0 / 3.0) * _sup(run.coarse.values - run.fine.values[::2, :])
    if not diff <= 2.0 * oracle_err + 1e-8:
        problems.append(f"bias {run.bias:.4g}: |picard - fine| = {diff:.3g} exceeds "
                        f"2*oracle error + 1e-8 = {2.0 * oracle_err + 1e-8:.3g}")
    return problems


class SineGordon:
    name = "sine-gordon"

    def inputs(self, seed: int, index: int) -> SineGordonInputs:
        rng = _unit_rng(seed, index)
        return SineGordonInputs(amp=0.1 * (1.0 + rng.uniform(-0.05, 0.05)),
                                bias=rng.uniform(0.4, 0.5))

    def solve(self, inp: SineGordonInputs, tracer=None):
        runs = [solve_sine_gordon(inp.amp, bias) for bias in (0.0, inp.bias)]
        facts = {"sweeps": sum(r.report.iterations for r in runs),
                 "windows": sum(len(r.report.window_traces) for r in runs)}
        return runs, facts

    def check(self, inp: SineGordonInputs, out) -> list:
        return [p for run in out for p in check_sine_gordon(run)]

    def digest(self, out) -> str:
        return _digest([a for r in out for a in (r.picard.values, r.coarse.values,
                                                 r.fine.values)])


# --------------------------------------------------------------------------
# green-series: the ``green`` CLI command in process

GREEN_X = np.linspace(0.0, L, 21)
GREEN_KINDS = ("green", "dt", "flux")
# (name, params, tol, first time); P_GTR's depth at tol 1e-5 is not
# certifiable for t <= 0.5, hence its looser tolerance and later start
GREEN_SETS = (("less", P_LESS, 1e-5, 0.1), ("eq", P_EQ, 1e-5, 0.1),
              ("gtr", P_GTR, 1e-4, 0.5))
GREEN_T_MAX, GREEN_NT = 5.0, 20
# G(x, xi) and G(xi, x) sum the same modes in a different order
SYMMETRY_TOL = 1e-12
# modes per block of the reference sum: a (21 x REF_CHUNK) sine matrix is
# ~2.8 MB, so the reference stays far below the solver's own peak memory
REF_CHUNK = 16384


@dataclass(frozen=True)
class GreenInputs:
    stretch: float      # all times scaled by 1 + stretch, so no two units share a time
    xi: tuple           # source point per parameter set
    t_check: tuple      # per set: a second time index checked against the reference
    x_check: tuple      # per set: the x index checked for symmetry


def green_times(t_first: float, stretch: float) -> np.ndarray:
    return np.linspace(t_first, GREEN_T_MAX, GREEN_NT) * (1.0 + stretch)


def textbook_series(p: Params, xs, xi: float, t: float, kind: str, n_terms: int) -> np.ndarray:
    """Partial sum (2/l) sum_{n<=n_terms} K_n(t) sin(g_n xi) sin(g_n x).

    K_n is H_n, H_n' or eps*H_n' + c^2*H_n from the textbook exp/sin forms
    of the damped oscillator (naive w = sqrt|h^2 - b^2|, no stabilised
    splits, no Maclaurin branch); none of the solver's kernels is used.
    """
    xs = np.asarray(xs, dtype=float)
    total = np.zeros(xs.size)
    for first in range(1, n_terms + 1, REF_CHUNK):
        n = np.arange(first, min(first + REF_CHUNK, n_terms + 1), dtype=float)
        g = n * math.pi / p.l
        b = p.c * g
        h = 0.5 * (p.a + p.epsilon * g * g)
        w2 = h * h - b * b
        w = np.sqrt(np.abs(w2))
        over, osc = w2 > 0, w2 < 0
        ws = np.where(w > 0, w, 1.0)
        e = np.exp(-h * t)
        slow, fast = np.exp(-(h - w) * t), np.exp(-(h + w) * t)
        hv = np.where(over, (slow - fast) / (2.0 * ws),
                      np.where(osc, e * np.sin(w * t) / ws, t * e))
        hd = np.where(over, ((w - h) * slow + (w + h) * fast) / (2.0 * ws),
                      np.where(osc, e * (np.cos(w * t) - h * np.sin(w * t) / ws),
                               e * (1.0 - h * t)))
        term = {"green": hv, "dt": hd, "flux": p.epsilon * hd + p.c**2 * hv}[kind]
        total += np.sin(np.outer(xs, g)) @ (term * np.sin(g * xi))
    return (2.0 / p.l) * total


def solve_green(inp: GreenInputs) -> dict:
    """Profiles G, G_t and the flux for every set and time: (nt, 3, nx) each."""
    out = {}
    for (name, p, tol, t_first), xi in zip(GREEN_SETS, inp.xi):
        out[name] = np.array([[green_kernel.green_profile(p, GREEN_X, xi, float(t),
                                                          kind=kind, tol=tol)
                               for kind in GREEN_KINDS]
                              for t in green_times(t_first, inp.stretch)])
    return out


def check_green(inp: GreenInputs, out: dict) -> list:
    """Symmetry and agreement with a deeper textbook partial sum.

    Checked at the first (deepest) time and one seeded time per set.  The
    reference sums twice the certified depth; the certified tail bound of
    the solver's depth also bounds the modes between the two depths, so the
    two partial sums agree within the requested tolerance.
    """
    problems = []
    for (name, p, tol, t_first), xi, jt, kx in zip(GREEN_SETS, inp.xi, inp.t_check,
                                                  inp.x_check):
        ts = green_times(t_first, inp.stretch)
        for j in sorted({0, jt}):
            t = float(ts[j])
            for k, kind in enumerate(GREEN_KINDS):
                prof = out[name][j, k]
                depth = green_kernel.plan_truncation(p, t, tol, kind=kind).n_terms
                deep = textbook_series(p, GREEN_X, xi, t, kind, 2 * depth)
                err = _sup(prof - deep)
                if not err <= tol:
                    problems.append(f"{name} {kind} t={t:.4g}: |G - deeper sum| = "
                                    f"{err:.3g} > tol {tol:.3g}")
                swapped = green_kernel.green_profile(p, [xi], float(GREEN_X[kx]), t,
                                                     kind=kind, tol=tol)[0]
                asym = abs(swapped - prof[kx])
                if not asym <= SYMMETRY_TOL:
                    problems.append(f"{name} {kind} t={t:.4g}: |G(x,xi) - G(xi,x)| = "
                                    f"{asym:.3g}")
    return problems


class GreenSeries:
    name = "green-series"

    def inputs(self, seed: int, index: int) -> GreenInputs:
        rng = _unit_rng(seed, index)
        n_sets = len(GREEN_SETS)
        return GreenInputs(
            stretch=rng.uniform(0.0, 0.01),
            xi=tuple(float(v) for v in rng.uniform(0.1 * L, 0.9 * L, n_sets)),
            t_check=tuple(int(v) for v in rng.integers(1, GREEN_NT, n_sets)),
            x_check=tuple(int(v) for v in rng.integers(1, GREEN_X.size - 1, n_sets)))

    def solve(self, inp: GreenInputs, tracer=None):
        return solve_green(inp), {}

    def check(self, inp: GreenInputs, out) -> list:
        return check_green(inp, out)

    def digest(self, out) -> str:
        return _digest([out[name] for name, *_ in GREEN_SETS])


WORKLOADS = {w.name: w for w in (LinearDecay(), SineGordon(), GreenSeries())}
