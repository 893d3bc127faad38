"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines and timings.
"""

import math
import time

import numpy as np

from conftest import ALL_PARAM_SETS, P_EQ
from helpers import mode_ode_residual, pde_residual_sup
from strip_solver.asymptotics import algebraic_decay_check, decay_fit, default_window
from strip_solver.fd_oracle import OracleConfig, oracle_solve
from strip_solver.green_kernel import decay_constants, green_profile
from strip_solver.linear_solver import (
    GridSpec,
    LinearProblem,
    QuadConfig,
    solve_linear,
)
from strip_solver.modes import kernel_dt_values, kernel_values, mode_table
from strip_solver.nonlinear_solver import (
    NonlinearProblem,
    PicardConfig,
    picard_solve,
    sine_gordon_apriori_bound,
)
from strip_solver.sources import SineGordonSource
from strip_solver.spectrum import SineSpectrum, analyze, synthesize
from strip_solver.verification import verify_linear
from strip_solver.profiles import make_profile

L = math.pi


def _report(name, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status} ({elapsed:.2f}s / budget {budget:.0f}s) {detail}")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name} exceeded its runtime budget: {elapsed:.1f}s"


def spec1(amplitude=1.0):
    return SineSpectrum(l=L, coeffs=np.array([amplitude]))


def zero_spec():
    return SineSpectrum(l=L, coeffs=np.zeros(1))


def test_criterion_1_mode_ode():
    start = time.perf_counter()
    worst = 0.0
    exact_ok = True
    tgrid = np.geomspace(0.01, 10.0, 12)
    for p in ALL_PARAM_SETS:
        table = mode_table(p, 50)
        exact_ok &= bool(np.all(kernel_values(table, 0.0) == 0.0)
                         and np.all(kernel_dt_values(table, 0.0) == 1.0))
        # fourth-order stencil, step scaled to the fastest mode rate,
        # so the discretisation floor stays below the 1e-6 target for
        # stiff modes (h ~ n^2)
        for i in range(table.n_modes):
            for t in tgrid:
                step = min(1e-2 / max(1.0, table.dp[i]), float(t) / 4.0)
                worst = max(worst, mode_ode_residual(table, float(t), step, order=4)[i])
    elapsed = time.perf_counter() - start
    _report("C1 mode-ODE residual", worst < 1e-6 and exact_ok, elapsed, 5.0,
            f"worst residual {worst:.2e}, H(0)/H'(0) exact: {exact_ok}")


def test_criterion_2_green_invariants():
    start = time.perf_counter()
    sym = abs(green_profile(P_EQ, [0.8], 1.7, 1.0, tol=1e-5)[0]
              - green_profile(P_EQ, [1.7], 0.8, 1.0, tol=1e-5)[0])
    bnd = max(abs(green_profile(P_EQ, [0.0], 1.0, 1.0, tol=1e-4)[0]),
              abs(green_profile(P_EQ, [L], 1.0, 1.0, tol=1e-4)[0]),
              abs(green_profile(P_EQ, [1.0], 0.0, 1.0, tol=1e-4)[0]))
    xs = np.linspace(0.0, L, 22)[1:-1]
    ts = np.linspace(0.1, 5.0, 20)
    residual = pde_residual_sup(P_EQ, xs, ts, xi=1.1, dx=1e-3, dt=1e-4)
    elapsed = time.perf_counter() - start
    ok = sym < 1e-14 and bnd < 1e-14 and residual < 1e-4
    _report("C2 Green invariants", ok, elapsed, 30.0,
            f"symmetry {sym:.1e}, boundary {bnd:.1e}, operator residual {residual:.2e}")


def test_criterion_3_decay_bounds():
    start = time.perf_counter()
    beta = decay_constants(P_EQ).beta
    assert beta == 0.5
    ts = np.concatenate([np.linspace(0.1, 4.9, 20), np.linspace(5.0, 30.0, 26)])
    xs = np.linspace(0.0, L, 9)[1:-1]
    tols = {"green": 1e-4, "dt": 1e-4, "flux": 1e-6}
    envelopes, rates = {}, {}
    for kind, tol in tols.items():
        sups = []
        for t in ts:
            m = 0.0
            for xi in xs:
                prof = green_profile(P_EQ, xs, float(xi), float(t), kind=kind, tol=tol)
                m = max(m, float(np.max(np.abs(prof))))
            sups.append(m)
        sups = np.array(sups)
        envelopes[kind] = float(np.max(sups * np.exp(beta * ts)))
        rates[kind] = decay_fit(ts, sups, window=(5.0, 30.0)).rate
    elapsed = time.perf_counter() - start
    ok = (all(np.isfinite(v) for v in envelopes.values())
          and all(r >= beta - 0.02 for r in rates.values()))
    _report("C3 decay bounds", ok, elapsed, 30.0,
            "envelopes " + ", ".join(f"{k}={v:.3f}" for k, v in envelopes.items())
            + "; rates " + ", ".join(f"{k}={v:.3f}" for k, v in rates.items()))


def test_criterion_4_linear_exactness():
    start = time.perf_counter()
    quad = QuadConfig(tol=1e-12)
    xs = np.linspace(0.0, L, 41)
    ts = np.linspace(0.0, 3.0, 31)
    grid = GridSpec(x_nodes=xs, t_nodes=ts)
    cases = [
        (LinearProblem(P_EQ, zero_spec(), spec1(), None, 3.0),
         np.outer(np.sin(xs), ts * np.exp(-ts))),
        (LinearProblem(P_EQ, spec1(), zero_spec(), None, 3.0),
         np.outer(np.sin(xs), np.exp(-ts) * (1.0 + ts))),
        (LinearProblem(P_EQ, zero_spec(), zero_spec(), lambda t: spec1(), 3.0),
         np.outer(np.sin(xs), -(1.0 - (1.0 + ts) * np.exp(-ts)))),
    ]
    worst = max(float(np.max(np.abs(solve_linear(prob, grid, quad).values - exact)))
                for prob, exact in cases)
    elapsed = time.perf_counter() - start
    _report("C4 linear exactness", worst < 1e-9, elapsed, 5.0,
            f"sup error vs closed forms {worst:.2e}")


def test_criterion_5_oracle_agreement():
    start = time.perf_counter()
    records = verify_linear(P_EQ)
    orders = [r.order for r in records if not math.isnan(r.order)]
    consts = [r.sup_diff / ((L / (r.nx + 1)) ** 2 + r.dt**2) for r in records]
    elapsed = time.perf_counter() - start
    ok = min(orders) >= 1.9 and max(consts) / min(consts) < 10.0
    _report("C5 oracle agreement", ok, elapsed, 120.0,
            f"min order {min(orders):.3f}, error constant spread "
            f"{min(consts):.2f}..{max(consts):.2f}")


def test_criterion_6_source_asymptotics():
    start = time.perf_counter()
    quad = QuadConfig(tol=1e-10)
    # exponentially decaying source, rate min(beta, 0.25) = 0.25
    T = 40.0
    prob = LinearProblem(P_EQ, zero_spec(), zero_spec(),
                         lambda t: spec1(math.exp(-0.25 * t)), T)
    ts = np.linspace(0.5, T, 80)
    fld = solve_linear(prob, GridSpec(x_nodes=np.linspace(0.0, L, 33), t_nodes=ts), quad)
    fit = decay_fit(ts, fld.sup_norm_per_time(), window=default_window(T))
    rate_ok = abs(fit.rate - 0.25) <= 0.05 * 0.25

    # algebraically decaying source, (1+t)^{-1.5}: sup|u| * t^0.5 bounded
    T2 = 100.0
    prob2 = LinearProblem(P_EQ, zero_spec(), zero_spec(),
                          lambda t: spec1((1.0 + t) ** -1.5), T2)
    ts2 = np.unique(np.concatenate([np.linspace(1.0, 5.0, 10),
                                    np.geomspace(5.0, T2, 40)]))
    fld2 = solve_linear(prob2, GridSpec(x_nodes=np.linspace(0.0, L, 33), t_nodes=ts2),
                        QuadConfig(tol=1e-9))
    tail = ts2 >= 5.0
    bounded, sup_prod = algebraic_decay_check(ts2, fld2.sup_norm_per_time(), alpha=0.5)
    product = fld2.sup_norm_per_time()[tail] * ts2[tail] ** 0.5
    elapsed = time.perf_counter() - start
    ok = rate_ok and bounded and np.all(np.isfinite(product))
    _report("C6 source asymptotics", ok, elapsed, 60.0,
            f"fitted rate {fit.rate:.4f} (target 0.25 +- 5%), "
            f"sup(t^0.5 |u|) = {sup_prod:.3f} bounded={bounded}")


def test_criterion_7_sine_gordon():
    start = time.perf_counter()
    g0 = SineSpectrum(l=L, coeffs=np.array([0.1]))
    g1 = zero_spec()
    t_out = np.arange(0.0, 100.01, 1.0)
    details = []
    ok = True
    for bias in (0.0, 0.5):
        prob = NonlinearProblem(params=P_EQ, g0=g0, g1=g1,
                                source=SineGordonSource(bias=bias), horizon=100.0)
        cfg = PicardConfig(tol=1e-8, max_iter=50, nx=129, dt=0.01,
                           n_modes=64, window=10.0)
        fld, rep = picard_solve(prob, cfg)
        max_block_sweeps = max(w["iterations"] for w in rep.window_traces)
        ok &= rep.converged and max_block_sweeps < 50

        coarse = oracle_solve(P_EQ, lambda x: 0.1 * np.sin(x),
                              lambda x: np.zeros_like(x), SineGordonSource(bias),
                              100.0, OracleConfig(nx=63, dt=0.02), t_out=t_out)
        fine = oracle_solve(P_EQ, lambda x: 0.1 * np.sin(x),
                            lambda x: np.zeros_like(x), SineGordonSource(bias),
                            100.0, OracleConfig(nx=127, dt=0.01), t_out=t_out)
        jt = np.searchsorted(fld.t_nodes, t_out)
        diff = float(np.max(np.abs(fld.values[:, jt] - fine.values)))
        oracle_err = (4.0 / 3.0) * float(np.max(np.abs(coarse.values
                                                       - fine.values[::2, :])))
        ok &= diff <= 2.0 * oracle_err + 1e-8

        sup_u = float(np.max(np.abs(fld.values)))
        lin = solve_linear(LinearProblem(P_EQ, g0, g1, None, 100.0),
                           GridSpec(x_nodes=fld.x_nodes,
                                    t_nodes=np.linspace(0.0, 100.0, 51)))
        bound = sine_gordon_apriori_bound(prob, float(np.max(np.abs(lin.values))))
        ok &= sup_u < bound
        details.append(f"bias={bias}: sweeps/block<={max_block_sweeps}, "
                       f"|pic-oracle|={diff:.2e} vs {2*oracle_err:.2e}, "
                       f"sup|u|={sup_u:.3f} < bound {bound:.2f}")
    elapsed = time.perf_counter() - start
    _report("C7 sine-Gordon fixed point", ok, elapsed, 180.0, "; ".join(details))


def test_criterion_8_initial_condition_recovery():
    start = time.perf_counter()
    corpus = ["bump", "sin_1", "sin_3"]
    quad = QuadConfig(tol=1e-12)
    xs = np.linspace(0.0, L, 101)
    worst_u0, worst_du = 0.0, 0.0
    for name0 in corpus:
        for name1 in corpus:
            g0 = analyze(make_profile(name0, L), 64, l=L)
            g1 = analyze(make_profile(name1, L), 64, l=L)
            prob = LinearProblem(P_EQ, g0, g1, None, 1.0)
            fld = solve_linear(prob, GridSpec(x_nodes=xs,
                                              t_nodes=np.array([0.0, 1e-6])), quad)
            worst_u0 = max(worst_u0, float(np.max(np.abs(
                fld.values[:, 0] - make_profile(name0, L)(xs)))))
            quotient = (fld.values[:, 1] - fld.values[:, 0]) / 1e-6
            worst_du = max(worst_du, float(np.max(np.abs(
                quotient - synthesize(g1, xs)))))
    elapsed = time.perf_counter() - start
    ok = worst_u0 < 1e-8 and worst_du < 1e-5
    _report("C8 initial-condition recovery", ok, elapsed, 10.0,
            f"sup|u(.,0)-g0| = {worst_u0:.2e}, sup|du/dt(0)-g1| = {worst_du:.2e}")
