import math
import tracemalloc

import numpy as np
import pytest

from conftest import ALL_PARAM_SETS, P_EQ, P_GTR, P_LESS
from helpers import kernel_l1_reference, residual, sine_gordon_sweep
from strip_solver import nonlinear_solver
from strip_solver.errors import NumericalError
from strip_solver.fd_oracle import OracleConfig, oracle_solve
from strip_solver.fields import Field
from strip_solver.linear_solver import GridSpec, LinearProblem, QuadConfig, solve_linear
from strip_solver.modes import kernel_dt_values, kernel_values, mode_table, propagate_state
from strip_solver.nonlinear_solver import (
    NonlinearProblem,
    PicardConfig,
    picard_solve,
    sine_gordon_apriori_bound,
    step_weights,
    volterra_convolve,
)
from strip_solver.sources import (
    AlgebraicSource,
    CustomSource,
    ExpDecayingSource,
    LinearSource,
    SineGordonSource,
    ZeroSource,
)
from strip_solver.spectrum import SineSpectrum, constant_coefficients

L = math.pi


def spec(coeffs):
    return SineSpectrum(l=L, coeffs=np.asarray(coeffs, dtype=float))


def iterated_sweep(prob, grid_like, n_modes, tol, diffs=None, max_sweeps=100):
    """Whole-grid Picard sweeps of the sine source from the linear part.

    Runs ``sine_gordon_sweep`` on the grid of ``grid_like`` (one window from
    t = 0) until the sup-norm change is <= tol; the changes go to ``diffs``.
    """
    grid = GridSpec(x_nodes=grid_like.x_nodes, t_nodes=grid_like.t_nodes)
    lin = solve_linear(LinearProblem(prob.params, prob.g0, prob.g1, None, prob.horizon), grid)
    u = lin
    for _ in range(max_sweeps):
        nxt = Field(x_nodes=u.x_nodes, t_nodes=u.t_nodes,
                    values=sine_gordon_sweep(prob.params, lin, u, prob.source.bias, n_modes))
        diff = float(np.max(np.abs(nxt.values - u.values)))
        if diffs is not None:
            diffs.append(diff)
        u = nxt
        if diff <= tol:
            return u
    raise AssertionError(f"sweeps stalled at {diff:.3g} > {tol:.3g}")


def swept_residual(prob, fld, n_modes):
    """sup|T(u) - u| of a one-window sine-source field u by one independent sweep.

    ``sine_gordon_sweep`` (scipy's DST and ``volterra_convolve``'s FFT) from
    the linear part on the field's grid, against the march's block operators.
    """
    grid = GridSpec(x_nodes=fld.x_nodes, t_nodes=fld.t_nodes)
    lin = solve_linear(LinearProblem(prob.params, prob.g0, prob.g1, None, prob.horizon), grid)
    swept = sine_gordon_sweep(prob.params, lin, fld, prob.source.bias, n_modes)
    return float(np.max(np.abs(swept - fld.values)))


def lag_weights(table, t):
    """``volterra_convolve``'s weights for H_n and H_n' on the uniform grid t from 0."""
    hmat, hdmat = kernel_values(table, t), kernel_dt_values(table, t)
    return propagate_state(table, *step_weights(table, t[1:2], t[1], hmat[:, 1:2]),
                           hmat[:, None], hdmat[:, None])


class TestVolterraConvolve:
    # P_EQ's mode 1 is critical, H = t e^{-t}; with lambda = 1 + 3i,
    # int_0^t cos(3 tau) H(t - tau) dtau = Re e^{3it} (1 - (1 + lambda t) e^{-lambda t}) / lambda^2
    def cos_error(self, dt):
        t = np.arange(round(3.0 / dt) + 1) * dt
        out = volterra_convolve(lag_weights(mode_table(P_EQ, 1), t)[0], np.cos(3.0 * t)[None, :])
        lam = 1.0 + 3.0j
        exact = np.real(np.exp(3j * t) * (1.0 - (1.0 + lam * t) * np.exp(-lam * t)) / lam**2)
        return np.max(np.abs(out[0] - exact))

    def test_critical_kernel_closed_form(self):
        assert self.cos_error(0.01) < 5e-9

    def test_fourth_order_convergence(self):
        errs = [self.cos_error(dt) for dt in (0.04, 0.02, 0.01)]
        assert errs[0] / errs[1] > 14.0 and errs[1] / errs[2] > 14.0

    def test_constant_source_is_exact_in_stiff_modes(self):
        # the sine source's bias on 64 modes of P_EQ, whose fast rates reach
        # dp*dt = 41 at dt 0.01: int_0^t H_n = (1 - H_n' - 2 h_n H_n)/b_n^2 and
        # int_0^t H_n' = H_n, to rounding at all 129 collocation nodes
        table = mode_table(P_EQ, 64)
        t = np.arange(1001) * 0.01
        fhat = np.repeat(constant_coefficients(-0.45, L, 64)[:, None], t.size, axis=1)
        u, du = (volterra_convolve(wk, fhat) for wk in lag_weights(table, t))
        hmat, hdmat = kernel_values(table, t), kernel_dt_values(table, t)
        sin_mat = np.sin(np.outer(np.linspace(0.0, L, 129), table.gamma))
        exact = fhat * (1.0 - hdmat - 2.0 * table.h[:, None] * hmat) / table.b[:, None]**2
        assert np.max(np.abs(sin_mat @ (u - exact))) <= 1e-13
        assert np.max(np.abs(sin_mat @ (du - fhat * hmat))) <= 1e-13


class TestFftConvolve:
    # scipy serves only as the reference: the solver imports none of it
    def test_fast_len_matches_scipy_next_fast_len(self):
        from scipy.fft import next_fast_len

        lengths = [*range(1, 20001), 99_999, 100_000, 100_001, 131_073, 999_999, 1_000_001]
        assert ([nonlinear_solver._fast_len(n) for n in lengths]
                == [next_fast_len(n, True) for n in lengths])

    @pytest.mark.parametrize("shape", ((1, 1), (3, 2), (8, 33), (64, 1001), (1, 12001)))
    def test_bitwise_equal_to_scipy_signal(self, shape):
        from scipy.signal import fftconvolve as scipy_fftconvolve

        rng = np.random.default_rng(shape)
        a, b = rng.standard_normal(shape), rng.standard_normal(shape)
        assert np.array_equal(nonlinear_solver.fftconvolve(a, b),
                              scipy_fftconvolve(a, b, axes=1))
        assert np.array_equal(nonlinear_solver.fftconvolve(a.T, b.T, axes=0),
                              scipy_fftconvolve(a.T, b.T, axes=0))


class TestPicardSolve:
    def small_problem(self, source, T=5.0):
        return NonlinearProblem(params=P_EQ, g0=spec([0.1]), g1=spec([0.0]),
                                source=source, horizon=T)

    def assert_not_iterated(self, rep):
        # a u-independent source goes to solve_linear, which raises when it
        # misses tol, so the report holds no sweep and no residual
        assert rep.converged and rep.iterations == 0
        assert rep.window_traces == []

    def test_zero_source_single_iteration(self):
        prob = self.small_problem(ZeroSource(), T=2.0)
        fld, rep = picard_solve(prob, PicardConfig(nx=33, dt=0.02, n_modes=8))
        self.assert_not_iterated(rep)
        grid = GridSpec(x_nodes=fld.x_nodes, t_nodes=fld.t_nodes)
        lin = solve_linear(LinearProblem(P_EQ, spec([0.1]), spec([0.0]), None, 2.0), grid)
        assert np.max(np.abs(fld.values - lin.values)) < 1e-13

    def test_zero_source_returns_linear_part(self):
        prob = NonlinearProblem(params=P_EQ, g0=spec([0.1, 0.0, -0.05]), g1=spec([0.0, 0.2]),
                                source=ZeroSource(), horizon=1.0)
        fld, _ = picard_solve(prob, PicardConfig(nx=33, dt=0.05, n_modes=8))
        grid = GridSpec(x_nodes=fld.x_nodes, t_nodes=fld.t_nodes)
        lin = solve_linear(LinearProblem(P_EQ, prob.g0, prob.g1, None, 1.0), grid)
        assert np.array_equal(fld.values, lin.values)

    def test_sine_source_at_rest_returns_linear_part(self):
        prob = NonlinearProblem(params=P_EQ, g0=spec([0.0]), g1=spec([0.0]),
                                source=SineGordonSource(bias=0.0), horizon=1.0)
        fld, rep = picard_solve(prob, PicardConfig(nx=33, dt=0.05, n_modes=16))
        assert rep.converged and rep.iterations == 1
        assert np.all(fld.values == 0.0)

    def test_linear_source_matches_linear_solver(self):
        f = lambda t: spec([math.exp(-0.3 * t), 0.2])
        prob = NonlinearProblem(params=P_EQ, g0=spec([0.05]), g1=spec([0.0]),
                                source=LinearSource(f), horizon=2.0)
        cfg = PicardConfig(nx=33, dt=0.01, n_modes=8)
        fld, rep = picard_solve(prob, cfg)
        self.assert_not_iterated(rep)
        grid = GridSpec(x_nodes=fld.x_nodes, t_nodes=fld.t_nodes)
        reference = solve_linear(LinearProblem(P_EQ, spec([0.05]), spec([0.0]), f, 2.0),
                                 grid, QuadConfig(tol=1e-12))
        assert np.max(np.abs(fld.values - reference.values)) <= cfg.tol

    def test_algebraic_source_matches_linear_solver(self):
        # the exact spectra h/(k0 + t)^(1 + alpha) * 1_n fall off like 1/n
        src = AlgebraicSource(h=1.0, k0=1.0, alpha=0.5)
        cfg = PicardConfig(nx=65, dt=0.01, n_modes=16)
        fld, rep = picard_solve(self.small_problem(src), cfg)
        self.assert_not_iterated(rep)
        f = lambda t: spec(constant_coefficients(src.h / (src.k0 + t) ** (1.0 + src.alpha), L, 16))
        grid = GridSpec(x_nodes=fld.x_nodes, t_nodes=fld.t_nodes)
        reference = solve_linear(LinearProblem(P_EQ, spec([0.1]), spec([0.0]), f, 5.0),
                                 grid, QuadConfig(tol=1e-11))
        assert np.max(np.abs(fld.values - reference.values)) <= cfg.tol

    def test_window_converges_without_bisection(self):
        # at most 8 sweeps per block reach 1e-10 on one window of 5; no
        # window is split
        prob = self.small_problem(SineGordonSource(bias=0.3))
        _, rep = picard_solve(prob, PicardConfig(tol=1e-10, max_iter=8, nx=33, dt=0.05,
                                                 n_modes=8, window=5.0))
        assert rep.converged
        assert [(w["t_start"], w["t_end"]) for w in rep.window_traces] == [(0.0, 5.0)]
        assert rep.window_traces[0]["iterations"] <= 8
        assert rep.window_traces[0]["residual"] <= 1e-10

    def test_window_short_of_sweeps_is_reported_unsplit(self):
        # 3 sweeps per block fall short of 1e-10: the window of 5 is kept
        # whole and reported unconverged with its certificate
        prob = self.small_problem(SineGordonSource(bias=0.3))
        fld, rep = picard_solve(prob, PicardConfig(tol=1e-10, max_iter=3, nx=33, dt=0.05,
                                                   n_modes=8, window=5.0))
        assert not rep.converged
        assert [(w["t_start"], w["t_end"]) for w in rep.window_traces] == [(0.0, 5.0)]
        assert rep.window_traces[0]["iterations"] == 3
        assert not rep.window_traces[0]["converged"]
        assert 1e-10 < rep.window_traces[0]["residual"] < 1e-4
        # the certificate is the returned field's, not that of the sweep's
        # newer synthesis
        assert rep.window_traces[0]["residual"] == pytest.approx(
            swept_residual(prob, fld, n_modes=8), rel=0.0, abs=1e-14)

    @pytest.mark.parametrize("steps", [3, 33, 34, 64, 65, 97])
    def test_march_matches_iterated_sweep_at_block_edges(self, steps):
        # step counts around the block boundaries: a first block alone, one
        # later block of 1 or 2 steps, and a short last block
        prob = self.small_problem(SineGordonSource(bias=0.3), T=steps * 0.05)
        fld, rep = picard_solve(prob, PicardConfig(tol=1e-13, nx=33, dt=0.05, n_modes=8,
                                                   window=10.0))
        assert rep.converged and fld.t_nodes.size == steps + 1
        assert rep.window_traces[0]["residual"] == pytest.approx(
            swept_residual(prob, fld, n_modes=8), rel=0.0, abs=1e-14)
        fixed = iterated_sweep(prob, fld, n_modes=8, tol=1e-13)
        assert np.max(np.abs(fld.values - fixed.values)) <= 1e-12

    def test_kernels_built_once_per_solve(self, monkeypatch):
        calls = []
        for name in ("kernel_values", "kernel_dt_values"):
            original = getattr(nonlinear_solver, name)

            def counted(table, t, _original=original, _name=name):
                calls.append((_name, np.size(t)))
                return _original(table, t)

            monkeypatch.setattr(nonlinear_solver, name, counted)
        # T = 3.5 at window 1 is split into four equal windows of 0.875, each
        # of 44 steps, longer than a block
        prob = self.small_problem(SineGordonSource(bias=0.3), T=3.5)
        _, rep = picard_solve(prob, PicardConfig(nx=33, dt=0.02, n_modes=8, window=1.0))
        assert rep.converged
        assert [(w["t_start"], w["t_end"]) for w in rep.window_traces] == pytest.approx(
            [(0.0, 0.875), (0.875, 1.75), (1.75, 2.625), (2.625, 3.5)], abs=1e-15)
        assert sorted(calls) == [("kernel_dt_values", nonlinear_solver.BLOCK + 1),
                                 ("kernel_values", nonlinear_solver.BLOCK + 1)]

    def test_biased_sine_source_does_not_depend_on_the_step(self):
        # 64 modes of P_EQ reach dp*dt = 41 at dt 0.01; the sampled kernel's
        # rule moved the field by 8.1e-7 at integer times when dt halved
        prob = NonlinearProblem(params=P_EQ, g0=spec([0.1]), g1=spec([0.0]),
                                source=SineGordonSource(bias=0.45), horizon=20.0)
        at_integers = []
        for dt in (0.01, 0.005):
            fld, rep = picard_solve(prob, PicardConfig(tol=1e-11, nx=129, dt=dt, n_modes=64))
            cols = np.round(np.arange(21) / dt).astype(int)
            assert rep.converged and np.allclose(fld.t_nodes[cols], np.arange(21))
            at_integers.append(fld.values[:, cols])
        assert np.max(np.abs(at_integers[0] - at_integers[1])) <= 1e-8

    def test_horizon_just_past_a_window_leaves_no_sliver(self):
        # 10.000001 at window 10 is two windows of 5.0000005, not a window
        # of 10 followed by one of 1e-6 in two 5e-7 steps
        prob = self.small_problem(SineGordonSource(bias=0.3), T=10.000001)
        fld, rep = picard_solve(prob, PicardConfig(nx=33, dt=0.01, n_modes=8, window=10.0))
        assert rep.converged and len(rep.window_traces) == 2
        assert fld.t_nodes.size == 1001 and fld.t_nodes[-1] == pytest.approx(10.000001, abs=1e-12)
        assert np.allclose(np.diff(fld.t_nodes), 0.010000001, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("window", [math.inf, 7.5])
    def test_window_past_the_horizon_is_one_window(self, window):
        # any window at least the horizon marches [0, T] in one window, the
        # same solve as window = T
        prob = self.small_problem(SineGordonSource(bias=0.3), T=2.0)
        fld, rep = picard_solve(prob, PicardConfig(nx=33, dt=0.05, n_modes=8, window=window))
        ref, ref_rep = picard_solve(prob, PicardConfig(nx=33, dt=0.05, n_modes=8, window=2.0))
        assert [(w["t_start"], w["t_end"]) for w in rep.window_traces] == [(0.0, 2.0)]
        assert np.array_equal(fld.values, ref.values)
        assert np.array_equal(fld.t_nodes, ref.t_nodes)
        assert rep == ref_rep

    def test_window_joins_match_one_window(self):
        # four windows of 1 march the same equations as one window of 4:
        # the state (u, u_t) and F's stencil cross the joins unchanged
        prob = self.small_problem(SineGordonSource(bias=0.3), T=4.0)
        cfg = dict(tol=1e-13, nx=33, dt=0.05, n_modes=8)
        split, split_rep = picard_solve(prob, PicardConfig(window=1.0, **cfg))
        whole, whole_rep = picard_solve(prob, PicardConfig(window=math.inf, **cfg))
        assert split_rep.converged and whole_rep.converged
        assert len(split_rep.window_traces) == 4
        assert np.array_equal(split.t_nodes, whole.t_nodes)
        assert np.max(np.abs(split.values - whole.values)) <= 1e-12

    def test_working_memory_does_not_grow_with_the_horizon(self):
        # tracemalloc peak above the returned field: one window's working
        # set, the same at 10 and at 20 windows
        cfg = PicardConfig(nx=65, dt=0.01, n_modes=16, window=2.0)

        def extra_bytes(T):
            prob = self.small_problem(SineGordonSource(bias=0.45), T=T)
            tracemalloc.start()
            try:
                fld, rep = picard_solve(prob, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rep.converged
            return peak - fld.values.nbytes

        extra_bytes(2.0)  # one-off allocations of a first solve
        short, long = extra_bytes(20.0), extra_bytes(40.0)
        assert abs(long - short) <= 0.1 * short

    @pytest.mark.parametrize("T, window", [(10.0, 10.0), (100.0, math.inf)])
    def test_c7_window_working_memory(self, T, window):
        # tracemalloc peak above the returned field for one C7 window of
        # 1,000 or 10,000 steps: one block's working set, whatever the window
        prob = NonlinearProblem(params=P_EQ, g0=spec([0.1]), g1=spec([0.0]),
                                source=SineGordonSource(bias=0.45), horizon=T)
        cfg = PicardConfig(tol=1e-8, nx=129, dt=0.01, n_modes=64, window=window)
        picard_solve(prob, cfg)  # one-off allocations of a first solve
        tracemalloc.start()
        try:
            fld, rep = picard_solve(prob, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.converged and len(rep.window_traces) == 1
        assert peak - fld.values.nbytes <= 3 * 2**20

    def test_u_and_time_dependent_source_matches_manufactured_solution(self):
        # u* = 0.1 e^{-t/2} sin x solves L u = -u*/4 on P_EQ, so with
        # F = sin(u) - sin(u*) - u*/4 it is the solution; the march must
        # reach F with absolute times across the windows
        def source(x, t, u):
            exact = 0.1 * math.exp(-0.5 * t) * np.sin(x)
            return np.sin(u) - np.sin(exact) - 0.25 * exact

        prob = NonlinearProblem(params=P_EQ, g0=spec([0.1]), g1=spec([-0.05]),
                                source=CustomSource(fn=source), horizon=4.0)
        fields = []
        for window, n_windows in ((1.0, 4), (math.inf, 1)):
            fld, rep = picard_solve(prob, PicardConfig(tol=1e-12, nx=33, dt=0.02, n_modes=8,
                                                       window=window))
            exact = 0.1 * np.outer(np.sin(fld.x_nodes), np.exp(-0.5 * fld.t_nodes))
            assert rep.converged and len(rep.window_traces) == n_windows
            assert np.max(np.abs(fld.values - exact)) <= 1e-10
            fields.append(fld.values)
        assert np.max(np.abs(fields[0] - fields[1])) <= 1e-11

    def test_march_makes_no_window_convolution(self, monkeypatch):
        # every block, the first included, sweeps by its block operator
        def forbidden(*args, **kwargs):
            raise AssertionError("window-wide convolution in the march")

        monkeypatch.setattr(nonlinear_solver, "volterra_convolve", forbidden)
        monkeypatch.setattr(nonlinear_solver, "fftconvolve", forbidden)
        prob = self.small_problem(SineGordonSource(bias=0.3), T=4.0)
        _, rep = picard_solve(prob, PicardConfig(nx=33, dt=0.05, n_modes=8, window=2.0))
        assert rep.converged and len(rep.window_traces) == 2

    def test_report_shape(self):
        prob = self.small_problem(SineGordonSource(bias=0.3))
        cfg = PicardConfig(tol=1e-8, nx=65, dt=0.01, n_modes=16, window=5.0)
        fld, rep = picard_solve(prob, cfg)
        assert rep.converged
        assert max(w["residual"] for w in rep.window_traces) <= cfg.tol
        assert set(rep.window_traces[0]) == {"t_start", "t_end", "iterations", "residual",
                                             "converged"}
        assert rep.iterations >= sum(w["iterations"] for w in rep.window_traces)
        assert np.all(np.isfinite(fld.values))

    def test_contraction_monotone_after_first_sweep(self):
        # the sweep behind the per-window certificate contracts: iterated
        # from the linear part, its sup-norm changes fall monotonically
        prob = self.small_problem(SineGordonSource(bias=0.3))
        fld, rep = picard_solve(prob, PicardConfig(tol=1e-10, nx=65, dt=0.01,
                                                   n_modes=16, window=5.0))
        assert rep.converged
        diffs = []
        iterated_sweep(prob, fld, n_modes=16, tol=1e-10, diffs=diffs)
        diffs = np.array(diffs[1:])
        assert np.all(np.diff(diffs) < 0.0)
        ratios = diffs[1:] / diffs[:-1]
        assert np.max(ratios) < 1.0

    def test_march_matches_iterated_sweep_on_a_c7_window(self):
        prob = NonlinearProblem(params=P_EQ, g0=spec([0.1]), g1=spec([0.0]),
                                source=SineGordonSource(bias=0.45), horizon=10.0)
        fld, rep = picard_solve(prob, PicardConfig(tol=1e-13, nx=129, dt=0.01, n_modes=64,
                                                   window=10.0))
        assert rep.converged and len(rep.window_traces) == 1
        fixed = iterated_sweep(prob, fld, n_modes=64, tol=1e-13)
        assert np.max(np.abs(fld.values - fixed.values)) <= 1e-12

    def test_fixed_point_residual(self):
        tol = 1e-9
        prob = self.small_problem(SineGordonSource(bias=0.2), T=3.0)
        cfg = PicardConfig(tol=tol, nx=65, dt=0.01, n_modes=32, window=5.0)
        fld, rep = picard_solve(prob, cfg)
        assert rep.converged and len(rep.window_traces) == 1
        swept = swept_residual(prob, fld, n_modes=32)
        assert swept <= tol
        assert rep.window_traces[0]["residual"] == pytest.approx(swept, rel=0.0, abs=1e-14)

    def test_sine_gordon_matches_oracle(self):
        prob = self.small_problem(SineGordonSource(bias=0.0), T=5.0)
        cfg = PicardConfig(tol=1e-8, nx=129, dt=0.01, n_modes=32, window=5.0)
        fld, rep = picard_solve(prob, cfg)
        assert rep.converged
        t_out = np.arange(0.0, 5.01, 0.25)
        coarse = oracle_solve(P_EQ, lambda x: 0.1 * np.sin(x),
                              lambda x: np.zeros_like(x), SineGordonSource(0.0),
                              5.0, OracleConfig(nx=63, dt=0.02), t_out=t_out)
        fine = oracle_solve(P_EQ, lambda x: 0.1 * np.sin(x),
                            lambda x: np.zeros_like(x), SineGordonSource(0.0),
                            5.0, OracleConfig(nx=127, dt=0.01), t_out=t_out)
        jt = np.searchsorted(fld.t_nodes, t_out)
        diff = np.max(np.abs(fld.values[:, jt] - fine.values))
        oracle_err = (4.0 / 3.0) * np.max(np.abs(coarse.values - fine.values[::2, :]))
        assert diff <= 2.0 * oracle_err + 1e-8

    def test_exp_decaying_source_matches_linear_path(self):
        mu = 0.4
        profile = lambda x: np.sin(x)
        prob = NonlinearProblem(params=P_EQ, g0=spec([0.0]), g1=spec([0.0]),
                                source=ExpDecayingSource(profile=profile, mu=mu),
                                horizon=4.0)
        cfg = PicardConfig(nx=65, dt=0.01, n_modes=16)
        fld, rep = picard_solve(prob, cfg)
        assert rep.converged
        grid = GridSpec(x_nodes=fld.x_nodes, t_nodes=fld.t_nodes)
        f = lambda t: spec([math.exp(-mu * t)])
        lin = solve_linear(LinearProblem(P_EQ, spec([0.0]), spec([0.0]), f, 4.0),
                           grid, QuadConfig(tol=1e-11))
        assert np.max(np.abs(fld.values - lin.values)) <= cfg.tol

    @pytest.mark.parametrize("tol", [1e-8, 1e-10])
    def test_exp_decaying_source_meets_tol_against_closed_form(self, tol):
        # mode 1 of P_EQ is critically damped, H_1(t) = t e^{-t}, so with zero
        # data u = -e^{-mu t} (1 - (1 + k t) e^{-k t}) / k^2 * sin x, k = 1 - mu
        mu, k = 0.25, 0.75
        prob = NonlinearProblem(params=P_EQ, g0=spec([0.0]), g1=spec([0.0]),
                                source=ExpDecayingSource(profile=np.sin, mu=mu),
                                horizon=5.0)
        fld, rep = picard_solve(prob, PicardConfig(tol=tol))
        assert rep.converged
        t = fld.t_nodes
        exact = -np.outer(np.sin(fld.x_nodes),
                          np.exp(-mu * t) * (1.0 - (1.0 + k * t) * np.exp(-k * t)) / k**2)
        assert np.max(np.abs(fld.values - exact)) <= tol

    def test_differential_consistency(self):
        # the boundary-compatible source admits a pointwise comparison; a
        # constant bias would leave an O(bias) sine-truncation tail at the
        # nodes next to the ends
        prob = self.small_problem(SineGordonSource(bias=0.0), T=1.0)
        cfg = PicardConfig(tol=1e-10, nx=129, dt=0.005, n_modes=32, window=5.0)
        fld, rep = picard_solve(prob, cfg)
        assert rep.converged
        assert residual(P_EQ, fld, np.sin(fld.values)) < 5e-4

    def test_nan_source_raises_numerical_error(self):
        bad = CustomSource(fn=lambda x, t, u: np.full_like(x, math.nan))
        prob = self.small_problem(bad, T=1.0)
        with pytest.raises(NumericalError):
            picard_solve(prob, PicardConfig(nx=33, dt=0.05, n_modes=8))

    def test_rejects_mismatched_length(self):
        bad = SineSpectrum(l=2.0, coeffs=np.array([0.1]))
        for g0, g1 in ((bad, spec([0.0])), (spec([0.1]), bad)):
            with pytest.raises(ValueError, match="length"):
                NonlinearProblem(params=P_EQ, g0=g0, g1=g1,
                                 source=SineGordonSource(bias=0.0), horizon=1.0)

    def test_rejects_infinite_horizon(self):
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            NonlinearProblem(params=P_EQ, g0=spec([0.1]), g1=spec([0.0]),
                             source=SineGordonSource(bias=0.0), horizon=math.inf)

    def test_config_rejects_non_finite_dt(self):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="invalid collocation grid"):
                PicardConfig(dt=bad)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-8])
    def test_config_rejects_non_positive_or_non_finite_tol(self, tol):
        # tol = inf let a sine source report converged after one sweep
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            PicardConfig(tol=tol)

    def test_config_rejects_fractional_nx(self):
        # and the other integer settings, which would fail mid-solve
        for kwargs in ({"nx": 65.5}, {"max_iter": 2.5}, {"nx": 33, "n_modes": 4.5}):
            with pytest.raises(ValueError, match="integer"):
                PicardConfig(**kwargs)
        assert PicardConfig(nx=np.int64(65)).nx == 65

    def test_config_rejects_window_shorter_than_dt(self):
        # it used to march 20 windows of 0.05 at dt 0.025 over T = 1
        with pytest.raises(ValueError, match="shorter than dt"):
            PicardConfig(dt=0.1, window=0.05)
        assert PicardConfig(dt=0.1, window=0.1).window == 0.1

    def test_config_rejects_fewer_than_one_mode(self):
        # both used to construct and fail inside the solve
        for bad in (0, -3):
            with pytest.raises(ValueError, match="n_modes must be >= 1"):
                PicardConfig(n_modes=bad)
        assert PicardConfig(nx=9, n_modes=1).n_modes == 1

    def test_apriori_bound_holds(self):
        prob = self.small_problem(SineGordonSource(bias=0.5), T=20.0)
        cfg = PicardConfig(tol=1e-8, nx=65, dt=0.01, n_modes=32, window=10.0)
        fld, rep = picard_solve(prob, cfg)
        assert rep.converged
        grid = GridSpec(x_nodes=fld.x_nodes, t_nodes=fld.t_nodes)
        lin = solve_linear(LinearProblem(P_EQ, spec([0.1]), spec([0.0]), None, 20.0), grid)
        bound = sine_gordon_apriori_bound(prob, float(np.max(np.abs(lin.values))))
        assert float(np.max(np.abs(fld.values))) < bound


class TestAprioriBound:
    """The sine source's bound linear_sup + (1 + |bias|) (4/pi) sum_n kappa_n/b_n^2."""

    def problem(self, p, bias=0.0):
        return NonlinearProblem(params=p, g0=spec([0.1]), g1=spec([0.0]),
                                source=SineGordonSource(bias=bias), horizon=1.0)

    @pytest.mark.parametrize("p", ALL_PARAM_SETS)
    def test_kernel_l1_norms_match_quadrature(self, p):
        # modes 1..24 cover P_GTR's 19 oscillatory modes and its upper band edge
        table = mode_table(p, 24)
        ours = 1.0 / table.b**2 + nonlinear_solver._oscillation_excess(table)
        reference = np.array([kernel_l1_reference(p, n) for n in range(1, 25)])
        assert np.max(np.abs(ours / reference - 1.0)) <= 1e-12

    def test_constant_without_oscillatory_modes(self):
        # l = pi, c = 1 and no oscillatory mode: (4/pi) * pi^2/6 = 2 pi/3
        for p in (P_LESS, P_EQ):
            assert sine_gordon_apriori_bound(self.problem(p), 0.0) == pytest.approx(
                2.0 * math.pi / 3.0, rel=1e-15)
        bound = sine_gordon_apriori_bound(self.problem(P_EQ, bias=0.5), 0.1)
        assert bound == pytest.approx(0.1 + 1.5 * 2.0 * math.pi / 3.0, rel=1e-15)

    def test_constant_includes_oscillatory_excess(self):
        assert int(np.sum(mode_table(P_GTR, 40).osc)) == 19
        assert sine_gordon_apriori_bound(self.problem(P_GTR), 0.0) == pytest.approx(
            11.00203, abs=1e-5)

    def test_rejects_invalid_input(self):
        for bad in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match="linear_sup"):
                sine_gordon_apriori_bound(self.problem(P_EQ), bad)
        prob = NonlinearProblem(params=P_EQ, g0=spec([0.1]), g1=spec([0.0]),
                                source=ZeroSource(), horizon=1.0)
        with pytest.raises(ValueError, match="sine source"):
            sine_gordon_apriori_bound(prob, 0.0)


class TestSourceFailure:
    @pytest.mark.parametrize("wrong", [
        lambda t: SineSpectrum(l=2.0, coeffs=np.array([1.0])),
        lambda t: SineSpectrum(l=L if t < 0.25 else 2.0, coeffs=np.array([1.0])),
        lambda t: np.array([1.0]),
    ])
    def test_linear_source_spectra_must_be_spectra_on_the_strip(self, wrong):
        # each spectrum is checked, not only f(0); fd_oracle would synthesise
        # a spectrum on its own length, so using it as if on l disagrees
        prob = NonlinearProblem(params=P_EQ, g0=spec([0.1]), g1=spec([0.0]),
                                source=LinearSource(f=wrong), horizon=0.5)
        with pytest.raises(RuntimeError, match="source evaluation failed") as info:
            picard_solve(prob, PicardConfig(nx=33, dt=0.05, n_modes=8))
        assert type(info.value.__cause__) in (ValueError, AttributeError)

    def test_failing_source_is_reported(self):
        # the CLI maps RuntimeError to exit 2; u-independent kinds fail
        # while their spectra are built (exp) or sampled (linear)
        def explode(*args):
            raise RuntimeError("sensor offline")

        def reject(*args):
            raise ValueError("bad reading")

        cfg = PicardConfig(nx=33, dt=0.05, n_modes=8)
        for fail, kind in ((explode, RuntimeError), (reject, ValueError)):
            for source in (CustomSource(fn=fail), LinearSource(f=fail),
                           ExpDecayingSource(profile=fail, mu=0.5)):
                prob = NonlinearProblem(params=P_EQ, g0=spec([0.1]), g1=spec([0.0]),
                                        source=source, horizon=0.5)
                with pytest.raises(RuntimeError, match="source evaluation failed") as info:
                    picard_solve(prob, cfg)
                assert type(info.value.__cause__) is kind
