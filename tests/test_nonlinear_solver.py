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
from strip_solver.modes import mode_table
from strip_solver.nonlinear_solver import (
    NonlinearProblem,
    PicardConfig,
    picard_solve,
    sine_gordon_apriori_bound,
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


class TestVolterraConvolve:
    def test_exponential_kernel_closed_form(self):
        dt, nt = 0.01, 301
        t = np.arange(nt) * dt
        kern = np.exp(-2.0 * t)[None, :]
        f = np.sin(3.0 * t)[None, :]
        out = volterra_convolve(kern, f, dt)
        exact = (2 * np.sin(3 * t) - 3 * np.cos(3 * t) + 3 * np.exp(-2 * t)) / 13.0
        assert np.max(np.abs(out[0] - exact)) < 2e-6

    def test_third_order_convergence(self):
        errs = []
        for dt in (0.02, 0.01, 0.005):
            nt = round(3.0 / dt) + 1
            t = np.arange(nt) * dt
            out = volterra_convolve(np.exp(-2 * t)[None, :], np.sin(3 * t)[None, :], dt)
            exact = (2 * np.sin(3 * t) - 3 * np.cos(3 * t) + 3 * np.exp(-2 * t)) / 13.0
            errs.append(np.max(np.abs(out[0] - exact)))
        assert errs[0] / errs[1] > 6.0 and errs[1] / errs[2] > 6.0


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
        _, rep = picard_solve(prob, PicardConfig(tol=1e-10, max_iter=3, nx=33, dt=0.05,
                                                 n_modes=8, window=5.0))
        assert not rep.converged
        assert [(w["t_start"], w["t_end"]) for w in rep.window_traces] == [(0.0, 5.0)]
        assert rep.window_traces[0]["iterations"] == 3
        assert not rep.window_traces[0]["converged"]
        assert 1e-10 < rep.window_traces[0]["residual"] < 1e-4

    @pytest.mark.parametrize("steps", [2, 33, 34, 64, 65, 97])
    def test_march_matches_iterated_sweep_at_block_edges(self, steps):
        # step counts around the block boundaries: a first block alone, one
        # later block of 1 or 2 steps, and a short last block
        prob = self.small_problem(SineGordonSource(bias=0.3), T=steps * 0.05)
        fld, rep = picard_solve(prob, PicardConfig(tol=1e-13, nx=33, dt=0.05, n_modes=8,
                                                   window=10.0))
        assert rep.converged and fld.t_nodes.size == steps + 1
        fixed = iterated_sweep(prob, fld, n_modes=8, tol=1e-13)
        assert np.max(np.abs(fld.values - fixed.values)) <= 1e-12

    def test_kernels_built_once_per_solve(self, monkeypatch):
        calls = []
        for name in ("kernel_values", "kernel_dt_values"):
            original = getattr(nonlinear_solver, name)

            def counted(*args, _original=original, _name=name):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(nonlinear_solver, name, counted)
        # T = 3.5 at window 1 is split into four equal windows of 0.875
        prob = self.small_problem(SineGordonSource(bias=0.3), T=3.5)
        _, rep = picard_solve(prob, PicardConfig(nx=33, dt=0.05, n_modes=8, window=1.0))
        assert rep.converged
        assert [(w["t_start"], w["t_end"]) for w in rep.window_traces] == pytest.approx(
            [(0.0, 0.875), (0.875, 1.75), (1.75, 2.625), (2.625, 3.5)], abs=1e-15)
        assert sorted(calls) == ["kernel_dt_values", "kernel_values"]

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
        # four windows of 1 write their columns where one window of 4 does;
        # a one-column shift at a join reads ~2.7e-3
        prob = self.small_problem(SineGordonSource(bias=0.3), T=4.0)
        cfg = dict(tol=1e-13, nx=33, dt=0.05, n_modes=8)
        split, split_rep = picard_solve(prob, PicardConfig(window=1.0, **cfg))
        whole, whole_rep = picard_solve(prob, PicardConfig(window=math.inf, **cfg))
        assert split_rep.converged and whole_rep.converged
        assert len(split_rep.window_traces) == 4
        assert np.array_equal(split.t_nodes, whole.t_nodes)
        assert np.max(np.abs(split.values - whole.values)) <= 1e-4

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
        assert rep.converged
        grid = GridSpec(x_nodes=fld.x_nodes, t_nodes=fld.t_nodes)
        lin = solve_linear(LinearProblem(P_EQ, spec([0.1]), spec([0.0]), None, 3.0), grid)
        again = sine_gordon_sweep(P_EQ, lin, fld, bias=0.2, n_modes=32)
        assert np.max(np.abs(again - fld.values)) <= 2.0 * tol

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
