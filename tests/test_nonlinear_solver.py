import math

import numpy as np
import pytest

from conftest import P_EQ
from helpers import sine_gordon_sweep
from strip_solver.errors import NumericalError
from strip_solver.fd_oracle import OracleConfig, oracle_solve
from strip_solver.linear_solver import GridSpec, LinearProblem, QuadConfig, solve_linear
from strip_solver.nonlinear_solver import (
    NonlinearProblem,
    PicardConfig,
    picard_solve,
    sine_gordon_apriori_bound,
    volterra_convolve,
)
from strip_solver.sources import (
    CustomSource,
    ExpDecayingSource,
    LinearSource,
    SineGordonSource,
    ZeroSource,
)
from strip_solver.spectrum import SineSpectrum

L = math.pi


def spec(coeffs):
    return SineSpectrum(l=L, coeffs=np.asarray(coeffs, dtype=float))


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


class TestPicardSolve:
    def small_problem(self, source, T=5.0):
        return NonlinearProblem(params=P_EQ, g0=spec([0.1]), g1=spec([0.0]),
                                source=source, horizon=T)

    def test_zero_source_single_iteration(self):
        prob = self.small_problem(ZeroSource(), T=2.0)
        fld, rep = picard_solve(prob, PicardConfig(nx=33, dt=0.02, n_modes=8))
        assert rep.converged and rep.iterations == 1
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
        # the collocation step bounds the agreement, as for the exp source
        f = lambda t: spec([math.exp(-0.3 * t), 0.2])
        prob = NonlinearProblem(params=P_EQ, g0=spec([0.05]), g1=spec([0.0]),
                                source=LinearSource(f), horizon=2.0)
        fld, rep = picard_solve(prob, PicardConfig(nx=33, dt=0.01, n_modes=8))
        assert rep.converged and rep.iterations == 1
        grid = GridSpec(x_nodes=fld.x_nodes, t_nodes=fld.t_nodes)
        reference = solve_linear(LinearProblem(P_EQ, spec([0.05]), spec([0.0]), f, 2.0),
                                 grid, QuadConfig(tol=1e-12))
        assert np.max(np.abs(fld.values - reference.values)) < 1e-5

    def test_report_shape(self):
        prob = self.small_problem(SineGordonSource(bias=0.3))
        cfg = PicardConfig(tol=1e-8, nx=65, dt=0.01, n_modes=16, window=5.0)
        fld, rep = picard_solve(prob, cfg)
        assert rep.converged
        assert len(rep.residuals) == rep.iterations
        assert rep.residuals[-1] <= cfg.tol
        assert np.all(np.isfinite(fld.values))

    def test_contraction_monotone_after_first_sweep(self):
        prob = self.small_problem(SineGordonSource(bias=0.3))
        _, rep = picard_solve(prob, PicardConfig(tol=1e-10, nx=65, dt=0.01,
                                                 n_modes=16, window=5.0))
        diffs = np.array(rep.residuals[1:])
        assert np.all(np.diff(diffs) < 0.0)
        ratios = diffs[1:] / diffs[:-1]
        assert np.max(ratios) < 1.0

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
        fld, rep = picard_solve(prob, PicardConfig(nx=65, dt=0.01, n_modes=16))
        assert rep.converged
        grid = GridSpec(x_nodes=fld.x_nodes, t_nodes=fld.t_nodes)
        f = lambda t: spec([math.exp(-mu * t)])
        lin = solve_linear(LinearProblem(P_EQ, spec([0.0]), spec([0.0]), f, 4.0),
                           grid, QuadConfig(tol=1e-11))
        assert np.max(np.abs(fld.values - lin.values)) < 1e-5

    def test_differential_consistency(self):
        # the boundary-compatible source admits a pointwise comparison; a
        # constant bias would leave an O(bias) sine-truncation tail at the
        # nodes next to the ends
        from strip_solver.linear_solver import residual

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

    def test_apriori_bound_holds(self):
        prob = self.small_problem(SineGordonSource(bias=0.5), T=20.0)
        cfg = PicardConfig(tol=1e-8, nx=65, dt=0.01, n_modes=32, window=10.0)
        fld, rep = picard_solve(prob, cfg)
        assert rep.converged
        grid = GridSpec(x_nodes=fld.x_nodes, t_nodes=fld.t_nodes)
        lin = solve_linear(LinearProblem(P_EQ, spec([0.1]), spec([0.0]), None, 20.0), grid)
        bound = sine_gordon_apriori_bound(prob, float(np.max(np.abs(lin.values))))
        assert float(np.max(np.abs(fld.values))) < bound


class TestSourceFailure:
    def test_failing_source_is_reported(self):
        def explode(x, t, u):
            raise RuntimeError("sensor offline")

        def reject(x, t, u):
            raise ValueError("bad reading")

        cfg = PicardConfig(nx=33, dt=0.05, n_modes=8)
        for fn, kind in ((explode, RuntimeError), (reject, ValueError)):
            prob = NonlinearProblem(params=P_EQ, g0=spec([0.1]), g1=spec([0.0]),
                                    source=CustomSource(fn=fn), horizon=0.5)
            with pytest.raises(RuntimeError, match="source evaluation failed") as info:
                picard_solve(prob, cfg)
            assert type(info.value.__cause__) is kind
