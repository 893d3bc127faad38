import math
import pathlib

import numpy as np
import pytest

from conftest import P_EQ, P_GTR
from helpers import theta_scheme_reference
from strip_solver import fd_oracle
from strip_solver.fd_oracle import OracleConfig, OracleProblem, convergence_study, oracle_solve
from strip_solver.sources import AlgebraicSource, LinearSource, SineGordonSource, ZeroSource
from strip_solver.spectrum import SineSpectrum

L = math.pi


def zeros(x):
    return np.zeros_like(np.asarray(x, dtype=float))


class TestOracleSolve:
    def test_zero_problem_stays_zero(self):
        fld = oracle_solve(P_EQ, zeros, zeros, ZeroSource(), 1.0,
                           OracleConfig(nx=31, dt=0.05))
        assert np.all(fld.values == 0.0)

    def test_refinement_orders_on_single_mode(self):
        problem = OracleProblem(P_EQ, zeros, lambda x: np.sin(x), ZeroSource(), 2.0)
        refinements = [OracleConfig(nx=31, dt=0.04), OracleConfig(nx=63, dt=0.02),
                       OracleConfig(nx=127, dt=0.01)]
        records = convergence_study(problem, refinements,
                                    lambda x, t: np.outer(np.sin(x), t * np.exp(-t)))
        assert [(rec.nx, rec.dt) for rec in records] == [(31, 0.04), (63, 0.02), (127, 0.01)]
        assert math.isnan(records[0].order)
        assert min(rec.order for rec in records[1:]) > 1.9

    def test_steady_state_under_constant_source(self):
        f = LinearSource(lambda t: SineSpectrum(l=L, coeffs=np.array([1.0])))
        fld = oracle_solve(P_EQ, zeros, zeros, f, 30.0,
                           OracleConfig(nx=127, dt=0.01), t_out=[30.0])
        assert np.max(np.abs(fld.values[:, -1] + np.sin(fld.x_nodes))) < 1e-4

    def test_deterministic(self):
        cfg = OracleConfig(nx=63, dt=0.02)
        a = oracle_solve(P_EQ, zeros, lambda x: np.sin(x), ZeroSource(), 1.0, cfg)
        b = oracle_solve(P_EQ, zeros, lambda x: np.sin(x), ZeroSource(), 1.0, cfg)
        assert np.array_equal(a.values, b.values)

    def test_no_growth_over_long_run(self):
        # trapezoidal weighting, zero source: the perturbation energy must not grow
        rng = np.random.default_rng(7)
        nx = 63
        x = np.linspace(0.0, L, nx + 2)
        bump = np.sin(x) * rng.standard_normal(nx + 2) * 1e-3
        bump[0] = bump[-1] = 0.0
        g1 = rng.standard_normal(nx + 2) * 1e-3
        g1[0] = g1[-1] = 0.0
        fld = oracle_solve(P_EQ, bump, g1, ZeroSource(), 100.0,
                           OracleConfig(nx=nx, dt=0.01), t_out=np.arange(0.0, 101.0, 10.0))
        sups = fld.sup_norm_per_time()
        assert np.max(sups) <= 1.05 * sups[0] + 1e-6
        assert sups[-1] < sups[0]

    def test_graceful_order_degradation_for_incompatible_data(self):
        # g1 = x violates the corner compatibility; errors stay finite and are
        # reported as-is
        problem = OracleProblem(P_EQ, zeros, lambda x: np.asarray(x, dtype=float),
                                ZeroSource(), 1.0)
        refinements = [OracleConfig(nx=31, dt=0.04), OracleConfig(nx=63, dt=0.02)]
        fine = oracle_solve(P_EQ, zeros, lambda x: np.asarray(x, dtype=float),
                            ZeroSource(), 1.0, OracleConfig(nx=255, dt=0.005))

        def reference(xq, tq):
            ix = np.round(xq / (fine.x_nodes[1] - fine.x_nodes[0])).astype(int)
            jt = np.round(tq / (fine.t_nodes[1] - fine.t_nodes[0])).astype(int)
            return fine.values[np.ix_(ix, jt)]

        records = convergence_study(problem, refinements, reference)
        assert all(np.isfinite(rec.sup_diff) for rec in records)
        assert np.isfinite(records[1].order)

    def test_rejects_non_finite_output_times(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                oracle_solve(P_EQ, zeros, zeros, ZeroSource(), 1.0,
                             OracleConfig(nx=31, dt=0.05), t_out=[0.5, bad])

    def test_finite_output_times_snap_into_range(self):
        fld = oracle_solve(P_EQ, zeros, lambda x: np.sin(x), ZeroSource(), 1.0,
                           OracleConfig(nx=31, dt=0.05), t_out=[-3.0, 0.52, 7.0])
        assert np.allclose(fld.t_nodes, [0.0, 0.5, 1.0], rtol=0.0, atol=1e-12)

    def test_rejects_incompatible_dirichlet_data(self):
        with pytest.raises(ValueError):
            oracle_solve(P_EQ, lambda x: np.cos(x), zeros, ZeroSource(), 1.0,
                         OracleConfig(nx=31, dt=0.05))

    def test_rejects_infinite_horizon(self):
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            oracle_solve(P_EQ, zeros, zeros, ZeroSource(), math.inf,
                         OracleConfig(nx=31, dt=0.05))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(nx=4)
        with pytest.raises(ValueError, match="integer"):
            OracleConfig(nx=8.5)
        assert OracleConfig(nx=np.int64(15)).nx == 15
        with pytest.raises(ValueError):
            OracleConfig(dt=-0.1)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="dt must be positive and finite"):
                OracleConfig(dt=bad)
        with pytest.raises(ValueError):
            OracleConfig(theta=1.5)


def _two_modes(t):
    return SineSpectrum(l=L, coeffs=np.array([math.cos(t), 0.5]))


LEAN_SOURCES = {
    "zero": ZeroSource(),
    "linear": LinearSource(_two_modes),
    "algebraic": AlgebraicSource(h=1.0, k0=1.0, alpha=0.5),
    "sine": SineGordonSource(0.45),
}


def _g0(x):
    return 0.1 * np.sin(x)


def _g1(x):
    return np.sin(2.0 * x)


class TestLeanStep:
    # 100 steps of double rounding bound the reordered arithmetic far below
    # 1e-13; a wrong alpha, beta or gamma moves the result by O(dt)
    @pytest.mark.parametrize("p", [P_EQ, P_GTR], ids=["eq", "gtr"])
    @pytest.mark.parametrize("source", LEAN_SOURCES.values(), ids=LEAN_SOURCES.keys())
    @pytest.mark.parametrize("theta", [0.0, 0.5, 0.6, 1.0])
    def test_matches_three_stencil_reference(self, theta, source, p):
        fld = oracle_solve(p, _g0, _g1, source, 0.2, OracleConfig(nx=15, dt=0.002, theta=theta))
        ref = theta_scheme_reference(p, _g0, _g1, source, 0.2, 15, 0.002, theta)
        assert np.max(np.abs(fld.values - ref)) <= 1e-13

    @pytest.mark.parametrize("name", LEAN_SOURCES.keys())
    def test_source_evaluations_per_step(self, name, monkeypatch):
        counts = {"eval": 0, "solve": 0}
        evaluate, solve = fd_oracle.evaluate_source, fd_oracle.cho_solve_banded

        def eval_spy(*args):
            counts["eval"] += 1
            return evaluate(*args)

        def solve_spy(*args):
            counts["solve"] += 1
            return solve(*args)

        monkeypatch.setattr(fd_oracle, "evaluate_source", eval_spy)
        monkeypatch.setattr(fd_oracle, "cho_solve_banded", solve_spy)
        n_steps = 50
        oracle_solve(P_EQ, _g0, _g1, LEAN_SOURCES[name], 0.5, OracleConfig(nx=15, dt=0.01))
        # one evaluation at the old time per step and one per inner solve:
        # the tracer reads the step count as their difference
        assert counts["eval"] == n_steps + counts["solve"]
        if name == "sine":
            assert counts["solve"] > n_steps
        else:
            assert counts["solve"] == n_steps


class TestStructuralIndependence:
    def test_no_spectral_imports(self):
        src = pathlib.Path(__file__).resolve().parents[1] / "src" / "strip_solver" / "fd_oracle.py"
        text = src.read_text()
        assert "spectrum" not in text
        assert "green_kernel" not in text
        assert "linear_solver" not in text


class TestStepFailure:
    def test_stiff_feedback_raises_step_failure(self):
        from strip_solver.errors import StepFailureError
        from strip_solver.sources import CustomSource

        runaway = CustomSource(fn=lambda x, t, u: 1e8 * u)
        with pytest.raises(StepFailureError) as info:
            oracle_solve(P_EQ, lambda x: 1e-3 * np.sin(x), zeros, runaway, 1.0,
                         OracleConfig(nx=31, dt=0.05))
        assert info.value.t is not None

    @pytest.mark.parametrize("t_bad", [0.0, 0.6])
    def test_non_finite_source_raises_step_failure(self, t_bad):
        # NaN from the first step, and first seen at t > 0.5
        from strip_solver.errors import StepFailureError
        from strip_solver.sources import CustomSource

        bad = CustomSource(fn=lambda x, t, u: np.full_like(x, math.nan if t >= t_bad else 0.0))
        with pytest.raises(StepFailureError) as info:
            oracle_solve(P_EQ, lambda x: 0.1 * np.sin(x), zeros, bad, 1.0,
                         OracleConfig(nx=31, dt=0.05))
        assert info.value.t == pytest.approx(max(t_bad, 0.05))


class TestBandedSolve:
    @pytest.mark.parametrize("nx", [8, 63, 127])
    def test_lean_solve_equals_scipy(self, nx, monkeypatch):
        from scipy.linalg import cho_solve_banded

        from strip_solver import fd_oracle

        factors = []
        lean = fd_oracle.cho_solve_banded

        def spy(cb_and_lower, b):
            factors.append(cb_and_lower)
            return lean(cb_and_lower, b)

        monkeypatch.setattr(fd_oracle, "cho_solve_banded", spy)
        oracle_solve(P_EQ, zeros, lambda x: np.sin(x), ZeroSource(), 0.1,
                     OracleConfig(nx=nx, dt=0.05))
        rng = np.random.default_rng(nx)
        for _ in range(3):
            rhs = rng.standard_normal(nx)
            assert np.array_equal(lean(factors[0], rhs), cho_solve_banded(factors[0], rhs))
