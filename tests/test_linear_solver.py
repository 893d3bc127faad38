import math

import numpy as np
import pytest

from conftest import P_EQ
from helpers import residual
from strip_solver import linear_solver
from strip_solver.errors import AccuracyError
from strip_solver.green_kernel import decay_constants
from strip_solver.asymptotics import decay_fit
from strip_solver.modes import kernel_dt_values, kernel_values, mode_table, propagate_state
from strip_solver.linear_solver import (
    GridSpec,
    LinearProblem,
    QuadConfig,
    solve_linear,
)
from strip_solver.profiles import make_profile
from strip_solver.spectrum import SineSpectrum, analyze, dst, pad_modes, synthesize

L = math.pi
QUAD = QuadConfig(tol=1e-12)


def mode1(amplitude=1.0):
    return SineSpectrum(l=L, coeffs=np.array([amplitude, 0.0, 0.0, 0.0]))


def zero_spec():
    return SineSpectrum(l=L, coeffs=np.zeros(4))


class TestPropagators:
    """modes.propagate_state: u = v0*H + u0*(H' + 2hH), u_t = v0*H' - u0*b^2*H."""

    def state(self, u0, v0, t):
        table = mode_table(P_EQ, u0.size)
        return propagate_state(table, u0, v0, kernel_values(table, t),
                               kernel_dt_values(table, t))

    def test_velocity_starts_from_rest(self):
        g1 = mode1().coeffs
        u, ut = self.state(np.zeros(4), g1, 0.0)
        assert np.all(u == 0.0)
        assert np.array_equal(ut, g1)

    def test_velocity_single_mode(self):
        u, _ = self.state(np.zeros(4), mode1().coeffs, 1.0)
        assert u[0] == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_velocity_difference_quotient_recovers_data(self):
        g1 = analyze(make_profile("bump", L), 32, l=L).coeffs
        delta = 1e-6
        u, _ = self.state(np.zeros(32), g1, delta)
        assert np.max(np.abs(u / delta - g1)) < 1e-5

    def test_displacement_identity_at_zero(self):
        g0 = analyze(make_profile("bump", L), 16, l=L).coeffs
        u, ut = self.state(g0, np.zeros(16), 0.0)
        assert np.array_equal(u, g0)
        assert np.all(ut == 0.0)

    def test_displacement_single_mode(self):
        u, _ = self.state(mode1().coeffs, np.zeros(4), 1.0)
        assert u[0] == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14)

    def test_displacement_initial_rate_vanishes(self):
        g0 = analyze(make_profile("bump", L), 32, l=L).coeffs
        delta = 1e-6
        u, _ = self.state(g0, np.zeros(32), delta)
        assert np.max(np.abs((u - g0) / delta)) < 1e-5


class TestSourceQuadrature:
    """The forced part samples f once per grid and halves the grid to tol."""

    def test_c6_first_half_samples_source_once_per_node(self):
        calls = []

        def f(t):
            calls.append(t)
            return SineSpectrum(l=L, coeffs=np.array([math.exp(-0.25 * t)]))

        prob = LinearProblem(P_EQ, zero_spec(), zero_spec(), f, 40.0)
        grid = GridSpec(x_nodes=np.linspace(0.0, L, 33), t_nodes=np.linspace(0.5, 40.0, 80))
        solve_linear(prob, grid, QuadConfig(tol=1e-10))
        # the grid of 4,001 nodes is halved once; f(0), which sizes the mode
        # table, is also its node 0
        assert len(calls) == 8_001
        assert all(type(t) is float for t in calls)
        assert calls[0] == 0.0 and len(set(calls)) == len(calls)
        # an output time off the grid also samples Simpson midpoints, some of
        # which are nodes of the finer grid; f(0) is still sampled once, first
        calls.clear()
        prob = LinearProblem(P_EQ, zero_spec(), zero_spec(), f, 0.73)
        solve_linear(prob, GridSpec(x_nodes=[0.0, L], t_nodes=[0.73]), QUAD)
        assert calls[0] == 0.0 and calls.count(0.0) == 1

    @pytest.mark.parametrize("lengths", [(3,), (1, 3, 5), (2, 4)])
    def test_sampled_gathers_spectra_of_any_length(self, lengths):
        # more than two chunks; spectra shorter than, equal to and longer
        # than the 3-mode table, their length and values varying with t
        n_modes = 3
        taus = np.linspace(0.0, 2.0, 2 * linear_solver.SAMPLE_CHUNK + 277)
        size = {t: lengths[j % len(lengths)] for j, t in enumerate(taus.tolist())}
        calls = []

        def f(t):
            calls.append(t)
            return SineSpectrum(l=L, coeffs=np.cos(t * np.arange(1.0, size[t] + 1.0)))

        got = linear_solver._sampled(f, taus, n_modes)
        assert calls == taus.tolist() and all(type(t) is float for t in calls)
        expected = np.empty((n_modes, taus.size))
        for j, t in enumerate(taus):
            expected[:, j] = pad_modes(f(float(t)).coeffs, n_modes)
        assert got.flags.c_contiguous and got.shape == expected.shape
        assert np.array_equal(got, expected)
        # a known first spectrum stands for node 0, which is not sampled again
        first = f(0.0)
        calls.clear()
        reused = linear_solver._sampled(f, taus, n_modes, first=first)
        assert calls == taus.tolist()[1:]
        assert reused.tobytes() == got.tobytes()

    def test_constant_source_off_grid_times(self):
        # u = -(1 - (1 + t) e^{-t}) sin x; the last input is one output time
        # at the horizon, 2.0, where the forced coefficient is 1 - 3 e^{-2}
        xs = np.linspace(0.0, L, 33)
        many = np.unique(np.concatenate([np.linspace(1.0, 5.0, 10),
                                         np.geomspace(5.0, 100.0, 40)]))
        for tol, ts in ((1e-10, many), (1e-12, np.array([2.0]))):
            prob = LinearProblem(P_EQ, zero_spec(), zero_spec(), lambda t: mode1(), ts[-1])
            fld = solve_linear(prob, GridSpec(x_nodes=xs, t_nodes=ts, with_dt=True),
                               QuadConfig(tol=tol))
            exact = np.outer(np.sin(xs), -(1.0 - (1.0 + ts) * np.exp(-ts)))
            exact_dt = np.outer(np.sin(xs), -ts * np.exp(-ts))
            assert np.max(np.abs(fld.values - exact)) <= tol
            assert np.max(np.abs(fld.values_dt - exact_dt)) <= tol

    def test_unreachable_tolerance_raises_from_solver(self, monkeypatch):
        monkeypatch.setattr(linear_solver, "MAX_DOUBLINGS", 1)
        prob = LinearProblem(P_EQ, zero_spec(), zero_spec(), lambda t: mode1(), 3.0)
        xs = np.linspace(0.0, L, 9)
        # with u_t at an off-grid time, and u alone at the horizon
        for grid in (GridSpec(x_nodes=xs, t_nodes=np.array([0.7, 3.0]), with_dt=True),
                     GridSpec(x_nodes=xs, t_nodes=np.array([3.0]))):
            with pytest.raises(AccuracyError) as info:
                solve_linear(prob, grid, QuadConfig(tol=1e-30))
            assert 1e-30 < info.value.estimate < 1e-3

    @pytest.mark.parametrize("tol", [1e-7, 1e-8, 1e-9])
    def test_unresolved_fast_modes_meet_tolerance(self, tol):
        # mode 64 decays at dp ~ 4096, unresolved by the first grids; its
        # error converges at first order there, not third
        n = 64
        f = lambda t: SineSpectrum(l=L, coeffs=np.ones(n))
        prob = LinearProblem(P_EQ, zero_spec(), zero_spec(), f, 1.0)
        # on x_j = j*pi/(n + 1) the DST-I recovers all n coefficients exactly
        xs = np.arange(n + 2) * (L / (n + 1))
        xs[-1] = L
        fld = solve_linear(prob, GridSpec(x_nodes=xs, t_nodes=[1.0]), QuadConfig(tol=tol))
        coeffs = -dst(fld.values[1:-1], axis=0)[:, 0] / (n + 1)
        table = mode_table(P_EQ, n)
        exact = ((1.0 - kernel_dt_values(table, 1.0) - 2.0 * table.h * kernel_values(table, 1.0))
                 / table.b**2)
        assert np.max(np.abs(coeffs - exact)) <= tol

    def test_config_rejects_invalid_controls(self):
        for tol in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                QuadConfig(tol=tol)


class TestSolveLinear:
    def grid(self, T=3.0, nx=41, nt=31, with_dt=False):
        return GridSpec(x_nodes=np.linspace(0.0, L, nx),
                        t_nodes=np.linspace(0.0, T, nt), with_dt=with_dt)

    def test_zero_problem(self):
        # zero data with no source or a zero one; and a source seen only at t = 0
        for f, grid in ((None, self.grid(T=2.0)),
                        (lambda t: zero_spec(), self.grid(T=2.0, with_dt=True)),
                        (lambda t: mode1(), GridSpec(x_nodes=np.linspace(0.0, L, 9),
                                                     t_nodes=[0.0], with_dt=True))):
            prob = LinearProblem(P_EQ, zero_spec(), zero_spec(), f, 2.0)
            fld = solve_linear(prob, grid, QUAD)
            assert np.all(fld.values == 0.0)
            assert fld.values_dt is None or np.all(fld.values_dt == 0.0)

    def test_velocity_mode_closed_form(self):
        prob = LinearProblem(P_EQ, zero_spec(), mode1(), None, 3.0)
        grid = self.grid()
        fld = solve_linear(prob, grid, QUAD)
        exact = np.outer(np.sin(grid.x_nodes), grid.t_nodes * np.exp(-grid.t_nodes))
        assert np.max(np.abs(fld.values - exact)) < 1e-12
        assert fld.values[16, 10] == pytest.approx(
            grid.t_nodes[10] * math.exp(-grid.t_nodes[10]) * math.sin(grid.x_nodes[16]))

    def test_forced_steady_state(self):
        prob = LinearProblem(P_EQ, zero_spec(), zero_spec(), lambda t: mode1(), 30.0)
        grid = GridSpec(x_nodes=np.linspace(0.0, L, 21),
                        t_nodes=np.array([0.0, 1.0, 30.0]))
        fld = solve_linear(prob, grid, QUAD)
        exact_t1 = -(1.0 - 2.0 * math.exp(-1.0)) * np.sin(grid.x_nodes)
        assert np.max(np.abs(fld.values[:, 1] - exact_t1)) < 1e-10
        assert np.max(np.abs(fld.values[:, 2] + np.sin(grid.x_nodes))) < 1e-10

    def test_superposition(self):
        g0 = analyze(make_profile("bump", L), 8, l=L)
        g1 = analyze(make_profile("sin_2", L), 8, l=L)
        f = lambda t: SineSpectrum(l=L, coeffs=mode1().coeffs * math.exp(-t))
        grid = self.grid(T=2.0, nx=17, nt=9)
        full = solve_linear(LinearProblem(P_EQ, g0, g1, f, 2.0), grid, QUAD)
        parts = (solve_linear(LinearProblem(P_EQ, g0, zero_spec(), None, 2.0), grid, QUAD).values
                 + solve_linear(LinearProblem(P_EQ, zero_spec(), g1, None, 2.0), grid, QUAD).values
                 + solve_linear(LinearProblem(P_EQ, zero_spec(), zero_spec(), f, 2.0), grid, QUAD).values)
        assert np.max(np.abs(full.values - parts)) < 1e-12

    def test_matches_propagators_time_by_time(self):
        g0 = analyze(make_profile("bump", L), 16, l=L)
        g1 = analyze(make_profile("poly", L), 16, l=L)
        grid = self.grid(T=2.0, nx=17, nt=9)
        fld = solve_linear(LinearProblem(P_EQ, g0, g1, None, 2.0), grid)
        table = mode_table(P_EQ, 16)
        for j, t in enumerate(grid.t_nodes):
            coeffs, _ = propagate_state(table, g0.coeffs, g1.coeffs, kernel_values(table, t),
                                        kernel_dt_values(table, t))
            column = synthesize(SineSpectrum(l=L, coeffs=coeffs), grid.x_nodes)
            assert np.max(np.abs(fld.values[:, j] - column)) < 1e-14

    def test_boundary_rows_zero(self):
        prob = LinearProblem(P_EQ, mode1(), mode1(), None, 1.0)
        fld = solve_linear(prob, self.grid(T=1.0))
        assert np.all(fld.values[0, :] == 0.0)
        assert np.all(fld.values[-1, :] == 0.0)

    def test_initial_condition_recovery(self):
        for name in ("bump", "sin_1", "sin_3"):
            g0 = analyze(make_profile(name, L), 64, l=L)
            g1 = analyze(make_profile("bump", L), 64, l=L)
            prob = LinearProblem(P_EQ, g0, g1, None, 1.0)
            xs = np.linspace(0.0, L, 101)
            fld = solve_linear(prob, GridSpec(x_nodes=xs, t_nodes=np.array([0.0, 1e-6]),
                                              with_dt=False), QUAD)
            assert np.max(np.abs(fld.values[:, 0] - make_profile(name, L)(xs))) < 1e-8
            quotient = (fld.values[:, 1] - fld.values[:, 0]) / 1e-6
            assert np.max(np.abs(quotient - synthesize(g1, xs))) < 1e-5

    def test_homogeneous_decay_rate_exceeds_beta(self):
        g0 = analyze(make_profile("bump", L), 32, l=L)
        prob = LinearProblem(P_EQ, g0, zero_spec(), None, 30.0)
        ts = np.linspace(1.0, 30.0, 40)
        fld = solve_linear(prob, GridSpec(x_nodes=np.linspace(0.0, L, 33), t_nodes=ts))
        fit = decay_fit(ts, fld.sup_norm_per_time(), window=(5.0, 30.0))
        assert fit.rate >= decay_constants(P_EQ).beta - 0.02

    def test_spectra_length_mismatch_is_fine(self):
        g0 = SineSpectrum(l=L, coeffs=np.array([0.2]))
        g1 = SineSpectrum(l=L, coeffs=np.array([0.0, 0.1, 0.0]))
        prob = LinearProblem(P_EQ, g0, g1, None, 1.0)
        fld = solve_linear(prob, self.grid(T=1.0, nx=9, nt=3))
        assert np.all(np.isfinite(fld.values))

    def test_grid_rejects_non_finite_nodes(self):
        xs, ts = np.linspace(0.0, L, 5), np.linspace(0.0, 1.0, 3)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                GridSpec(x_nodes=np.append(xs, bad), t_nodes=ts)
            with pytest.raises(ValueError, match="finite"):
                GridSpec(x_nodes=xs, t_nodes=np.array([0.0, bad]))
            with pytest.raises(ValueError, match="finite"):
                GridSpec(x_nodes=xs, t_nodes=np.array([bad]))

    @pytest.mark.parametrize("x_nodes", [[-1.0, 0.0, 1.0, 4.0], [-1e-12, 1.0],
                                         [0.0, 1.0, L + 1e-9], [L + 1.0]])
    def test_rejects_x_nodes_outside_the_strip(self, x_nodes):
        # the sine series would return its odd or periodic extension there
        prob = LinearProblem(P_EQ, zero_spec(), mode1(), lambda t: mode1(), 1.0)
        with pytest.raises(ValueError, match=r"x nodes must lie in \[0, l\]"):
            solve_linear(prob, GridSpec(x_nodes=x_nodes, t_nodes=[0.0, 1.0]))

    @pytest.mark.parametrize("t", [-1.0, 1.5])
    def test_rejects_times_outside_the_horizon(self, t):
        prob = LinearProblem(P_EQ, zero_spec(), zero_spec(), lambda t: mode1(), 1.0)
        grid = GridSpec(x_nodes=np.linspace(0.0, L, 5), t_nodes=sorted([0.5, t]))
        with pytest.raises(ValueError, match=r"grid times must lie in \[0, horizon\]"):
            solve_linear(prob, grid, QUAD)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan, -1.0, 0.0])
    def test_rejects_non_positive_or_non_finite_horizon(self, horizon):
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            LinearProblem(P_EQ, zero_spec(), zero_spec(), None, horizon)

    def test_rejects_mismatched_length(self):
        bad = SineSpectrum(l=1.0, coeffs=np.array([1.0]))
        with pytest.raises(ValueError):
            LinearProblem(P_EQ, bad, zero_spec(), None, 1.0)


class TestResidual:
    def exact_field(self, nx_step, nt_step, T=1.0):
        xs = np.linspace(0.0, L, round(L / nx_step) + 1)
        ts = np.linspace(0.0, T, round(T / nt_step) + 1)
        vals = np.outer(np.sin(xs), ts * np.exp(-ts))
        from strip_solver.fields import Field

        return Field(x_nodes=xs, t_nodes=ts, values=vals)

    def test_zero_field(self):
        from strip_solver.fields import Field

        exact = self.exact_field(1e-2, 1e-2)
        fld = Field(x_nodes=exact.x_nodes, t_nodes=exact.t_nodes,
                    values=np.zeros_like(exact.values))
        assert residual(P_EQ, fld, None) == 0.0

    def test_exact_solution_small_residual(self):
        assert residual(P_EQ, self.exact_field(1e-2, 1e-2), None) < 1e-3

    def test_second_order_refinement(self):
        r1 = residual(P_EQ, self.exact_field(1e-2, 1e-2), None)
        r2 = residual(P_EQ, self.exact_field(5e-3, 5e-3), None)
        assert 3.0 < r1 / r2 < 5.0

    def test_rejects_coarse_grid(self):
        from strip_solver.fields import Field

        xs = np.linspace(0.0, L, 5)
        ts = np.linspace(0.0, 1.0, 9)
        with pytest.raises(ValueError):
            residual(P_EQ, Field(xs, ts, np.zeros((5, 9))), None)
