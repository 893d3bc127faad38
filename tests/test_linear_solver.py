import math

import numpy as np
import pytest
from hypothesis import event, example, given
from hypothesis import strategies as st

from conftest import P_EQ
from helpers import exp_source_response, residual
from test_kernel_properties import PROPERTY_SETTINGS, any_params, band_edge_params
from strip_solver import linear_solver
from strip_solver.errors import AccuracyError
from strip_solver.green_kernel import decay_constants
from strip_solver.asymptotics import decay_fit
from strip_solver.modes import Params, kernel_dt_values, kernel_values, mode_table, propagate_state
from strip_solver.linear_solver import (
    GridSpec,
    LinearProblem,
    QuadConfig,
    solve_linear,
)
from strip_solver.profiles import make_profile
from strip_solver.sources import LinearSource
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
        # the grid of 1,001 nodes is halved twice to 4,001 nodes, and every
        # sample is a node: an output time off the grid is a partial step on
        # the nodes around it; f(0), which sizes the mode table, is node 0
        assert len(calls) == 4_001
        assert all(type(t) is float for t in calls)
        assert calls[0] == 0.0 and len(set(calls)) == len(calls)
        calls.clear()
        prob = LinearProblem(P_EQ, zero_spec(), zero_spec(), f, 0.73)
        solve_linear(prob, GridSpec(x_nodes=[0.0, L], t_nodes=[0.73]), QUAD)
        assert calls[0] == 0.0 and len(set(calls)) == len(calls)

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
        # the first estimate needs three grids, so two halvings; a constant
        # source would be integrated exactly, to an estimate of ~0
        monkeypatch.setattr(linear_solver, "MAX_DOUBLINGS", 2)
        prob = LinearProblem(P_EQ, zero_spec(), zero_spec(), lambda t: mode1(math.cos(t)), 3.0)
        xs = np.linspace(0.0, L, 9)
        # with u_t at an off-grid time, and u alone at the horizon
        for grid in (GridSpec(x_nodes=xs, t_nodes=np.array([0.7, 3.0]), with_dt=True),
                     GridSpec(x_nodes=xs, t_nodes=np.array([3.0]))):
            with pytest.raises(AccuracyError) as info:
                solve_linear(prob, grid, QuadConfig(tol=1e-30))
            assert 1e-30 < info.value.estimate < 1e-3

    @pytest.mark.parametrize("tol", [1e-7, 1e-8, 1e-9])
    def test_unresolved_fast_modes_meet_tolerance(self, tol):
        # mode 64 decays at dp ~ 4096, within a step of the first grids
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

    def test_modes_of_any_stiffness_meet_tolerance_on_the_third_grid(self):
        # on P_EQ, dp_n = n^2 over the grids of step 0.04, 0.02 and 0.01:
        # dp*dt <= 0.04 for mode 1, 1.44 to 0.36 for mode 6 and 64 to 16 for
        # mode 40; with the exact kernel one Richardson rule holds for all
        mu, coeffs = 0.5, np.zeros(40)
        coeffs[[0, 5, 39]] = 1.0, 1e-3, 1.0
        calls = []

        def f(t):
            calls.append(t)
            return SineSpectrum(l=L, coeffs=coeffs * math.exp(-mu * t))

        ts = np.linspace(3.0 / 7.0, 3.0, 7)
        u, du = linear_solver._forced(f, f(0.0), mode_table(P_EQ, 40), ts,
                                      QuadConfig(tol=1e-8), with_dt=True)
        assert len(calls) == 4 * 75 + 1  # the third grid, of step 0.01
        for n in (1, 6, 40):
            exact = np.array([exp_source_response(P_EQ, n, mu, t) for t in ts])
            assert np.max(np.abs(u[n - 1] - coeffs[n - 1] * exact[:, 0])) <= 1e-8
            assert np.max(np.abs(du[n - 1] - coeffs[n - 1] * exact[:, 1])) <= 1e-8

    @pytest.mark.parametrize("size", [1e-12, 1e-3])
    def test_unresolvable_oscillating_mode_meets_tolerance(self, size):
        # mode 45 oscillates with h + omega ~ 1.4e4, which no reachable grid
        # resolves (dp * START_STEP / 2**MAX_DOUBLINGS > 0.5); the exact
        # kernel weights integrate it to tol whatever its coefficient
        p, mu, tol = Params(epsilon=0.01, a=1.0, c=100.0, l=1.0), 0.5, 1e-8
        table = mode_table(p, 45)
        assert table.osc[-1]
        assert table.dp[-1] * linear_solver.START_STEP / 2**linear_solver.MAX_DOUBLINGS > 0.5
        coeffs = np.zeros(45)
        coeffs[[0, 44]] = 1.0, size
        f = lambda t: SineSpectrum(l=p.l, coeffs=coeffs * math.exp(-mu * t))
        zero = SineSpectrum(l=p.l, coeffs=np.zeros(1))
        ts, x = np.array([0.13, 0.25, 0.5]), 0.3
        prob = LinearProblem(p, zero, zero, f, ts[-1])
        fld = solve_linear(prob, GridSpec(x_nodes=[x], t_nodes=ts, with_dt=True),
                           QuadConfig(tol=tol))
        exact = sum(-coeffs[n - 1] * math.sin(n * math.pi * x / p.l)
                    * np.array([exp_source_response(p, n, mu, t) for t in ts])
                    for n in (1, 45))
        assert np.max(np.abs(fld.values[0] - exact[:, 0])) <= tol
        assert np.max(np.abs(fld.values_dt[0] - exact[:, 1])) <= tol

    def test_config_rejects_invalid_controls(self):
        for tol in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                QuadConfig(tol=tol)


def one_mode_solve(p, n, mu, ts, tol, with_dt):
    """``solve_linear`` of the source e^{-mu t} on mode n alone, at x = l/(2n).

    Returns the field with the exact u = -U and u_t = -U' there.
    """
    coeffs = np.zeros(n)
    coeffs[-1] = 1.0
    f = lambda t: SineSpectrum(l=p.l, coeffs=coeffs * math.exp(-mu * t))
    zero = SineSpectrum(l=p.l, coeffs=np.zeros(1))
    x = p.l / (2 * n)
    fld = solve_linear(LinearProblem(p, zero, zero, f, ts[-1]),
                       GridSpec(x_nodes=[x], t_nodes=ts, with_dt=with_dt), QuadConfig(tol=tol))
    exact = -math.sin(n * math.pi / p.l * x) * np.array(
        [exp_source_response(p, n, mu, t) for t in ts])
    return fld, exact[:, 0], exact[:, 1]


@st.composite
def one_mode_problems(draw):
    """A source e^{-mu t} on one mode, with output times on and off the grid."""
    p = draw(st.one_of(band_edge_params(), any_params))
    table = mode_table(p, 30)
    edge = int(np.argmin(np.abs(table.h / table.b - 1.0))) + 1
    n = draw(st.one_of(st.just(edge), st.integers(1, 30)))
    mu = draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0)))
    horizon = draw(st.one_of(st.floats(0.001, 0.3), st.floats(0.3, 2.0)))
    steps = max(math.ceil(horizon / linear_solver.START_STEP), 3)
    on_grid = draw(st.lists(st.integers(0, steps), max_size=3))
    off_grid = draw(st.lists(st.floats(0.0, horizon), max_size=3))
    ts = np.unique([horizon] + [k * horizon / steps for k in on_grid] + off_grid)
    tol = draw(st.floats(1e-11, 1e-6))
    return p, n, mu, ts[ts <= horizon], tol, draw(st.booleans())


class TestQuadratureProperty:
    @PROPERTY_SETTINGS
    @given(case=one_mode_problems())
    # a short horizon: a few steps on the first grids
    @example(case=(Params(0.0031830988618379076, 2.3876104167282426, 0.2, 0.5), 1, 0.0,
                   np.array([0.05]), 1e-11, False))
    # early times, within the first two steps of the first grids
    @example(case=(Params(3.0, 0.04, 0.01846961139268239, 1.4428290502964172), 1,
                   2.3249383010419837, np.array([0.009126778206424888, 0.033710350412782794,
                                                 0.062160821525355056, 0.07521695719449871]),
                   1e-6, True))
    @example(case=(Params(1.0, 1.0, 1.0, 0.5), 1, 3.0, np.array([0.03125, 2.0]),
                   6.663583399481971e-08, False))
    # both rates of mode 19 fast on the first grids
    @example(case=(Params(0.09307242488181873, 9.189513490110846, 7.465373744998824,
                          0.3689906760857569), 19, 4.258408528924216,
                   np.array([0.06879813015264366, 0.10319719522896549, 0.24079345553425283]),
                   2.82e-07, False))
    def test_forced_part_is_within_tol_of_the_closed_form(self, case):
        p, n, mu, ts, tol, with_dt = case
        try:
            fld, u, u_t = one_mode_solve(p, n, mu, ts, tol, with_dt)
        except AccuracyError:
            event("AccuracyError")
            return  # a refusal is allowed; a wrong value is not
        assert np.max(np.abs(fld.values[0] - u)) <= tol
        if with_dt:
            assert np.max(np.abs(fld.values_dt[0] - u_t)) <= tol

    def test_unresolvable_fast_mode_derivative_meets_tolerance(self):
        # dp_16 ~ 1.1e5, which no reachable grid resolves; U' at the early
        # time t = 0.109 came back ~2.5e-5 from the closed form when the
        # sampled kernel's rule took it
        p = Params(epsilon=3.0657, a=0.83376, c=5.6472, l=0.26239)
        finest = linear_solver.START_STEP / 2**linear_solver.MAX_DOUBLINGS
        assert mode_table(p, 16).dp[-1] * finest > 1.0
        tol = 4.21e-7
        fld, _, u_t = one_mode_solve(p, 16, 3.2584, np.array([0.109, 1.977]), tol, True)
        assert np.max(np.abs(fld.values_dt[0] - u_t)) <= tol


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

    @pytest.mark.parametrize("value", [np.array([1.0]), [1.0], None])
    def test_rejects_a_source_that_is_not_a_spectrum(self, value):
        prob = LinearProblem(P_EQ, zero_spec(), zero_spec(), lambda t: value, 1.0)
        with pytest.raises(TypeError, match="f\\(0.0\\) must be a SineSpectrum"):
            solve_linear(prob, GridSpec(x_nodes=[0.0, L], t_nodes=[1.0]))

    def test_rejects_source_spectra_on_another_length(self):
        calls = []

        def f(t):
            calls.append(t)
            return SineSpectrum(l=2.0, coeffs=np.array([1.0]))

        prob = LinearProblem(P_EQ, zero_spec(), zero_spec(), f, 1.0)
        with pytest.raises(ValueError, match="f lives on length 2.0"):
            solve_linear(prob, GridSpec(x_nodes=[0.0, L], t_nodes=[1.0]))
        assert calls == [0.0]

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
