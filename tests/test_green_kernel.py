import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import ALL_PARAM_SETS, P_EQ, P_GTR, P_LESS
from helpers import brute_green, kummer_reference, pde_residual_sup
from strip_solver.errors import TruncationError
from strip_solver.green_kernel import (
    CHAIN_K,
    KINDS,
    _remainder_tail,
    decay_constants,
    green_profile,
    plan_accelerated,
    plan_truncation,
    term_bounds,
)
from strip_solver.modes import (
    Params,
    classify_modes,
    kernel_dt_values,
    kernel_values,
    mode_table,
)

# converged series value at x = xi = pi/2, t = 1 for eps = a = c = 1, l = pi:
# (2/pi) * (5/4 * e^-1 - sum_{odd n >= 3} e^{-n^2}/(n^2 - 1)), the slow parts
# telescoping to e^-1/4
G_CENTER_T1 = 0.29273933698105422

# plans on perfbench's green-series parameter sets and tolerances at ten
# times each, as [planner, kind, t, n_terms, tail_bound] (the flux's
# plan_accelerated is its plan_truncation); a change to the planning code
# that keeps the bounds must reproduce them bit for bit
PLAN_PINS = json.loads((Path(__file__).parent / "data" / "truncation_plans.json").read_text())
PIN_SETS = {"less": P_LESS, "eq": P_EQ, "gtr": P_GTR}


class TestDecayConstants:
    def test_reference_set(self):
        dc = decay_constants(P_EQ)
        assert (dc.p, dc.q, dc.beta) == (0.5, 1.0, 0.5)

    def test_strong_damping_set(self):
        dc = decay_constants(P_LESS)
        assert dc.p == pytest.approx(0.25) and dc.q == pytest.approx(2.0)
        assert dc.beta == pytest.approx(0.25)

    def test_scaling_in_wave_speed(self):
        base = decay_constants(P_EQ)
        doubled = decay_constants(Params(1.0, 1.0, math.sqrt(2.0), math.pi))
        assert doubled.p == pytest.approx(2.0 * base.p, rel=1e-14)
        assert doubled.q == base.q


class TestTruncationPlan:
    def test_monotone_in_tolerance(self):
        plans = [plan_truncation(P_EQ, 1.0, tol) for tol in (1e-3, 1e-4, 1e-5)]
        assert plans[0].n_terms <= plans[1].n_terms <= plans[2].n_terms
        for plan, tol in zip(plans, (1e-3, 1e-4, 1e-5)):
            assert plan.tail_bound <= tol

    def test_single_mode_suffices_at_large_time(self):
        plan = plan_truncation(P_EQ, 50.0, 1e-10)
        assert plan.n_terms == 1

    @pytest.mark.parametrize("p", ALL_PARAM_SETS)
    def test_tail_bound_verified_by_deeper_summation(self, p):
        plan = plan_truncation(p, 1.0, 1e-4)
        n, deep = plan.n_terms, 10 * plan.n_terms
        direct = np.sum(term_bounds(mode_table(p, deep), p, 1.0)[n:]) * 2.0 / p.l
        assert direct <= plan.tail_bound * (1.0 + 1e-9)
        for kind in KINDS:
            for t in (0.05, 0.5, 5.0):
                plan = plan_truncation(p, t, 1e-3, kind=kind)
                n = plan.n_terms
                bounds = term_bounds(mode_table(p, 10 * n + 100), p, t, kind)
                direct = np.sum(bounds[n:]) * 2.0 / p.l
                assert direct <= plan.tail_bound * (1.0 + 1e-9), (kind, t)

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(TruncationError):
            plan_truncation(P_EQ, 1.0, 1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_truncation(P_EQ, 0.0, 1e-4)
        with pytest.raises(ValueError):
            plan_truncation(P_EQ, 1.0, -1e-4)
        with pytest.raises(ValueError):
            plan_truncation(P_EQ, 1.0, 1e-4, kind="nope")

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("p", ALL_PARAM_SETS)
    def test_rejects_non_finite_time_and_tolerance(self, p, kind):
        for bad in (math.nan, math.inf, -math.inf):
            for t, tol in ((bad, 1e-5), (1.0, bad)):
                with pytest.raises(ValueError):
                    plan_truncation(p, t, tol, kind=kind)
                with pytest.raises(ValueError):
                    green_profile(p, [1.0], 1.0, t, kind=kind, tol=tol)
                with pytest.raises(ValueError):
                    green_profile(p, [1.0], 1.0, t, kind=kind, tol=tol, n_terms=8)


class TestPinnedPlans:
    @pytest.mark.parametrize("name", sorted(PIN_SETS))
    def test_plans_equal_recorded_ones_bitwise(self, name):
        p, pins = PIN_SETS[name], PLAN_PINS[name]
        planners = {"plan_accelerated": plan_accelerated, "plan_truncation": plan_truncation}
        assert len(pins["plans"]) == 50
        for planner, kind, t, n_terms, tail_bound in pins["plans"]:
            plan = planners[planner](p, t, pins["tol"], kind=kind)
            assert (plan.n_terms, plan.tail_bound) == (n_terms, tail_bound), (planner, kind, t)
            if kind == "flux":
                assert plan_accelerated(p, t, pins["tol"], kind=kind) == plan


class TestGreenEval:
    def test_boundary_exact(self):
        for x, xi in ((0.0, 1.0), (math.pi, 1.0), (1.0, 0.0), (1.0, math.pi)):
            assert green_profile(P_EQ, [x], xi, 1.0, tol=1e-4)[0] == 0.0
            assert green_profile(P_EQ, [x], xi, 1.0, kind="flux", tol=1e-4)[0] == 0.0

    def test_symmetry(self):
        a = green_profile(P_EQ, [0.8], 1.7, 1.0, tol=1e-5)[0]
        b = green_profile(P_EQ, [1.7], 0.8, 1.0, tol=1e-5)[0]
        assert abs(a - b) < 1e-14

    def test_center_value_against_converged_series(self):
        val = green_profile(P_EQ, [math.pi / 2], math.pi / 2, 1.0, tol=1e-5)[0]
        assert val == pytest.approx(G_CENTER_T1, abs=1e-5)

    def test_against_independent_brute_sum(self):
        # brute partial sum carries its own ~(2/l) e^{-t}/n_terms tail
        val = green_profile(P_EQ, [0.9], 1.1, 0.7, tol=1e-5)[0]
        ref = brute_green(P_EQ, 0.9, 1.1, 0.7, n_terms=4000)
        assert val == pytest.approx(ref, abs=6e-5)

    def test_requires_positive_time(self):
        for t in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                green_profile(P_EQ, [1.0], 1.0, t)
            with pytest.raises(ValueError):
                green_profile(P_EQ, [1.0], 1.0, t, n_terms=8)
        for x, xi in ((-0.5, 1.0), (math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(ValueError):
                green_profile(P_EQ, [x], xi, 1.0)


class TestProfileEdges:
    @pytest.mark.parametrize("kind", KINDS)
    def test_empty_xs_gives_empty_profile(self, kind):
        for xs in ([], np.empty(0)):
            prof = green_profile(P_EQ, xs, 1.0, 0.5, kind=kind)
            assert prof.shape == (0,) and prof.dtype == float
        assert green_profile(P_EQ, [], 0.0, 0.5, kind=kind).shape == (0,)

    @pytest.mark.parametrize("kind", KINDS)
    def test_nan_x_raises(self, kind):
        for xs in ([math.nan], [1.0, math.nan], [0.0, math.nan, math.pi]):
            with pytest.raises(ValueError):
                green_profile(P_EQ, xs, 1.0, 0.5, kind=kind)
            with pytest.raises(ValueError):
                green_profile(P_EQ, xs, 1.0, 0.5, kind=kind, n_terms=8)
        with pytest.raises(ValueError):
            green_profile(P_EQ, [1.0], math.nan, 0.5, kind=kind)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("p", ALL_PARAM_SETS)
    def test_boundary_points_are_zero_next_to_interior_ones(self, p, kind):
        xs = np.array([0.0, 0.4 * p.l, p.l, 0.7 * p.l, 0.0])
        prof = green_profile(p, xs, 0.3 * p.l, 0.6, kind=kind, tol=1e-4)
        assert prof[0] == prof[2] == prof[4] == 0.0
        assert np.all(prof[[1, 3]] != 0.0)
        alone = green_profile(p, xs[[1, 3]], 0.3 * p.l, 0.6, kind=kind, tol=1e-4)
        assert alone.tobytes() == prof[[1, 3]].tobytes()
        for xi in (0.0, p.l):
            assert np.all(green_profile(p, xs, xi, 0.6, kind=kind, tol=1e-4) == 0.0)
        assert np.all(green_profile(p, [0.0, p.l], 0.3 * p.l, 0.6, kind=kind) == 0.0)

    def test_non_integer_depth_raises(self):
        for n_terms in (2.5, 8.0, 0, -3):
            with pytest.raises(ValueError):
                green_profile(P_EQ, [1.0], 1.3, 0.5, n_terms=n_terms)
        for n_terms in (8, np.int64(8)):
            assert green_profile(P_EQ, [1.0], 1.3, 0.5, n_terms=n_terms).shape == (1,)


class TestDerivativeAndFlux:
    def test_dt_matches_time_difference(self):
        n_terms = plan_truncation(P_EQ, 1.0, 1e-5).n_terms
        delta = 1e-4
        for (x, xi) in ((1.0, 1.3), (2.0, 0.7)):
            plus = green_profile(P_EQ, [x], xi, 1.0 + delta, n_terms=n_terms)[0]
            minus = green_profile(P_EQ, [x], xi, 1.0 - delta, n_terms=n_terms)[0]
            dt_val = green_profile(P_EQ, [x], xi, 1.0, kind="dt", n_terms=n_terms)[0]
            assert (plus - minus) / (2 * delta) == pytest.approx(dt_val, abs=1e-6)

    def test_flux_is_combination_of_green_and_dt(self):
        p = P_LESS
        n_terms = plan_truncation(p, 0.8, 1e-6, kind="flux").n_terms
        x, xi, t = 1.2, 2.0, 0.8
        g, g_t, flux = (green_profile(p, [x], xi, t, kind=kind, n_terms=n_terms)[0]
                        for kind in KINDS)
        assert flux == pytest.approx(p.epsilon * g_t + p.c**2 * g, abs=1e-12)

    def test_flux_against_brute_sum(self):
        val = green_profile(P_EQ, [0.9], 1.1, 0.7, kind="flux", tol=1e-7)[0]
        ref = brute_green(P_EQ, 0.9, 1.1, 0.7, n_terms=200, kind="flux")
        assert val == pytest.approx(ref, abs=1e-9)

    def test_dt_against_brute_sum(self):
        val = green_profile(P_EQ, [0.9], 1.1, 0.7, kind="dt", tol=1e-4)[0]
        ref = brute_green(P_EQ, 0.9, 1.1, 0.7, n_terms=4000, kind="dt")
        assert val == pytest.approx(ref, abs=2e-4)


class TestOperatorIdentity:
    def test_discrete_residual_small_grid(self):
        xs = np.linspace(0.0, math.pi, 8)[1:-1]
        ts = np.linspace(0.2, 3.0, 5)
        assert pde_residual_sup(P_EQ, xs, ts, xi=1.1) < 1e-4


class TestDecayEnvelopes:
    def test_envelopes_bounded(self):
        beta = decay_constants(P_EQ).beta
        xs = np.linspace(0.0, math.pi, 7)[1:-1]
        for kind, tol in (("green", 1e-4), ("dt", 1e-4), ("flux", 1e-6)):
            env = 0.0
            for t in (0.1, 0.5, 1.0, 3.0, 10.0, 30.0):
                prof = green_profile(P_EQ, xs, 1.3, t, kind=kind, tol=tol)
                env = max(env, float(np.max(np.abs(prof))) * math.exp(beta * t))
            assert math.isfinite(env) and env < 10.0


class TestAcceleratedSeries:
    @pytest.mark.parametrize("kind", ["green", "dt"])
    @pytest.mark.parametrize("p", ALL_PARAM_SETS)
    def test_remainder_tail_bound_verified_by_deeper_summation(self, p, kind):
        # r_n = K_n - A_n with A_n = e^{-lam t}/(eps gamma_n^2), times -lam for G_t
        # checked at the planned depth and at shallow depths, where the
        # Gaussian envelope of the fast parts dominates the bound
        lam = p.c**2 / p.epsilon
        cls = classify_modes(p, CHAIN_K)
        n_min = max(cls.nk, cls.n2_star, 2) - 1
        values = kernel_values if kind == "green" else kernel_dt_values
        for t in (0.05, 0.1, 0.5, 1.0, 5.0):
            plan = plan_accelerated(p, t, 1e-5, kind=kind)
            assert n_min <= plan.n_terms and plan.tail_bound <= 1e-5
            depths = (plan.n_terms, n_min, 2 * n_min, 4 * n_min, 8 * n_min)
            table = mode_table(p, 10 * max(depths) + 100)
            asym = (1.0 if kind == "green" else -lam) * math.exp(-lam * t) / p.epsilon
            rem = np.abs(values(table, t) - asym / table.gamma**2)
            tail = _remainder_tail(p, t, kind)
            for n in depths:
                bound = 2.0 / p.l * tail(n)
                direct = np.sum(rem[n:]) * 2.0 / p.l
                assert direct <= bound, (t, n, direct, bound)

    def test_tight_tolerance_against_60_digit_reference(self):
        x, xi, t, tol = 0.9, 1.7, 0.1, 1e-10
        depths = {kind: plan_accelerated(P_EQ, t, tol, kind=kind).n_terms
                  for kind in ("green", "dt")}
        assert max(depths.values()) <= 3000, depths
        ref = kummer_reference(P_EQ, x, xi, t, n_terms=10 * max(depths.values()))
        for kind in ("green", "dt"):
            val = green_profile(P_EQ, [x], xi, t, kind=kind, tol=tol)[0]
            assert val == pytest.approx(ref[kind], abs=tol), kind

    def test_strong_wave_speed_set_is_certified_at_small_time(self):
        # the direct series cannot certify 1e-5 here within MODE_CAP modes
        with pytest.raises(TruncationError):
            plan_truncation(P_GTR, 0.1, 1e-5)
        xs = np.linspace(0.0, P_GTR.l, 11)
        for kind in KINDS:
            prof = green_profile(P_GTR, xs, 1.3, 0.1, kind=kind, tol=1e-5)
            assert np.all(np.isfinite(prof)) and prof[0] == prof[-1] == 0.0

    def test_flux_plan_is_the_direct_plan(self):
        # the flux terms already fall off like 1/n^4: nothing is subtracted
        for t in (0.1, 1.0):
            assert plan_accelerated(P_LESS, t, 1e-8, kind="flux") == \
                plan_truncation(P_LESS, t, 1e-8, kind="flux")
