import math

import mpmath as mp
import numpy as np
import pytest

from conftest import ALL_PARAM_SETS, P_EQ, P_GTR, P_LESS
from helpers import mode_ode_residual
from strip_solver.modes import (
    SERIES_SWITCH,
    ModeParams,
    Params,
    Regime,
    classify_modes,
    flux_kernel_eval,
    flux_values,
    kernel_dt_eval,
    kernel_dt_values,
    kernel_eval,
    kernel_values,
    mode_params,
    mode_table,
    term_bound,
)


class TestParams:
    def test_rejects_nonpositive_constants(self):
        with pytest.raises(ValueError):
            Params(epsilon=0.0, a=1.0, c=1.0, l=1.0)
        with pytest.raises(ValueError):
            Params(epsilon=1.0, a=-1.0, c=1.0, l=1.0)
        with pytest.raises(ValueError):
            Params(epsilon=1.0, a=1.0, c=1.0, l=math.inf)


class TestModeParams:
    def test_critical_mode(self):
        m = mode_params(P_EQ, 1)
        assert m.gamma == 1.0 and m.b == 1.0 and m.h == 1.0
        assert m.regime is Regime.CRITICAL and m.omega == 0.0

    def test_overdamped_mode(self):
        m = mode_params(P_EQ, 2)
        assert m.gamma == 2.0 and m.b == 2.0 and m.h == 2.5
        assert m.regime is Regime.OVERDAMPED
        assert m.omega == pytest.approx(1.5, rel=1e-15)
        # cancellation-free slow rate h - omega = b^2/(h + omega)
        assert m.slow_rate == pytest.approx(1.0, rel=1e-15)

    def test_oscillatory_mode(self):
        m = mode_params(P_GTR, 1)
        assert m.h == pytest.approx(0.1) and m.regime is Regime.OSCILLATORY
        assert m.omega == pytest.approx(math.sqrt(0.99), rel=1e-14)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            mode_params(P_EQ, 0)

    @pytest.mark.parametrize("p", ALL_PARAM_SETS)
    def test_invariants_over_range(self, p):
        for n in (1, 2, 3, 10, 47):
            m = mode_params(p, n)
            if m.regime is Regime.OVERDAMPED:
                assert m.omega**2 + m.b**2 == pytest.approx(m.h**2, rel=1e-12)
                assert m.h > m.b
            elif m.regime is Regime.OSCILLATORY:
                assert m.h < m.b
            assert m.slow_rate > 0.0


class TestKernel:
    def test_zero_time_is_exact(self):
        for p in ALL_PARAM_SETS:
            for n in (1, 2, 9):
                m = mode_params(p, n)
                assert kernel_eval(m, 0.0) == 0.0
                assert kernel_dt_eval(m, 0.0) == 1.0

    def test_overdamped_value(self):
        # exp(-2.5) sinh(1.5)/1.5 for mode 2 of the critical-family set
        m = mode_params(P_EQ, 2)
        assert kernel_eval(m, 1.0) == pytest.approx(0.11652126742756937, rel=1e-13)

    def test_critical_value(self):
        m = mode_params(P_EQ, 1)
        assert kernel_eval(m, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_derivative_values(self):
        m1 = mode_params(P_EQ, 1)
        assert kernel_dt_eval(m1, 1.0) == pytest.approx(0.0, abs=1e-15)
        m2 = mode_params(P_EQ, 2)
        # exp(-2.5)(cosh 1.5 - (2.5/1.5) sinh 1.5)
        assert kernel_dt_eval(m2, 1.0) == pytest.approx(-0.0982056285388352, rel=1e-12)

    def test_rejects_negative_time(self):
        m = mode_params(P_EQ, 1)
        with pytest.raises(ValueError):
            kernel_eval(m, -0.1)
        with pytest.raises(ValueError):
            kernel_dt_eval(m, -0.1)

    def test_flux_collapses_for_critical_family(self):
        # with eps = a = c = 1, l = pi: eps*H_n' + c^2*H_n = exp(-n^2 t)
        for n in (1, 2, 5, 12):
            m = mode_params(P_EQ, n)
            for t in (0.3, 1.0, 2.7):
                assert flux_kernel_eval(m, P_EQ, t) == pytest.approx(
                    math.exp(-n**2 * t), rel=1e-12, abs=1e-300)

    def test_mode_ode_residual_second_order(self):
        # literal second-order stencil with step 1e-4 on mild modes
        for p in ALL_PARAM_SETS:
            for n in range(1, 5):
                m = mode_params(p, n)
                for t in np.linspace(0.2, 5.0, 9):
                    assert mode_ode_residual(m, float(t), 1e-4) < 1e-6

    def test_stability_extreme_modes(self):
        table = mode_table(P_EQ, 10**6)
        for t in (0.0, 1e-9, 1.0, 1e3):
            vals = kernel_values(table, t)
            assert np.all(np.isfinite(vals))

    def test_regime_continuity_near_critical(self):
        # matched h with omega -> 0 from both sides agrees with the critical branch
        h = 1.0
        crit = ModeParams(n=1, gamma=1.0, b=h, h=h, regime=Regime.CRITICAL,
                          omega=0.0, slow_rate=h)
        for t in (0.3, 1.0, 4.0):
            ref = kernel_eval(crit, t)
            for omega in (1e-7, 1e-5):
                over = ModeParams(n=1, gamma=1.0, b=math.sqrt(h**2 - omega**2),
                                  h=h, regime=Regime.OVERDAMPED, omega=omega,
                                  slow_rate=h - omega)
                osc = ModeParams(n=1, gamma=1.0, b=math.sqrt(h**2 + omega**2),
                                 h=h, regime=Regime.OSCILLATORY, omega=omega,
                                 slow_rate=h)
                assert kernel_eval(over, t) == pytest.approx(ref, abs=1e-8)
                assert kernel_eval(osc, t) == pytest.approx(ref, abs=1e-8)


def textbook_kernels(p, n, t):
    """H, H' and eps*H' + c^2*H from exp/sinh/sin forms in 60-digit arithmetic.

    Returns the three values and the size of each formula's terms (sin
    bounded by its argument), the scale of its rounding in double precision:
    relative to it, a zero crossing or a cancelling sum is well conditioned.
    """
    with mp.workdps(60):
        g = n * mp.pi / mp.mpf(p.l)
        b, h = p.c * g, (p.a + p.epsilon * g * g) / 2
        w2 = h * h - b * b
        w, t, e = mp.sqrt(abs(w2)), mp.mpf(t), mp.exp(-h * mp.mpf(t))
        if w2 > 0:
            sh, ch = mp.sinh(w * t) / w, mp.cosh(w * t)
            hv, hd = e * sh, e * (ch - h * sh)
            hv_size, hd_size = hv, e * (ch + h * sh)
        elif w2 < 0:
            hv, hd = e * mp.sin(w * t) / w, e * (mp.cos(w * t) - h * mp.sin(w * t) / w)
            hv_size, hd_size = e * t, e * (1 + h * t)
        else:
            hv, hd = t * e, e * (1 - h * t)
            hv_size, hd_size = hv, e * (1 + h * t)
        values = (hv, hd, p.epsilon * hd + p.c**2 * hv)
        sizes = (hv_size, hd_size, p.epsilon * hd_size + p.c**2 * hv_size)
        return [float(v) for v in values], [float(s) for s in sizes]


class TestKernelBranches:
    """Each (mode, time) element takes one branch; all branches in one table."""

    @pytest.mark.parametrize("p", ALL_PARAM_SETS)
    def test_mixed_regime_table_matches_textbook(self, p):
        # 30 modes hold P_GTR's oscillatory band (n <= 19) and overdamped
        # modes, P_EQ's critical mode 1; times straddle each sampled mode's
        # Maclaurin switch SERIES_SWITCH/omega
        table = mode_table(p, 30)
        omegas = table.omega[[0, 5, 18, 19, 29]]
        switch = SERIES_SWITCH / omegas[omegas > 0]
        ts = np.unique(np.concatenate([[0.0, 0.3, 1.7, 6.0],
                                       switch * (1.0 - 1e-9), switch * (1.0 + 1e-9)]))
        rows = [[textbook_kernels(p, n, t) for t in ts] for n in range(1, 31)]
        ref = np.array([[values for values, _ in row] for row in rows])
        size = np.array([[sizes for _, sizes in row] for row in rows])
        for k, values in enumerate((kernel_values, kernel_dt_values, flux_values)):
            got = values(table, ts)
            assert np.all(np.abs(got - ref[:, :, k]) <= 1e-12 * size[:, :, k])


class TestClassification:
    def test_oscillatory_band(self):
        cls = classify_modes(P_GTR, 0.5)
        assert cls.n1_star == 0 and cls.n2_star == 20
        # band edges from the quadratic roots
        scale = P_GTR.c * P_GTR.l / (P_GTR.epsilon * math.pi)
        n1 = scale * (1 - math.sqrt(1 - P_GTR.a * P_GTR.epsilon / P_GTR.c**2))
        n2 = scale * (1 + math.sqrt(1 - P_GTR.a * P_GTR.epsilon / P_GTR.c**2))
        assert n1 == pytest.approx(0.050126, abs=1e-6)
        assert n2 == pytest.approx(19.949874, abs=1e-6)
        for n in range(1, 20):
            assert mode_params(P_GTR, n).regime is Regime.OSCILLATORY
        assert mode_params(P_GTR, 20).regime is not Regime.OSCILLATORY

    def test_no_band_at_or_below_threshold(self):
        for p in (P_EQ, P_LESS):
            cls = classify_modes(p)
            assert (cls.n1_star, cls.n2_star) == (0, 1)
            for n in range(1, 30):
                assert mode_params(p, n).regime is not Regime.OSCILLATORY

    def test_nk_threshold_marks_bound_validity(self):
        for p in ALL_PARAM_SETS:
            for k in (0.3, 0.5, 0.9):
                cls = classify_modes(p, k)
                for n in range(cls.nk, cls.nk + 40):
                    m = mode_params(p, n)
                    assert (m.b / m.h) ** 2 <= k

    def test_rejects_bad_k(self):
        for k in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                classify_modes(P_EQ, k)


class TestTermBound:
    def test_vanishes_at_large_time(self):
        m = mode_params(P_LESS, 3)
        assert term_bound(m, P_LESS, 200.0) < 1e-20

    def test_dominates_single_value(self):
        m = mode_params(P_LESS, 3)
        assert term_bound(m, P_LESS, 1.0, 0.5) >= abs(kernel_eval(m, 1.0))

    def test_oscillatory_bound_value(self):
        m = mode_params(P_GTR, 1)
        expected = 0.5 * math.exp(-0.05)
        assert term_bound(m, P_GTR, 0.5) == pytest.approx(expected, rel=1e-12)
        assert term_bound(m, P_GTR, 0.5) >= abs(kernel_eval(m, 0.5))

    @pytest.mark.parametrize("p", ALL_PARAM_SETS)
    def test_dominance_on_grid(self, p):
        ts = np.geomspace(0.01, 20.0, 100)
        for n in range(1, 101):
            m = mode_params(p, n)
            bounds = np.array([term_bound(m, p, float(t)) for t in ts])
            values = np.abs([kernel_eval(m, float(t)) for t in ts])
            # critical modes attain the bound exactly; allow rounding slack
            assert np.all(bounds * (1.0 + 1e-12) >= values)
