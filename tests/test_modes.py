import math

import mpmath as mp
import numpy as np
import pytest

from conftest import ALL_PARAM_SETS, P_EQ, P_GTR, P_LESS
from helpers import mode_ode_residual
from strip_solver.green_kernel import term_bounds
from strip_solver.modes import (
    CRITICAL_REL_TOL,
    SERIES_SWITCH,
    Params,
    classify_modes,
    flux_values,
    kernel_dt_values,
    kernel_values,
    mode_table,
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
    """Per-mode quantities, read from rows of a real mode table."""

    def test_critical_mode(self):
        t = mode_table(P_EQ, 1)
        assert t.gamma[0] == 1.0 and t.b[0] == 1.0 and t.h[0] == 1.0
        assert t.crit[0] and t.omega[0] == 0.0

    def test_overdamped_mode(self):
        t = mode_table(P_EQ, 2)
        assert t.gamma[1] == 2.0 and t.b[1] == 2.0 and t.h[1] == 2.5
        assert t.over[1]
        assert t.omega[1] == pytest.approx(1.5, rel=1e-15)
        # cancellation-free slow rate h - omega = b^2/(h + omega)
        assert t.dm[1] == pytest.approx(1.0, rel=1e-15)

    def test_oscillatory_mode(self):
        t = mode_table(P_GTR, 1)
        assert t.h[0] == pytest.approx(0.1) and t.osc[0]
        assert t.omega[0] == pytest.approx(math.sqrt(0.99), rel=1e-14)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            mode_table(P_EQ, 0)

    def test_rejects_non_integer_index(self):
        # 2.5 used to build 3 modes silently
        for n_max in (2.5, 3.0, np.float64(3.0), "3", None, math.nan):
            with pytest.raises(ValueError):
                mode_table(P_EQ, n_max)

    def test_accepts_numpy_integers(self):
        ref = mode_table(P_EQ, 5)
        for n_max in (np.int64(5), np.int32(5), np.uint8(5)):
            table = mode_table(P_EQ, n_max)
            assert table.n_modes == 5 and np.array_equal(table.b, ref.b)

    @pytest.mark.parametrize("p", ALL_PARAM_SETS)
    def test_invariants_over_range(self, p):
        t = mode_table(p, 47)
        # each mode has exactly one regime
        assert np.all(t.over.astype(int) + t.crit + t.osc == 1)
        for i in (0, 1, 2, 9, 46):
            if t.over[i]:
                assert t.omega[i]**2 + t.b[i]**2 == pytest.approx(t.h[i]**2, rel=1e-12)
                assert t.h[i] > t.b[i]
            elif t.osc[i]:
                assert t.h[i] < t.b[i]
            assert t.dm[i] > 0.0


class TestKernel:
    def test_zero_time_is_exact(self):
        for p in ALL_PARAM_SETS:
            table = mode_table(p, 9)
            assert np.all(kernel_values(table, 0.0) == 0.0)
            assert np.all(kernel_dt_values(table, 0.0) == 1.0)

    def test_overdamped_value(self):
        # exp(-2.5) sinh(1.5)/1.5 for mode 2 of the critical-family set
        h = kernel_values(mode_table(P_EQ, 2), 1.0)
        assert h[1] == pytest.approx(0.11652126742756937, rel=1e-13)

    def test_critical_value(self):
        h = kernel_values(mode_table(P_EQ, 1), 1.0)
        assert h[0] == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_critical_modes_take_the_closed_form_exactly(self):
        # omega = 0 makes both Maclaurin series exactly 1, so H = t e^(-ht),
        # H' = e^(-ht)(1 - ht) and the flux follow bitwise, on both time paths
        table = mode_table(P_EQ, 1)
        h, eps, c2 = table.h, P_EQ.epsilon, P_EQ.c**2
        for t in (1e-9, 0.3, 1.0, 7.5):
            decay = np.exp(-h * t)
            for tt, col in ((t, lambda v: v), (np.array([0.5, t]), lambda v: v[:, 1])):
                assert col(kernel_values(table, tt)) == t * decay
                assert col(kernel_dt_values(table, tt)) == decay * (1.0 - h * t)
                assert col(flux_values(table, tt)) == decay * (eps + (c2 - eps * h) * t)

    def test_derivative_values(self):
        hd = kernel_dt_values(mode_table(P_EQ, 2), 1.0)
        assert hd[0] == pytest.approx(0.0, abs=1e-15)
        # exp(-2.5)(cosh 1.5 - (2.5/1.5) sinh 1.5)
        assert hd[1] == pytest.approx(-0.0982056285388352, rel=1e-12)

    def test_rejects_negative_time(self):
        table = mode_table(P_EQ, 3)
        for values in (kernel_values, kernel_dt_values, flux_values):
            for t in (-0.1, -1.0, np.array([0.0, 1.0, -0.1]), np.array([-1e-300]),
                      math.nan, np.array([0.0, math.nan, 1.0]),
                      math.inf, np.array([0.0, math.inf, 1.0])):
                with pytest.raises(ValueError):
                    values(table, t)

    def test_flux_collapses_for_critical_family(self):
        # with eps = a = c = 1, l = pi: eps*H_n' + c^2*H_n = exp(-n^2 t)
        table = mode_table(P_EQ, 12)
        for t in (0.3, 1.0, 2.7):
            flux = flux_values(table, t)
            for n in (1, 2, 5, 12):
                assert flux[n - 1] == pytest.approx(math.exp(-n**2 * t), rel=1e-12, abs=1e-300)

    def test_mode_ode_residual_second_order(self):
        # literal second-order stencil with step 1e-4 on mild modes
        for p in ALL_PARAM_SETS:
            table = mode_table(p, 4)
            for t in np.linspace(0.2, 5.0, 9):
                assert np.all(mode_ode_residual(table, float(t), 1e-4) < 1e-6)

    def test_stability_extreme_modes(self):
        table = mode_table(P_EQ, 10**6)
        for t in (0.0, 1e-9, 1.0, 1e3):
            vals = kernel_values(table, t)
            assert np.all(np.isfinite(vals))

    def test_regime_continuity_near_critical(self):
        # c = 1 + d puts mode 1 (h = 1, b = 1 + d) inside the critical band
        # (|d| <= CRITICAL_REL_TOL) or just outside it, with omega =
        # sqrt(|2d + d^2|) ~ 2e-6 and 1e-5; every kernel stays near t*exp(-t)
        ts = np.array([0.3, 1.0, 4.0])
        ref = ts * np.exp(-ts)
        for d, omega in ((5e-13, 0.0), (2e-12, 2e-6), (5e-11, 1e-5)):
            for sign in (1.0, -1.0):
                table = mode_table(Params(epsilon=1.0, a=1.0, c=1.0 + sign * d, l=math.pi), 1)
                assert table.h[0] == 1.0
                if d <= CRITICAL_REL_TOL:
                    assert table.crit[0]
                else:
                    assert table.osc[0] if sign > 0 else table.over[0]
                assert table.omega[0] == pytest.approx(omega, rel=1e-3)
                assert kernel_values(table, ts)[0] == pytest.approx(ref, abs=1e-8)


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
        osc = mode_table(P_GTR, 20).osc
        assert np.all(osc[:19]) and not osc[19]

    def test_no_band_at_or_below_threshold(self):
        for p in (P_EQ, P_LESS):
            cls = classify_modes(p)
            assert (cls.n1_star, cls.n2_star) == (0, 1)
            assert not np.any(mode_table(p, 29).osc)

    def test_nk_threshold_marks_bound_validity(self):
        for p in ALL_PARAM_SETS:
            for k in (0.3, 0.5, 0.9):
                cls = classify_modes(p, k)
                t = mode_table(p, cls.nk + 39)
                assert np.all((t.b[cls.nk - 1:] / t.h[cls.nk - 1:]) ** 2 <= k)

    def test_rejects_bad_k(self):
        for k in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                classify_modes(P_EQ, k)


class TestTermBound:
    def test_vanishes_at_large_time(self):
        assert term_bounds(mode_table(P_LESS, 3), 200.0)[2] < 1e-20

    def test_dominates_single_value(self):
        table = mode_table(P_LESS, 3)
        assert term_bounds(table, 1.0)[2] >= abs(kernel_values(table, 1.0)[2])

    def test_oscillatory_bound_value(self):
        table = mode_table(P_GTR, 1)
        expected = 0.5 * math.exp(-0.05)
        bound = term_bounds(table, 0.5)[0]
        assert bound == pytest.approx(expected, rel=1e-12)
        assert bound >= abs(kernel_values(table, 0.5)[0])

    @pytest.mark.parametrize("p", ALL_PARAM_SETS)
    def test_dominance_on_grid(self, p):
        ts = np.geomspace(0.01, 20.0, 100)
        table = mode_table(p, 100)
        bounds = np.stack([term_bounds(table, float(t)) for t in ts], axis=1)
        values = np.abs(kernel_values(table, ts))
        # critical modes attain the bound exactly; allow rounding slack
        assert np.all(bounds * (1.0 + 1e-12) >= values)

    def test_rejects_negative_time_and_bad_kind(self):
        table = mode_table(P_EQ, 3)
        for t in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                term_bounds(table, t)
        for kind in ("G", "nope"):
            with pytest.raises(ValueError):
                term_bounds(table, 1.0, kind)
