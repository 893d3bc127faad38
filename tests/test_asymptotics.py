import math

import numpy as np
import pytest

from strip_solver.asymptotics import algebraic_decay_check, decay_fit, default_window


class TestDecayFit:
    @pytest.mark.parametrize("rate", [0.1, 0.5, 2.0])
    def test_recovers_exact_exponential(self, rate):
        ts = np.linspace(1.0, 20.0, 60)
        fit = decay_fit(ts, 3.7 * np.exp(-rate * ts))
        assert fit.rate == pytest.approx(rate, abs=1e-8)
        assert fit.log_amplitude == pytest.approx(np.log(3.7), abs=1e-8)
        assert fit.max_residual < 1e-10

    def test_window_restriction(self):
        ts = np.linspace(0.0, 30.0, 200)
        vals = np.exp(-0.5 * ts) + 5.0 * np.exp(-4.0 * ts)  # transient early on
        fit = decay_fit(ts, vals, window=(10.0, 30.0))
        assert fit.rate == pytest.approx(0.5, abs=1e-3)

    def test_zero_values_hit_floor_without_crashing(self):
        ts = np.linspace(1.0, 20.0, 30)
        vals = np.zeros_like(ts)
        fit = decay_fit(ts, vals)
        assert np.isfinite(fit.rate)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-3])
    def test_rejects_non_finite_or_negative_sup_norm(self, bad):
        ts = np.linspace(1.0, 20.0, 30)
        vals = np.exp(-0.5 * ts)
        vals[7] = bad
        with pytest.raises(ValueError, match="sup norms"):
            decay_fit(ts, vals)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_time(self, bad):
        ts = np.linspace(1.0, 20.0, 30)
        vals = np.exp(-0.5 * ts)
        ts[-1] = bad
        with pytest.raises(ValueError, match="times"):
            decay_fit(ts, vals)
        with pytest.raises(ValueError, match="times"):
            decay_fit(ts, vals, window=(1.0, 10.0))

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            decay_fit(np.linspace(0, 1, 5), np.ones(5))

    def test_default_window(self):
        assert default_window(40.0) == (8.0, 36.0)
        assert default_window(10.0) == (5.0, 9.0)


class TestAlgebraicDecay:
    def test_exact_power_law_is_bounded(self):
        ts = np.geomspace(1.0, 100.0, 80)
        bounded, sup_prod = algebraic_decay_check(ts, ts**-0.5, alpha=0.5)
        assert bounded and sup_prod == pytest.approx(1.0, rel=1e-12)

    def test_slower_decay_is_flagged(self):
        ts = np.geomspace(1.0, 100.0, 80)
        bounded, sup_prod = algebraic_decay_check(ts, ts**-0.25, alpha=0.5)
        assert not bounded
        assert sup_prod == pytest.approx(100.0**0.25, rel=1e-12)

    def test_faster_decay_is_bounded(self):
        ts = np.geomspace(1.0, 100.0, 80)
        bounded, _ = algebraic_decay_check(ts, ts**-1.5, alpha=0.5)
        assert bounded

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-3])
    def test_rejects_non_finite_or_negative_sup_norm(self, bad):
        ts = np.geomspace(1.0, 100.0, 80)
        vals = ts**-0.5
        vals[60] = bad
        with pytest.raises(ValueError, match="sup norms"):
            algebraic_decay_check(ts, vals, alpha=0.5)

    def test_rejects_non_finite_time_and_keeps_zeros(self):
        ts = np.geomspace(1.0, 100.0, 80)
        vals = ts**-0.5
        vals[:5] = 0.0
        assert algebraic_decay_check(ts, vals, alpha=0.5)[0]
        for bad in (math.nan, math.inf):
            bad_ts = ts.copy()
            bad_ts[40] = bad
            with pytest.raises(ValueError, match="times"):
                algebraic_decay_check(bad_ts, vals, alpha=0.5)

    def test_rejects_mismatched_histories(self):
        ts = np.geomspace(1.0, 100.0, 80)
        for sups in (ts[:60] ** -0.5, np.ones((80, 2))):
            with pytest.raises(ValueError, match="matching"):
                algebraic_decay_check(ts, sups, alpha=0.5)
            with pytest.raises(ValueError, match="matching"):
                decay_fit(ts, sups)

    def test_insufficient_tail_coverage(self):
        ts = np.linspace(1.0, 20.0, 40)
        with pytest.raises(ValueError):
            algebraic_decay_check(ts, ts**-1.0, alpha=0.5)
        with pytest.raises(ValueError):
            algebraic_decay_check(np.linspace(5, 100, 40),
                                  np.linspace(5, 100, 40) ** -1.0, alpha=0.5)
