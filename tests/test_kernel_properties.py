"""Property tests of the kernels' scalar-time path against the array path.

A scalar time and the same time inside an array of times must give the
same bits for every kind, on tables whose modes straddle the oscillatory
band edges and the critical band |h - b| <= CRITICAL_REL_TOL*h, at times
that straddle each mode's Maclaurin switch SERIES_SWITCH/omega.  Across
that switch, where H and H' change formula, both stay continuous.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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

KERNELS = (kernel_values, kernel_dt_values, flux_values)
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
# relative offsets of h_m from b_m, in units of CRITICAL_REL_TOL: inside,
# on and outside the critical band, on both sides
CRITICAL_OFFSETS = (0.0, 0.5, 0.999, 1.0, 1.001, 2.0, 1e3, 1e9)


@st.composite
def band_edge_params(draw):
    """Params whose mode m sits at a band edge, h_m = b_m*(1 + delta)."""
    l = draw(st.floats(0.5, 5.0))
    c = draw(st.floats(0.2, 3.0))
    m = draw(st.integers(1, 30))
    g = m * math.pi / l
    # eps < 2c/g leaves a = 2*b_m*(1 + delta) - eps*g^2 positive
    eps = draw(st.floats(0.05, 0.95)) * 2.0 * c / g
    delta = draw(st.sampled_from(CRITICAL_OFFSETS)) * draw(st.sampled_from((1.0, -1.0)))
    a = 2.0 * c * g * (1.0 + delta * CRITICAL_REL_TOL) - eps * g * g
    return Params(epsilon=eps, a=a, c=c, l=l)


any_params = st.builds(Params, *(st.floats(0.01, 10.0) for _ in range(4)))


@st.composite
def table_and_time(draw):
    p = draw(st.one_of(band_edge_params(), any_params))
    cls = classify_modes(p)
    table = mode_table(p, draw(st.integers(1, 20)) + min(cls.n2_star, 60))
    omegas = table.omega[table.omega > 0]
    switch = st.nothing()
    if omegas.size:
        omega = float(draw(st.sampled_from(omegas)))
        near = st.sampled_from((1.0 - 1e-9, 1.0 - 2.0**-52, 1.0, 1.0 + 2.0**-52, 1.0 + 1e-9))
        switch = near.map(lambda f: SERIES_SWITCH / omega * f)
    t = draw(st.one_of(switch, st.just(0.0), st.floats(0.0, 1e-3), st.floats(0.0, 50.0)))
    return table, t


class TestScalarTime:
    @PROPERTY_SETTINGS
    @given(case=table_and_time(), other=st.floats(0.0, 20.0))
    def test_scalar_equals_array_column_bitwise(self, case, other):
        table, t = case
        for values in KERNELS:
            scalar = values(table, t)
            assert scalar.shape == (table.n_modes,)
            column = values(table, np.array([t]))[:, 0]
            mixed = values(table, np.array([other, t, 0.0]))[:, 1]
            assert scalar.tobytes() == column.tobytes(), values.__name__
            assert scalar.tobytes() == mixed.tobytes(), values.__name__
            assert values(table, np.float64(t)).tobytes() == scalar.tobytes()

    @PROPERTY_SETTINGS
    @given(case=table_and_time())
    def test_initial_values_are_exact(self, case):
        table, _ = case
        for t0 in (0.0, -0.0, 0, np.float64(0.0), np.array([0.0, 0.0])):
            assert np.all(kernel_values(table, t0) == 0.0)
            assert np.all(kernel_dt_values(table, t0) == 1.0)


class TestSeriesSwitch:
    @PROPERTY_SETTINGS
    @given(p=st.one_of(band_edge_params(), any_params), extra=st.integers(1, 20))
    def test_kernels_are_continuous_across_the_switch(self, p, extra):
        # H and H' just below and just above t = SERIES_SWITCH/omega, one side
        # from the Maclaurin branch and the other from the closed form, may
        # differ only by a trapezoid step of their derivatives, with
        # H'' = -2hH' - b^2 H from the ODE
        table = mode_table(p, extra + min(classify_modes(p).n2_star, 60))
        modes = np.flatnonzero(table.omega > 0)
        switch = SERIES_SWITCH / table.omega[modes]
        t_lo, t_hi = switch * (1.0 - 1e-9), switch * (1.0 + 1e-9)
        h, b2 = table.h[modes], table.b[modes] ** 2

        def state(t):
            # mode modes[k] at its own time t[k]
            hv = kernel_values(table, t)[modes, np.arange(modes.size)]
            hd = kernel_dt_values(table, t)[modes, np.arange(modes.size)]
            return hv, hd, -2.0 * h * hd - b2 * hv

        (h_lo, hd_lo, hdd_lo), (h_hi, hd_hi, hdd_hi) = state(t_lo), state(t_hi)
        step = t_hi - t_lo
        jump = np.abs(h_hi - h_lo - 0.5 * (hd_lo + hd_hi) * step)
        assert np.all(jump <= 1e-9 * (np.abs(h_lo) + np.abs(hd_lo) * t_lo))
        jump_dt = np.abs(hd_hi - hd_lo - 0.5 * (hdd_lo + hdd_hi) * step)
        assert np.all(jump_dt <= 1e-9 * (np.abs(hd_lo) + np.abs(hdd_lo) * t_lo))
