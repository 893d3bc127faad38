"""Property tests of the kernels, the mode tables and the truncation plans.

A scalar time and the same time inside an array of times must give the
same bits for every kind, on tables whose modes straddle the oscillatory
band edges and the critical band |h - b| <= CRITICAL_REL_TOL*h, at times
that straddle each mode's Maclaurin switch SERIES_SWITCH/omega.  Across
that switch, where H and H' change formula, both stay continuous.

On the same parameter sets: ``mode_table``'s reused tables are bitwise
fresh builds, the planners' depth search finds what plain doubling and
bisection finds, its start and its floor max(n_free - 1, 1) lie at or
below that depth, and a certified tail bound dominates the modes it drops.
"""

import dataclasses
import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import doubling_search
from strip_solver import green_kernel, modes
from strip_solver.errors import TruncationError
from strip_solver.green_kernel import KINDS, green_profile, plan_accelerated, plan_truncation
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


COLUMNS = modes._COLUMNS


def _forget_tables():
    """Empty the kept mode table and the kept sine matrix: the next call is cold."""
    modes._slot = (None, None, {})
    green_kernel._sines = (None, None)


def assert_fresh(table, p, n_modes):
    """``table`` is bitwise the n_modes-mode table of ``p`` built from scratch."""
    fresh = modes._build_table(p, n_modes)
    assert (table.epsilon, table.a, table.c, table.l) == (p.epsilon, p.a, p.c, p.l)
    for name in COLUMNS:
        got, want = getattr(table, name), getattr(fresh, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


class TestTableReuse:
    @PROPERTY_SETTINGS
    @given(p=st.one_of(band_edge_params(), any_params),
           depths=st.lists(st.integers(1, 200), min_size=1, max_size=6))
    def test_reused_tables_are_fresh_builds(self, p, depths):
        _forget_tables()
        for n in depths:
            assert_fresh(mode_table(p, n), p, n)

    @PROPERTY_SETTINGS
    @given(p=band_edge_params(), deep=st.integers(1, 200), data=st.data())
    def test_params_differing_in_one_field_get_their_own_table(self, p, deep, data):
        field = data.draw(st.sampled_from(("epsilon", "a", "c", "l")))
        value = getattr(p, field)
        other = data.draw(st.sampled_from((math.nextafter(value, math.inf),
                                           math.nextafter(value, 0.0), 2.0 * value)))
        q = dataclasses.replace(p, **{field: other})
        mode_table(p, deep)
        n = data.draw(st.integers(1, deep))
        assert_fresh(mode_table(q, n), q, n)
        assert_fresh(mode_table(p, n), p, n)

    def test_table_arrays_are_read_only(self):
        p = Params(epsilon=0.1, a=0.1, c=1.0, l=math.pi)
        _forget_tables()
        for table in (mode_table(p, 40), mode_table(p, 7), mode_table(p, 7)):
            for name in COLUMNS:
                column = getattr(table, name)
                with pytest.raises(ValueError):
                    column[0] = column[1]
                with pytest.raises(ValueError):
                    column.flags.writeable = True

    def test_columns_are_the_per_mode_arrays(self):
        table = modes._build_table(Params(epsilon=1.0, a=1.0, c=1.0, l=math.pi), 4)
        arrays = [f.name for f in dataclasses.fields(table)
                  if isinstance(getattr(table, f.name), np.ndarray)]
        assert list(COLUMNS) == arrays

    def test_slot_holds_at_most_one_base_table(self):
        p = Params(epsilon=1.0, a=1.0, c=1.0, l=math.pi)
        q = Params(epsilon=2.0, a=2.0, c=1.0, l=math.pi)
        _forget_tables()
        first = weakref.ref(mode_table(p, 50).gamma)
        assert np.shares_memory(mode_table(p, 10).gamma, first())  # a view of the kept table
        deeper = mode_table(p, 80)
        assert first() is None  # the deeper build replaced the 50-mode table
        deeper = weakref.ref(deeper.gamma)
        for n in (80, 3, 17, 3):
            mode_table(p, n)
        held, base, views = modes._slot
        assert held == p and base.gamma is deeper()
        assert sorted(views) == [3, 17, 80]
        assert all(np.shares_memory(view.gamma, base.gamma) for view in views.values())
        del held, base, views
        mode_table(q, 5)
        assert deeper() is None
        assert modes._slot[0] == q and modes._slot[1].n_modes == 5

    def test_a_depth_sweep_keeps_a_bounded_number_of_views(self):
        p = Params(epsilon=1.0, a=1.0, c=1.0, l=math.pi)
        _forget_tables()
        deep = 3 * modes._MAX_VIEWS
        base = mode_table(p, deep)
        for n in range(deep, 0, -1):
            assert_fresh(mode_table(p, n), p, n)
            held, kept, views = modes._slot
            assert kept is base and 1 <= len(views) <= modes._MAX_VIEWS
            assert all(view.n_modes == m for m, view in views.items())


class TestProfileOrder:
    """Profiles do not depend on which mode table and sine matrix are kept."""

    P = Params(epsilon=0.1, a=0.1, c=1.0, l=math.pi)
    XS = np.linspace(0.0, math.pi, 13)

    def _profiles(self, depths):
        return {(n, kind): green_profile(self.P, self.XS, 1.1, 0.7, kind=kind,
                                         n_terms=n).tobytes()
                for n in depths for kind in KINDS}

    def test_values_do_not_depend_on_call_order(self):
        depths = (3, 40, 41, 150, 400)
        cold = {}
        for n in depths:
            _forget_tables()
            cold.update(self._profiles((n,)))
        _forget_tables()
        ascending = self._profiles(depths)
        descending = self._profiles(depths[::-1])  # every one a prefix view now
        assert ascending == cold and descending == cold

    def test_planned_profiles_do_not_depend_on_call_order(self):
        times = (0.5, 0.9, 2.0, 5.0)

        def run(order):
            return {(t, kind): green_profile(self.P, self.XS, 1.1, t, kind=kind,
                                             tol=1e-4).tobytes()
                    for t in order for kind in KINDS}

        cold = {}
        for t in times:
            _forget_tables()
            cold.update(run((t,)))
        _forget_tables()
        assert run(times) == cold and run(times[::-1]) == cold

    def test_profiles_at_other_x_values_get_their_own_sines(self):
        grids = (self.XS, self.XS[::-1], np.linspace(0.1, 3.0, 13), self.XS[:5], self.XS)

        def run(xs):
            return green_profile(self.P, xs, 1.1, 0.7, kind="dt", n_terms=60).tobytes()

        cold = []
        for xs in grids:
            _forget_tables()
            cold.append(run(xs))
        _forget_tables()
        assert [run(xs) for xs in grids] == cold

    def test_kept_sine_matrix_is_one_chunk_of_the_deepest_request(self):
        xs = np.linspace(0.0, math.pi, 2000)
        _forget_tables()
        small = green_profile(self.P, self.XS, 1.1, 0.7, n_terms=600).tobytes()
        kept = green_kernel._sines
        assert kept[1].shape == (self.XS.size - 2, 600)
        green_profile(self.P, self.XS, 1.1, 0.7, n_terms=200)
        assert green_kernel._sines is kept  # a shallower request takes a slice
        # at 1,998 interior x values a 600-mode profile is summed in chunks
        # and keeps nothing; a 100-mode one is one 1,998 x 100 chunk, kept
        wide = [green_profile(self.P, xs, 1.1, 0.7, n_terms=n).tobytes() for n in (600, 100)]
        assert green_kernel._sines[1].shape == (xs.size - 2, 100)
        cold = []
        for n in (600, 100):
            _forget_tables()
            cold.append(green_profile(self.P, xs, 1.1, 0.7, n_terms=n).tobytes())
        assert wide == cold
        assert green_profile(self.P, self.XS, 1.1, 0.7, n_terms=600).tobytes() == small
        assert green_kernel._sines[1].shape == (self.XS.size - 2, 600)

    def test_other_params_get_their_own_sines(self):
        xs = np.linspace(0.1, 1.9, 13)  # interior points of both strips
        for l in (math.nextafter(self.P.l, 0.0), 2.0):
            q = dataclasses.replace(self.P, l=l)
            _forget_tables()
            cold = green_profile(q, xs, 1.1, 0.7, n_terms=60).tobytes()
            _forget_tables()
            green_profile(self.P, xs, 1.1, 0.7, n_terms=60)
            assert green_profile(q, xs, 1.1, 0.7, n_terms=60).tobytes() == cold


def _reference_plan(planner, p, t, tol, kind):
    """``planner``'s plan, or its TruncationError text, with the depth
    search replaced by plain doubling and bisection."""
    with mock.patch.object(green_kernel, "_search_depth", doubling_search):
        return _plan_or_error(planner, p, t, tol, kind)


def _plan_or_error(planner, p, t, tol, kind):
    try:
        return planner(p, t, tol, kind=kind)
    except TruncationError as exc:
        return str(exc)


class TestDepthSearch:
    @PROPERTY_SETTINGS
    @given(p=st.one_of(band_edge_params(), any_params), t=st.floats(0.01, 50.0),
           log_tol=st.floats(-14.0, -1.0), kind=st.sampled_from(KINDS),
           planner=st.sampled_from((plan_accelerated, plan_truncation)))
    def test_search_finds_the_doubling_depth(self, p, t, log_tol, kind, planner):
        tol = 10.0**log_tol
        assert _plan_or_error(planner, p, t, tol, kind) == \
            _reference_plan(planner, p, t, tol, kind)

    def test_every_start_finds_every_depth(self):
        # a step tail: every start at or below the depth (a start above
        # MODE_CAP counts as MODE_CAP), and depths at MODE_CAP
        cap = green_kernel.MODE_CAP
        depths = list(range(1, 70)) + [cap - 40, cap - 1, cap]
        starts = list(range(-1, 80)) + [cap - 70, cap - 33, cap - 1, cap, cap + 5]
        for depth in depths:
            tail = lambda n, depth=depth: 0.5 / n if n >= depth else 2.0
            for start in (s for s in starts if min(s, cap) <= depth):
                plan = green_kernel._search_depth(tail, 1.0, 1.0, "green", start)
                assert (plan.n_terms, plan.tail_bound) == (depth, 0.5 / depth), (depth, start)

    @PROPERTY_SETTINGS
    @given(p=st.one_of(band_edge_params(), any_params), t=st.floats(0.01, 50.0),
           log_tol=st.floats(-14.0, -1.0), kind=st.sampled_from(KINDS),
           planner=st.sampled_from((plan_accelerated, plan_truncation)))
    def test_start_and_floor_lie_at_or_below_the_depth(self, p, t, log_tol, kind, planner):
        # the search only steps up from its start, so the smallest certified
        # depth, found here by plain doubling, must not lie below it
        starts = []

        def doubling_from(tail, t, tol, kind, start):
            starts.append(start)
            return doubling_search(tail, t, tol, kind)

        with mock.patch.object(green_kernel, "_search_depth", doubling_from):
            planned = _plan_or_error(planner, p, t, 10.0**log_tol, kind)
        assume(not isinstance(planned, str))
        cls = classify_modes(p, green_kernel.CHAIN_K)
        assert planned.n_terms >= max(cls.nk, cls.n2_star, 2) - 1
        assert planned.n_terms >= starts[0]

    def test_draws_include_uncertifiable_tolerances(self):
        p = Params(epsilon=1.0, a=1.0, c=1.0, l=math.pi)
        for kind in ("green", "dt"):
            planned = _plan_or_error(plan_truncation, p, 1.0, 1e-10, kind)
            assert isinstance(planned, str) and "not certifiable" in planned
            assert planned == _reference_plan(plan_truncation, p, 1.0, 1e-10, kind)


# deepest plan whose dropped modes N+1..8N the tail test sums (an 80,000-mode
# table); band-edge sets with a small epsilon plan up to ~1e6 modes
CHECKED_DEPTH = 10_000


class TestCertifiedTails:
    """The bound a plan certifies covers the modes N+1..8N it drops."""

    @PROPERTY_SETTINGS
    @given(p=band_edge_params(), t=st.floats(0.05, 20.0), log_tol=st.floats(-10.0, -3.0),
           kind=st.sampled_from(KINDS))
    def test_tail_bound_dominates_deeper_sum(self, p, t, log_tol, kind):
        try:
            plan = plan_accelerated(p, t, 10.0**log_tol, kind=kind)
        except TruncationError:
            assume(False)
        n = plan.n_terms
        assume(n <= CHECKED_DEPTH)
        table = mode_table(p, 8 * n)
        values = {"green": kernel_values, "dt": kernel_dt_values, "flux": flux_values}[kind]
        asym = green_kernel._asymptote_factor(p, t, kind) / p.epsilon
        dropped = np.abs(values(table, t) - asym / table.gamma**2)[n:]
        assert 2.0 / p.l * np.sum(dropped) <= plan.tail_bound * (1.0 + 1e-9)
