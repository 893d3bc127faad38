"""Span recorder for the benchmark's traced runs.

Tracing works from outside the library: ``Tracer.installed`` replaces the
module attributes through which each layer's callers reach the next layer
(for example ``linear_solver.kernel_values`` or ``fd_oracle.cho_solve_banded``)
with wrappers that record a span per call, and restores them afterwards.  A
span holds its name, the index of the span open when it started (its
parent), start and end times and a work count taken from the call's result.
Spans stay in memory; a layer's self time is its spans' durations minus the
time covered by their direct child spans.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from strip_solver import fd_oracle, green_kernel, linear_solver, nonlinear_solver, spectrum


def _n_terms(plan) -> int:
    return plan.n_terms


def _n_times(fld) -> int:
    return fld.t_nodes.size


# (module, attribute looked up by the layer's callers, span name, work count
# of a result).  Kernel, DST and FFT counts are elements of the result array.
WRAPPED = (
    (linear_solver, "solve_linear", "linear_solver.solve", _n_times),
    (linear_solver, "kernel_values", "modes.kernel", np.size),
    (linear_solver, "kernel_dt_values", "modes.kernel", np.size),
    (nonlinear_solver, "kernel_values", "modes.kernel", np.size),
    (nonlinear_solver, "kernel_dt_values", "modes.kernel", np.size),
    (green_kernel, "kernel_values", "modes.kernel", np.size),
    (green_kernel, "kernel_dt_values", "modes.kernel", np.size),
    (green_kernel, "flux_values", "modes.kernel", np.size),
    (green_kernel, "mode_table", "modes.table", None),
    (nonlinear_solver, "dst", "spectrum.dst", np.size),
    (spectrum, "dst", "spectrum.dst", np.size),
    (fd_oracle, "evaluate_source", "sources.eval", None),
    (nonlinear_solver, "picard_solve", "nonlinear_solver.picard", None),
    (nonlinear_solver, "volterra_convolve", "nonlinear_solver.volterra", None),
    (nonlinear_solver, "fftconvolve", "nonlinear_solver.fft", np.size),
    (green_kernel, "green_profile", "green_kernel.profile", None),
    (green_kernel, "plan_truncation", "green_kernel.plan", _n_terms),
    (fd_oracle, "oracle_solve", "fd_oracle.solve", None),
    (fd_oracle, "cho_solve_banded", "fd_oracle.inner_solve", None),
)

# name -> (unit, better); the order is the order of the printed metrics
PER_LAYER = {
    "modes.kernel_calls": ("count", "lower"),
    "modes.kernel_elems": ("count", "lower"),
    "modes.kernel_s": ("s", "lower"),
    "modes.kernel_ns_per_elem": ("ns", "lower"),
    "modes.table_calls": ("count", "lower"),
    "modes.table_s": ("s", "lower"),
    "spectrum.dst_calls": ("count", "lower"),
    "spectrum.dst_elems": ("count", "lower"),
    "spectrum.dst_s": ("s", "lower"),
    "sources.f_calls": ("count", "lower"),
    "sources.f_s": ("s", "lower"),
    "sources.eval_calls": ("count", "lower"),
    "linear_solver.self_s": ("s", "lower"),
    "linear_solver.f_calls_per_output": ("calls/output", "lower"),
    "nonlinear_solver.sweeps": ("count", "lower"),
    "nonlinear_solver.windows": ("count", "lower"),
    "nonlinear_solver.sweeps_per_window": ("sweeps/window", "lower"),
    "nonlinear_solver.volterra_calls": ("count", "lower"),
    "nonlinear_solver.volterra_s": ("s", "lower"),
    "nonlinear_solver.fft_calls": ("count", "lower"),
    "nonlinear_solver.fft_elems": ("count", "lower"),
    "nonlinear_solver.fft_s": ("s", "lower"),
    "nonlinear_solver.self_s": ("s", "lower"),
    "green_kernel.plan_calls": ("count", "lower"),
    "green_kernel.plan_s": ("s", "lower"),
    "green_kernel.n_terms_sum": ("count", "lower"),
    "green_kernel.n_terms_max": ("count", "lower"),
    "green_kernel.self_s": ("s", "lower"),
    "fd_oracle.steps": ("count", "lower"),
    "fd_oracle.inner_solves": ("count", "lower"),
    "fd_oracle.solves_per_step": ("solves/step", "lower"),
    "fd_oracle.self_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


@dataclass(frozen=True)
class SpanTotals:
    """Aggregate of all spans of one name."""

    calls: int = 0
    elems: int = 0
    elems_max: int = 0
    self_s: float = 0.0


class Tracer:
    """In-memory span log of one traced unit."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.elems = array("q")
        self._open = [-1]

    def wrap(self, fn, name: str, elems_of=None):
        """``fn`` recording one span per call under ``name``."""
        kid = self._ids.setdefault(name, len(self._ids))
        if kid == len(self.names):
            self.names.append(name)
        kind, parent, start, end, elems, open_ = (
            self.kind, self.parent, self.start, self.end, self.elems, self._open)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(kind)
            kind.append(kid)
            parent.append(open_[-1])
            start.append(0.0)
            end.append(0.0)
            elems.append(0)
            open_.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                open_.pop()
            start[i] = t0
            if elems_of is not None:
                elems[i] = int(elems_of(result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every attribute in ``WRAPPED`` for the duration of the block."""
        saved = []
        try:
            for module, attr, name, elems_of in WRAPPED:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, elems_of))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def arrays(self) -> dict:
        """The span log as numpy arrays, for writing out."""
        return {"kind": np.array(self.kind, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int64),
                "start": np.array(self.start), "end": np.array(self.end),
                "elems": np.array(self.elems, dtype=np.int64)}

    def totals(self) -> dict[str, SpanTotals]:
        """Calls, work counts and self time per span name."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        covered = np.bincount(a["parent"][nested], weights=dur[nested], minlength=dur.size)
        own = dur - covered
        out = {}
        for kid, name in enumerate(self.names):
            m = a["kind"] == kid
            el = a["elems"][m]
            out[name] = SpanTotals(calls=int(m.sum()), elems=int(el.sum()),
                                   elems_max=int(el.max(initial=0)),
                                   self_s=float(own[m].sum()))
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def unit_metrics(totals: dict[str, SpanTotals], facts: dict) -> dict:
    """Per-layer metrics of one traced unit; layers it never entered read 0.

    ``facts`` carries the sweep and window counts that the workload read from
    the returned PicardReport.
    """
    def get(name):
        return totals.get(name, SpanTotals())

    kern, table, dst = get("modes.kernel"), get("modes.table"), get("spectrum.dst")
    f, ev, solve = get("sources.f"), get("sources.eval"), get("linear_solver.solve")
    vol, fft, pic = (get("nonlinear_solver.volterra"), get("nonlinear_solver.fft"),
                     get("nonlinear_solver.picard"))
    plan, prof = get("green_kernel.plan"), get("green_kernel.profile")
    ora, inner = get("fd_oracle.solve"), get("fd_oracle.inner_solve")
    sweeps, windows = facts.get("sweeps", 0), facts.get("windows", 0)
    # each oracle step evaluates the source once at the old time and once per
    # inner iteration, and every inner iteration ends in one banded solve
    steps = ev.calls - inner.calls
    return {
        "modes.kernel_calls": kern.calls,
        "modes.kernel_elems": kern.elems,
        "modes.kernel_s": kern.self_s,
        "modes.kernel_ns_per_elem": 1e9 * _ratio(kern.self_s, kern.elems),
        "modes.table_calls": table.calls,
        "modes.table_s": table.self_s,
        "spectrum.dst_calls": dst.calls,
        "spectrum.dst_elems": dst.elems,
        "spectrum.dst_s": dst.self_s,
        "sources.f_calls": f.calls,
        "sources.f_s": f.self_s,
        "sources.eval_calls": ev.calls,
        "linear_solver.self_s": solve.self_s,
        "linear_solver.f_calls_per_output": _ratio(f.calls, solve.elems),
        "nonlinear_solver.sweeps": sweeps,
        "nonlinear_solver.windows": windows,
        "nonlinear_solver.sweeps_per_window": _ratio(sweeps, windows),
        "nonlinear_solver.volterra_calls": vol.calls,
        "nonlinear_solver.volterra_s": vol.self_s,
        "nonlinear_solver.fft_calls": fft.calls,
        "nonlinear_solver.fft_elems": fft.elems,
        "nonlinear_solver.fft_s": fft.self_s,
        "nonlinear_solver.self_s": pic.self_s,
        "green_kernel.plan_calls": plan.calls,
        "green_kernel.plan_s": plan.self_s,
        "green_kernel.n_terms_sum": plan.elems,
        "green_kernel.n_terms_max": plan.elems_max,
        "green_kernel.self_s": prof.self_s,
        "fd_oracle.steps": steps,
        "fd_oracle.inner_solves": inner.calls,
        "fd_oracle.solves_per_step": _ratio(inner.calls, steps),
        "fd_oracle.self_s": ora.self_s,
    }
