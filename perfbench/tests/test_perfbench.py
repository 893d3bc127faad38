"""Tests of the benchmark itself: checks that can fail, exact traced counters,
determinism digests, run refusal and the BENCHMARK.json contract.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import run
import tracing
import workloads as w
from conftest import BENCH, ROOT
from strip_solver import nonlinear_solver
from strip_solver.fields import Field


def _traced(fn, *args):
    tracer = tracing.Tracer()
    with tracer.installed():
        out = tracer.wrap(fn, "unit")(*args, tracer)
    return out, tracer.totals()


def _counts(totals):
    return {name: (t.calls, t.elems, t.elems_max) for name, t in totals.items()}


def _shifted(fld, delta):
    return Field(fld.x_nodes, fld.t_nodes, fld.values + delta)


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def c6_exp_runs():
    """Unperturbed C6 first half, traced twice."""
    return [_traced(w.solve_exp_half, 0.25, 1.0) for _ in range(2)]


@pytest.fixture(scope="module")
def c7_bias_runs():
    """Unperturbed C7 at bias 0.5, traced twice."""
    def solve(amp, bias, tracer):
        return w.solve_sine_gordon(amp, bias)
    return [_traced(solve, 0.1, 0.5) for _ in range(2)]


@pytest.fixture(scope="module")
def green_unit():
    wl = w.WORKLOADS["green-series"]
    inp = wl.inputs(7, 0)
    out, _ = wl.solve(inp)
    return wl, inp, out


# ---------------------------------------------------------------- counter fidelity

def test_c6_exp_half_counts_are_exact_and_repeat(c6_exp_runs):
    (res1, first), (res2, second) = c6_exp_runs
    assert first["sources.f"].calls == 486_203
    assert first["linear_solver.solve"].elems == 80
    assert _counts(first) == _counts(second)
    assert w._digest([res1.field.values]) == w._digest([res2.field.values])


def test_c7_bias_half_counts_are_exact_and_repeat(c7_bias_runs):
    (run1, first), (run2, second) = c7_bias_runs
    for r in (run1, run2):
        assert r.report.iterations == 160
        assert len(r.report.window_traces) == 10
    assert first["nonlinear_solver.picard"].calls == 1
    metrics = tracing.unit_metrics(first, {"sweeps": 160, "windows": 10})
    # 100/0.02 coarse plus 100/0.01 fine oracle steps
    assert metrics["fd_oracle.steps"] == 15_000
    assert _counts(first) == _counts(second)
    fields = [[r.picard.values, r.coarse.values, r.fine.values] for r in (run1, run2)]
    assert w._digest(fields[0]) == w._digest(fields[1])


# ---------------------------------------------------------------- checks that can fail

def test_exp_half_check_accepts_solver_and_rejects_perturbed(c6_exp_runs):
    (res, _), _ = c6_exp_runs
    assert w.check_exp_half(res, 0.25, 1.0) == []
    bad_field = dataclasses.replace(res, field=_shifted(res.field, 10 * w.EXP_TOL))
    assert w.check_exp_half(bad_field, 0.25, 1.0)
    bad_rate = dataclasses.replace(res, rate=res.rate * 1.1)
    assert w.check_exp_half(bad_rate, 0.25, 1.0)


def test_exp_half_closed_form_matches_quadrature():
    from scipy.integrate import quad

    mu, t = 0.243, 7.5
    val, _ = quad(lambda s: math.exp(-mu * s) * (t - s) * math.exp(-(t - s)), 0.0, t,
                  epsabs=1e-14, epsrel=1e-13)
    exact = w.exp_half_exact(np.array([math.pi / 2]), [t], mu, 1.0)[0, 0]
    assert exact == pytest.approx(-val, abs=1e-14)


def test_alg_half_check_rejects_perturbed():
    t = w.ALG_TIMES
    ref = Field(w.C6_X, t, w.alg_half_reference(w.C6_X, t, 1.0))
    assert w.check_alg_half(w.AlgHalf(ref, True), 1.0) == []
    assert w.check_alg_half(w.AlgHalf(_shifted(ref, 10 * w.ALG_TOL), True), 1.0)
    assert w.check_alg_half(w.AlgHalf(ref, False), 1.0)


def test_sine_gordon_check_accepts_solver_and_rejects_perturbed(c7_bias_runs):
    (r, _), _ = c7_bias_runs
    assert w.check_sine_gordon(r) == []
    allowed = 2.0 * (4.0 / 3.0) * float(np.max(np.abs(r.coarse.values
                                                      - r.fine.values[::2, :]))) + 1e-8
    bad = dataclasses.replace(r, picard=_shifted(r.picard, 10 * allowed))
    assert w.check_sine_gordon(bad)
    stalled = dataclasses.replace(r, report=dataclasses.replace(r.report, converged=False))
    assert w.check_sine_gordon(stalled)


def test_green_check_accepts_solver_and_rejects_perturbed(green_unit):
    wl, inp, out = green_unit
    assert wl.check(inp, out) == []
    tol = w.GREEN_SETS[1][2]
    off = {k: v.copy() for k, v in out.items()}
    off["eq"][0, 0, 5] += 10 * tol
    assert wl.check(inp, off)
    # below the series tolerance but not symmetric
    asym = {k: v.copy() for k, v in out.items()}
    asym["less"][0, 1, inp.x_check[0]] += 1e-9
    problems = wl.check(inp, asym)
    assert problems and all("G(xi,x)" in p for p in problems)


def test_textbook_series_matches_high_precision_sum():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for p in (w.P_LESS, w.P_EQ, w.P_GTR):
        x, xi, t, n_terms = 0.7, 1.9, 0.8, 40
        for kind in w.GREEN_KINDS:
            total = mp.mpf(0)
            for n in range(1, n_terms + 1):
                g = n * mp.pi / p.l
                b, h = p.c * g, (p.a + p.epsilon * g**2) / 2
                w2 = h * h - b * b
                e = mp.e ** (-h * t)
                if w2 == 0:
                    hv, hd = t * e, e * (1 - h * t)
                elif w2 > 0:
                    om = mp.sqrt(w2)
                    hv = e * mp.sinh(om * t) / om
                    hd = e * (mp.cosh(om * t) - h / om * mp.sinh(om * t))
                else:
                    om = mp.sqrt(-w2)
                    hv = e * mp.sin(om * t) / om
                    hd = e * (mp.cos(om * t) - h / om * mp.sin(om * t))
                term = {"green": hv, "dt": hd, "flux": p.epsilon * hd + p.c**2 * hv}[kind]
                total += term * mp.sin(g * xi) * mp.sin(g * x)
            want = float(2 / mp.mpf(p.l) * total)
            got = w.textbook_series(p, [x], xi, t, kind, n_terms)[0]
            assert got == pytest.approx(want, abs=1e-13)


# ---------------------------------------------------------------- inputs and digests

@pytest.mark.parametrize("name", list(w.WORKLOADS))
def test_inputs_are_seeded_and_never_shared(name):
    wl = w.WORKLOADS[name]
    assert wl.inputs(3, 4) == wl.inputs(3, 4)
    seen = [wl.inputs(seed, i) for seed in (1, 2) for i in range(50)]
    assert len(set(seen)) == len(seen)


def test_same_seed_gives_identical_digests():
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", "green-series",
           "--seed", "11", "--seconds", "0", "--trace", "1"]
    records = []
    for _ in range(2):
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True,
                              timeout=170)
        lines = proc.stdout.strip().splitlines()
        assert json.loads(lines[-1])["failed"] == 0
        records.append(json.loads(lines[-2])["run_record"])
    assert records[0]["digests"] == records[1]["digests"]
    assert len(set(records[0]["digests"])) == len(records[0]["digests"]) == 2


# ---------------------------------------------------------------- tracer

def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()

    def leaf(x):
        time.sleep(0.01)
        return np.zeros(x)

    traced_leaf = tracer.wrap(leaf, "leaf", np.size)

    def outer():
        time.sleep(0.02)
        return traced_leaf(3), traced_leaf(4)

    tracer.wrap(outer, "outer")()
    tot = tracer.totals()
    assert tot["leaf"].calls == 2 and tot["leaf"].elems == 7 and tot["leaf"].elems_max == 4
    assert 0.015 <= tot["outer"].self_s < 0.1
    assert list(tracer.parent) == [-1, 0, 0]


def test_installed_wraps_and_restores():
    original = nonlinear_solver.fftconvolve
    tracer = tracing.Tracer()
    with tracer.installed():
        assert nonlinear_solver.fftconvolve is not original
    assert nonlinear_solver.fftconvolve is original


# ---------------------------------------------------------------- run contract

def test_refuses_when_numpy_was_imported_first():
    assert "numpy" in sys.modules
    assert run.main(["--workload", "sine-gordon", "--seed", "1"]) == 2


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "green-series",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [wl["name"] for wl in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(w.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"solve_s", "setup_s", "peak_rss_mb"}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER
