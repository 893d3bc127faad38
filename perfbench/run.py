"""Strip-solver benchmark: run one workload for a fixed time, print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sine-gordon --seed 1 --seconds 38 --trace 0

Load model: a closed loop with one client.  Units (one validated solve each,
see ``workloads.py``) run back to back in this single-threaded process; the
run stops before a unit that would likely end after ``--seconds`` (judged by
the median wall time of the units so far), but always completes at least one
unit (two when traced).  Every unit gets fresh inputs derived from the seed
and its index.  Each unit's output is checked against a reference that does
not use the solver under test; a unit that raises or fails its check counts
as failed.

``--trace 0`` prints the end-to-end metrics: the median solve time per unit
(``solve_s``), the median set-up time of fresh processes that import the
library and generate the inputs (``setup_s``) and the peak resident memory
(``peak_rss_mb``).  ``--trace 1`` alternates untraced and traced units and
prints the per-layer metrics of ``tracing.PER_LAYER``, each the median over
the traced units, plus the tracing overhead; the spans themselves are written
to ``.perfbench-out/spans-<workload>.npz``.

The line before the final JSON result is a run record: versions, thread
caps, CPU count, git commit, seed, per-unit solve times and output digests.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
THREAD_VARS = ("STRIP_SOLVER_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("linear-decay", "sine-gordon", "green-series")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="import and generate inputs only, then print the monotonic clock")
    return ap.parse_args(argv)


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _os_threads():
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def _metadata(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS},
        "os_threads": _os_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _setup_seconds(args) -> float:
    """Median over fresh processes of: start -> library imported, inputs made."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              cwd=ROOT, timeout=PROBE_TIMEOUT_S)
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_unit(wl, inp, tracer):
    """Solve (timed) and check (untimed) one unit; returns its outcome record."""
    import tracing

    record = {"solve_s": None, "problems": [], "digest": None, "layers": None,
              "traced": tracer is not None}
    try:
        if tracer is None:
            t0 = time.perf_counter()
            out, facts = wl.solve(inp)
            record["solve_s"] = time.perf_counter() - t0
        else:
            with tracer.installed():
                t0 = time.perf_counter()
                out, facts = tracer.wrap(wl.solve, "unit")(inp, tracer)
                record["solve_s"] = time.perf_counter() - t0
            record["layers"] = tracing.unit_metrics(tracer.totals(), facts)
        record["digest"] = wl.digest(out)
        record["problems"] = wl.check(inp, out)
    except Exception as exc:  # a unit that raises is a failed unit, not a failed run
        record["problems"] = [f"{type(exc).__name__}: {exc}"]
    return record


def _median_solve_s(records, traced: bool) -> float:
    times = [r["solve_s"] for r in records if r["traced"] == traced and r["solve_s"] is not None]
    return statistics.median(times) if times else 0.0


def _layer_metrics(records) -> dict:
    """Median over the traced units of each per-layer metric, plus the overhead."""
    import tracing

    layers = [r["layers"] for r in records if r["layers"] is not None]
    untraced = _median_solve_s(records, traced=False)
    metrics = {}
    for name, (unit, _) in tracing.PER_LAYER.items():
        if name == "trace.overhead_frac":
            value = _median_solve_s(records, traced=True) / untraced - 1.0 if untraced else 0.0
        else:
            value = statistics.median(layer[name] for layer in layers) if layers else 0
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def _write_spans(workload: str, tracers) -> None:
    import numpy as np

    arrays, names = {}, []
    for u, tr in enumerate(tracers):
        names.append(tr.names)
        for key, arr in tr.arrays().items():
            arrays[f"unit{u}_{key}"] = arr
    OUT_DIR.mkdir(exist_ok=True)
    np.savez(OUT_DIR / f"spans-{workload}.npz", names=json.dumps(names), **arrays)


def main(argv=None) -> int:
    args = _parse(argv)
    if "numpy" in sys.modules:
        print("error: numpy was imported before the thread caps were set", file=sys.stderr)
        return 2
    os.environ.update({v: "1" for v in THREAD_VARS})
    if not (SRC / "strip_solver" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        wl.inputs(args.seed, 0)
        print(repr(time.monotonic()))
        return 0
    setup_s = None if args.trace else _setup_seconds(args)

    records, tracers, unit_walls = [], [], []
    start = time.perf_counter()
    while True:
        index = len(records)
        traced = bool(args.trace) and index % 2 == 1
        tracer = tracing.Tracer() if traced else None
        t0 = time.perf_counter()
        records.append(_run_unit(wl, wl.inputs(args.seed, index), tracer))
        unit_walls.append(time.perf_counter() - t0)
        if tracer is not None:
            tracers.append(tracer)
        # stop before a unit that would likely end after the deadline
        next_end = time.perf_counter() - start + statistics.median(unit_walls)
        if next_end > args.seconds and len(records) >= (2 if args.trace else 1):
            break

    failed = sum(1 for r in records if r["problems"])
    if args.trace:
        metrics = _layer_metrics(records)
        _write_spans(args.workload, tracers)
    else:
        metrics = {
            "solve_s": {"value": _median_solve_s(records, traced=False), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
        }

    run_record = dict(_metadata(args.seed), workload=args.workload, trace=args.trace,
                      units=len(records),
                      unit_solve_s=[r["solve_s"] for r in records],
                      unit_traced=[r["traced"] for r in records],
                      digests=[r["digest"] for r in records],
                      problems=[p for r in records for p in r["problems"]])
    print(json.dumps({"run_record": run_record}))
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
