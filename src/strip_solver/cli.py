"""Command-line front end: run solvers and verifications, emit CSV.

Subcommands: modes, green, solve-linear, solve-nonlinear, oracle, verify,
decay-fit.  Every run writes a CSV with a self-describing ``# meta:``
header (parameters, mode counts, tolerances, solver version) so the run
can be reproduced.  Each subcommand's options are one table
``key -> (type, default)`` in ``_OPTIONS``: it builds the parser, casts the
values of a flat ``key = value`` config file (--config; keys are the flag
names with ``_`` for ``-``) and fills each option from its flag, else its
config value, else its default.  A default of None leaves the value to the
command or to the library config (PicardConfig, OracleConfig, QuadConfig),
which keeps its own defaults.

Exit codes: 0 success, 1 usage error, 2 numerical failure.  The optional
environment variable STRIP_SOLVER_THREADS caps BLAS/FFT threads for
reproducible timings; it is read before the numerical stack is imported.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__


class UsageError(Exception):
    pass


# most output times the oracle command writes: T / t_out_every + 1
MAX_OUTPUT_TIMES = 10**6


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _cap_threads():
    cap = os.environ.get("STRIP_SOLVER_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, cap)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path, meta: dict, header: list, rows) -> None:
    lines = ["# meta: " + " ".join(f"{k}={_fmt(v)}" for k, v in meta.items())]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ----------------------------------------------------------------- options


def _flag(text: str) -> bool:
    """Config value of an on/off flag (the flag itself only switches on)."""
    value = text.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _choice(*kinds):
    """Cast of an option whose value is one of ``kinds``."""
    def cast(text: str) -> str:
        if text not in kinds:
            raise argparse.ArgumentTypeError(
                f"invalid choice: {text!r} (choose from {', '.join(kinds)})")
        return text

    return cast


_PARAMS = {"epsilon": (float, 1.0), "a": (float, 1.0), "c": (float, 1.0),
           "l": (float, math.pi), "out": (str, None)}
_DATA = {"g0": (str, None), "g0_scale": (float, 1.0), "g1": (str, None),
         "g1_scale": (float, 1.0)}
_F_PROFILE = {"f_profile": (str, "sin_1"), "f_scale": (float, 1.0)}
_SOURCE = {"source": (_choice("zero", "sine-gordon", "exp", "algebraic", "linear"), "zero"),
           "bias": (float, 0.0), "mu": (float, 0.25), "k0": (float, 1.0),
           "alpha": (float, 0.5), **_F_PROFILE}
# the source settings each source kind reads; oracle's n_modes only sets the
# number of sine modes of a linear source's spectrum
_SOURCE_READS = {"zero": (), "sine-gordon": ("bias",), "exp": ("f_profile", "f_scale", "mu"),
                 "algebraic": ("f_scale", "k0", "alpha"), "linear": ("f_profile", "f_scale")}

_OPTIONS = {
    "modes": {**_PARAMS, "n": (int, 8), "k": (float, 0.5)},
    "green": {**_PARAMS, "xi": (float, None), "t_min": (float, 0.1),
              "t_max": (float, 5.0), "nt": (int, 20), "nx": (int, 21), "tol": (float, 1e-5)},
    "solve-linear": {**_PARAMS, **_DATA, "source": (_choice("zero", "linear"), "zero"),
                     **_F_PROFILE, "n_modes": (int, 64), "T": (float, 2.0),
                     "nx": (int, 33), "nt": (int, 21), "with_dt": (_flag, False),
                     "quad_tol": (float, None)},
    "solve-nonlinear": {**_PARAMS, **_DATA, **_SOURCE, "n_modes": (int, None),
                        "T": (float, 10.0), "tol": (float, None), "max_iter": (int, None),
                        "window": (float, None), "dt": (float, None), "nx": (int, None)},
    "oracle": {**_PARAMS, **_DATA, **_SOURCE, "n_modes": (int, 64), "T": (float, 2.0),
               "nx": (int, None), "dt": (float, None), "theta": (float, None),
               "t_out_every": (float, 0.1)},
    "verify": {**_PARAMS, "T": (float, 2.0), "tolerance": (float, 5e-3),
               "order_min": (float, 1.9)},
    "decay-fit": {"input": (str, None), "out": (str, None), "window_lo": (float, None),
                  "window_hi": (float, None), "alpha": (float, None)},
}


def _read_config(path) -> dict:
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    values = {}
    for lineno, line in enumerate(raw.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = value
    return values


def _fill(args, options: dict) -> None:
    """Give every option without a flag its config value, else its default.

    ``args.given`` records the options that a flag or config value set.
    """
    config = _read_config(args.config) if args.config else {}
    unknown = sorted(set(config) - set(options))
    if unknown:
        raise UsageError(
            f"unknown config key(s) {', '.join(unknown)}; valid keys: "
            + ", ".join(sorted(options)))
    args.given = {key for key in options if getattr(args, key) is not None or key in config}
    for key, (cast, default) in options.items():
        if getattr(args, key) is not None:
            continue  # flags win
        try:
            setattr(args, key, cast(config[key]) if key in config else default)
        except (ValueError, argparse.ArgumentTypeError):
            raise UsageError(f"config key {key!r}: cannot parse {config[key]!r}")


def _given(args, *keys) -> dict:
    """The named options that a flag or config value set, for a library config."""
    return {key: getattr(args, key) for key in keys if key in args.given}


def _params(args):
    from .modes import Params

    return Params(epsilon=args.epsilon, a=args.a, c=args.c, l=args.l)


def _meta(p, **extra) -> dict:
    meta = {"version": __version__, "epsilon": p.epsilon, "a": p.a,
            "c": p.c, "l": p.l}
    meta.update(extra)
    return meta


def _profile(name, scale, p, n_modes=None):
    """``scale`` times the named profile on [0, l]: its first ``n_modes``
    sine coefficients when ``n_modes`` is given, else a callable.  No name,
    "zero" or a zero scale give zero data."""
    import numpy as np

    from .profiles import make_profile
    from .spectrum import SineSpectrum, analyze

    zero = name is None or name == "zero" or scale == 0.0
    if n_modes is not None:
        coeffs = (np.zeros(n_modes) if zero
                  else scale * analyze(make_profile(name, p.l), n_modes, l=p.l).coeffs)
        return SineSpectrum(l=p.l, coeffs=coeffs)
    if zero:
        return lambda x: np.zeros_like(np.asarray(x, dtype=float))
    prof = make_profile(name, p.l)
    return lambda x: scale * prof(x)


def _build_source(args, p, n_modes):
    """The source of ``args.source``; a given source setting that this kind
    does not read is a usage error."""
    from . import sources

    kind = args.source
    settings = set().union(*_SOURCE_READS.values())
    reads = set(_SOURCE_READS[kind])
    if args.command == "oracle":
        settings.add("n_modes")
        if kind == "linear":
            reads.add("n_modes")
    ignored = sorted((settings - reads) & args.given)
    if ignored:
        raise UsageError(f"source {kind!r} does not read the setting(s) {', '.join(ignored)}")
    if kind == "zero":
        return sources.ZeroSource()
    if kind == "sine-gordon":
        return sources.SineGordonSource(bias=args.bias)
    if kind == "exp":
        return sources.ExpDecayingSource(
            profile=_profile(args.f_profile, args.f_scale, p), mu=args.mu)
    if kind == "algebraic":
        return sources.AlgebraicSource(h=abs(args.f_scale), k0=args.k0,
                                       alpha=args.alpha)
    spectrum = _profile(args.f_profile, args.f_scale, p, n_modes)  # kind == "linear"
    return sources.LinearSource(lambda t: spectrum)


def _field_rows(field):
    for i, x in enumerate(field.x_nodes):
        for j, t in enumerate(field.t_nodes):
            if field.values_dt is None:
                yield (x, t, field.values[i, j])
            else:
                yield (x, t, field.values[i, j], field.values_dt[i, j])


# ---------------------------------------------------------------- commands


def _cmd_modes(args):
    """dump per-mode quantities and classification"""
    import numpy as np

    from .modes import classify_modes, mode_table

    p = _params(args)
    cls = classify_modes(p, args.k)
    m = mode_table(p, args.n)
    regime = np.where(m.crit, "Critical", np.where(m.osc, "Oscillatory", "Overdamped"))
    rows = zip(m.n.astype(int).tolist(), m.gamma.tolist(), m.b.tolist(), m.h.tolist(),
               m.omega.tolist(), regime.tolist())
    meta = _meta(p, n=args.n, k=args.k, n1_star=cls.n1_star,
                 n2_star=cls.n2_star, nk=cls.nk)
    _write_csv(args.out, meta, ["n", "gamma", "b", "h", "omega", "regime"], rows)
    return 0


def _cmd_green(args):
    """evaluate G, G_t and the flux on a grid"""
    import numpy as np

    from .green_kernel import green_profile

    p = _params(args)
    xi = p.l / 2.0 if args.xi is None else args.xi
    if args.t_min <= 0:
        raise UsageError("t-min must be positive (the kernel series needs t > 0)")
    if args.nt < 1 or args.nx < 1:
        raise UsageError(f"nt and nx must be at least 1, got {args.nt} and {args.nx}")
    xs = np.linspace(0.0, p.l, args.nx)
    ts = np.linspace(args.t_min, args.t_max, args.nt)
    rows = []
    for t in ts:
        g = green_profile(p, xs, xi, t, kind="green", tol=args.tol)
        gt = green_profile(p, xs, xi, t, kind="dt", tol=args.tol)
        fl = green_profile(p, xs, xi, t, kind="flux", tol=args.tol)
        rows.extend((x, t, g[i], gt[i], fl[i]) for i, x in enumerate(xs))
    meta = _meta(p, xi=xi, tol=args.tol)
    _write_csv(args.out, meta, ["x", "t", "g", "g_t", "flux"], rows)
    return 0


def _cmd_solve_linear(args):
    """solve the linear strip problem"""
    import numpy as np

    from .linear_solver import GridSpec, LinearProblem, QuadConfig, solve_linear

    p = _params(args)
    if not (math.isfinite(args.T) and args.T > 0):
        raise UsageError(f"horizon T must be positive and finite, got {args.T}")
    grid = GridSpec(x_nodes=np.linspace(0.0, p.l, args.nx),
                    t_nodes=np.linspace(0.0, args.T, args.nt), with_dt=args.with_dt)
    g0 = _profile(args.g0, args.g0_scale, p, args.n_modes)
    g1 = _profile(args.g1, args.g1_scale, p, args.n_modes)
    source = _build_source(args, p, args.n_modes)
    f = source.f if args.source == "linear" else None
    prob = LinearProblem(params=p, g0=g0, g1=g1, f=f, horizon=args.T)
    quad = QuadConfig() if args.quad_tol is None else QuadConfig(tol=args.quad_tol)
    fld = solve_linear(prob, grid, quad=quad)
    meta = _meta(p, n_modes=args.n_modes, T=args.T, quad_tol=quad.tol,
                 g0=args.g0 or "zero", g1=args.g1 or "zero", source=args.source)
    header = ["x", "t", "u"] + (["u_t"] if grid.with_dt else [])
    _write_csv(args.out, meta, header, _field_rows(fld))
    return 0


def _cmd_solve_nonlinear(args):
    """fixed-point solve with a source term"""
    from .nonlinear_solver import NonlinearProblem, PicardConfig, picard_solve

    p = _params(args)
    cfg = PicardConfig(**_given(args, "tol", "max_iter", "nx", "dt", "n_modes", "window"))
    g0 = _profile(args.g0, args.g0_scale, p, cfg.n_modes)
    g1 = _profile(args.g1, args.g1_scale, p, cfg.n_modes)
    source = _build_source(args, p, cfg.n_modes)
    prob = NonlinearProblem(params=p, g0=g0, g1=g1, source=source, horizon=args.T)
    fld, report = picard_solve(prob, cfg)
    meta = _meta(p, n_modes=cfg.n_modes, T=args.T, tol=cfg.tol, source=args.source,
                 iterations=report.iterations, converged=report.converged)
    _write_csv(args.out, meta, ["x", "t", "u"], _field_rows(fld))
    if not report.converged:
        print("fixed-point iteration did not converge", file=sys.stderr)
        return 2
    return 0


def _cmd_oracle(args):
    """finite-difference solve (verification path)"""
    import numpy as np

    from .fd_oracle import OracleConfig, oracle_solve

    p = _params(args)
    if not (math.isfinite(args.T) and args.T > 0):
        raise UsageError(f"horizon T must be positive and finite, got {args.T}")
    if not (math.isfinite(args.t_out_every) and args.t_out_every > 0):
        raise UsageError(f"t-out-every must be positive and finite, got {args.t_out_every}")
    if args.T / args.t_out_every >= MAX_OUTPUT_TIMES:
        raise UsageError(f"--T / --t-out-every = {args.T / args.t_out_every:.3g} asks for more "
                         f"than {MAX_OUTPUT_TIMES} output times")
    source = _build_source(args, p, args.n_modes)
    cfg = OracleConfig(**_given(args, "nx", "dt", "theta"))
    t_out = np.arange(0.0, args.T + 1e-12, args.t_out_every)
    fld = oracle_solve(p, _profile(args.g0, args.g0_scale, p),
                       _profile(args.g1, args.g1_scale, p), source, args.T, cfg, t_out=t_out)
    meta = _meta(p, nx=cfg.nx, dt=cfg.dt, theta=cfg.theta, T=args.T, source=args.source)
    _write_csv(args.out, meta, ["x", "t", "u"], _field_rows(fld))
    return 0


def _cmd_verify(args):
    """spectral-vs-oracle refinement report"""
    from .verification import verify_linear

    p = _params(args)
    records = verify_linear(p, horizon=args.T)
    rows, ok = [], True
    for rec in records:
        passed = rec.sup_diff <= args.tolerance and (
            math.isnan(rec.order) or rec.order >= args.order_min)
        ok &= passed
        rows.append((rec.problem, rec.nx, rec.dt, rec.sup_diff,
                     rec.order, "pass" if passed else "fail"))
    meta = _meta(p, T=args.T, tolerance=args.tolerance, order_min=args.order_min)
    _write_csv(args.out, meta, ["problem", "nx", "dt", "sup_diff", "order", "status"],
               rows)
    return 0 if ok else 2


def _cmd_decay_fit(args):
    """fit an exponential decay rate to a run"""
    from .asymptotics import algebraic_decay_check, decay_fit

    if args.input is None:
        raise UsageError("decay-fit requires --input CSV (from solve-linear/oracle)")
    ts, sups = _sup_series_from_csv(args.input)
    lo = float(ts[0]) if args.window_lo is None else args.window_lo
    hi = float(ts[-1]) if args.window_hi is None else args.window_hi
    fit = decay_fit(ts, sups, window=(lo, hi))
    meta = {"version": __version__, "input": args.input}
    header = ["rate", "log_amplitude", "max_residual", "t_lo", "t_hi"]
    row = [fit.rate, fit.log_amplitude, fit.max_residual, fit.window[0], fit.window[1]]
    if args.alpha is not None:
        bounded, sup_prod = algebraic_decay_check(ts, sups, args.alpha)
        header += ["alg_bounded", "alg_sup_product"]
        row += [bounded, sup_prod]
    _write_csv(args.out, meta, header, [tuple(row)])
    return 0


def _sup_series_from_csv(path):
    import numpy as np

    try:
        with open(path) as fh:
            lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    except OSError as exc:
        raise UsageError(f"cannot read input CSV: {exc}")
    if len(lines) < 2:
        raise UsageError(f"input CSV {path} has no data rows")
    header = lines[0].split(",")
    try:
        t_col, u_col = header.index("t"), header.index("u")
    except ValueError:
        raise UsageError("input CSV must carry 't' and 'u' columns")
    sup = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        try:
            t, u = float(parts[t_col]), abs(float(parts[u_col]))
        except (IndexError, ValueError):
            raise UsageError(f"input CSV row {ln!r} lacks a numeric t or u")
        if not (math.isfinite(t) and math.isfinite(u)):
            raise UsageError(f"input CSV row {ln!r} has a non-finite t or u")
        sup[t] = max(sup.get(t, 0.0), u)
    ts = np.array(sorted(sup))
    return ts, np.array([sup[t] for t in ts])


_COMMANDS = {
    "modes": _cmd_modes,
    "green": _cmd_green,
    "solve-linear": _cmd_solve_linear,
    "solve-nonlinear": _cmd_solve_nonlinear,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
    "decay-fit": _cmd_decay_fit,
}


def _build_parser():
    parser = _Parser(prog="strip-solver",
                     description="Spectral solver for the dissipative strip equation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, options in _OPTIONS.items():
        sp = sub.add_parser(name, help=_COMMANDS[name].__doc__)
        sp.add_argument("--config", type=str)
        for key, (cast, _) in options.items():
            flag = "--" + key.replace("_", "-")
            if cast is _flag:
                sp.add_argument(flag, action="store_const", const=True)
            else:
                sp.add_argument(flag, type=cast)
    return parser


def run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _fill(args, _OPTIONS[args.command])
        return _COMMANDS[args.command](args)
    except Exception as exc:
        if _is_usage_error(exc):
            print(f"usage error: {exc}", file=sys.stderr)
            return 1
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _is_usage_error(exc: Exception) -> bool:
    """Bad input (exit 1) as opposed to a numerical failure (exit 2).

    numpy's LinAlgError subclasses ValueError, but it reports a failed
    factorisation, not bad input.  numpy is loaded whenever one was raised.
    """
    linalg = sys.modules.get("numpy.linalg")
    if linalg is not None and isinstance(exc, linalg.LinAlgError):
        return False
    return isinstance(exc, (UsageError, ValueError, TypeError))


def main() -> int:
    _cap_threads()
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
