"""Command-line front end: run solvers and verifications, emit CSV.

Subcommands: modes, green, solve-linear, solve-nonlinear, oracle, verify,
decay-fit.  Every run writes a CSV with a self-describing ``# meta:``
header (parameters, mode counts, tolerances, solver version) so the run
can be reproduced.  Options may come from a flat ``key = value`` config
file (--config); command-line flags win over config values.

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


def _read_config(path) -> dict:
    try:
        raw = open(path).read()
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


def _apply_config(args, parser_keys: dict, config_path) -> None:
    if not config_path:
        return
    values = _read_config(config_path)
    unknown = sorted(set(values) - set(parser_keys))
    if unknown:
        raise UsageError(
            f"unknown config key(s) {', '.join(unknown)}; valid keys: "
            + ", ".join(sorted(parser_keys)))
    for key, text in values.items():
        if getattr(args, key) is not None:
            continue  # flags win
        caster = parser_keys[key]
        try:
            setattr(args, key, caster(text))
        except ValueError:
            raise UsageError(f"config key {key!r}: cannot parse {text!r}")


def _defaults(args, **pairs):
    for key, value in pairs.items():
        if getattr(args, key) is None:
            setattr(args, key, value)


def _params(args):
    from .modes import Params

    _defaults(args, epsilon=1.0, a=1.0, c=1.0, l=math.pi)
    return Params(epsilon=args.epsilon, a=args.a, c=args.c, l=args.l)


def _meta(p, **extra) -> dict:
    meta = {"version": __version__, "epsilon": p.epsilon, "a": p.a,
            "c": p.c, "l": p.l}
    meta.update(extra)
    return meta


def _add_param_flags(sp):
    sp.add_argument("--config", type=str)
    sp.add_argument("--epsilon", type=float)
    sp.add_argument("--a", type=float)
    sp.add_argument("--c", type=float)
    sp.add_argument("--l", type=float)
    sp.add_argument("--out", type=str)


def _add_data_flags(sp):
    sp.add_argument("--g0", type=str)
    sp.add_argument("--g0-scale", type=float)
    sp.add_argument("--g1", type=str)
    sp.add_argument("--g1-scale", type=float)
    sp.add_argument("--n-modes", type=int)


def _spectrum_from_name(name, scale, p, n_modes):
    import numpy as np

    from .profiles import make_profile
    from .spectrum import SineSpectrum, analyze

    if name is None or name == "zero" or scale == 0.0:
        return SineSpectrum(l=p.l, coeffs=np.zeros(n_modes))
    spec = analyze(make_profile(name, p.l), n_modes, l=p.l)
    return SineSpectrum(l=p.l, coeffs=scale * spec.coeffs)


def _source_flags(sp):
    sp.add_argument("--source", type=str,
                    choices=["zero", "sine-gordon", "exp", "algebraic", "linear"])
    sp.add_argument("--bias", type=float)
    sp.add_argument("--mu", type=float)
    sp.add_argument("--k0", type=float)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--f-profile", type=str)
    sp.add_argument("--f-scale", type=float)


def _build_source(args, p, n_modes):
    from . import sources
    from .profiles import make_profile
    from .spectrum import SineSpectrum, analyze

    _defaults(args, source="zero", bias=0.0, mu=0.25, k0=1.0, alpha=0.5,
              f_profile="sin_1", f_scale=1.0)
    kind = args.source
    if kind == "zero":
        return sources.ZeroSource()
    if kind == "sine-gordon":
        return sources.SineGordonSource(bias=args.bias)
    if kind == "exp":
        prof = make_profile(args.f_profile, p.l)
        scale = args.f_scale
        return sources.ExpDecayingSource(
            profile=lambda x: scale * prof(x), mu=args.mu)
    if kind == "algebraic":
        return sources.AlgebraicSource(h=abs(args.f_scale), k0=args.k0,
                                       alpha=args.alpha)
    if kind == "linear":
        base = analyze(make_profile(args.f_profile, p.l), n_modes, l=p.l)
        scale = args.f_scale

        def f(t):
            return SineSpectrum(l=p.l, coeffs=scale * base.coeffs)

        return sources.LinearSource(f)
    raise UsageError(f"unknown source kind {kind!r}")


def _field_rows(field):
    for i, x in enumerate(field.x_nodes):
        for j, t in enumerate(field.t_nodes):
            if field.values_dt is None:
                yield (x, t, field.values[i, j])
            else:
                yield (x, t, field.values[i, j], field.values_dt[i, j])


# ---------------------------------------------------------------- commands


def _cmd_modes(args):
    import numpy as np

    from .modes import classify_modes, mode_table

    p = _params(args)
    _defaults(args, n=8, k=0.5)
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
    import numpy as np

    from .green_kernel import green_profile

    p = _params(args)
    _defaults(args, xi=p.l / 2.0, t_min=0.1, t_max=5.0, nt=20, nx=21, tol=1e-5)
    if args.t_min <= 0:
        raise UsageError("t-min must be positive (the kernel series needs t > 0)")
    xs = np.linspace(0.0, p.l, args.nx)
    ts = np.linspace(args.t_min, args.t_max, args.nt)
    rows = []
    for t in ts:
        g = green_profile(p, xs, args.xi, t, kind="green", tol=args.tol)
        gt = green_profile(p, xs, args.xi, t, kind="dt", tol=args.tol)
        fl = green_profile(p, xs, args.xi, t, kind="flux", tol=args.tol)
        rows.extend((x, t, g[i], gt[i], fl[i]) for i, x in enumerate(xs))
    meta = _meta(p, xi=args.xi, tol=args.tol)
    _write_csv(args.out, meta, ["x", "t", "g", "g_t", "flux"], rows)
    return 0


def _grid(args, p):
    import numpy as np

    from .linear_solver import GridSpec

    _defaults(args, T=2.0, nx=33, nt=21, with_dt=False)
    return GridSpec(x_nodes=np.linspace(0.0, p.l, args.nx),
                    t_nodes=np.linspace(0.0, args.T, args.nt),
                    with_dt=bool(args.with_dt))


def _cmd_solve_linear(args):
    from .linear_solver import LinearProblem, QuadConfig, solve_linear
    from .sources import LinearSource

    p = _params(args)
    _defaults(args, n_modes=64, g0_scale=1.0, g1_scale=1.0, quad_tol=1e-9)
    grid = _grid(args, p)
    g0 = _spectrum_from_name(args.g0, args.g0_scale, p, args.n_modes)
    g1 = _spectrum_from_name(args.g1, args.g1_scale, p, args.n_modes)
    source = _build_source(args, p, args.n_modes)
    if not isinstance(source, LinearSource) and args.source not in (None, "zero"):
        raise UsageError("solve-linear accepts only source = zero or linear")
    f = source.f if isinstance(source, LinearSource) else None
    prob = LinearProblem(params=p, g0=g0, g1=g1, f=f, horizon=args.T)
    fld = solve_linear(prob, grid, quad=QuadConfig(tol=args.quad_tol))
    meta = _meta(p, n_modes=args.n_modes, T=args.T, quad_tol=args.quad_tol,
                 g0=args.g0 or "zero", g1=args.g1 or "zero",
                 source=args.source or "zero")
    header = ["x", "t", "u"] + (["u_t"] if grid.with_dt else [])
    _write_csv(args.out, meta, header, _field_rows(fld))
    return 0


def _cmd_solve_nonlinear(args):
    from .nonlinear_solver import NonlinearProblem, PicardConfig, picard_solve

    p = _params(args)
    _defaults(args, n_modes=32, g0_scale=1.0, g1_scale=1.0, T=10.0, tol=1e-8,
              max_iter=50, window=10.0, dt=0.01, nx=65)
    g0 = _spectrum_from_name(args.g0, args.g0_scale, p, args.n_modes)
    g1 = _spectrum_from_name(args.g1, args.g1_scale, p, args.n_modes)
    source = _build_source(args, p, args.n_modes)
    prob = NonlinearProblem(params=p, g0=g0, g1=g1, source=source, horizon=args.T)
    cfg = PicardConfig(tol=args.tol, max_iter=args.max_iter, nx=args.nx,
                       dt=args.dt, n_modes=args.n_modes, window=args.window)
    fld, report = picard_solve(prob, cfg)
    meta = _meta(p, n_modes=args.n_modes, T=args.T, tol=args.tol,
                 source=args.source or "zero", iterations=report.iterations,
                 converged=report.converged)
    _write_csv(args.out, meta, ["x", "t", "u"], _field_rows(fld))
    if not report.converged:
        print("fixed-point iteration did not converge", file=sys.stderr)
        return 2
    return 0


def _cmd_oracle(args):
    import numpy as np

    from .fd_oracle import OracleConfig, oracle_solve
    from .profiles import make_profile

    p = _params(args)
    _defaults(args, n_modes=64, g0_scale=1.0, g1_scale=1.0, T=2.0, nx=127,
              dt=0.005, theta=0.5, t_out_every=0.1)
    source = _build_source(args, p, args.n_modes)

    def data(name, scale):
        if name is None or name == "zero":
            return lambda x: np.zeros_like(np.asarray(x, dtype=float))
        prof = make_profile(name, p.l)
        return lambda x: scale * prof(x)

    cfg = OracleConfig(nx=args.nx, dt=args.dt, theta=args.theta)
    t_out = np.arange(0.0, args.T + 1e-12, args.t_out_every)
    fld = oracle_solve(p, data(args.g0, args.g0_scale), data(args.g1, args.g1_scale),
                       source, args.T, cfg, t_out=t_out)
    meta = _meta(p, nx=args.nx, dt=args.dt, theta=args.theta, T=args.T,
                 source=args.source or "zero")
    _write_csv(args.out, meta, ["x", "t", "u"], _field_rows(fld))
    return 0


def _cmd_verify(args):
    from .verification import verify_linear

    p = _params(args)
    _defaults(args, T=2.0, tolerance=5e-3, order_min=1.9)
    records = verify_linear(p, horizon=args.T)
    rows, ok = [], True
    finest = {}
    for rec in records:
        finest[rec.problem] = rec
        passed = rec.sup_diff <= args.tolerance and (
            math.isnan(rec.order) or rec.order >= args.order_min)
        ok &= passed
        rows.append((rec.problem, rec.nx, rec.dt, rec.sup_diff,
                     rec.order, "pass" if passed else "fail"))
    meta = _meta(p, T=args.T, tolerance=args.tolerance, order_min=args.order_min)
    _write_csv(args.out, meta, ["problem", "nx", "dt", "sup_diff", "order", "status"],
               rows)
    return 0 if ok else 2


def _parse_bool(text: str) -> bool:
    return text.strip().lower() in ("1", "true", "yes", "on")


def _cmd_decay_fit(args):
    from .asymptotics import algebraic_decay_check, decay_fit

    if args.input is None:
        raise UsageError("decay-fit requires --input CSV (from solve-linear/oracle)")
    ts, sups = _sup_series_from_csv(args.input)
    _defaults(args, window_lo=float(ts[0]), window_hi=float(ts[-1]))
    fit = decay_fit(ts, sups, window=(args.window_lo, args.window_hi))
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
        lines = [ln for ln in open(path).read().splitlines()
                 if ln and not ln.startswith("#")]
    except OSError as exc:
        raise UsageError(f"cannot read input CSV: {exc}")
    header = lines[0].split(",")
    try:
        t_col, u_col = header.index("t"), header.index("u")
    except ValueError:
        raise UsageError("input CSV must carry 't' and 'u' columns")
    sup = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        t, u = float(parts[t_col]), abs(float(parts[u_col]))
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
    subparsers = {}

    def add_parser(name, **kw):
        sp = sub.add_parser(name, **kw)
        subparsers[name] = sp
        return sp

    sp = add_parser("modes", help="dump per-mode quantities and classification")
    _add_param_flags(sp)
    sp.add_argument("--n", type=int)
    sp.add_argument("--k", type=float)

    sp = add_parser("green", help="evaluate G, G_t and the flux on a grid")
    _add_param_flags(sp)
    sp.add_argument("--xi", type=float)
    sp.add_argument("--t-min", type=float)
    sp.add_argument("--t-max", type=float)
    sp.add_argument("--nt", type=int)
    sp.add_argument("--nx", type=int)
    sp.add_argument("--tol", type=float)

    sp = add_parser("solve-linear", help="solve the linear strip problem")
    _add_param_flags(sp)
    _add_data_flags(sp)
    _source_flags(sp)
    sp.add_argument("--T", type=float)
    sp.add_argument("--nx", type=int)
    sp.add_argument("--nt", type=int)
    sp.add_argument("--with-dt", action="store_const", const=True)
    sp.add_argument("--quad-tol", type=float)

    sp = add_parser("solve-nonlinear", help="fixed-point solve with a source term")
    _add_param_flags(sp)
    _add_data_flags(sp)
    _source_flags(sp)
    sp.add_argument("--T", type=float)
    sp.add_argument("--tol", type=float)
    sp.add_argument("--max-iter", type=int)
    sp.add_argument("--window", type=float)
    sp.add_argument("--dt", type=float)
    sp.add_argument("--nx", type=int)

    sp = add_parser("oracle", help="finite-difference solve (verification path)")
    _add_param_flags(sp)
    _add_data_flags(sp)
    _source_flags(sp)
    sp.add_argument("--T", type=float)
    sp.add_argument("--nx", type=int)
    sp.add_argument("--dt", type=float)
    sp.add_argument("--theta", type=float)
    sp.add_argument("--t-out-every", type=float)

    sp = add_parser("verify", help="spectral-vs-oracle refinement report")
    _add_param_flags(sp)
    sp.add_argument("--T", type=float)
    sp.add_argument("--tolerance", type=float)
    sp.add_argument("--order-min", type=float)

    sp = add_parser("decay-fit", help="fit an exponential decay rate to a run")
    sp.add_argument("--config", type=str)
    sp.add_argument("--input", type=str)
    sp.add_argument("--out", type=str)
    sp.add_argument("--window-lo", type=float)
    sp.add_argument("--window-hi", type=float)
    sp.add_argument("--alpha", type=float)
    return parser, subparsers


def run(argv) -> int:
    parser, subparsers = _build_parser()
    try:
        args = parser.parse_args(argv)
        # config-value casters mirror the flag types of the chosen subcommand
        casters = {}
        for action in subparsers[args.command]._actions:
            if action.dest in ("help", "config", "command"):
                continue
            casters[action.dest] = action.type or _parse_bool
        _apply_config(args, casters, getattr(args, "config", None))
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
