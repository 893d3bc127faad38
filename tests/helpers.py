"""Shared verification helpers: independent brute-force sums and stencils."""

import os
import pathlib
import subprocess
import sys

import mpmath as mp
import numpy as np
from scipy.fft import dst
from scipy.linalg import cho_solve_banded, cholesky_banded

from strip_solver.errors import TruncationError
from strip_solver.green_kernel import MODE_CAP, TruncationPlan, green_profile, plan_truncation
from strip_solver.modes import kernel_dt_values, kernel_values, mode_table, propagate_state
from strip_solver.nonlinear_solver import step_weights, volterra_convolve
from strip_solver.sources import depends_on_u, evaluate_source


def run_fresh(script: str, **env) -> str:
    """Standard output of ``script`` run in a fresh interpreter on this checkout.

    ``env`` adds to the child's environment; pytest's pythonpath setting
    does not reach child interpreters, so ``src`` goes on its PYTHONPATH.
    """
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=240, env=dict(os.environ, **env, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def _textbook_kernels(eps, a, c, g, t):
    """H_n(t) and H_n'(t) of wavenumber g from the textbook sinh/sin
    quotients, at the current mpmath precision."""
    b = c * g
    h = (a + eps * g**2) / 2
    w2 = h * h - b * b
    w = mp.sqrt(abs(w2))
    e = mp.exp(-h * t)
    if w2 == 0:
        return t * e, e * (1 - h * t)
    if w2 > 0:
        return e * mp.sinh(w * t) / w, e * (mp.cosh(w * t) - (h / w) * mp.sinh(w * t))
    return e * mp.sin(w * t) / w, e * (mp.cos(w * t) - (h / w) * mp.sin(w * t))


def brute_green(p, x, xi, t, n_terms=4000, kind="green"):
    """Naive high-precision partial sum of the kernel series.

    Evaluates the textbook formulas (sinh/sin quotients) directly in
    arbitrary precision, with none of the solver's stabilised forms, so it
    is an independent oracle.  Truncation error of the partial sum itself
    is roughly (2/l)*exp(-slow_rate*t)/n_terms.
    """
    mp.mp.dps = 30
    total = mp.mpf(0)
    l = mp.mpf(p.l)
    for n in range(1, n_terms + 1):
        g = n * mp.pi / l
        hv, hd = _textbook_kernels(p.epsilon, p.a, p.c, g, t)
        term = {"green": hv, "dt": hd, "flux": p.epsilon * hd + p.c**2 * hv}[kind]
        total += term * mp.sin(g * xi) * mp.sin(g * x)
    return float(2 / l * total)


def kummer_reference(p, x, xi, t, n_terms):
    """G and G_t at one point from 60-digit textbook terms, in Kummer form.

    Each textbook kernel (``_textbook_kernels``) minus its
    asymptote e^(-lam t)/(eps g^2) (times -lam for G_t, lam = c^2/eps) is
    summed over n_terms modes, and the asymptote's series is added back as
    e^(-lam t)/eps * min(x, xi)*(l - max(x, xi))/l.  No solver code is
    used.  Returns {"green": G, "dt": G_t}.
    """
    with mp.workdps(60):
        eps, a, c, l, t, x, xi = (mp.mpf(v) for v in (p.epsilon, p.a, p.c, p.l, t, x, xi))
        lam = c**2 / eps
        decay = mp.exp(-lam * t) / eps
        head = {"green": mp.mpf(0), "dt": mp.mpf(0)}
        for n in range(1, n_terms + 1):
            g = n * mp.pi / l
            hv, hd = _textbook_kernels(eps, a, c, g, t)
            sines = mp.sin(g * x) * mp.sin(g * xi)
            head["green"] += (hv - decay / g**2) * sines
            head["dt"] += (hd + lam * decay / g**2) * sines
        closed = decay * min(x, xi) * (l - max(x, xi)) / l
        return {"green": float(closed + 2 / l * head["green"]),
                "dt": float(-lam * closed + 2 / l * head["dt"])}


def doubling_search(tail, t, tol, kind, start=None):
    """Smallest depth n <= MODE_CAP with tail(n) <= tol by plain doubling
    from 1, then bisection: the depth search the planners used before they
    started from a closed-form estimate.  Takes and ignores the planners'
    ``start``, so it can stand in for ``green_kernel._search_depth``."""
    if tail(MODE_CAP) > tol:
        raise TruncationError(
            f"series tolerance {tol:.3g} for kind {kind!r} at t = {t:.3g} is not "
            f"certifiable within {MODE_CAP} modes (tail bound {tail(MODE_CAP):.3g})")
    lo, hi = 1, 1
    while tail(hi) > tol:
        lo, hi = hi, min(2 * hi, MODE_CAP)
    while lo < hi:
        mid = (lo + hi) // 2
        if tail(mid) <= tol:
            hi = mid
        else:
            lo = mid + 1
    return TruncationPlan(n_terms=hi, tail_bound=tail(hi), tolerance=tol)


def kernel_l1_reference(p, n):
    """int_0^inf |H_n(t)| dt by 20-digit quadrature of the textbook kernel.

    An oscillatory kernel is integrated between its zeros k*pi/omega
    until exp(-h t) has fallen below 1e-15, which is also the neglected
    tail's share of the result; the others over [0, 1/h, inf].
    """
    with mp.workdps(20):
        eps, a, c, l = (mp.mpf(v) for v in (p.epsilon, p.a, p.c, p.l))
        g = n * mp.pi / l
        b, h = c * g, (a + eps * g**2) / 2
        kernel = lambda t: abs(_textbook_kernels(eps, a, c, g, t)[0])
        if h >= b:
            return float(mp.quad(kernel, [0, 1 / h, mp.inf]))
        w = mp.sqrt(b * b - h * h)
        zeros = int(15 * mp.log(10) * w / (h * mp.pi)) + 1
        return float(mp.quad(kernel, [k * mp.pi / w for k in range(zeros + 1)],
                             method="gauss-legendre"))


def exp_source_response(p, n, mu, t):
    """U = int_0^t e^{-mu s} H_n(t - s) ds and U' in 60-digit closed form.

    H_n = (e^{-r1 t} - e^{-r2 t})/(r2 - r1) with roots r1,2 = h -+ w of
    r^2 - 2hr + b^2 (complex for an oscillating mode), so U and U' are
    combinations of E(r) = int_0^t e^{-mu s} e^{-r(t - s)} ds, which stays
    exact at resonance, r = mu.  A critical mode (w = 0) takes w = 1e-25.
    """
    with mp.workdps(60):
        eps, a, c, l, mu, t = (mp.mpf(v) for v in (p.epsilon, p.a, p.c, p.l, mu, t))
        g = n * mp.pi / l
        h, b = (a + eps * g**2) / 2, c * g
        w = mp.sqrt(mp.mpc(h * h - b * b)) or mp.mpf(10) ** -25
        decay = mp.exp(-mu * t)

        def conv(r):
            d = r - mu
            return t * decay if d == 0 else -decay * mp.expm1(-d * t) / d

        r1, r2 = h - w, h + w
        u = (conv(r1) - conv(r2)) / (2 * w)
        du = (r2 * conv(r2) - r1 * conv(r1)) / (2 * w)
        return float(mp.re(u)), float(mp.re(du))


def mode_ode_residual(table, t, step, order=2):
    """Central-difference residual of H'' + 2hH' + b^2 H = 0 at time t.

    One residual per mode of ``table``; ``t - order*step/2`` must be >= 0.
    """
    if order == 2:
        f = [kernel_values(table, t + j * step) for j in (-1, 0, 1)]
        d2 = (f[0] - 2 * f[1] + f[2]) / step**2
        d1 = (f[2] - f[0]) / (2 * step)
        mid = f[1]
    else:
        f = [kernel_values(table, t + j * step) for j in (-2, -1, 0, 1, 2)]
        d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * step**2)
        d1 = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * step)
        mid = f[2]
    return np.abs(d2 + 2 * table.h * d1 + table.b**2 * mid)


def pde_residual_sup(p, xs, ts, xi, dx=1e-3, dt=1e-4, plan_tol=1e-4):
    """Sup of the discrete operator identity d_xx(eps G_t + c^2 G) = d_t(G_t + a G).

    Flux is differenced twice in x, the right side once in t from the G_t
    series; all evaluations share one truncation depth so the identity
    holds mode by mode and the stencil measures only discretisation error.
    ``green_profile``'s G_t also carries the asymptote's closed form
    -(c^2/eps) e^(-c^2 t/eps)/eps * min(x, xi)*(l - max(x, xi))/l, which
    satisfies the identity only when c^2/eps = a (as for P_EQ); otherwise
    the asymptote's tail beyond the shared depth adds a residual ~ 1/depth.
    """
    n_terms = plan_truncation(p, float(np.min(ts)), plan_tol, kind="green").n_terms
    worst = 0.0
    for t in ts:
        args = dict(xi=xi, n_terms=n_terms)
        flux_xx = (green_profile(p, xs + dx, t=t, kind="flux", **args)
                   - 2.0 * green_profile(p, xs, t=t, kind="flux", **args)
                   + green_profile(p, xs - dx, t=t, kind="flux", **args)) / dx**2
        gt_rate = (green_profile(p, xs, t=t + dt, kind="dt", **args)
                   - green_profile(p, xs, t=t - dt, kind="dt", **args)) / (2.0 * dt)
        gt_mid = green_profile(p, xs, t=t, kind="dt", **args)
        worst = max(worst, float(np.max(np.abs(flux_xx - gt_rate - p.a * gt_mid))))
    return worst


def residual(p, u, f_values):
    """Sup-norm of the discrete operator residual L u - f on interior nodes.

    Uses second-order central differences in x and t and the mixed
    d_xx d_t stencil; the grid must be uniform in each direction with at
    least five interior nodes per axis.  ``f_values`` is None (f = 0), a
    callable f(x, t) or an array shaped like ``u.values``.
    """
    x, t, vals = u.x_nodes, u.t_nodes, u.values
    if x.size < 7 or t.size < 7:
        raise ValueError("need at least 5 interior nodes per axis (7 total)")
    dxs, dts = np.diff(x), np.diff(t)
    if not (np.allclose(dxs, dxs[0], rtol=1e-9) and np.allclose(dts, dts[0], rtol=1e-9)):
        raise ValueError("residual evaluation requires uniform grids")
    dx, dt = dxs[0], dts[0]
    if callable(f_values):
        f_grid = np.asarray([[f_values(xi, tj) for tj in t] for xi in x], dtype=float)
    elif f_values is None:
        f_grid = np.zeros_like(vals)
    else:
        f_grid = np.asarray(f_values, dtype=float)
        if f_grid.shape != vals.shape:
            raise ValueError("f grid shape must match the field values")
    uxx = (vals[:-2, :] - 2.0 * vals[1:-1, :] + vals[2:, :]) / dx**2
    ut = (vals[:, 2:] - vals[:, :-2]) / (2.0 * dt)
    utt = (vals[:, 2:] - 2.0 * vals[:, 1:-1] + vals[:, :-2]) / dt**2
    uxxt = (uxx[:, 2:] - uxx[:, :-2]) / (2.0 * dt)
    res = (p.epsilon * uxxt + p.c**2 * uxx[:, 1:-1]
           - utt[1:-1, :] - p.a * ut[1:-1, :] - f_grid[1:-1, 1:-1])
    return float(np.max(np.abs(res)))


def sine_gordon_sweep(p, linear_part, u, bias, n_modes):
    """One fixed-point sweep u -> u_linear - G * (sin(u) - bias), as values.

    Both fields share a collocation grid that is uniform in x and t and
    starts at t = 0.  The sine spectra of sin(u) come from a type-1 DST of
    the interior samples; the constant bias uses its exact coefficients
    2*(1 - (-1)^n)/(n*pi).
    """
    x, t = u.x_nodes, u.t_nodes
    table = mode_table(p, n_modes)
    n = np.arange(1, n_modes + 1)
    fhat = dst(np.sin(u.values[1:-1, :]), type=1, axis=0)[:n_modes, :] / (x.size - 1)
    fhat -= (bias * 2.0 * (1.0 - (-1.0) ** n) / (n * np.pi))[:, None]
    hmat, hdmat = kernel_values(table, t), kernel_dt_values(table, t)
    w = propagate_state(table, *step_weights(table, t[1:2], t[1] - t[0], hmat[:, 1:2]),
                        hmat[:, None], hdmat[:, None])[0]
    uf = volterra_convolve(w, fhat)
    sin_full = np.sin(np.outer(x, table.gamma))
    sin_full[[0, -1], :] = 0.0
    return linear_part.values - sin_full @ uf


def step_band(p, nx, dt, theta):
    """The oracle's step matrix on ``nx`` interior nodes, in upper banded form.

    ``(1 + a*theta*dt) I - theta*dt*(eps + theta*dt*c^2) D2``, as scipy's
    ``cholesky_banded`` takes it: superdiagonal in row 0, diagonal in row 1.
    """
    dx = p.l / (nx + 1)
    kappa = theta * dt * (p.epsilon + theta * dt * p.c**2)
    ab = np.zeros((2, nx))
    ab[0, 1:] = -kappa / dx**2
    ab[1, :] = 1.0 + p.a * theta * dt + 2.0 * kappa / dx**2
    return ab


def theta_scheme_reference(p, g0, g1, source, horizon, nx, dt, theta):
    """The theta scheme's step loop with three stencil applications per step.

    The loop form of ``fd_oracle.oracle_solve``: it applies D2 to u, to v
    and to the predictor u + dt*(1 - theta)*v, evaluates the source twice
    per step and solves through scipy's checked ``cho_solve_banded``; the
    inner iteration stops as the oracle's does.  Returns the values at
    every step, boundary rows included.
    """
    x_full = np.linspace(0.0, p.l, nx + 2)
    x = x_full[1:-1]
    dx = x_full[1] - x_full[0]
    u, v = g0(x), g1(x)
    n_steps = max(1, round(horizon / dt))
    dt = horizon / n_steps
    eps, c2, a = p.epsilon, p.c**2, p.a

    def d2(w):
        out = -2.0 * w
        out[:-1] += w[1:]
        out[1:] += w[:-1]
        return out / dx**2

    chol = cholesky_banded(step_band(p, nx, dt, theta), lower=False)
    nonlinear = depends_on_u(source)
    values = np.zeros((nx + 2, n_steps + 1))
    values[1:-1, 0] = u
    t = 0.0
    for step in range(1, n_steps + 1):
        t_new = step * dt
        f_old = evaluate_source(source, x, t, u)
        d2u, d2v = d2(u), d2(v)
        explicit = v + (1.0 - theta) * dt * (eps * d2v + c2 * d2u - a * v - f_old)
        base_rhs = explicit + theta * dt * c2 * d2(u + dt * (1.0 - theta) * v)
        u_guess = u + dt * v
        for _ in range(60):
            f_new = evaluate_source(source, x, t_new, u_guess)
            v_new = cho_solve_banded((chol, False), base_rhs - theta * dt * f_new)
            u_new = u + dt * (theta * v_new + (1.0 - theta) * v)
            if not nonlinear:
                break
            change = float(np.abs(u_new - u_guess).max())
            u_guess = u_new
            if change <= 1e-12:
                break
        else:
            raise RuntimeError(f"inner iteration did not converge at t = {t_new:.6g}")
        u, v, t = u_new, v_new, t_new
        values[1:-1, step] = u
    return values
