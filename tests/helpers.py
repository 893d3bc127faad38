"""Shared verification helpers: independent brute-force sums and stencils."""

import mpmath as mp
import numpy as np
from scipy.fft import dst

from strip_solver.green_kernel import green_profile, plan_truncation
from strip_solver.modes import kernel_eval, kernel_values, mode_table
from strip_solver.nonlinear_solver import volterra_convolve


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
        b = p.c * g
        h = (p.a + p.epsilon * g**2) / 2
        w2 = h * h - b * b
        w = mp.sqrt(abs(w2))
        e = mp.e ** (-h * t)
        if w2 == 0:
            hv, hd = t * e, e * (1 - h * t)
        elif w2 > 0:
            hv = e * mp.sinh(w * t) / w
            hd = e * (mp.cosh(w * t) - (h / w) * mp.sinh(w * t))
        else:
            hv = e * mp.sin(w * t) / w
            hd = e * (mp.cos(w * t) - (h / w) * mp.sin(w * t))
        term = {"green": hv, "dt": hd, "flux": p.epsilon * hd + p.c**2 * hv}[kind]
        total += term * mp.sin(g * xi) * mp.sin(g * x)
    return float(2 / l * total)


def mode_ode_residual(m, t, step, order=2):
    """Central-difference residual of H'' + 2hH' + b^2 H = 0 at time t."""
    if order == 2:
        f = [kernel_eval(m, t + j * step) for j in (-1, 0, 1)]
        d2 = (f[0] - 2 * f[1] + f[2]) / step**2
        d1 = (f[2] - f[0]) / (2 * step)
        mid = f[1]
    else:
        f = [kernel_eval(m, t + j * step) for j in (-2, -1, 0, 1, 2)]
        d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * step**2)
        d1 = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * step)
        mid = f[2]
    return abs(d2 + 2 * m.h * d1 + m.b**2 * mid)


def pde_residual_sup(p, xs, ts, xi, dx=1e-3, dt=1e-4, plan_tol=1e-4):
    """Sup of the discrete operator identity d_xx(eps G_t + c^2 G) = d_t(G_t + a G).

    Flux is differenced twice in x, the right side once in t from the G_t
    series; all evaluations share one truncation depth so the identity
    holds mode by mode and the stencil measures only discretisation error.
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
    uf = volterra_convolve(kernel_values(table, t), fhat, t[1] - t[0])
    sin_full = np.sin(np.outer(x, table.gamma))
    sin_full[[0, -1], :] = 0.0
    return linear_part.values - sin_full @ uf
