"""Solver library for the third-order dissipative strip equation.

Spectral Green's-function solution of

    d_xx(eps*u_t + c^2*u) - d_t(u_t + a*u) = F(x, t, u)

on (0, l) x (0, T] with Dirichlet boundary data, plus an independent
finite-difference oracle, decay-rate verification tools and a CLI.

Submodules are imported lazily so that the CLI can cap thread counts
before the numerical stack loads.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULES = (
    "modes", "spectrum", "green_kernel", "linear_solver", "nonlinear_solver",
    "fd_oracle", "asymptotics", "sources", "profiles", "verification",
    "fields", "errors", "cli",
)

_EXPORTS = {
    "Params": "modes",
    "ModeClassification": "modes",
    "mode_table": "modes",
    "classify_modes": "modes",
    "propagate_state": "modes",
    "SineSpectrum": "spectrum",
    "analyze": "spectrum",
    "synthesize": "spectrum",
    "DecayConstants": "green_kernel",
    "TruncationPlan": "green_kernel",
    "decay_constants": "green_kernel",
    "plan_truncation": "green_kernel",
    "plan_accelerated": "green_kernel",
    "green_profile": "green_kernel",
    "Field": "fields",
    "LinearProblem": "linear_solver",
    "GridSpec": "linear_solver",
    "QuadConfig": "linear_solver",
    "forced_response": "linear_solver",
    "solve_linear": "linear_solver",
    "SourceTerm": "sources",
    "ZeroSource": "sources",
    "LinearSource": "sources",
    "SineGordonSource": "sources",
    "ExpDecayingSource": "sources",
    "AlgebraicSource": "sources",
    "CustomSource": "sources",
    "PicardConfig": "nonlinear_solver",
    "PicardReport": "nonlinear_solver",
    "NonlinearProblem": "nonlinear_solver",
    "picard_solve": "nonlinear_solver",
    "OracleConfig": "fd_oracle",
    "OracleProblem": "fd_oracle",
    "oracle_solve": "fd_oracle",
    "convergence_study": "fd_oracle",
    "DecayFit": "asymptotics",
    "decay_fit": "asymptotics",
    "algebraic_decay_check": "asymptotics",
}

__all__ = ["__version__", *_EXPORTS, *_SUBMODULES]


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
