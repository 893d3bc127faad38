"""Cross-validation of the spectral solver against the finite-difference path.

The linear corpus holds four problems whose spectral solutions are exact
(band-limited data, analytically integrable sources).  ``verify_linear``
runs each through the oracle's refinement study
(``fd_oracle.convergence_study``) with the spectral solution on the
oracle's grid as the reference, and reports the sup-norm disagreement and
the empirical convergence order between consecutive refinements (expected
close to 2 when both steps halve).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .fd_oracle import OracleConfig, StudyRecord, convergence_study, oracle_solve
from .linear_solver import GridSpec, LinearProblem, QuadConfig, solve_linear
from .modes import Params
from .sources import LinearSource, ZeroSource
from .spectrum import SineSpectrum, synthesize

__all__ = ["linear_corpus", "verify_linear", "VerifyRecord"]

# The oracle grids of the study, each halving both steps of the previous one.
REFINEMENTS = (OracleConfig(nx=31, dt=0.04), OracleConfig(nx=63, dt=0.02),
               OracleConfig(nx=127, dt=0.01))
# Source-convolution accuracy of the spectral reference.
QUAD = QuadConfig(tol=1e-11)


def _mode_spectrum(l, n, amplitude=1.0, size=4):
    coeffs = np.zeros(max(n, size))
    coeffs[n - 1] = amplitude
    return SineSpectrum(l=l, coeffs=coeffs)


def linear_corpus(p: Params, horizon: float = 2.0) -> dict:
    """Four linear problems with band-limited data and sources, by name."""
    l = p.l
    zero = SineSpectrum(l=l, coeffs=np.zeros(4))
    const_f = _mode_spectrum(l, 1)
    mix_g0 = SineSpectrum(l=l, coeffs=np.array([0.0, 0.5, 0.0, 0.0]))
    mix_g1 = SineSpectrum(l=l, coeffs=np.array([0.3, 0.0, 0.0, 0.0]))
    decaying = _mode_spectrum(l, 3, amplitude=0.8)

    def f_const(t):
        return const_f

    def f_decay(t):
        return SineSpectrum(l=l, coeffs=decaying.coeffs * math.exp(-0.5 * t))

    return {
        name: LinearProblem(params=p, g0=g0, g1=g1, f=f, horizon=horizon)
        for name, g0, g1, f in (
            ("velocity_mode1", zero, _mode_spectrum(l, 1), None),
            ("displacement_mode1", _mode_spectrum(l, 1), zero, None),
            ("forced_constant", zero, zero, f_const),
            ("mixed_decaying_source", mix_g0, mix_g1, f_decay),
        )
    }


@dataclass(frozen=True)
class VerifyRecord(StudyRecord):
    problem: str


def verify_linear(p: Params, horizon: float = 2.0) -> list:
    """Spectral-vs-oracle disagreement of the corpus across REFINEMENTS."""
    records = []
    for name, prob in linear_corpus(p, horizon).items():
        source = ZeroSource() if prob.f is None else LinearSource(prob.f)
        solve = partial(oracle_solve, prob.params, partial(synthesize, prob.g0),
                        partial(synthesize, prob.g1), source, prob.horizon)

        def reference(x_nodes, t_nodes, prob=prob):
            grid = GridSpec(x_nodes=x_nodes, t_nodes=t_nodes)
            return solve_linear(prob, grid, quad=QUAD).values

        records += [VerifyRecord(**vars(rec), problem=name)
                    for rec in convergence_study(solve, REFINEMENTS, reference)]
    return records
