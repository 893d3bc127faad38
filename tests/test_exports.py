import os
import pathlib
import subprocess
import sys
from importlib import import_module

import pytest

import strip_solver


def test_every_public_name_resolves():
    # the lazy export table must not name anything its module lacks
    missing = [name for name in strip_solver.__all__ if not hasattr(strip_solver, name)]
    assert missing == []


@pytest.mark.parametrize("module", strip_solver._SUBMODULES)
def test_every_submodule_export_resolves(module):
    mod = import_module(f"strip_solver.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_solver_imports_leave_heavy_scipy_subpackages_unloaded():
    # scipy.signal and scipy.integrate cost most of a cold start; the solvers
    # use neither on their import path.  linear_solver and nonlinear_solver
    # import each other, so each is also imported first in a fresh process.
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    for imports in (
        "from strip_solver import fd_oracle, green_kernel, linear_solver, nonlinear_solver,"
        " verification",
        "from strip_solver import nonlinear_solver, linear_solver",
        "from strip_solver import linear_solver, nonlinear_solver",
    ):
        script = (
            "import sys\n"
            f"{imports}\n"
            "assert linear_solver.solve_linear and nonlinear_solver.picard_solve\n"
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[:2] in (['scipy', 'signal'], ['scipy', 'integrate'])))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=240, env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", imports
