import ast
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


def _run_fresh(script: str) -> str:
    """Standard output of ``script`` run in a fresh interpreter on this checkout."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=240, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_solver_imports_leave_heavy_scipy_subpackages_unloaded():
    # importing scipy costs most of a cold start; the solvers' import path is
    # numpy-only.  linear_solver and nonlinear_solver import each other, so
    # each is also imported first in a fresh process.
    for imports in (
        "from strip_solver import fd_oracle, green_kernel, linear_solver, nonlinear_solver,"
        " spectrum, verification, cli",
        "from strip_solver import nonlinear_solver, linear_solver",
        "from strip_solver import linear_solver, nonlinear_solver",
    ):
        script = (
            "import sys\n"
            f"{imports}\n"
            "assert linear_solver.solve_linear and nonlinear_solver.picard_solve\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        assert _run_fresh(script) == "[]", imports


def test_solver_imports_leave_green_kernel_unloaded():
    # the sine source's a-priori bound is closed-form: no Green's-series
    # evaluation sits on the solvers' import path
    for imports in ("from strip_solver import nonlinear_solver, linear_solver",
                    "from strip_solver import linear_solver, nonlinear_solver"):
        script = f"import sys\n{imports}\nprint('strip_solver.green_kernel' in sys.modules)\n"
        assert _run_fresh(script) == "False", imports


def test_only_the_oracle_imports_scipy():
    # a static check: scipy may load only where fd_oracle needs it
    importers = []
    for path in sorted(pathlib.Path(strip_solver.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.append(path.stem)
    assert sorted(set(importers)) == ["fd_oracle"]


def _package_imports(module: str) -> set:
    """(submodule, name) pairs that ``module`` imports from the package, at any depth."""
    path = pathlib.Path(strip_solver.__file__).parent / f"{module}.py"
    pairs = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            pairs |= {(alias.name.removeprefix("strip_solver."), "*") for alias in node.names
                      if alias.name.split(".")[0] == "strip_solver"}
        elif isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "strip_solver"):
            source = (node.module or "").removeprefix("strip_solver").lstrip(".")
            pairs |= {(source, alias.name) if source else (alias.name, "*")
                      for alias in node.names}
    return pairs


def test_the_cross_check_shares_no_spectral_code():
    # fd_oracle and sources are the independent side of the spectral-vs-oracle
    # comparison: the oracle may take from the package only its errors, its
    # Field record, the sources and the parameter container; sources nothing
    allowed = {"errors", "fields", "sources"}
    oracle = _package_imports("fd_oracle")
    assert oracle, "the scan found none of fd_oracle's package imports"
    assert {pair for pair in oracle
            if pair[0] not in allowed and pair != ("modes", "Params")} == set()
    assert _package_imports("sources") == set()


def test_first_oracle_solve_loads_scipy_linalg():
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from strip_solver import fd_oracle\n"
        "from strip_solver.modes import Params\n"
        "from strip_solver.sources import ZeroSource\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        "fd_oracle.oracle_solve(Params(1.0, 1.0, 1.0, np.pi), np.sin, np.zeros_like,"
        " ZeroSource(), 0.1, fd_oracle.OracleConfig(nx=9, dt=0.05))\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    assert _run_fresh(script) == "True"


def test_banded_solve_works_before_any_oracle_solve():
    # the solve loads its LAPACK routine itself; the factor is built by numpy
    script = (
        "import numpy as np\n"
        "from strip_solver import fd_oracle\n"
        "a = 4.0 * np.eye(5) - np.eye(5, k=1) - np.eye(5, k=-1)\n"
        "upper = np.linalg.cholesky(a).T\n"
        "cb = np.vstack([np.r_[0.0, np.diag(upper, 1)], np.diag(upper)])\n"
        "b = np.arange(1.0, 6.0)\n"
        "x = fd_oracle.cho_solve_banded((cb, False), b)\n"
        "print(np.allclose(a @ x, b, rtol=0.0, atol=1e-13))\n"
    )
    assert _run_fresh(script) == "True"


# perfbench's tracer wraps library names from outside (its WRAPPED table); a
# change that stops calling one through its module must update that table
TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_names() -> list:
    """(submodule, attribute) of every WRAPPED entry, read with ast, not imported."""
    tree = ast.parse(TRACING.read_text(), filename=str(TRACING))
    modules = {alias.asname or alias.name: alias.name for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.module == "strip_solver"
               for alias in node.names}
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPPED"]:
            return [(modules[entry.elts[0].id], entry.elts[1].value)
                    for entry in node.value.elts]
    raise AssertionError(f"{TRACING} defines no WRAPPED table")


def test_every_traced_name_is_a_library_callable():
    names = _traced_names()
    assert ("green_kernel", "mode_table") in names and ("green_kernel", "plan_truncation") in names
    missing = [f"{module}.{attr}" for module, attr in names
               if not callable(getattr(import_module(f"strip_solver.{module}"), attr, None))]
    assert missing == []


def test_flux_profile_calls_the_traced_names_through_the_module(monkeypatch):
    from strip_solver import green_kernel
    from strip_solver.modes import Params

    calls = []

    def spy(name):
        original = getattr(green_kernel, name)

        def record(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return record

    for name in ("mode_table", "plan_truncation"):
        monkeypatch.setattr(green_kernel, name, spy(name))
    p = Params(epsilon=1.0, a=1.0, c=1.0, l=3.0)
    green_kernel.green_profile(p, [1.0, 2.0], 1.3, 0.5, kind="flux", tol=1e-5)
    # the plan reads no mode table; the profile fetches its own
    assert calls == ["plan_truncation", "mode_table"]
