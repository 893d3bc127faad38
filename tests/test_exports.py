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
