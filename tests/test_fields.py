import dataclasses

import numpy as np
import pytest

from strip_solver.fields import Field


class TestField:
    def make(self):
        x = np.linspace(0.0, 1.0, 5)
        t = np.linspace(0.0, 2.0, 3)
        return x, t, np.outer(np.sin(np.pi * x), t), np.ones((5, 3))

    def test_item_and_attribute_assignment_raise(self):
        fld = Field(*self.make())
        for name in ("x_nodes", "t_nodes", "values", "values_dt"):
            with pytest.raises(ValueError):
                getattr(fld, name)[0] = 1.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(fld, name, np.zeros(3))

    def test_arrays_are_views_not_copies(self):
        x, t, values, values_dt = self.make()
        fld = Field(x, t, values, values_dt)
        for stored, given in zip((fld.x_nodes, fld.t_nodes, fld.values, fld.values_dt),
                                 (x, t, values, values_dt)):
            assert np.shares_memory(stored, given)
        # the caller's own arrays stay writeable
        values[0, 0] = 1.0
        assert fld.values[0, 0] == 1.0
