"""Space-time sample container shared by the spectral and oracle solvers."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

__all__ = ["Field"]


@dataclass(frozen=True)
class Field:
    """Solution samples; values[i, j] = u(x_i, t_j), zero on boundary rows.

    Immutable: the arrays are stored as read-only views of the ones passed
    in (no copies), so neither the attributes nor their items can be set.
    """

    x_nodes: np.ndarray
    t_nodes: np.ndarray
    values: np.ndarray
    values_dt: np.ndarray | None = None

    def __post_init__(self):
        for f in fields(self):
            arr = getattr(self, f.name)
            if arr is not None:
                view = np.asarray(arr).view()
                view.flags.writeable = False
                object.__setattr__(self, f.name, view)

    def sup_norm_per_time(self) -> np.ndarray:
        return np.max(np.abs(self.values), axis=0)
