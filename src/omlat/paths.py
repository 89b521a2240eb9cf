"""Trajectories of lattice states on a uniform time grid."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = ["Path"]


@dataclass(frozen=True)
class Path:
    """A trajectory on the uniform time grid ``t_k = k dt``.

    ``states[k]`` is the lattice state at ``times[k] = k dt``; the array
    has shape (N + 1, d) for N steps.  The grid is not stored: ``times``
    and ``T = N dt`` are derived from ``dt``.
    """

    states: np.ndarray
    dt: float

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        if states.ndim != 2 or states.shape[0] < 2:
            raise ConfigurationError(f"states must be (N+1, d) with N >= 1, got shape {states.shape}")
        if not 0 < self.dt < np.inf:
            raise ConfigurationError(f"time step dt must be positive and finite, got {self.dt}")
        if not np.all(np.isfinite(states)):
            raise ConfigurationError("path contains non-finite states")
        object.__setattr__(self, "states", states)

    @property
    def steps(self) -> int:
        return self.states.shape[0] - 1

    @property
    def d(self) -> int:
        return self.states.shape[1]

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.steps + 1)

    @property
    def T(self) -> float:
        return float(self.dt * self.steps)

    def same_grid(self, other: "Path") -> bool:
        return self.states.shape == other.states.shape and self.dt == other.dt
