"""Time-gridded trajectories of lattice states."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = ["Path"]


@dataclass(frozen=True)
class Path:
    """A trajectory on a uniform time grid.

    ``states[k]`` is the lattice state at ``times[k] = k dt``; the array
    has shape (N + 1, d) for N steps.
    """

    times: np.ndarray
    states: np.ndarray
    dt: float

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        if states.ndim != 2 or times.ndim != 1 or states.shape[0] != times.size:
            raise ConfigurationError("states must be (N+1, d) matching times (N+1,)")
        if times.size < 2:
            raise ConfigurationError("a path needs at least two grid points")
        if times[0] != 0.0:
            raise ConfigurationError(f"time grid must start at 0, got {times[0]:g}")
        steps = np.diff(times)
        if not np.allclose(steps, self.dt, rtol=1e-9, atol=1e-12):
            raise ConfigurationError("time grid is not uniform with the declared dt")
        if not np.all(np.isfinite(states)):
            raise ConfigurationError("path contains non-finite states")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @property
    def steps(self) -> int:
        return self.states.shape[0] - 1

    @property
    def d(self) -> int:
        return self.states.shape[1]

    @property
    def T(self) -> float:
        return float(self.times[-1])

    def same_grid(self, other: "Path") -> bool:
        return (
            self.states.shape == other.states.shape
            and self.times.shape == other.times.shape
            and bool(np.all(self.times == other.times))
        )
