"""Seeded Wiener increments, time-varying noise paths, and the noise shift.

Increments are produced by a counter-based generator: the draw for
(seed, trajectory, step k, site i) never depends on how many steps, sites
or trajectories are generated around it.  Within a step the sites are
filled center-out (0, +1, -1, +2, -2, ...), so enlarging the truncation
from n to 2n reproduces the same numbers on the common sites.

Every random stream in the package is keyed here.  The noise rows draw
from Philox keyed by :func:`_philox_key`, re-keyed row by row; every
Monte Carlo block, tube and small-ball alike, draws from the faster
SFC64, seeded from the same key words by :func:`_block_bits`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.random import SFC64, Generator, Philox, SeedSequence

from .errors import ConfigurationError
from .lattice import _center_out_order
from .paths import Path

__all__ = [
    "NoiseCoefficient",
    "NoisePath",
    "sample_noise",
    "wq_path",
    "shift_noise",
]

# Every key in the package is built here.  Key word 0 is the seed; key
# word 1 packs (tag << 56) | (a << 32) | b.  The tag keeps the key spaces
# of different consumers disjoint.  Tags 2 (whole-trajectory draws) and 4
# (per-sample small-ball tails) are retired: they must not be reused.
_TAG_NOISE_ROW = 1  # Philox; a = trajectory, b = step
_TAG_SMALLBALL_BLOCK = 3  # SFC64 via _block_bits; b = sample block; every coordinate, stage after stage
_TAG_TUBE_BLOCK = 5  # SFC64 via _block_bits; b = trajectory block

#: Ranges of the key's trajectory and step counters, a and b.
_MAX_TRAJECTORIES = 2**24
_MAX_STEPS = 2**32


def _philox_key(seed: int, tag: int, a: int, b: int) -> np.ndarray:
    if not 0 <= seed < 2**64:
        raise ConfigurationError(f"seed must lie in [0, 2^64), got {seed}")
    if not (0 <= a < _MAX_TRAJECTORIES and 0 <= b < _MAX_STEPS):
        raise ConfigurationError(f"counter components out of range: {(a, b)}")
    word = (int(tag) << 56) | (int(a) << 32) | int(b)
    return np.array([int(seed), word], dtype=np.uint64)


def _block_bits(seed: int, tag: int, index: int) -> SFC64:
    """SFC64 bit generator of one keyed block, seeded with the four 32-bit
    words of ``_philox_key(seed, tag, 0, index)``.

    The words have a fixed width, so distinct (seed, tag, index) give
    distinct entropy; a list of Python ints would not, because
    ``SeedSequence`` splits each int into as many words as it needs.
    """
    key = _philox_key(seed, tag, 0, index)
    return SFC64(SeedSequence(key.astype("<u8").view("<u4")))


@dataclass(frozen=True)
class NoisePath:
    """Wiener increments on a uniform grid.

    ``increments[k, i+n]`` is the increment of site i over the step
    ``origin_step + k`` of the grid the path was drawn on, that is over
    [(origin_step + k) dt, (origin_step + k + 1) dt], distributed
    Normal(0, dt).  :func:`shift_noise` advances ``origin_step``;
    :func:`~omlat.sde.integrate` and :func:`wq_path` evaluate the noise
    coefficient at those absolute grid times.
    """

    dt: float
    increments: np.ndarray
    trajectory: int = 0
    origin_step: int = 0

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=float)
        if inc.ndim != 2:
            raise ConfigurationError("increments must be an N x d array")
        object.__setattr__(self, "increments", inc)

    @property
    def steps(self) -> int:
        return self.increments.shape[0]

    @property
    def d(self) -> int:
        return self.increments.shape[1]


def sample_noise(seed: int, steps: int, d: int, dt: float, trajectory: int = 0) -> NoisePath:
    """Generate ``steps`` x ``d`` independent Normal(0, dt) increments.

    Keyed by (seed, trajectory, step, site): row k does not depend on how
    many steps are drawn, so a shorter draw is a prefix of a longer one,
    and distinct seeds or trajectory indices give independent streams.
    """
    if steps < 1 or d < 1 or not dt > 0:
        raise ConfigurationError(f"need steps >= 1, d >= 1, dt > 0, got {(steps, d, dt)}")
    if d % 2 != 1:
        raise ConfigurationError(f"dimension must be odd (d = 2n + 1), got {d}")
    # Row k's key is row 0's with k added to the low word of key word 1;
    # the last row's key is built once to range-check them all.
    _philox_key(seed, _TAG_NOISE_ROW, trajectory, steps - 1)
    keys = np.tile(_philox_key(seed, _TAG_NOISE_ROW, trajectory, 0), (steps, 1))
    keys[:, 1] += np.arange(steps, dtype=np.uint64)
    bits = Philox(key=keys[0])
    g = Generator(bits)
    # Re-keying with the counter at zero and the buffer empty leaves the
    # generator as Philox(key=...) builds it, without building one per row.
    fresh = bits.state
    draws = np.empty((steps, d))
    for key, row in zip(keys, draws):
        fresh["state"]["key"] = key
        bits.state = fresh
        g.standard_normal(out=row)
    inc = np.empty((steps, d))
    inc[:, _center_out_order(d)] = draws
    inc *= np.sqrt(dt)
    return NoisePath(dt=dt, increments=inc, trajectory=trajectory)


@dataclass(frozen=True)
class NoiseCoefficient:
    """Per-site, time-varying noise coefficient q_i(t).

    Built-in families:

    - ``constant``: q_i(t) = value for all sites.
    - ``affine``: q_i(t) = c0 * (a - t + 1 / (|i| + 1)), the profile of the
      worked disease-spread example (c0 = 0.01, a = 31).
    - ``table``: linear interpolation in t of a (times, values) table with
      one column per site.
    """

    kind: str
    value: float = 0.0
    c0: float = 0.0
    a: float = 0.0
    table_times: np.ndarray | None = field(default=None, repr=False)
    table_values: np.ndarray | None = field(default=None, repr=False)

    @staticmethod
    def constant(value: float) -> "NoiseCoefficient":
        return NoiseCoefficient(kind="constant", value=float(value))

    @staticmethod
    def affine(c0: float, a: float) -> "NoiseCoefficient":
        return NoiseCoefficient(kind="affine", c0=float(c0), a=float(a))

    @staticmethod
    def table(times, values) -> "NoiseCoefficient":
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or values.ndim != 2 or values.shape[0] != times.size:
            raise ConfigurationError("table needs times (m,) and values (m, d)")
        if values.shape[1] % 2 != 1:
            raise ConfigurationError("table must cover an odd number of sites")
        if np.any(np.diff(times) <= 0):
            raise ConfigurationError("table times must be strictly increasing")
        return NoiseCoefficient(kind="table", table_times=times, table_values=values)

    def grid(self, times, n: int) -> np.ndarray:
        """Values on a time grid: shape (len(times), 2n + 1)."""
        times = np.asarray(times, dtype=float)
        d = 2 * n + 1
        if self.kind == "constant":
            return np.full((times.size, d), self.value)
        if self.kind == "affine":
            sites = np.arange(-n, n + 1)
            profile = 1.0 / (np.abs(sites) + 1.0)
            return self.c0 * (self.a - times[:, None] + profile[None, :])
        if self.kind == "table":
            if self.table_values.shape[1] < d:
                raise ConfigurationError(
                    f"table covers {self.table_values.shape[1]} sites, need {d}"
                )
            mid = self.table_values.shape[1] // 2
            cols = self.table_values[:, mid - n : mid + n + 1]
            out = np.empty((times.size, d))
            for j in range(d):
                out[:, j] = np.interp(times, self.table_times, cols[:, j])
            return out
        raise ConfigurationError(f"unknown noise coefficient kind {self.kind!r}")


def wq_path(noise: NoisePath, q: NoiseCoefficient) -> Path:
    """Cumulative noise path ``W_i(t_k) = sum_{j<k} q_i(t_j) dW_i(t_j)``.

    The coefficient is evaluated at the left endpoint of each step, at the
    absolute grid time ``t_j = dt (origin_step + j)``, as the stepper
    evaluates it; the path's own grid still starts at 0.
    """
    n = (noise.d - 1) // 2
    qs = q.grid(noise.dt * (noise.origin_step + np.arange(noise.steps)), n)
    states = np.zeros((noise.steps + 1, noise.d))
    np.cumsum(qs * noise.increments, axis=0, out=states[1:])
    return Path(states, noise.dt)


def shift_noise(noise: NoisePath, s: float) -> NoisePath:
    """Drop the first ``m = s / dt`` steps: step k of the result is step
    k + m of the input, and its ``origin_step`` is the input's plus m.

    ``s`` must lie on the grid.  Shifts compose: shifting by s1 then s2
    equals shifting once by s1 + s2.
    """
    m = s / noise.dt
    m_int = int(round(m))
    if abs(m - m_int) > 1e-9 or m_int < 0 or m_int > noise.steps:
        raise ConfigurationError(f"shift s={s} is not a grid time (dt={noise.dt})")
    return NoisePath(
        dt=noise.dt,
        increments=noise.increments[m_int:],
        trajectory=noise.trajectory,
        origin_step=noise.origin_step + m_int,
    )
