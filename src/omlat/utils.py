"""Small shared helpers."""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ConfigurationError

__all__ = ["check_count", "check_scale", "worker_count", "map_blocks"]


def check_count(count: int, name: str) -> None:
    """Reject a count below one; ``name`` names it in the message."""
    if count < 1:
        raise ConfigurationError(f"{name} must be at least 1, got {count}")


def check_scale(values, name: str) -> None:
    """Reject an empty ``values``, or one with a value outside [1e-150,
    1e150], nan included: the square of a radius or a rate in that range
    is a normal double.  ``name`` names them in the message."""
    values = np.atleast_1d(np.asarray(values, dtype=float))
    if not (values.size and np.all((values >= 1e-150) & (values <= 1e150))):
        raise ConfigurationError(f"{name} must lie in [1e-150, 1e150], got {values.tolist()}")


def worker_count() -> int:
    """Worker cap for the block pool of :func:`map_blocks`, which runs the
    tube and small-ball blocks and the two halves of the mpp solver's band
    factorization: the OMLAT_THREADS environment variable
    when set, else the usable CPU count, and never more than the usable
    CPUs, since each running block holds its buffers."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        usable = os.cpu_count() or 1
    raw = os.environ.get("OMLAT_THREADS", "")
    if raw.strip():
        try:
            return min(max(1, int(raw)), usable)
        except ValueError:
            pass
    return usable


def map_blocks(fn, samples: int, block_size: int) -> list:
    """``fn(block_index, count)`` for each block of ``samples`` cut into
    ``block_size`` pieces (the last may be shorter), run on a pool of
    :func:`worker_count` threads; the results come back in block order.
    The tube and small ball cut their samples this way, and the mpp solve
    runs its two band halves as two blocks of one."""
    blocks = [(i, min(block_size, samples - start)) for i, start in enumerate(range(0, samples, block_size))]
    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        return list(pool.map(lambda block: fn(*block), blocks))
