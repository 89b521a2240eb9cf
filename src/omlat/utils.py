"""Small shared helpers."""
from __future__ import annotations

import os

__all__ = ["worker_count", "format_float"]


def worker_count() -> int:
    """Worker cap for the tube's block pool: the OMLAT_THREADS environment
    variable when set, else the CPU count."""
    raw = os.environ.get("OMLAT_THREADS", "")
    if raw.strip():
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return os.cpu_count() or 1


def format_float(x: float) -> str:
    """17 significant digits: round-trips any double exactly."""
    return f"{x:.17g}"
