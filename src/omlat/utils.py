"""Small shared helpers."""
from __future__ import annotations

import os

__all__ = ["worker_count", "format_float", "FLOAT_FORMAT"]

#: Format of every float in omlat's CSV files: 17 significant digits
#: round-trip any double, so reruns are byte-identical.
FLOAT_FORMAT = "%.17g"


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
    """``x`` in :data:`FLOAT_FORMAT`: round-trips any double exactly."""
    return FLOAT_FORMAT % x
