"""CSV and JSON writers.

All floats are written with 17 significant digits so files round-trip
binary doubles and reruns are byte-identical.
"""
from __future__ import annotations

import json
import math
from pathlib import Path as FsPath

import numpy as np

from .errors import ConfigurationError
from .paths import Path
from .utils import FLOAT_FORMAT, format_float as _f

__all__ = [
    "write_path_csv",
    "read_path_csv",
    "write_om_json",
    "write_manifest",
    "write_csv",
]


def write_path_csv(path: Path, dest) -> None:
    """Path as CSV: header ``t,u_-n,...,u_n``, one row per grid point."""
    n = (path.d - 1) // 2
    header = "t," + ",".join(f"u_{i}" for i in range(-n, n + 1))
    # one %-template per row, FLOAT_FORMAT per value; rows are converted
    # one at a time to keep the peak memory low
    row = ",".join([FLOAT_FORMAT] * (path.d + 1))
    lines = [header]
    lines.extend(row % tuple(values.tolist()) for values in np.column_stack([path.times, path.states]))
    FsPath(dest).write_text("\n".join(lines) + "\n")


def read_path_csv(src) -> Path:
    """Read a path written by :func:`write_path_csv`: its time column must
    run 0, dt, 2dt, ... (uniform within a relative 1e-9)."""
    p = FsPath(src)
    try:
        lines = p.read_text().strip().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"path file {p}: cannot read ({exc})") from exc
    if not lines:
        raise ConfigurationError(f"{p}: empty path CSV")
    header = lines[0].split(",")
    if header[0] != "t" or len(header) < 2:
        raise ConfigurationError(f"{p}: not a path CSV (header {lines[0]!r})")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ConfigurationError(
                f"{p}, line {number}: {len(cells)} cells, the header has {len(header)}"
            )
        try:
            rows.append([float(tok) for tok in cells])
        except ValueError:
            raise ConfigurationError(f"{p}, line {number}: not a number in {line!r}") from None
    data = np.array(rows)
    if data.shape[0] < 2:
        raise ConfigurationError(f"{p}: need at least two grid rows")
    times = data[:, 0]
    if times[0] != 0.0:
        raise ConfigurationError(f"{p}: time grid must start at 0, got {times[0]:g}")
    dt = times[1]
    if not np.allclose(np.diff(times), dt, rtol=1e-9, atol=1e-12):
        raise ConfigurationError(f"{p}: time grid is not uniform with the step {dt:g} of its first rows")
    try:
        return Path(data[:, 1:], dt)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{p}: {exc}") from None


def write_om_json(report, dest) -> None:
    FsPath(dest).write_text(json.dumps(report.as_dict(), indent=2) + "\n")


def _finite_json(value):
    """``value`` with each non-finite float written as its name (``"nan"``,
    ``"inf"`` or ``"-inf"``): strict JSON has no token for them."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {k: _finite_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_json(v) for v in value]
    return value


def write_manifest(out_dir, payload: dict) -> None:
    """Manifest written before any computation output; rewritten once
    when the run ends, finished or failed.  A non-finite flag value, such
    as ``--lambda nan``, is written as a string."""
    text = json.dumps(_finite_json(payload), indent=2, sort_keys=True, allow_nan=False)
    FsPath(out_dir, "manifest.json").write_text(text + "\n")


def write_csv(dest, header: str, rows) -> None:
    """Rows of floats/ints under a fixed header."""
    lines = [header]
    for row in rows:
        lines.append(",".join(str(v) if isinstance(v, (int, np.integer)) else _f(float(v)) for v in row))
    FsPath(dest).write_text("\n".join(lines) + "\n")
