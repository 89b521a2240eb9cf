"""CSV and JSON writers, and the one CSV reader.

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
    "read_csv",
    "write_om_json",
    "write_manifest",
    "write_csv",
]


def write_path_csv(path: Path, dest) -> None:
    """Path as CSV: header ``t,u_-n,...,u_n``, one row per grid point."""
    n = (path.d - 1) // 2
    header = "t," + ",".join(f"u_{i}" for i in range(-n, n + 1))
    # one %-template per row, FLOAT_FORMAT per value; each row is formatted
    # and written on its own, so the text never holds more than one row
    row = ",".join([FLOAT_FORMAT] * (path.d + 1)) + "\n"
    with open(dest, "w") as f:
        f.write(header + "\n")
        f.writelines(row % (t, *values.tolist()) for t, values in zip(path.times.tolist(), path.states))


def read_csv(src, what: str, header: bool = False) -> tuple:
    """``(names, rows)`` of a CSV file of numbers, the package's one CSV
    reader: the first line's cells with ``header`` (else ``[]``), and a
    float array of one row per line below, as wide as the first line.
    Every line before the trailing blank ones is a row, a blank or ``#``
    line too; an error names ``what``, the file and a bad row's line."""
    p = FsPath(src)
    try:
        lines = p.read_text().rstrip().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"{what} {p}: cannot read ({exc})") from exc
    if not lines:
        raise ConfigurationError(f"{what} {p}: the file holds no rows")
    first = lines[0].split(",")
    names, skip, label = (first, 1, "the header") if header else ([], 0, "line 1")
    rows = np.empty((len(lines) - skip, len(first)))
    for number, (line, row) in enumerate(zip(lines[skip:], rows), start=1 + skip):
        cells = line.split(",")
        if len(cells) != len(first):
            raise ConfigurationError(f"{what} {p}, line {number}: {len(cells)} cells, {label} has {len(first)}")
        try:
            row[:] = [float(cell) for cell in cells]
        except ValueError:
            raise ConfigurationError(f"{what} {p}, line {number}: not a number in {line!r}") from None
    return names, rows


def read_path_csv(src) -> Path:
    """Read a path written by :func:`write_path_csv`: its time column must
    run 0, dt, 2dt, ... (uniform within a relative 1e-9)."""
    p = FsPath(src)
    names, data = read_csv(p, "path file", header=True)
    if names[0] != "t" or len(names) < 2:
        raise ConfigurationError(f"{p}: not a path CSV (header {','.join(names)!r})")
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
