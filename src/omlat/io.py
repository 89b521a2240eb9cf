"""Every text format of the package: the one rule for a comma list of
numbers, the one CSV reader, and the one CSV and one JSON writer.

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

__all__ = [
    "parse_floats",
    "write_path_csv",
    "read_path_csv",
    "read_csv",
    "write_json",
    "write_csv",
    "format_float",
    "FLOAT_FORMAT",
]

#: Format of every float in omlat's CSV files: 17 significant digits
#: round-trip any double, so reruns are byte-identical.
FLOAT_FORMAT = "%.17g"


def format_float(x: float) -> str:
    """``x`` in :data:`FLOAT_FORMAT`: round-trips any double exactly."""
    return FLOAT_FORMAT % x


def parse_floats(text: str, what: str, count: int | None = None) -> list:
    """The floats of the comma list ``text``, the package's one rule for a
    list of numbers: an empty (or blank) ``text`` is the empty list, and
    otherwise every cell must be a finite float, an empty cell rejected;
    with ``count``, the list must hold that many.  An error names ``what``."""
    try:
        values = [float(cell) for cell in text.split(",")] if text.strip() else []
    except ValueError:
        raise ConfigurationError(f"{what}: not a number in {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise ConfigurationError(f"{what}: non-finite value in {text!r}")
    if count is not None and len(values) != count:
        raise ConfigurationError(f"{what}: expected {count}, got {len(values)} numbers in {text!r}")
    return values


def write_path_csv(path: Path, dest) -> None:
    """Path as CSV: header ``t,u_-n,...,u_n``, one row per grid point."""
    n = (path.d - 1) // 2
    header = "t," + ",".join(f"u_{i}" for i in range(-n, n + 1))
    write_csv(dest, header, ((t, *values.tolist()) for t, values in zip(path.times.tolist(), path.states)))


def write_csv(dest, header: str, rows) -> None:
    """Rows of numbers under ``header``, the package's one CSV writer.  The
    first row sets one ``%``-template for all: ``%d`` for an int cell,
    :data:`FLOAT_FORMAT` for any other, so every row must have the first's
    cell types.  Each row is formatted and written on its own, so the text is
    never held whole."""
    rows = iter(rows)
    with open(dest, "w") as f:
        f.write(header + "\n")
        first = next(rows, None)
        if first is None:
            return
        template = ",".join("%d" if isinstance(v, (int, np.integer)) else FLOAT_FORMAT for v in first) + "\n"
        f.write(template % tuple(first))
        f.writelines(template % tuple(row) for row in rows)


def write_json(dest, payload: dict) -> None:
    """``payload`` as strict JSON, keys in insertion order, the package's
    one JSON writer: a non-finite float raises ValueError."""
    FsPath(dest).write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")


def read_csv(src, what: str, header: bool = False) -> tuple:
    """``(names, rows)`` of a CSV file of numbers, the package's one CSV
    reader: the first line's cells with ``header`` (else ``[]``), and a
    float array of one row per line below, as wide as the first line.
    Every line before the trailing blank ones is a row, read by
    :func:`parse_floats`, a blank or ``#`` line too; an error names
    ``what``, the file and a bad row's line."""
    p = FsPath(src)
    try:
        lines = p.read_text().rstrip().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"{what} {p}: cannot read ({exc})") from exc
    if not lines:
        raise ConfigurationError(f"{what} {p}: the file holds no rows")
    names, skip, label = (lines[0].split(","), 1, "the header") if header else ([], 0, "line 1")
    width = len(names) if header else len(parse_floats(lines[0], f"{what} {p}, line 1"))
    rows = np.empty((len(lines) - skip, width))
    for number, (line, row) in enumerate(zip(lines[skip:], rows), start=1 + skip):
        values = parse_floats(line, f"{what} {p}, line {number}")
        if len(values) != width:
            raise ConfigurationError(f"{what} {p}, line {number}: {len(values)} cells, {label} has {width}")
        row[:] = values
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
