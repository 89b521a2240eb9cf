"""Config-file parsing.

One key-value text file defines the whole problem; every subcommand
reads the same format.  Recognized keys (all required except where
noted):

    n        truncation half-width (sites -n..n)
    nu       diffusion coefficient (> 0)
    lambda   decay coefficient (> 0)
    f_coeffs comma-separated odd-polynomial coefficients (x, x^3, ...)
    p        growth exponent of the nonlinearity bound
    C_f      growth constant of the nonlinearity bound, checked on a grid
    g        comma-separated forcing vector of length 2n+1, or "zero"
    q_spec   noise coefficient: constant:<v> | example5:<c0>,<a> | table:<path>
    rho      comma-separated positive weights of length 2n+1, or "uniform"
    T        time horizon (> 0)

``example5:<c0>,<a>`` selects the affine-in-time profile
``c0 (a - t + 1/(|i|+1))``; ``table:<path>`` reads a CSV whose first
column is the time grid and whose remaining 2m+1 columns are the site
values for sites -m..m (m >= n).  Unknown keys are an error.  Every
number and comma list is read by :func:`omlat.io.parse_floats`: an empty
value is the empty list, and every cell of any other must be a finite
number.
"""
from __future__ import annotations

import hashlib
from pathlib import Path as FsPath

import numpy as np

from .errors import ConfigurationError
from .io import parse_floats, read_csv
from .lattice import LatticeConfig, PolynomialNonlinearity
from .noise import NoiseCoefficient

__all__ = ["parse_config", "load_config", "parse_q_spec", "config_hash"]

_REQUIRED = {"n", "nu", "lambda", "f_coeffs", "p", "C_f", "g", "q_spec", "rho", "T"}


def parse_q_spec(raw: str, base_dir: FsPath | None = None) -> NoiseCoefficient:
    """Parse the q_spec grammar (see module docstring)."""
    kind, _, rest = raw.strip().partition(":")
    if kind == "constant":
        return NoiseCoefficient.constant(*parse_floats(rest, "q_spec constant", 1))
    if kind == "example5":
        return NoiseCoefficient.affine(*parse_floats(rest, "q_spec example5 <c0>,<a>", 2))
    if kind == "table":
        path = FsPath(rest)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        _, data = read_csv(path, "q_spec table")
        if data.shape[1] < 2:
            raise ConfigurationError(f"q_spec table {path}: needs a time column and site columns")
        try:
            return NoiseCoefficient.table(data[:, 0], data[:, 1:])
        except ConfigurationError as exc:
            raise ConfigurationError(f"q_spec table {path}: {exc}") from None
    raise ConfigurationError(f"unknown q_spec kind {kind!r}")


def parse_config(text: str, base_dir: FsPath | None = None) -> LatticeConfig:
    """Build a LatticeConfig from config-file text.

    Raises a configuration error naming the offending field for missing,
    unknown, or malformed keys.
    """
    fields = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {line!r}")
        key = key.strip()
        if key in fields:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        fields[key] = value.strip()

    unknown = set(fields) - _REQUIRED
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    missing = _REQUIRED - set(fields)
    if missing:
        raise ConfigurationError(f"missing config keys: {sorted(missing)}")

    def number(key):
        return parse_floats(fields[key], f"field {key!r}", 1)[0]

    def integer(key):
        val = number(key)
        if not val.is_integer():
            raise ConfigurationError(f"field {key!r}: expected an integer, got {fields[key]!r}")
        return int(val)

    def vector(key, keyword):
        """The list ``key`` of 2n+1 numbers, or None for ``keyword``."""
        return None if fields[key] == keyword else np.array(parse_floats(fields[key], f"field {key!r}", 2 * n + 1))

    n = integer("n")
    f = PolynomialNonlinearity(
        coeffs=tuple(parse_floats(fields["f_coeffs"], "field 'f_coeffs'")),
        p=integer("p"),
        growth_constant=number("C_f"),
    )
    if not f.condition_f2():
        raise ConfigurationError(
            f"field 'C_f': f breaks the growth bound |f(x)| <= C_f |x| (1 + x^(2p)) "
            f"for C_f = {f.growth_constant:g}, p = {f.p}"
        )
    return LatticeConfig(
        n=n,
        nu=number("nu"),
        lam=number("lambda"),
        f=f,
        q=parse_q_spec(fields["q_spec"], base_dir),
        T=number("T"),
        g=vector("g", "zero"),
        rho=vector("rho", "uniform"),
    )


def load_config(path) -> LatticeConfig:
    """Parse a config file from disk."""
    p = FsPath(path)
    try:
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"config file {p}: cannot read ({exc})") from exc
    return parse_config(text, base_dir=p.parent)


def config_hash(path) -> str:
    """Hash of the raw config file bytes (first 16 hex digits of sha256)."""
    return hashlib.sha256(FsPath(path).read_bytes()).hexdigest()[:16]
