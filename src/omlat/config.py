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
values for sites -m..m (m >= n).  Unknown keys are an error.
"""
from __future__ import annotations

import hashlib
from pathlib import Path as FsPath

import numpy as np

from .errors import ConfigurationError
from .io import read_csv
from .lattice import LatticeConfig, PolynomialNonlinearity
from .noise import NoiseCoefficient

__all__ = ["parse_config", "load_config", "parse_q_spec", "config_hash"]

_REQUIRED = {"n", "nu", "lambda", "f_coeffs", "p", "C_f", "g", "q_spec", "rho", "T"}


def _parse_float_list(raw: str, key: str) -> list:
    """Comma-separated finite numbers (empty tokens skipped); a
    configuration error names ``key`` otherwise."""
    try:
        values = [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigurationError(f"{key}: cannot parse list {raw!r}") from exc
    if not all(np.isfinite(values)):
        raise ConfigurationError(f"{key}: non-finite value in {raw!r}")
    return values


def parse_q_spec(raw: str, base_dir: FsPath | None = None) -> NoiseCoefficient:
    """Parse the q_spec grammar (see module docstring)."""
    kind, _, rest = raw.strip().partition(":")
    if kind == "constant":
        try:
            return NoiseCoefficient.constant(float(rest))
        except ValueError as exc:
            raise ConfigurationError(f"q_spec constant: bad value {rest!r}") from exc
    if kind == "example5":
        parts = rest.split(",")
        if len(parts) != 2:
            raise ConfigurationError("q_spec example5 needs two parameters: <c0>,<a>")
        try:
            return NoiseCoefficient.affine(float(parts[0]), float(parts[1]))
        except ValueError as exc:
            raise ConfigurationError(f"q_spec example5: bad parameters {rest!r}") from exc
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
        try:
            return float(fields[key])
        except ValueError as exc:
            raise ConfigurationError(f"field {key!r}: bad number {fields[key]!r}") from exc

    def integer(key):
        val = number(key)
        if not val.is_integer():  # nan and inf too
            raise ConfigurationError(f"field {key!r}: expected an integer, got {fields[key]!r}")
        return int(val)

    n = integer("n")
    d = 2 * n + 1
    f = PolynomialNonlinearity(
        coeffs=tuple(_parse_float_list(fields["f_coeffs"], "f_coeffs")),
        p=integer("p"),
        growth_constant=number("C_f"),
    )
    if not f.condition_f2():
        raise ConfigurationError(
            f"field 'C_f': f breaks the growth bound |f(x)| <= C_f |x| (1 + x^(2p)) "
            f"for C_f = {f.growth_constant:g}, p = {f.p}"
        )
    g = None if fields["g"] == "zero" else np.array(_parse_float_list(fields["g"], "g"))
    rho = None if fields["rho"] == "uniform" else np.array(_parse_float_list(fields["rho"], "rho"))
    if g is not None and g.size != d:
        raise ConfigurationError(f"field 'g': expected {d} entries, got {g.size}")
    if rho is not None and rho.size != d:
        raise ConfigurationError(f"field 'rho': expected {d} entries, got {rho.size}")
    return LatticeConfig(
        n=n,
        nu=number("nu"),
        lam=number("lambda"),
        f=f,
        q=parse_q_spec(fields["q_spec"], base_dir),
        T=number("T"),
        g=g,
        rho=rho,
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
