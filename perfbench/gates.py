"""Output gates: checks on each command's files that do not depend on the
bytes of the random stream or on rounding in the linear solve.

Each gate takes the command's output directory and returns a list of
failure messages (empty when the outputs are correct).  Pure Python.
"""
from __future__ import annotations

import csv
import json
import math
import os

import workloads as wl

EX5_SITES = 61


def _table(path):
    """Header and float rows of a CSV; raises ValueError on a bad cell."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(x) for x in row] for row in rows[1:]]


def _csv(path, rows, cols, first="t") -> list:
    """Failures of a numeric table: header starting with ``first``, the given
    shape, finite values only."""
    try:
        header, data = _table(path)
    except (OSError, ValueError, IndexError) as exc:
        return [f"{path}: unreadable ({exc})"]
    fails = []
    if header[0] != first or len(header) != cols:
        fails.append(f"{path}: header {','.join(header)!r}, want {cols} columns from {first!r}")
    if len(data) != rows or any(len(r) != cols for r in data):
        fails.append(f"{path}: shape {len(data)} rows, want {rows} x {cols}")
    if not all(math.isfinite(v) for r in data for v in r):
        fails.append(f"{path}: non-finite value")
    return fails


def _action(out, name) -> list:
    try:
        with open(os.path.join(out, "om_report.json")) as fh:
            total = json.load(fh)["total"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"{name}: no action report ({exc})"]
    ref = wl.MPP_ACTION.get(name)
    if ref is None:
        return [] if math.isfinite(total) else [f"{name}: action {total} not finite"]
    if abs(total - ref) > 1e-9 * abs(ref):
        return [f"{name}: action {total!r} differs from reference {ref!r} by more than 1e-9 relative"]
    return []


def _mpp(steps, slices=()):
    def gate(out, name):
        fails = _action(out, name) + _csv(os.path.join(out, "mpp_path.csv"), steps + 1, EX5_SITES + 1)
        for i in slices:
            fails += _csv(os.path.join(out, f"slice_i{i}.csv"), steps + 1, 2)
        return fails

    return gate


def _simulate(out, name):
    fails = []
    for j in range(wl.ENSEMBLE):
        fails += _csv(os.path.join(out, f"path_{j:03d}.csv"), 601, EX5_SITES + 1)
    return fails


def _truncation(out, name):
    path = os.path.join(out, "truncation.csv")
    fails = _csv(path, 30, 3, "K")
    if fails:
        return fails
    tails = [r[1] for r in _table(path)[1]]
    if any(a < b for a, b in zip(tails, tails[1:])):
        fails.append(f"{path}: truncation tails are not monotone")
    return fails


def _bound(out, name):
    return _csv(os.path.join(out, "bound.csv"), wl.BOUND_ENSEMBLE, 4, "trajectory")


def _cocycle(out, name):
    path = os.path.join(out, "cocycle.csv")
    fails = _csv(path, 2, 2, "s")
    if not fails and max(r[1] for r in _table(path)[1]) > 1e-12:
        fails.append(f"{path}: cocycle deviation above 1e-12")
    return fails


def _tube(out, name):
    path = os.path.join(out, "tube.csv")
    fails = _csv(path, 2, 7, "eps")
    if fails:
        return fails
    for eps, _, _, ratio, lo, hi, _ in _table(path)[1]:
        if not lo <= 1.0 <= hi:
            fails.append(f"{path}: eps={eps}: zero-reference interval [{lo}, {hi}] excludes 1")
    return fails


def binomial_tails(k: int, n: int, p: float) -> tuple:
    """``P(X <= k)`` and ``P(X >= k)`` for X ~ Binomial(n, p), 0 < p < 1."""
    def pmf(j):
        return math.exp(
            math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
            + j * math.log(p) + (n - j) * math.log1p(-p)
        )

    below = sum(pmf(j) for j in range(k))
    return below + pmf(k), 1.0 - below


def _smallball(out, name):
    path = os.path.join(out, "smallball.csv")
    fails = _csv(path, len(wl.SMALLBALL_EPS), 6, "eps")
    if fails:
        return fails
    n = wl.SMALLBALL_SAMPLES
    for eps, est, *_ in _table(path)[1]:
        hits = round(est * n)
        ref = wl.SMALLBALL_REFERENCE[eps]
        if min(binomial_tails(hits, n, ref)) < wl.SMALLBALL_TAIL:
            fails.append(f"{path}: eps={eps}: {hits} hits in {n} inconsistent with reference {ref}")
    return fails


GATES = {
    "mpp_dt05": _mpp(600, slices=(0, 10)),
    "mpp_dt025": _mpp(1200),
    "mpp_newton": _mpp(600),
    "om_dt025": _action,
    "simulate": _simulate,
    "truncation": _truncation,
    "bound": _bound,
    "cocycle": _cocycle,
    "om_path000": _action,
    "tube": _tube,
    "smallball": _smallball,
}
