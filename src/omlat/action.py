"""Discretized path action for the lattice system, with its exact gradient.

For a path phi on a uniform grid the action has two parts,

    drift part:  sum_k dt * sum_i | r_{k,i} / q_i(t_{k+1/2}) |^2
    trace part:  sum_k dt * sum_i (-f'(phi_{k+1/2,i}))

where the interval residual

    r_k = (phi_{k+1} - phi_k)/dt + (nu A + lam I) phi_{k+1/2} + f(phi_{k+1/2}) - g

is the midpoint discretization of ``phi' + (nu A + lam I) phi - (-f(phi) + g)``
and the division by q is componentwise (the noise operator is diagonal).
Neither part carries the weights rho of l^2_rho (see the README).  The
midpoint scheme is second-order accurate, so the total converges at
O(dt^2) on smooth paths.

No 1/2 prefactor is applied here: the tube-probability experiments use
exp(-total / 2) themselves.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateNoiseError, IntegrationError
from .lattice import LatticeConfig, apply_A
from .paths import Path

__all__ = [
    "OMReport",
    "trace_term",
    "om_action",
]

#: Below this magnitude a noise coefficient counts as degenerate.
Q_DEGENERACY_FLOOR = 1e-12


@dataclass(frozen=True)
class OMReport:
    """Action of one path: drift and trace parts, their sum, and the
    per-interval breakdown (arrays of length N)."""

    drift_term: float
    trace_term: float
    total: float
    dt: float
    n: int
    per_interval_drift: np.ndarray
    per_interval_trace: np.ndarray

    def as_dict(self) -> dict:
        return {
            "drift_term": self.drift_term,
            "trace_term": self.trace_term,
            "total": self.total,
            "dt": self.dt,
            "n": self.n,
            "per_interval": [
                [float(a), float(b)]
                for a, b in zip(self.per_interval_drift, self.per_interval_trace)
            ],
        }


def _check_path(path: Path, cfg: LatticeConfig) -> np.ndarray:
    """The action's one entry check: the path's sites are the config's and
    its grid passes :func:`_check_grid`.  Returns q at the interval
    midpoints, shape (N, d)."""
    if path.d != cfg.d:
        raise ConfigurationError(f"path has {path.d} sites, config has {cfg.d}")
    return _check_grid(path.steps, path.dt, cfg)


def _check_grid(steps: int, dt: float, cfg: LatticeConfig) -> np.ndarray:
    """The grid of ``steps`` steps of ``dt`` covers the config's horizon,
    and every |q_i| at its interval midpoints is at least
    :data:`Q_DEGENERACY_FLOOR`.  Returns q there, shape (steps, d)."""
    T = float(dt * steps)
    if abs(T - cfg.T) > 1e-9 * max(1.0, cfg.T):
        raise ConfigurationError(
            f"path covers [0, {T:g}] but the configured horizon is {cfg.T:g}"
        )
    t_mid = dt * np.arange(steps + 1)
    t_mid = t_mid[:-1] + t_mid[1:]
    t_mid *= 0.5
    qs = cfg.q.grid(t_mid, cfg.n)
    if np.min(np.abs(qs)) < Q_DEGENERACY_FLOOR:
        k, i = np.unravel_index(int(np.argmin(np.abs(qs))), qs.shape)
        raise DegenerateNoiseError(
            f"noise coefficient below {Q_DEGENERACY_FLOOR:g} at t={t_mid[k]:.6g}, "
            f"site {i - cfg.n}: the action is not defined"
        )
    return qs


#: The action, its gradient and the solver's band visit the intervals in
#: blocks of about this many values, so their work arrays stay far below a
#: path's size at every N; an interval's arithmetic is the same in any block.
_BLOCK_VALUES = 8192


def _blocks(steps: int, d: int):
    """The intervals ``range(k0, k1)`` of each block, in order, and the
    block length: ``_BLOCK_VALUES // d`` intervals, at least one."""
    rows = min(steps, max(1, _BLOCK_VALUES // d))
    return [(k0, min(k0 + rows, steps)) for k0 in range(0, steps, rows)], rows


def _midpoints(states: np.ndarray, out=None) -> np.ndarray:
    """Interval midpoints ``(phi_k + phi_{k+1}) / 2`` of ``states``, into ``out``."""
    out = np.add(states[:-1], states[1:], out=out)
    out *= 0.5
    return out


def _residuals(states: np.ndarray, dt: float, cfg: LatticeConfig, mids: np.ndarray, out=None, work=(None, None)):
    """The interval residuals r_k of ``states`` (midpoints ``mids``), summed
    left to right as written in the module docstring, into ``out``; the
    two ``work`` arrays (shaped like ``mids``) take the terms."""
    res = np.subtract(states[1:], states[:-1], out=out)
    res /= dt
    term = apply_A(mids, out=work[0])
    term *= cfg.nu
    res += term
    res += np.multiply(mids, cfg.lam, out=term)
    res += cfg.f.deriv(mids, 0, out=term, work=work[1])
    res -= cfg.g
    return res


def trace_term(state, cfg: LatticeConfig):
    """Trace of the nonlinear drift's state derivative: a float for one
    state of shape (d,), an array for a stack of states (..., d).

    The nonlinearity acts componentwise, so the derivative is diagonal and
    the trace reduces to ``sum_i (-f'(u_i))``.
    """
    state = np.asarray(state, dtype=float)
    return -np.sum(cfg.f.deriv(state), axis=-1)


def om_action(path: Path, cfg: LatticeConfig) -> OMReport:
    """Evaluate the discretized action of a path.

    Raises
    ------
    ConfigurationError
        If the path's sites or horizon are not the config's, or, as
        :class:`DegenerateNoiseError`, if |q_i(t)| drops below
        ``Q_DEGENERACY_FLOOR`` at any interval midpoint.
    IntegrationError
        If the action overflows, naming the first interval at which its
        running sum is not finite.
    """
    return _action(path.states, path.dt, cfg, _check_path(path, cfg))


def _action(states: np.ndarray, dt: float, cfg: LatticeConfig, qs: np.ndarray) -> OMReport:
    """:func:`om_action` of the path ``states`` of step ``dt``, for which
    :func:`_check_path` returned ``qs``, block by block in four work arrays.
    Non-finite states raise IntegrationError, as an overflowing action does."""
    steps, d = states.shape[0] - 1, states.shape[1]
    drift_k, trace_k = np.empty(steps), np.empty(steps)
    blocks, rows = _blocks(steps, d)
    work = np.empty((4, rows, d))
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        for k0, k1 in blocks:
            mids, res, a, b = work[:, : k1 - k0]
            _midpoints(states[k0 : k1 + 1], out=mids)
            trace_k[k0:k1] = trace_term(mids, cfg)
            _residuals(states[k0 : k1 + 1], dt, cfg, mids, out=res, work=(a, b))
            res /= qs[k0:k1]
            np.sum(np.square(res, out=res), axis=1, out=drift_k[k0:k1])
        drift_k *= dt  # dt sum_i (r_k / q)^2
        trace_k *= dt
        drift_total = float(np.sum(drift_k))
        trace_total = float(np.sum(trace_k))
        if not math.isfinite(drift_total + trace_total):
            bad = np.flatnonzero(~np.isfinite(np.cumsum(drift_k) + np.cumsum(trace_k)))
            k = int(bad[0]) if bad.size else steps - 1
            raise IntegrationError(
                f"the action is not finite: it overflows on interval {k} "
                f"(t in [{k * dt:.6g}, {(k + 1) * dt:.6g}])",
                step=k,
                time=float(k * dt),
            )
    return OMReport(
        drift_term=drift_total,
        trace_term=trace_total,
        total=drift_total + trace_total,
        dt=dt,
        n=cfg.n,
        per_interval_drift=drift_k,
        per_interval_trace=trace_k,
    )


def _gradient(states: np.ndarray, dt: float, cfg: LatticeConfig, qs: np.ndarray) -> np.ndarray:
    """Exact gradient of the action of ``states`` (step ``dt``, ``qs`` from
    :func:`_check_path`) in the interior states phi_1..phi_{N-1}, holding
    the endpoints fixed.  Shape (N-1, d).

    Each interval contributes through the chain rule of its residual, its
    midpoint, and the trace part:

        d(drift_k)/d(phi_k)     = 2 dt (r_k / q^2) . (-1/dt + L_k / 2)
        d(drift_k)/d(phi_{k+1}) = 2 dt (r_k / q^2) . (+1/dt + L_k / 2)

    with ``L_k = nu A + lam I + diag f'(m_k)`` (self-adjoint), plus
    ``-dt/2 f''(m_k)`` from the trace.  It works block by block in five
    work arrays.  The sum starts from zeros: ``0.0 + x`` turns -0.0 into 0.0.
    """
    steps, d = states.shape[0] - 1, states.shape[1]
    grad = np.zeros((steps - 1, d))
    blocks, rows = _blocks(steps, d)
    work = np.empty((5, rows, d))
    for k0, k1 in blocks:
        mids, w, lw, a, b = work[:, : k1 - k0]
        _midpoints(states[k0 : k1 + 1], out=mids)
        _residuals(states[k0 : k1 + 1], dt, cfg, mids, out=w, work=(a, b))
        w *= 2.0 * dt
        w /= np.square(qs[k0:k1], out=a)  # w = 2 dt r / q^2
        # L_k w for every interval: nu A w + lam w + f'(m_k) w, halved
        apply_A(w, out=lw)
        lw *= cfg.nu
        lw += np.multiply(w, cfg.lam, out=a)
        lw += np.multiply(cfg.f.deriv(mids, out=a, work=b), w, out=a)
        lw *= 0.5
        tgrad = cfg.f.deriv(mids, 2, out=a, work=b)
        tgrad *= -0.5 * dt  # d trace_k / d phi_k (= / d phi_{k+1})
        plus = np.divide(w, dt, out=b)  # d drift_k / d phi_{k+1}
        plus += lw
        plus += tgrad
        end = min(k1, steps - 1)  # interval k contributes at phi_{k+1}: row k
        grad[k0:end] += plus[: end - k0]
        minus = np.negative(w, out=b)  # d drift_k / d phi_k
        minus /= dt
        minus += lw
        minus += tgrad
        start = max(k0, 1)  # interval k contributes at phi_k: row k - 1
        grad[start - 1 : k1 - 1] += minus[start - k0 :]
    return grad
