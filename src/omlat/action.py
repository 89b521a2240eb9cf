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
    "om_gradient",
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
    """The action's one entry check: the path's sites and horizon are the
    config's, and every |q_i| at the interval midpoints is at least
    :data:`Q_DEGENERACY_FLOOR`.  Returns q there, shape (N, d)."""
    if path.d != cfg.d:
        raise ConfigurationError(f"path has {path.d} sites, config has {cfg.d}")
    if abs(path.T - cfg.T) > 1e-9 * max(1.0, cfg.T):
        raise ConfigurationError(
            f"path covers [0, {path.T:g}] but the configured horizon is {cfg.T:g}"
        )
    times = path.times
    t_mid = 0.5 * (times[:-1] + times[1:])
    qs = cfg.q.grid(t_mid, cfg.n)
    if np.min(np.abs(qs)) < Q_DEGENERACY_FLOOR:
        k, i = np.unravel_index(int(np.argmin(np.abs(qs))), qs.shape)
        raise DegenerateNoiseError(
            f"noise coefficient below {Q_DEGENERACY_FLOOR:g} at t={t_mid[k]:.6g}, "
            f"site {i - cfg.n}: the action is not defined"
        )
    return qs


def _midpoints(path: Path) -> np.ndarray:
    return 0.5 * (path.states[:-1] + path.states[1:])


def _residuals(path: Path, cfg: LatticeConfig, mids: np.ndarray) -> np.ndarray:
    vel = (path.states[1:] - path.states[:-1]) / path.dt
    return vel + cfg.nu * apply_A(mids) + cfg.lam * mids + cfg.f(mids) - cfg.g


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
    qs = _check_path(path, cfg)
    mids = _midpoints(path)
    dt = path.dt
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        res = _residuals(path, cfg, mids)
        drift_k = dt * np.sum((res / qs) ** 2, axis=1)
        trace_k = dt * trace_term(mids, cfg)
        drift_total = float(np.sum(drift_k))
        trace_total = float(np.sum(trace_k))
        if not math.isfinite(drift_total + trace_total):
            bad = np.flatnonzero(~np.isfinite(np.cumsum(drift_k) + np.cumsum(trace_k)))
            k = int(bad[0]) if bad.size else path.steps - 1
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


def om_gradient(path: Path, cfg: LatticeConfig) -> np.ndarray:
    """Exact gradient of the discrete action with respect to the interior
    states phi_1..phi_{N-1}, holding the endpoints fixed.  Shape (N-1, d).

    Each interval contributes through the chain rule of its residual, its
    midpoint, and the trace part:

        d(drift_k)/d(phi_k)     = 2 dt (r_k / q^2) . (-1/dt + L_k / 2)
        d(drift_k)/d(phi_{k+1}) = 2 dt (r_k / q^2) . (+1/dt + L_k / 2)

    with ``L_k = nu A + lam I + diag f'(m_k)`` (self-adjoint), plus
    ``-dt/2 f''(m_k)`` from the trace.
    """
    qs = _check_path(path, cfg)
    mids = _midpoints(path)
    res = _residuals(path, cfg, mids)
    dt = path.dt
    w = 2.0 * dt * res / qs**2  # (N, d)
    fp = cfg.f.deriv(mids)
    # L_k w for every interval: nu A w + lam w + f'(m_k) w.
    lw = cfg.nu * apply_A(w) + cfg.lam * w + fp * w
    plus = w / dt + 0.5 * lw  # d drift_k / d phi_{k+1}
    minus = -w / dt + 0.5 * lw  # d drift_k / d phi_k
    tgrad = -0.5 * dt * cfg.f.deriv(mids, 2)  # d trace_k / d phi_k (= / d phi_{k+1})
    grad = np.zeros((path.steps - 1, path.d))
    grad += plus[:-1] + tgrad[:-1]  # interval k = m-1 contributes at phi_m
    grad += minus[1:] + tgrad[1:]  # interval k = m contributes at phi_m
    return grad
