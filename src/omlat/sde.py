"""Euler-Maruyama integration of the truncated lattice system, with the
pathwise and ensemble diagnostics that back the well-posedness theory:
the a priori sup-norm bound, the flow/shift consistency check, and the
truncation tail statistics.

:func:`euler_maruyama` is the one time stepper: it advances a batch of
trajectories together.  :func:`integrate` is its one-trajectory case and
:func:`integrate_ensemble` steps keyed noise trajectories in groups.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, IntegrationError
from .lattice import BLOWUP_THRESHOLD, LatticeConfig, drift, weighted_norm
from .noise import NoisePath, sample_noise, shift_noise
from .paths import Path

__all__ = [
    "euler_maruyama",
    "integrate",
    "integrate_ensemble",
    "apriori_bound_check",
    "BoundReport",
    "cocycle_check",
    "truncation_tail",
]

#: States one group of :func:`integrate_ensemble` may hold, in bytes: a
#: group has ``ENSEMBLE_STATE_BYTES // (8 (steps + 1) d)`` trajectories,
#: and at least one.
ENSEMBLE_STATE_BYTES = 32 * 2**20


def euler_maruyama(u0, increments, cfg: LatticeConfig, dt: float, trajectories,
                   k0: int = 0, observe=None):
    """Advance the states ``u0`` (m, d) by one Euler-Maruyama update per
    increment, all m trajectories together:

        ``u_{k+1} = u_k + drift(u_k) dt + q(t_k) * dW_k``,  ``t_k = k dt``,

    for the global steps ``k = k0 .. k0 + N - 1``, where
    ``dW_k = increments[:, k - k0]`` and ``increments`` has shape
    (m, N, d); ``trajectories[j]`` is the index that row j reports in an
    error.  Every row takes the same floating-point operations in the
    same order whatever m is, so a trajectory does not depend on the batch
    it is stepped in.  The integer offset ``k0`` lets a run be stepped a
    few steps at a time, each call continuing from the last one's final
    states: q is evaluated at exactly ``k dt``, so the chunks together
    give the one-call result bit for bit.

    The fast layout is the transposed view of a time-major (N, m, d)
    array, ``increments = dW.transpose(1, 0, 2)``: each step then reads
    one contiguous (m, d) block, where a sample-major (m, N, d) array is
    read with a stride of N d doubles.

    Returns the states, shape (m, N + 1, d).  With ``observe`` no state is
    kept: ``observe(k, u_{k+1}, q(t_k) * dW_k)`` is called after each step,
    with the global step k, and the final states (m, d) are returned.  The
    stepper updates its state in place: the ``u`` and ``forced`` arrays
    passed to ``observe`` are buffers reused from step to step, valid only
    during the call, so an observer copies what it keeps.  ``u0`` and
    ``increments`` are not modified.

    Raises
    ------
    IntegrationError
        If a component exceeds the blow-up threshold, naming the trajectory,
        the global step and the site.
    """
    m, steps, d = increments.shape
    qs = cfg.q.grid(dt * (k0 + np.arange(steps)), cfg.n)
    forced = np.empty((m, d))
    du = np.empty((m, d))  # drift * dt, then |u| for the blow-up check
    if observe is None:
        states = np.empty((m, steps + 1, d))
        states[:, 0] = u0
        u = states[:, 0]
    else:
        states = None
        u = np.array(u0, dtype=float)
    for j in range(steps):
        np.multiply(qs[j], increments[:, j], out=forced)
        drift(u, cfg, out=du)
        # rounds as u + drift * dt + forced, left to right
        du *= dt
        nxt = u if states is None else states[:, j + 1]
        np.add(u, du, out=nxt)
        nxt += forced
        u = nxt
        np.abs(u, out=du)
        k = k0 + j
        if not du.max() < BLOWUP_THRESHOLD:  # a NaN fails this too
            row, i = divmod(int(np.argmax(du)), d)  # the largest component, or a NaN
            label = int(trajectories[row])
            raise IntegrationError(
                f"trajectory {label} blew up at step {k + 1} (t={dt * (k + 1):.6g}), "
                f"site {i - cfg.n}: |u|={du[row, i]:.3e}",
                step=k + 1,
                time=dt * (k + 1),
                trajectory=label,
            )
        if states is None:
            observe(k, u, forced)
    return u if states is None else states


def integrate(u0, noise: NoisePath, cfg: LatticeConfig) -> Path:
    """Integrate ``u' = -nu A u - lam u - f(u) + g + q(t) dW/dt`` by
    Euler-Maruyama from u0, one update per noise increment:

        ``u_{k+1} = u_k + drift(u_k) dt + q(t_k) * dW_k``

    q is evaluated at ``dt (noise.origin_step + k)``, so a run restarted
    from an intermediate state with :func:`~omlat.noise.shift_noise`'s
    shifted noise takes the same steps as the run it continues.  The
    returned path's grid starts at 0.

    Raises
    ------
    ConfigurationError
        If u0 or the noise does not match the config's dimension.
    IntegrationError
        If any component exceeds the blow-up threshold, naming the noise
        path's trajectory index, the step counted from ``t = 0`` and the
        site.
    """
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (cfg.d,):
        raise ConfigurationError(f"u0 must have shape ({cfg.d},), got {u0.shape}")
    if noise.d != cfg.d:
        raise ConfigurationError(f"noise has {noise.d} sites, config has {cfg.d}")
    dt = noise.dt
    states = euler_maruyama(
        u0[None], noise.increments[None], cfg, dt, [noise.trajectory], noise.origin_step
    )
    return Path(states[0], dt)


def integrate_ensemble(u0, seed: int, count: int, steps: int, cfg: LatticeConfig):
    """Trajectories 0..count-1 of the keyed noise, each integrated from u0
    over ``steps`` steps of T / steps: yields ``(noise, path)`` in
    trajectory order, the same pairs as
    ``integrate(u0, sample_noise(seed, steps, d, dt, trajectory=j), cfg)``.

    Trajectories are stepped together in groups that hold at most
    :data:`ENSEMBLE_STATE_BYTES` of states; a group is stepped only when
    the previous one has been consumed.
    """
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (cfg.d,):
        raise ConfigurationError(f"u0 must have shape ({cfg.d},), got {u0.shape}")
    dt = cfg.T / steps
    size = max(1, ENSEMBLE_STATE_BYTES // (8 * (steps + 1) * cfg.d))
    for start in range(0, count, size):
        group = range(start, min(start + size, count))
        noises = [sample_noise(seed, steps, cfg.d, dt, trajectory=j) for j in group]
        increments = np.stack([noise.increments for noise in noises])
        states = euler_maruyama(np.tile(u0, (len(group), 1)), increments, cfg, dt, group)
        for noise, path_states in zip(noises, states):
            yield noise, Path(path_states, dt)


@dataclass(frozen=True)
class BoundReport:
    """Both sides of the a priori sup-norm estimate, per trajectory.

    ``lhs[j] = sup_t |u(t)|_rho^2`` and ``rhs[j]`` is the driving
    functional ``|u0|^2 + sup_t |W(t)|^2 + int (|W|^2 + |W|^(4p+2) + |g|^2) dt``
    for trajectory j.  The constant relating them is non-constructive, so
    only the empirical ratios are reported.
    """

    lhs: np.ndarray
    rhs: np.ndarray
    ratios: np.ndarray
    max_ratio: float


def apriori_bound_check(paths, wq_paths, cfg: LatticeConfig) -> BoundReport:
    """Evaluate the sup-norm bound on an ensemble of (solution, noise-path)
    pairs sharing one grid.

    The ratio sup|u|^2 / rhs is reported per trajectory (defined as 0 when
    the right-hand side vanishes); it should stay bounded under grid
    refinement.
    """
    if len(paths) != len(wq_paths):
        raise ConfigurationError("need one noise path per solution path")
    rho = cfg.rho
    g_norm_sq = weighted_norm(cfg.g, rho) ** 2
    lhs = np.empty(len(paths))
    rhs = np.empty(len(paths))
    for j, (u, w) in enumerate(zip(paths, wq_paths)):
        if not u.same_grid(w):
            raise ConfigurationError("solution and noise paths are on different grids")
        u_sq = np.sum((rho * u.states) ** 2, axis=1)
        w_sq = np.sum((rho * w.states) ** 2, axis=1)
        integrand = w_sq + w_sq ** (2 * cfg.f.p + 1) + g_norm_sq
        lhs[j] = float(np.max(u_sq))
        rhs[j] = float(
            np.sum((rho * u.states[0]) ** 2)
            + np.max(w_sq)
            + np.trapezoid(integrand, dx=u.dt)
        )
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(rhs > 0, lhs / np.where(rhs > 0, rhs, 1.0), 0.0)
    return BoundReport(lhs=lhs, rhs=rhs, ratios=ratios, max_ratio=float(np.max(ratios)))


def cocycle_check(u0, noise: NoisePath, starts, cfg: LatticeConfig) -> list:
    """Flow consistency under the noise shift.

    Integrates once over the full horizon, then, for each restart time s
    in ``starts``, again from the state at time s using the shifted
    increments and time-shifted coefficients, and returns for each s the
    largest weighted-norm deviation between the two legs.  For
    Euler-Maruyama both legs perform identical arithmetic, so the
    deviation must vanish to rounding.  Every s must be a grid time.
    """
    full = integrate(u0, noise, cfg)
    devs = []
    for s in starts:
        shifted = shift_noise(noise, s)
        m = shifted.origin_step - noise.origin_step
        restarted = integrate(full.states[m], shifted, cfg)
        dev = 0.0
        for k in range(restarted.steps + 1):
            dev = max(dev, weighted_norm(full.states[m + k] - restarted.states[k], cfg.rho))
        devs.append(dev)
    return devs


def truncation_tail(paths, K: int, rho) -> float:
    """Ensemble tail statistic ``max_t mean_j sum_{|i|>K} (rho_i u_i(t))^2``.

    ``K`` must be below the truncation half-width; K = n gives the empty
    sum, 0.
    """
    d = paths[0].d
    n = (d - 1) // 2
    if K > n:
        raise ConfigurationError(f"cutoff K={K} exceeds the truncation half-width {n}")
    rho = np.asarray(rho, dtype=float)
    sites = np.arange(-n, n + 1)
    mask = np.abs(sites) > K
    if not np.any(mask):
        return 0.0
    acc = None
    for p in paths:
        if p.d != d:
            raise ConfigurationError("ensemble paths have mixed dimensions")
        tail = np.sum((rho[mask] * p.states[:, mask]) ** 2, axis=1)
        acc = tail if acc is None else acc + tail
    return float(np.max(acc / len(paths)))
