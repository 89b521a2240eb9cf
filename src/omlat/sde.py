"""Euler-Maruyama integration of the truncated lattice system, with the
pathwise and ensemble diagnostics that back the well-posedness theory:
the a priori sup-norm bound, the flow/shift consistency check, and the
truncation tail statistics.

:func:`euler_maruyama` is the one time stepper: it advances a batch of
trajectories together.  :func:`integrate` is its one-trajectory case and
:func:`integrate_ensemble` steps keyed noise trajectories in groups.
"""
from __future__ import annotations

import math
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
    :data:`ENSEMBLE_STATE_BYTES` of states, each group's noise drawn once
    into the (m, steps, d) array the stepper reads.  A group is stepped
    only when the previous one has been consumed and released, so a
    consumer that reduces each pair as it comes holds one group and one
    pair, a copy of its rows: a view would keep its whole group alive.
    """
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (cfg.d,):
        raise ConfigurationError(f"u0 must have shape ({cfg.d},), got {u0.shape}")
    dt = cfg.T / steps
    size = max(1, ENSEMBLE_STATE_BYTES // (8 * (steps + 1) * cfg.d))
    for start in range(0, count, size):
        group = range(start, min(start + size, count))
        increments = np.empty((len(group), steps, cfg.d))
        for j, row in zip(group, increments):
            row[:] = sample_noise(seed, steps, cfg.d, dt, trajectory=j).increments
        states = euler_maruyama(np.tile(u0, (len(group), 1)), increments, cfg, dt, group)
        for j, row, path_states in zip(group, increments, states):
            yield NoisePath(dt=dt, increments=row.copy(), trajectory=j), Path(path_states.copy(), dt)
        del increments, states, row, path_states  # before the next group is allocated


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


def apriori_bound_check(pairs, cfg: LatticeConfig) -> BoundReport:
    """Evaluate the sup-norm bound on an ensemble of (solution, noise-path)
    pairs, each pair on one grid, in one pass over ``pairs``: a list, or
    a stream such as :func:`integrate_ensemble`'s; only the two sides of
    each pair's bound are kept.

    The ratio sup|u|^2 / rhs is reported per trajectory (defined as 0 when
    the right-hand side vanishes); it should stay bounded under grid
    refinement.  A right-hand side that overflows (|W|^(4p+2) at a large
    p) raises :class:`IntegrationError` naming the pair's index in ``pairs``.
    """
    rho = cfg.rho
    g_norm_sq = weighted_norm(cfg.g, rho) ** 2
    lhs, rhs = [], []
    for j, (u, w) in enumerate(pairs):
        if not u.same_grid(w):
            raise ConfigurationError("solution and noise paths are on different grids")
        with np.errstate(over="ignore"):  # an overflow is caught below
            u_sq = np.sum((rho * u.states) ** 2, axis=1)
            w_sq = np.sum((rho * w.states) ** 2, axis=1)
            integrand = w_sq + w_sq ** (2 * cfg.f.p + 1) + g_norm_sq
            rhs_j = float(np.sum((rho * u.states[0]) ** 2) + np.max(w_sq) + np.trapezoid(integrand, dx=u.dt))
        if not math.isfinite(rhs_j):
            raise IntegrationError(f"the bound functional of trajectory {j} overflows at p = {cfg.f.p}", trajectory=j)
        lhs.append(float(np.max(u_sq)))
        rhs.append(rhs_j)
    lhs, rhs = np.array(lhs), np.array(rhs)
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
        # each state's weighted_norm of the difference, from one product
        for row in cfg.rho * (full.states[m : m + restarted.steps + 1] - restarted.states):
            dev = max(dev, math.sqrt(row.dot(row)))
        devs.append(dev)
    return devs


def truncation_tail(pairs, cutoffs, rho, rho_wide) -> tuple:
    """Tail statistics of an ensemble truncated at n and of the same
    trajectories on a lattice widened to n' >= n, in one pass over
    ``pairs``, the (u, v) paths of each trajectory at n and at n': a list,
    or a stream such as ``zip`` of two :func:`integrate_ensemble` runs.

    ``rho`` and ``rho_wide`` are the weights of the two lattices.  For
    each cutoff K, at most n (K = n gives the empty sum, 0),

        ``tails[c] = max_t mean_j sum_{|i|>K} (rho_i u_i(t))^2``,  K = cutoffs[c],

    ``tails_wide[c]`` is the same statistic of v, and the mean-square
    difference on the common sites is
    ``msd = mean_j max_t sum_{|i|<=n} (u_i(t) - v_i(t))^2``.
    Returns ``(tails, tails_wide, msd)``.
    """
    rho, rho_wide = np.asarray(rho, dtype=float), np.asarray(rho_wide, dtype=float)
    n, off = (rho.size - 1) // 2, (rho_wide.size - rho.size) // 2
    if off < 0:
        raise ConfigurationError(f"the widened lattice has {rho_wide.size} sites, fewer than {rho.size}")
    if max(cutoffs, default=0) > n:
        raise ConfigurationError(f"cutoff K={max(cutoffs)} exceeds the truncation half-width {n}")
    masks = [np.abs(np.arange(-n, n + 1)) > K for K in cutoffs]
    masks_wide = [np.abs(np.arange(-n - off, n + off + 1)) > K for K in cutoffs]
    acc, msd, count = None, 0.0, 0
    for u, v in pairs:
        if (u.d, v.d) != (rho.size, rho_wide.size):
            raise ConfigurationError(f"paths of {u.d} and {v.d} sites, weights of {rho.size} and {rho_wide.size}")
        # the tails of u at each cutoff, then those of v
        tail = [np.sum((rho[m] * u.states[:, m]) ** 2, axis=1) for m in masks]
        tail += [np.sum((rho_wide[m] * v.states[:, m]) ** 2, axis=1) for m in masks_wide]
        acc = tail if acc is None else [a + t for a, t in zip(acc, tail)]
        msd += np.max(np.sum((u.states - v.states[:, off : off + u.d]) ** 2, axis=1))
        count += 1
    if not count:
        raise ConfigurationError("the tails need at least one trajectory")
    tails = [float(np.max(a / count)) for a in acc]
    return tails[: len(masks)], tails[len(masks) :], msd / count
