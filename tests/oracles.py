"""Independent oracles shared by the tests.

:func:`ou_convolution` is the damped noise path, stepped one trajectory
at a time.  The tube's convolution denominator is checked against it.
:func:`ou_states` is its update loop, which also steps a stack of
trajectories together.  :func:`strong_errors` measures the strong error
of the Euler-Maruyama stepper against a finer resolution of the same
Brownian paths.  :func:`l2rho_path_norm` is the weighted L2 distance of
two paths by the trapezoid rule, against which the tube's block
distances are checked.
"""
import numpy as np
from numpy.random import Generator, Philox

from omlat import ConfigurationError, LatticeConfig, NoiseCoefficient, NoisePath, Path
from omlat.sde import euler_maruyama


def l2rho_path_norm(path_a: Path, path_b: Path, rho) -> float:
    """Trapezoid-rule distance ``(int_0^T |a(t) - b(t)|_rho^2 dt)^(1/2)``
    between two paths on one grid."""
    if not path_a.same_grid(path_b):
        raise ConfigurationError("paths are on different grids")
    rho = np.asarray(rho, dtype=float)
    sq = np.sum((rho * (path_a.states - path_b.states)) ** 2, axis=1)
    return float(np.sqrt(np.trapezoid(sq, dx=path_a.dt)))


def ou_convolution(noise: NoisePath, q: NoiseCoefficient, alpha, t_offset: float = 0.0) -> Path:
    """Exponentially damped noise path (per-site, rate alpha_i >= 0).

    One step of the exact-exponential update with left-endpoint kernel:

        ``X_i(t_{k+1}) = e^{-alpha_i dt} X_i(t_k) + q_i(t_k) e^{-alpha_i dt} dW_i(t_k)``

    with X(0) = 0.  As alpha -> 0 this reduces to :func:`wq_path`.
    """
    alpha = np.broadcast_to(np.asarray(alpha, dtype=float), (noise.d,))
    if np.any(alpha < 0):
        raise ConfigurationError("damping rates must be nonnegative")
    n = (noise.d - 1) // 2
    times = t_offset + noise.dt * np.arange(noise.steps)
    states = ou_states(noise.increments, q.grid(times, n), np.exp(-alpha * noise.dt))
    return Path(
        times=noise.dt * np.arange(noise.steps + 1),
        states=states,
        dt=noise.dt,
        meta={"seed": noise.seed, "trajectory": noise.trajectory, "kind": "ou"},
    )


def ou_states(increments, qs, decay) -> np.ndarray:
    """States X(t_0..t_N) of the update in :func:`ou_convolution`, from
    X(0) = 0, for increments of shape (N, d) or (N, paths, d); ``qs`` is
    (N, d) and ``decay`` is e^(-alpha dt) per site.  A stack is stepped
    with the same elementwise operations as each of its trajectories."""
    states = np.zeros((len(increments) + 1,) + increments.shape[1:])
    for k in range(len(increments)):
        states[k + 1] = decay * (states[k] + qs[k] * increments[k])
    return states


def strong_errors(cfg: LatticeConfig, u0, seed: int, paths: int, fine_steps: int, factors) -> list:
    """Root-mean-square strong error of Euler-Maruyama at steps
    ``factor * T / fine_steps``, one value per factor.

    ``paths`` Brownian paths are drawn at ``fine_steps`` steps in one
    generator call and stepped as one batch; each coarse run sums the fine
    increments in groups of ``factor``.  A path's error is the
    time-integrated norm ``sqrt(int |u_coarse - u_fine|^2 dt)`` (trapezoid
    rule on the coarse grid), and the value is its root mean square over
    the paths.
    """
    dt = cfg.T / fine_steps
    dW = np.sqrt(dt) * Generator(Philox(seed)).standard_normal((paths, fine_steps, cfg.d))
    u0s = np.tile(np.asarray(u0, dtype=float), (paths, 1))
    fine = euler_maruyama(u0s, dW, cfg, dt, range(paths))
    errs = []
    for factor in factors:
        inc = dW.reshape(paths, fine_steps // factor, factor, cfg.d).sum(axis=2)
        dev = euler_maruyama(u0s, inc, cfg, factor * dt, range(paths)) - fine[:, ::factor]
        sq = np.trapezoid(np.sum(dev**2, axis=2), dx=factor * dt, axis=1)
        errs.append(float(np.sqrt(np.mean(sq))))
    return errs
