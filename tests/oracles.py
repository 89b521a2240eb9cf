"""Independent oracles shared by the tests.

:func:`ou_convolution` is the damped noise path, stepped one trajectory
at a time.  The tube's convolution denominator is checked against it.
:func:`ou_states` is its update loop, which also steps a stack of
trajectories together.
"""
import numpy as np

from omlat import ConfigurationError, NoiseCoefficient, NoisePath, Path


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
