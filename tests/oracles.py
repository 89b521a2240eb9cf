"""Independent oracles shared by the tests.

:func:`ou_convolution` is the damped noise path, stepped one trajectory
at a time.  The tube's convolution denominator is checked against it.
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
    qs = q.grid(times, n)
    decay = np.exp(-alpha * noise.dt)
    states = np.zeros((noise.steps + 1, noise.d))
    x = np.zeros(noise.d)
    for k in range(noise.steps):
        x = decay * (x + qs[k] * noise.increments[k])
        states[k + 1] = x
    return Path(
        times=noise.dt * np.arange(noise.steps + 1),
        states=states,
        dt=noise.dt,
        meta={"seed": noise.seed, "trajectory": noise.trajectory, "kind": "ou"},
    )
