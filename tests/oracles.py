"""Independent oracles shared by the tests.

:func:`ou_convolution` is the damped noise path, stepped one trajectory
at a time.  The tube's convolution denominator is checked against it.
:func:`ou_states` is its update loop, which also steps a stack of
trajectories together.  :func:`strong_errors` measures the strong error
of the Euler-Maruyama stepper against a finer resolution of the same
Brownian paths.  :func:`l2rho_path_norm` is the weighted L2 distance of
two paths by the trapezoid rule, against which the tube's block
distances are checked.  :func:`residuals` is every interval residual of
the action, which the action and solver tests differentiate, and
:func:`om_gradient` is the solver's private gradient kernel on a checked
``Path``.

The forward/backward differences :func:`apply_B`, :func:`apply_BT` and
:func:`dense_B` check the factorization A = B B^T = B^T B of the
lattice's second difference.  :func:`kernel_eigen_check` and
:func:`eigenfunction_orthogonality` check the KL eigenpairs against the
damped-noise kernel :func:`ou_kernel` by quadrature.
:func:`example5_config` and :func:`example5_boundary` build the worked
61-site example in code, and :func:`el_residual_example5` is the
hand-derived stationarity system of that example, the solver's
independent check.  :func:`smallball_reference` is the small-ball
probability from the Cramer-von Mises series, and :func:`binomial_tails`
tests a hit count against it.  :func:`grid_noise_check` is the noise
check on a 513-point grid that ``LatticeConfig`` ran before it checked q
at 0, T and the table's nodes alone.
"""
import math

import numpy as np
from numpy.random import Generator, Philox
from scipy import special, stats

from omlat import (
    ConfigurationError,
    DegenerateNoiseError,
    KLSpectrum,
    LatticeConfig,
    NoiseCoefficient,
    NoisePath,
    Path,
    PolynomialNonlinearity,
)
from omlat.action import _check_path, _gradient, _midpoints, _residuals
from omlat.lattice import _SQUARE_MAX, _SQUARE_MIN
from omlat.sde import euler_maruyama


def l2rho_path_norm(path_a: Path, path_b: Path, rho) -> float:
    """Trapezoid-rule distance ``(int_0^T |a(t) - b(t)|_rho^2 dt)^(1/2)``
    between two paths on one grid."""
    if not path_a.same_grid(path_b):
        raise ConfigurationError("paths are on different grids")
    rho = np.asarray(rho, dtype=float)
    sq = np.sum((rho * (path_a.states - path_b.states)) ** 2, axis=1)
    return float(np.sqrt(np.trapezoid(sq, dx=path_a.dt)))


def residuals(path: Path, cfg: LatticeConfig) -> np.ndarray:
    """All interval residuals of the action, shape (N, d), after the
    action's entry check."""
    _check_path(path, cfg)
    return _residuals(path.states, path.dt, cfg, _midpoints(path.states))


def om_gradient(path: Path, cfg: LatticeConfig) -> np.ndarray:
    """The action's gradient in the interior states, shape (N - 1, d), after its entry check."""
    return _gradient(path.states, path.dt, cfg, _check_path(path, cfg))


def ou_convolution(noise: NoisePath, q: NoiseCoefficient, alpha) -> Path:
    """Exponentially damped noise path (per-site, rate alpha_i >= 0).

    One step of the exact-exponential update with left-endpoint kernel:

        ``X_i(t_{k+1}) = e^{-alpha_i dt} X_i(t_k) + q_i(t_k) e^{-alpha_i dt} dW_i(t_k)``

    with X(0) = 0 and ``t_k = dt (origin_step + k)``.  As alpha -> 0 this
    reduces to :func:`wq_path`.
    """
    alpha = np.broadcast_to(np.asarray(alpha, dtype=float), (noise.d,))
    if np.any(alpha < 0):
        raise ConfigurationError("damping rates must be nonnegative")
    n = (noise.d - 1) // 2
    times = noise.dt * (noise.origin_step + np.arange(noise.steps))
    states = ou_states(noise.increments, q.grid(times, n), np.exp(-alpha * noise.dt))
    return Path(states, noise.dt)


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


def apply_B(u):
    """Forward difference with periodic wrap: ``(B u)_i = u_{i+1} - u_i``.

    Acts along the last axis.
    """
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    np.subtract(u[..., 1:], u[..., :-1], out=out[..., :-1])
    np.subtract(u[..., :1], u[..., -1:], out=out[..., -1:])
    return out


def apply_BT(u):
    """Backward difference with periodic wrap: ``(B^T u)_i = u_{i-1} - u_i``.

    Adjoint of :func:`apply_B` in the unweighted inner product.  Acts
    along the last axis.
    """
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    np.subtract(u[..., :-1], u[..., 1:], out=out[..., 1:])
    np.subtract(u[..., -1:], u[..., :1], out=out[..., :1])
    return out


def dense_B(d: int) -> np.ndarray:
    """Dense matrix of :func:`apply_B` (-1 on the diagonal, 1 on the first
    super-diagonal and in the lower-left corner)."""
    out = np.empty((d, d))
    eye = np.eye(d)
    for j in range(d):
        out[:, j] = apply_B(eye[:, j])
    return out


def eigenfunction(spec: KLSpectrum, i, s):
    """g_i(s) = A_i sin(gamma_i s), 1-based index (an int or an index array)."""
    return spec.A[i - 1] * np.sin(spec.gamma[i - 1] * np.asarray(s, dtype=float))


def ou_kernel(lam: float, t, s):
    """Covariance kernel ``(1 / 2 lam)(e^{-lam |t-s|} - e^{-lam (t+s)})``."""
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    return (np.exp(-lam * np.abs(t - s)) - np.exp(-lam * (t + s))) / (2.0 * lam)


def _simpson(values: np.ndarray, h: float) -> float:
    # values on an odd-length uniform grid
    return h / 3.0 * (values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-1:2].sum())


def _odd_count(m: int) -> int:
    m = max(3, m)
    return m if m % 2 == 1 else m + 1


def kernel_eigen_check(spec: KLSpectrum, i: int, quad_points: int = 2001, eval_points: int = 101) -> float:
    """Max over t of ``| int_0^1 K(t, s) g_i(s) ds - mu_i g_i(t) |`` by
    composite Simpson quadrature.

    The integral is split at s = t so each piece is smooth (the kernel has
    a kink along the diagonal); ``quad_points`` is the total budget across
    both pieces.
    """
    if not 1 <= i <= spec.count:
        raise ConfigurationError(f"eigenpair index {i} outside 1..{spec.count}")
    lam = spec.lambda_decay
    worst = 0.0
    for t in np.linspace(0.0, 1.0, eval_points):
        total = 0.0
        if t > 0.0:
            m = _odd_count(int(round(quad_points * t)))
            s = np.linspace(0.0, t, m)
            total += _simpson(ou_kernel(lam, t, s) * eigenfunction(spec, i, s), t / (m - 1))
        if t < 1.0:
            m = _odd_count(int(round(quad_points * (1.0 - t))))
            s = np.linspace(t, 1.0, m)
            total += _simpson(ou_kernel(lam, t, s) * eigenfunction(spec, i, s), (1.0 - t) / (m - 1))
        worst = max(worst, abs(total - spec.mu[i - 1] * eigenfunction(spec, i, t)))
    return worst


def eigenfunction_orthogonality(spec: KLSpectrum, upto: int, quad_points: int = 2001) -> float:
    """Max deviation of ``int_0^1 g_i g_j`` from the identity matrix over
    i, j <= upto (Simpson on the full interval; the integrand is smooth)."""
    m = _odd_count(quad_points)
    s = np.linspace(0.0, 1.0, m)
    h = 1.0 / (m - 1)
    G = np.stack([eigenfunction(spec, i, s) for i in range(1, upto + 1)])
    worst = 0.0
    for a in range(upto):
        for b in range(a, upto):
            val = _simpson(G[a] * G[b], h)
            worst = max(worst, abs(val - (1.0 if a == b else 0.0)))
    return worst


def example5_config(n: int = 30, T: float = 30.0) -> LatticeConfig:
    """The worked disease-spread configuration: nu=0.1, lam=0.4, cubic
    0.1 u^3, no forcing, uniform weights, noise 0.01 (31 - t + 1/(|i|+1))."""
    return LatticeConfig(
        n=n,
        nu=0.1,
        lam=0.4,
        f=PolynomialNonlinearity(coeffs=(0.0, 0.1), p=1, growth_constant=0.1),
        q=NoiseCoefficient.affine(0.01, 31.0),
        T=T,
    )


def example5_boundary(n: int = 30, sigma: float = 8.0):
    """Boundary data of the worked example: a Gaussian bump of height 0.6
    and width sigma at t=0, zero at t=T."""
    i = np.arange(-n, n + 1)
    phi0 = 0.6 * np.exp(-(i**2) / (2.0 * sigma**2))
    return phi0, np.zeros(2 * n + 1)


# Coefficients of the worked disease-spread configuration.
_EX5_NU = 0.1
_EX5_LAM = 0.4
_EX5_CUBIC = 0.1
_EX5_A = 31.0


def el_residual_example5(path: Path, displayed_form: bool = False) -> np.ndarray:
    """Residual of the hand-derived stationarity system for the worked
    disease-spread configuration, evaluated with central differences at
    the interior grid points.  Shape (N-1, d).

    With ``s_i(t) = 31 - t + 1/(|i|+1)`` and
    ``r_i = phi_i' - 0.1 (phi_{i-1} - 2 phi_i + phi_{i+1}) + 0.4 phi_i + 0.1 phi_i^3``,
    the system reads

        phi_i'' = r_i (0.6 + 0.3 phi_i^2)
                  - 0.1 r_{i-1} (s_i / s_{i-1})^2 - 0.1 r_{i+1} (s_i / s_{i+1})^2
                  + 0.1 (phi_{i-1}' - 2 phi_i' + phi_{i+1}') - 0.4 phi_i'
                  - 0.3 phi_i^2 phi_i' - 0.00003 phi_i s_i^2 - 2 r_i / s_i.

    ``displayed_form=True`` drops the two (s_i / s_{i+-1})^2 ratios,
    treating neighbouring noise amplitudes as equal (a tempting
    simplification since they differ by at most a few percent early on).
    That variant is not the stationarity condition of the action: on a
    converged minimizer its residual stalls at the size of the dropped
    terms instead of vanishing with the grid.
    """
    if abs(path.T - 30.0) > 1e-9:
        raise ConfigurationError(f"this check is specific to the horizon T=30, got {path.T}")
    phi = path.states
    dt = path.dt
    n = (path.d - 1) // 2
    sites = np.arange(-n, n + 1)
    t_int = path.times[1:-1]
    s = _EX5_A - t_int[:, None] + 1.0 / (np.abs(sites) + 1.0)[None, :]

    mid = phi[1:-1]
    vel = (phi[2:] - phi[:-2]) / (2.0 * dt)
    acc = (phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / dt**2

    def lap(x):
        return np.roll(x, 1, axis=1) - 2.0 * x + np.roll(x, -1, axis=1)

    r = vel - _EX5_NU * lap(mid) + _EX5_LAM * mid + _EX5_CUBIC * mid**3
    if displayed_form:
        ratio_m = ratio_p = 1.0
    else:
        ratio_m = (s / np.roll(s, 1, axis=1)) ** 2
        ratio_p = (s / np.roll(s, -1, axis=1)) ** 2
    rhs = (
        r * (0.6 + 0.3 * mid**2)
        - 0.1 * np.roll(r, 1, axis=1) * ratio_m
        - 0.1 * np.roll(r, -1, axis=1) * ratio_p
        + _EX5_NU * lap(vel)
        - _EX5_LAM * vel
        - 3.0 * _EX5_CUBIC * mid**2 * vel
        - 0.00003 * mid * s**2
        - 2.0 * r / s
    )
    return acc - rhs


def smallball_reference(eps: float, i_max: int, terms: int = 20) -> float:
    """``P(sum_{i <= i_max} i^-2 x_i^2 <= eps^2)`` for standard normals x_i.

    ``sum_i x_i^2 / (pi i)^2`` has the Cramer-von Mises limit law, whose
    CDF is the Anderson-Darling series

        ``F(x) = sum_j Gamma(j + 1/2) / (Gamma(1/2) j!) sqrt(4j + 1)
        e^{-z} K_{1/4}(z) / (pi sqrt(x))``,   ``z = (4j + 1)^2 / (16 x)``.

    The dropped terms i > i_max are replaced by their mean
    ``psi_1(i_max + 1) = sum_{i > i_max} i^-2``, so the value is
    ``F((eps^2 + psi_1(i_max + 1)) / pi^2)``.
    """
    x = (eps**2 + float(special.polygamma(1, i_max + 1))) / math.pi**2
    total = 0.0
    for j in range(terms):
        z = (4 * j + 1) ** 2 / (16.0 * x)
        coeff = math.exp(math.lgamma(j + 0.5) - math.lgamma(0.5) - math.lgamma(j + 1))
        # kve(nu, z) = K_nu(z) e^z
        total += coeff * math.sqrt(4 * j + 1) * float(special.kve(0.25, z)) * math.exp(-2.0 * z)
    return total / (math.pi * math.sqrt(x))


def binomial_tails(hits: int, n: int, p: float) -> tuple:
    """``P(X <= hits)`` and ``P(X >= hits)`` for X ~ Binomial(n, p)."""
    return float(stats.binom.cdf(hits, n, p)), float(stats.binom.sf(hits - 1, n, p))


def grid_noise_check(q: NoiseCoefficient, n: int, T: float) -> None:
    """Raise as ``LatticeConfig`` did for a q that vanishes, leaves the range
    of ``_SQUARE_MIN`` to ``_SQUARE_MAX`` in size or changes sign, with q
    evaluated on 513 evenly spaced points of [0, T] and a table's nodes
    inside (0, T)."""
    ts = np.linspace(0.0, T, 513)
    if q.kind == "table":
        nodes = q.table_times
        ts = np.union1d(ts, nodes[(nodes > 0.0) & (nodes < T)])
    qs = q.grid(ts, n)
    if np.any(qs == 0.0):
        k, i = np.argwhere(qs == 0.0)[0]
        raise DegenerateNoiseError(f"q vanishes at t={ts[k]:.6g} (site {i - n})")
    if not np.all((np.abs(qs) >= _SQUARE_MIN) & (np.abs(qs) <= _SQUARE_MAX)):
        raise ConfigurationError("noise coefficient q (q_spec) out of range")
    signs = np.sign(qs)
    if np.any(signs.min(axis=0) != signs.max(axis=0)):
        raise ConfigurationError("noise coefficient changes sign on [0, T]; it must stay nonzero")
