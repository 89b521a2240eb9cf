"""Most-probable transition paths between fixed endpoints.

The solver minimizes the discretized action directly over the interior
states: Gauss-Newton on the quadratic (drift) part with the exact trace
gradient added, safeguarded by a backtracking line search on the total
action and a plain gradient-descent fallback.  The Gauss-Newton matrix is
block-tridiagonal in time with periodic-banded site blocks.  Each time
block's sites are numbered centre-out (0, +1, -1, +2, -2, ...), which
brings every ring neighbour, the wrap included, within 4 positions, so
the matrix is banded with half-bandwidth min(2d - 1, d + 4) rather than
the 2d - 1 of natural site order.  Each step is one banded Cholesky solve
in that order, damped Levenberg-style when the factorization fails.  A
solve allocates one band, 8 (N - 1) d min(2d, d + 5) bytes, and every
factorization attempt rebuilds the matrix in it, since the Cholesky
factor overwrites it.
Shooting on the second-order stationarity system was rejected: that
system is stiff and boundary-sensitive, while the discrete action is
bounded below.

A hard-coded evaluator for the stationarity system of the worked
disease-spread configuration (nu=0.1, lam=0.4, cubic 0.1 u^3, noise
0.01(31 - t + 1/(|i|+1))) provides an independent cross-check of the
solver's output.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solveh_banded

from .action import OMReport, _check_path, om_action, om_gradient, residuals
from .errors import ConfigurationError, IntegrationError
from .lattice import LatticeConfig, _center_out_order
from .paths import Path

__all__ = [
    "BVPSpec",
    "MPPResult",
    "solve_mpp",
    "el_residual_example5",
]


@dataclass(frozen=True)
class BVPSpec:
    """Two-point boundary problem: minimize the action over paths from
    ``phi0`` at t = 0 to ``phiT`` at t = T with N time steps."""

    cfg: LatticeConfig
    phi0: np.ndarray
    phiT: np.ndarray
    steps: int
    max_iterations: int = 200
    gradient_tol: float | None = None  # default 1e-8 * d * N
    newton: bool = False

    def __post_init__(self):
        phi0 = np.asarray(self.phi0, dtype=float)
        phiT = np.asarray(self.phiT, dtype=float)
        d = self.cfg.d
        if phi0.shape != (d,) or phiT.shape != (d,):
            raise ConfigurationError(f"endpoints must have shape ({d},)")
        if not (np.all(np.isfinite(phi0)) and np.all(np.isfinite(phiT))):
            raise ConfigurationError("endpoints must be finite")
        if self.steps < 2:
            raise ConfigurationError("need at least 2 time steps")
        if self.gradient_tol is not None and not 0 < self.gradient_tol < np.inf:
            raise ConfigurationError(
                f"gradient tolerance (--tol) must be positive and finite, got {self.gradient_tol}"
            )
        if self.max_iterations < 0:
            raise ConfigurationError(
                f"iteration limit (--max-iter) must be nonnegative, got {self.max_iterations}"
            )
        object.__setattr__(self, "phi0", phi0)
        object.__setattr__(self, "phiT", phiT)
        # the action must be defined on the solver's grid before a run opens
        _check_path(Path(np.zeros((self.steps + 1, d)), self.cfg.T / self.steps), self.cfg)

    @property
    def tol(self) -> float:
        if self.gradient_tol is not None:
            return self.gradient_tol
        return 1e-8 * self.cfg.d * self.steps


#: One row of :attr:`MPPResult.record`; its fields are the columns of convergence.csv.
RecordRow = namedtuple("RecordRow", "action gradient_norm damping step_length backtracks fallback")


@dataclass(frozen=True)
class MPPResult:
    """Solver output: the path, its action report, and the iteration record.

    ``record[k]`` is the :class:`RecordRow` of the path after k accepted
    steps: its action, the max-norm of its gradient, and the step that
    reached it: the damping on the diagonal of the last factorization
    tried, the step length t, the Armijo halvings taken to reach it, and 1
    when the step fell back to gradient descent.  Row 0 took no step and
    holds zeros there.
    """

    path: Path
    action: OMReport
    iterations: int
    converged: bool
    record: tuple = field(repr=False)


def _band_shape(steps: int, d: int) -> tuple:
    """Shape of the buffer :func:`_hessian_band` fills for a grid of
    ``steps`` steps and ``d`` sites: min(2d, d + 5) band rows for each
    site of each interior state."""
    return (steps - 1, d, min(2 * d, d + 5))


def _hessian_band(
    path: Path, cfg: LatticeConfig, row_weight: np.ndarray, newton: bool, out: np.ndarray
) -> np.ndarray:
    """Lower band of the Gauss-Newton matrix ``2 J^T J`` in the interior
    states (time-major, each time block's sites centre-out), plus the exact
    curvature terms when ``newton``, built in place in ``out`` (shape
    :func:`_band_shape`, any contents); returns the band as a view of
    ``out``.

    J is the Jacobian of the scaled residuals ``row_weight * r_k``.  Interval
    k contributes the blocks ``diag(w_k) M_k^+`` in phi_{k+1} and
    ``diag(w_k) M_k^-`` in phi_k, with
    ``M_k^+- = (nu A + lam I + diag f'(m_k)) / 2 +- I / dt``, so each block of
    H is a product ``M diag(u) M2`` of periodic tridiagonals
    ``diag(c) + h (S + S^T)``, with c the diagonal of M_k^+ or M_k^-,
    ``u = 2 w_k^2`` and S the cyclic shift on the sites: five cyclic
    diagonals.  ``out`` is zeroed and each shift of the three kinds of
    block is added into it in turn, so shifts that coincide on short rings
    add up.
    Unknown ``j d + p`` is the site at array position ``order[p]`` of
    interior state j, with ``order = _center_out_order(d)``.  Storage is
    LAPACK lower banded, ``band[o, m] = H[m + o, m]``, with min(2d, d + 5)
    rows: ring sites up to two apart sit at most 4 positions apart, and
    the off-diagonal time block adds d, so the half-bandwidth is
    min(2d - 1, d + 4).
    """
    d = cfg.d
    dt = path.dt
    h = -0.5 * cfg.nu
    # out[j, q, o] = H[j d + q + o, j d + q], q and q + o folded positions;
    # the entry of sites (a, b) lands at folded positions (fa, fb)
    out.fill(0.0)
    fa = np.argsort(_center_out_order(d))

    def add(s, plus, minus, cross):
        # shift s of each block on every interval k: interval j in phi_{j+1}
        # (plus), interval j + 1 in phi_{j+1} (minus), phi_{j+2} x phi_{j+1}
        # (cross)
        fb = np.roll(fa, -s)  # folded position of site a + s
        low = fa >= fb
        out[:, fb[low], (fa - fb)[low]] += (plus[:-1] + minus[1:])[:, low]
        out[:-1, fb, d + fa - fb] += cross[1:-1]

    # arrays that only the centre diagonal needs go before it is scattered,
    # so the build holds few (N, d) arrays at once
    mids = 0.5 * (path.states[:-1] + path.states[1:])
    u = 2.0 * row_weight**2  # H = 2 J^T J
    base = cfg.nu + 0.5 * cfg.lam + 0.5 * cfg.f.deriv(mids)
    cp, cm = base + 1.0 / dt, base - 1.0 / dt
    del base
    cpu, cmu = cp * u, cm * u
    ring = h * h * (np.roll(u, -1, axis=-1) + np.roll(u, 1, axis=-1))  # u[a+1] + u[a-1]
    plus, minus, cross = cpu * cp + ring, cmu * cm + ring, cpu * cm + ring
    del cp, cm, ring
    if newton:
        # second-order terms of the residuals and the trace part: site-
        # diagonal, coupling phi_k and phi_{k+1} through f'' and f'''
        curv = (
            0.25 * u * residuals(path, cfg) * cfg.f.deriv(mids, 2)
            - 0.25 * dt * cfg.rho**2 * cfg.f.deriv(mids, 3)
        )
        plus += curv
        minus += curv
        cross += curv
    del mids
    add(0, plus, minus, cross)
    for s in (1, -1):
        add(
            s,
            h * (cpu + np.roll(cpu, -s, axis=-1)),
            h * (cmu + np.roll(cmu, -s, axis=-1)),
            h * (cpu + np.roll(cmu, -s, axis=-1)),
        )
    for s in (2, -2):
        hv = h * h * np.roll(u, -s // 2, axis=-1)  # u[a+1], u[a-1]
        add(s, hv, hv, hv)
    return out.reshape(-1, out.shape[-1]).T


def _trial_action(path: Path, cfg: LatticeConfig) -> OMReport | None:
    """The action of a line-search trial, or None when it overflows: the
    search then rejects the trial as it rejects one that does not descend."""
    try:
        return om_action(path, cfg)
    except IntegrationError:
        return None


def _backtrack(path: Path, cfg: LatticeConfig, direction, t, slope: float, action_val: float, halvings: int):
    """Armijo backtracking from ``path`` along ``direction``: the first of
    the steps ``t, t/2, ...`` (at most ``halvings`` of them) whose action
    decreases by at least ``1e-4 t slope``, as (path, report, t, halvings
    taken), or None."""
    for taken in range(halvings):
        trial = path.states.copy()
        trial[1:-1] += t * direction
        trial_path = Path(trial, path.dt)
        trial_report = _trial_action(trial_path, cfg)
        if trial_report is not None and trial_report.total <= action_val + 1e-4 * t * slope:
            return trial_path, trial_report, t, taken
        t *= 0.5
    return None


def solve_mpp(spec: BVPSpec) -> MPPResult:
    """Find a stationary point of the discrete action with the endpoints of
    ``spec`` held fixed.

    Starts from the linear interpolation of the endpoints and iterates
    Gauss-Newton steps (optionally full Newton) with a backtracking line
    search on the total action; when a step cannot decrease the action the
    iteration falls back to steepest descent.  Convergence means
    ``max |gradient| <= spec.tol``; a non-converged result is returned
    with ``converged=False`` rather than raised, but an initial path whose
    action overflows raises :class:`IntegrationError`.
    """
    cfg = spec.cfg
    d = cfg.d
    N = spec.steps
    dt = cfg.T / N
    lam_interp = np.linspace(0.0, 1.0, N + 1)[:, None]
    states = (1.0 - lam_interp) * spec.phi0[None, :] + lam_interp * spec.phiT[None, :]
    path = Path(states, dt)
    # q at the interval midpoints, where the action evaluates it
    row_weight = np.sqrt(dt) * cfg.rho[None, :] / _check_path(path, cfg)
    report = om_action(path, cfg)
    action_val = report.total

    grad = om_gradient(path, cfg)
    record = [RecordRow(action_val, float(np.max(np.abs(grad))), 0.0, 0.0, 0, 0)]
    damping = 0.0
    # the band numbers each time block's sites centre-out
    order = _center_out_order(d)
    fold = np.argsort(order)
    buffer = np.empty(_band_shape(N, d))  # the one band of the solve

    while record[-1].gradient_norm > spec.tol and len(record) <= spec.max_iterations:
        g_fold = grad[:, order].ravel()

        step = None
        for _ in range(8):
            # the Cholesky factor overwrites the band, so every attempt
            # rebuilds it in the solve's one buffer
            band = _hessian_band(path, cfg, row_weight, spec.newton, buffer)
            band[0] += damping
            tried = damping
            try:
                # at most one band row per unknown: scipy's tridiagonal
                # path fails on a two-row band of one unknown (d = 1, N = 2)
                cand = solveh_banded(
                    band[: g_fold.size], -g_fold, overwrite_ab=True, lower=True, check_finite=False
                )
            except np.linalg.LinAlgError:  # not positive definite: damp harder
                cand = None
            if cand is not None and np.all(np.isfinite(cand)) and float(g_fold @ cand) < 0.0:
                step = cand
                break
            damping = max(4.0 * damping, 1e-8 * (1.0 + abs(action_val)))
        accepted = None
        if step is not None:
            slope = float(g_fold @ step)
            accepted = _backtrack(path, cfg, step.reshape(N - 1, d)[:, fold], 1.0, slope, action_val, 30)
        fallback = accepted is None
        if fallback:
            # no Gauss-Newton step descends: plain gradient descent
            slope = -float(np.sum(grad * grad))
            t = 1.0 / (1.0 + np.max(np.abs(grad)))
            accepted = _backtrack(path, cfg, -grad, t, slope, action_val, 40)
        if accepted is None:
            break  # no descent possible at working precision

        path, report, t, taken = accepted
        action_val = report.total
        grad = om_gradient(path, cfg)
        record.append(RecordRow(action_val, float(np.max(np.abs(grad))), tried, t, taken, int(fallback)))
        damping *= 0.25
        if damping < 1e-14 * (1.0 + abs(action_val)):
            damping = 0.0

    return MPPResult(
        path=path,
        action=report,
        iterations=min(len(record), spec.max_iterations),
        converged=record[-1].gradient_norm <= spec.tol,
        record=tuple(record),
    )


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
