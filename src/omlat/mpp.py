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
in that order, damped Levenberg-style when the factorization fails:
LAPACK ``dpbtrf`` and ``dpbtrs`` on the band of all N - 1 interior states,
through the f2py wrappers of scipy's ``_flapack`` extension, which the
first solve loads by itself (:func:`_bind_lapack`): importing omlat loads
neither it nor ``scipy.linalg``, so a process that never solves never maps
scipy's OpenBLAS.  The wrappers hold the GIL, so solves on several threads
take turns in LAPACK.  A solve allocates one band, 8 (N - 1) d min(2d, d + 5)
bytes, and every factorization attempt rebuilds the matrix in it, since
the Cholesky factor overwrites it.  The band, the action and its gradient
are built in time blocks of about ``action._BLOCK_VALUES`` values, so no
work array grows with N.
Each kernel takes the states, ``dt`` and the q that :class:`BVPSpec`
evaluated once on the grid, so a solve builds a ``Path`` only for its
result.  Besides the band a solve holds at most eight arrays of the
path's size (:func:`_solve_bytes`), and each goes once it is dead.
Shooting on the second-order stationarity system was rejected: that
system is stiff and boundary-sensitive, while the discrete action is
bounded below.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np
import scipy

from .action import _BLOCK_VALUES, OMReport, _action, _check_grid, _gradient, _midpoints, _residuals
from .errors import ConfigurationError, IntegrationError
from .lattice import LatticeConfig, _center_out_order
from .paths import Path

__all__ = [
    "BVPSpec",
    "MPPResult",
    "solve_mpp",
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
    #: q at the grid's interval midpoints, where the action evaluates it:
    #: the solve's one evaluation, which every kernel takes
    _qs: np.ndarray = field(init=False, repr=False, compare=False)

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
        qs = _check_grid(self.steps, self.cfg.T / self.steps, self.cfg)
        qs.flags.writeable = False  # every solve of this spec reads it
        object.__setattr__(self, "_qs", qs)

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
    holds zeros there, so the accepted steps, ``iterations``, are one fewer.
    """

    path: Path
    action: OMReport
    iterations: int
    converged: bool
    record: tuple = field(repr=False)


def _flapack():
    """scipy's f2py LAPACK wrappers, ``scipy.linalg._flapack``, loaded by
    path from scipy's ``linalg`` directory, so ``scipy.linalg``'s
    ``__init__`` (and its ``numpy.testing`` and ``numpy.f2py``) never runs,
    and registered under its own name for a later ``import scipy.linalg``.
    The load maps scipy's OpenBLAS, which reads ``OPENBLAS_NUM_THREADS``
    then: 1, for the load only, unless the caller set it.  Raises
    ImportError when the directory holds no such extension."""
    directory = os.path.join(scipy.__path__[0], "linalg")
    spec = importlib.machinery.PathFinder.find_spec("_flapack", [directory])
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no _flapack extension in {directory}")
    spec.name = "scipy.linalg._flapack"
    unset = "OPENBLAS_NUM_THREADS" not in os.environ
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:  # creating the module loads OpenBLAS
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        if unset:
            del os.environ["OPENBLAS_NUM_THREADS"]
    sys.modules[spec.name] = module
    return module


#: scipy's LAPACK wrappers ``dpbtrf`` and ``dpbtrs``, once :func:`_bind_lapack` has run.
_LAPACK = {}
_LAPACK_LOCK = threading.Lock()


def _bind_lapack() -> None:
    """Fill :data:`_LAPACK` on the first call, from the extension in
    ``sys.modules``, else from :func:`_flapack`; later calls find it full.
    The lock keeps two first solves on two threads from loading it at once.
    Raises ImportError, naming scipy's version, when the extension or one
    of the two routines is missing, and binds nothing then."""
    with _LAPACK_LOCK:
        if not _LAPACK:
            module = sys.modules.get("scipy.linalg._flapack") or _flapack()
            try:
                _LAPACK.update(dpbtrf=module.dpbtrf, dpbtrs=module.dpbtrs)
            except AttributeError as exc:
                raise ImportError(f"scipy {scipy.__version__}: {exc}") from exc


def _factor(band: np.ndarray, n: int) -> int:
    """LAPACK ``dpbtrf``: overwrite the lower band of the first ``n``
    unknowns of ``band`` (stored as :func:`_hessian_band` says; the wrapper
    takes an F-ordered view) with its Cholesky factor L, in place.  Returns
    LAPACK's info, positive when that matrix is not positive definite."""
    ab = band.reshape(-1, band.shape[-1])[:n].T
    factor, info = _LAPACK["dpbtrf"](ab, lower=1, overwrite_ab=1)
    if not np.shares_memory(factor, band):  # f2py copies what LAPACK cannot take as it is
        raise ValueError("dpbtrf factored a copy of the band")
    return info


def _band_shape(steps: int, d: int) -> tuple:
    """Shape of the band buffer of a solve on a grid of ``steps`` steps and
    ``d`` sites: min(2d, d + 5) band rows for each site of each of the
    N - 1 interior states."""
    return (steps - 1, d, min(2 * d, d + 5))


#: Arrays of a path's size, 8 (N + 1) d bytes each, that a solve holds at
#: most besides its band, at any moment and for any d and N.
_SOLVE_PATH_ARRAYS = 8


def _solve_bytes(steps: int, d: int) -> int:
    """Bytes a solve on a grid of ``steps`` steps and ``d`` sites holds at
    most: its band and :data:`_SOLVE_PATH_ARRAYS` path-sized arrays."""
    return 8 * (math.prod(_band_shape(steps, d)) + _SOLVE_PATH_ARRAYS * (steps + 1) * d)


@functools.cache
def _shift_entries(d: int, s: int) -> tuple:
    """Where shift s of a site block lands in the band, ``out[j, p, o] =
    H[j d + p + o, j d + p]`` with p and p + o folded positions: the mask
    ``low`` of the sites a whose entry (a + s, a) lies on or below the
    diagonal, the (p, o) indices of those entries, and those of the cross
    block's d entries.  Cached: the build asks once per time block, and
    only reads them."""
    fa = np.argsort(_center_out_order(d))
    fb = np.roll(fa, -s)  # folded position of site a + s
    low = fa >= fb
    return low, (fb[low], (fa - fb)[low]), (fb, d + fa - fb)


def _hessian_band(
    states: np.ndarray, dt: float, cfg: LatticeConfig, row_weight, newton: bool, out: np.ndarray
) -> np.ndarray:
    """Lower band of the Gauss-Newton matrix ``2 J^T J`` in the interior
    ``states`` of a path of step ``dt`` (time-major, each time block's
    sites centre-out), plus the exact curvature terms when ``newton``,
    built in place in ``out`` (shape ``(steps - 1, d, min(2d, d + 5))``,
    any contents); returns the band as a view of ``out``.

    J is the Jacobian of the scaled residuals ``w_k r_k``, w_k =
    row_weight[k] = sqrt(dt) / q(t_{k+1/2}), with no rho.  Interval k adds
    ``diag(w_k) M_k^+`` in phi_{k+1} and ``diag(w_k) M_k^-`` in phi_k, with
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

    The endpoints are held fixed, so the last interior state's block has
    no cross block.  The products are formed in place in about ten work
    arrays of the size of ``states``; the solver keeps them small by
    passing the states of one time block (:func:`_build_band`).
    """
    d = cfg.d
    h = -0.5 * cfg.nu
    out.fill(0.0)

    def add(s, values, cross=False):
        # shift s of each block: values[j] lands in block j, on and below its
        # diagonal (interval j in phi_{j+1} plus interval j + 1 in
        # phi_{j+1}) or, with cross, below it (phi_{j+2} x phi_{j+1}); one
        # shift's two sets of entries are disjoint, so either may go first
        low, on, below = _shift_entries(d, s)
        if cross:
            out[:-1, below[0], below[1]] += values
        else:
            out[:, on[0], on[1]] += values[:, low]

    # every product is formed in place in one of a few work arrays
    mids = _midpoints(states)
    base, work = np.empty_like(mids), np.empty_like(mids)
    u = np.square(row_weight)
    u *= 2.0  # H = 2 J^T J
    if newton:
        # second-order terms of the residuals and the trace part: site-
        # diagonal, coupling phi_k and phi_{k+1} through f'' and f'''
        res = _residuals(states, dt, cfg, mids, out=np.empty_like(mids), work=(base, work))
        curv, base = np.multiply(u, 0.25, out=base), res
        curv *= res
        curv *= cfg.f.deriv(mids, 2, out=base, work=work)
        curv -= np.multiply(cfg.f.deriv(mids, 3, out=base, work=work), 0.25 * dt, out=base)
    cfg.f.deriv(mids, out=base, work=work)
    base *= 0.5
    base += cfg.nu + 0.5 * cfg.lam
    cpu = np.add(base, 1.0 / dt, out=work)
    cpu *= u
    cmu = np.subtract(base, 1.0 / dt, out=mids)
    cmu *= u
    ring = np.roll(u, -1, axis=-1)  # h^2 (u[a+1] + u[a-1])
    ring += np.roll(u, 1, axis=-1)
    ring *= h * h
    values = np.empty_like(u)
    # shift 0: the cross blocks cpu cm, then plus = cpu cp and minus = cmu cm
    cross = np.subtract(base, 1.0 / dt, out=values)
    cross *= cpu
    cross += ring
    if newton:
        cross += curv
    add(0, cross[1:-1], cross=True)
    plus = np.add(base, 1.0 / dt, out=values)
    plus *= cpu
    plus += ring
    minus = base
    minus -= 1.0 / dt
    minus *= cmu
    minus += ring
    if newton:
        plus += curv
        minus += curv
    plus[:-1] += minus[1:]
    add(0, plus[:-1])
    for s in (1, -1):
        plus = np.add(cpu, np.roll(cpu, -s, axis=-1), out=values)
        plus *= h
        minus = np.add(cmu, np.roll(cmu, -s, axis=-1), out=base)
        minus *= h
        plus[:-1] += minus[1:]
        add(s, plus[:-1])
        cross = np.add(cpu, np.roll(cmu, -s, axis=-1), out=ring)
        cross *= h
        add(s, cross[1:-1], cross=True)
    for s in (2, -2):
        hv = np.multiply(np.roll(u, -s // 2, axis=-1), h * h, out=base)  # u[a+1], u[a-1]
        add(s, np.add(hv[:-1], hv[1:], out=ring[:-1]))
        add(s, hv[1:-1], cross=True)
    return out.reshape(-1, out.shape[-1]).T


def _build_band(states: np.ndarray, dt: float, cfg: LatticeConfig, qs, newton: bool, buffer: np.ndarray) -> None:
    """Build the band of the interior ``states`` of a path of step ``dt``
    into ``buffer`` (shape :func:`_band_shape`), the interior states in
    time order; ``qs`` is q at the interval midpoints.

    The build goes in time blocks of B = ``_BLOCK_VALUES // d`` states (at
    least one), the action's blocks (:data:`omlat.action._BLOCK_VALUES`):
    one :func:`_hessian_band` call on the B + 3 states that rows j..j + B
    need, with the row weights of their intervals.  Row j + B lacks its
    cross block, and the next block builds it again.  Each entry is summed
    as one call on the whole path sums it, so the bits are the same, and
    the build holds only block-sized arrays."""
    scale = np.sqrt(dt)
    block = max(1, _BLOCK_VALUES // cfg.d)
    for j in range(0, max(len(buffer) - 1, 1), block):
        b = min(j + block + 3, len(states))  # states j..j + B + 2
        _hessian_band(states[j:b], dt, cfg, scale / qs[j : b - 1], newton, buffer[j : b - 2])


def _solve(band: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``H x = rhs`` for the folded unknowns of the N - 1 interior
    states (``rhs`` and the result of shape (N - 1, d)), with ``band``
    (shape :func:`_band_shape`) holding H: :func:`_factor`, which
    overwrites ``band`` with the Cholesky factor, then LAPACK ``dpbtrs``.
    Returns the solution, in ``rhs`` itself when it is C-contiguous
    float64.  Raises LinAlgError when H is not positive definite, and
    ImportError when scipy's LAPACK cannot be bound (:func:`_bind_lapack`)."""
    _bind_lapack()
    if _factor(band, rhs.size):
        raise np.linalg.LinAlgError("not positive definite")
    x, info = _LAPACK["dpbtrs"](band.reshape(-1, band.shape[-1]).T, rhs.reshape(-1, 1), lower=1, overwrite_b=1)
    if info:
        raise np.linalg.LinAlgError(f"dpbtrs failed with info {info}")
    return x.reshape(rhs.shape)


def _backtrack(states, dt: float, cfg: LatticeConfig, qs, direction, t, slope: float, action_val: float, halvings):
    """Armijo backtracking from the path ``states`` (step ``dt``) along
    ``direction``: the first of the steps ``t, t/2, ...`` (at most
    ``halvings`` of them) whose action decreases by at least ``1e-4 t
    slope``, as (states, report, t, halvings taken), or None.  A trial
    whose action overflows or whose states are not finite is rejected as
    one that does not descend.  Every trial is formed in one array."""
    trial = np.empty_like(states)
    trial[0], trial[-1] = states[0], states[-1]
    for taken in range(halvings):
        np.multiply(direction, t, out=trial[1:-1])
        trial[1:-1] += states[1:-1]
        try:
            trial_report = _action(trial, dt, cfg, qs)
            if trial_report.total <= action_val + 1e-4 * t * slope:
                return trial, trial_report, t, taken
        except IntegrationError:
            pass
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
    action overflows raises :class:`IntegrationError`.  Besides the band,
    the solve holds at most :data:`_SOLVE_PATH_ARRAYS` arrays of the
    path's size at any moment (:func:`_solve_bytes`): each one goes as
    soon as it is dead.
    """
    cfg = spec.cfg
    d = cfg.d
    N = spec.steps
    dt = cfg.T / N
    lam_interp = np.linspace(0.0, 1.0, N + 1)[:, None]
    states = (1.0 - lam_interp) * spec.phi0[None, :] + lam_interp * spec.phiT[None, :]
    del lam_interp
    qs = spec._qs
    report = _action(states, dt, cfg, qs)
    action_val = report.total

    grad = _gradient(states, dt, cfg, qs)
    record = [RecordRow(action_val, float(np.max(np.abs(grad))), 0.0, 0.0, 0, 0)]
    damping = 0.0
    # the band numbers each time block's sites centre-out
    order = _center_out_order(d)
    fold = np.argsort(order)
    buffer = np.empty(_band_shape(N, d))  # the one band of the solve

    while record[-1].gradient_norm > spec.tol and len(record) <= spec.max_iterations:
        # only the result needs the report, and at d = 1 its per-interval
        # arrays are path-sized: a search that stalls evaluates it again
        report = None
        step = None
        for _ in range(8):
            # the Cholesky factor overwrites the band, so every attempt
            # rebuilds it in the solve's one buffer
            _build_band(states, dt, cfg, qs, spec.newton, buffer)
            buffer[..., 0] += damping
            tried = damping
            try:  # the solve overwrites -g, in folded order, with the step
                step = _solve(buffer, np.negative(grad.take(order, axis=1)))
            except np.linalg.LinAlgError:  # not positive definite: damp harder
                step = None
            if step is not None and np.all(np.isfinite(step)):
                slope = float(np.vdot(grad.take(order, axis=1), step))
                if slope < 0.0:
                    break
            step = None
            damping = max(4.0 * damping, 1e-8 * (1.0 + abs(action_val)))
        accepted = None
        if step is not None:
            direction = step[:, fold]
            del step
            accepted = _backtrack(states, dt, cfg, qs, direction, 1.0, slope, action_val, 30)
            del direction
        fallback = accepted is None
        if fallback:
            # no Gauss-Newton step descends: plain gradient descent
            slope = -float(np.sum(grad * grad))
            t = 1.0 / (1.0 + np.max(np.abs(grad)))
            accepted = _backtrack(states, dt, cfg, qs, -grad, t, slope, action_val, 40)
        if accepted is None:
            break  # no descent possible at working precision

        states, report, t, taken = accepted
        del accepted, grad  # the old path and gradient go before the new gradient
        action_val = report.total
        grad = _gradient(states, dt, cfg, qs)
        record.append(RecordRow(action_val, float(np.max(np.abs(grad))), tried, t, taken, int(fallback)))
        damping *= 0.25
        if damping < 1e-14 * (1.0 + abs(action_val)):
            damping = 0.0

    if report is None:  # the last search stalled on the path it started from
        report = _action(states, dt, cfg, qs)
    return MPPResult(
        path=Path(states, dt),
        action=report,
        iterations=len(record) - 1,
        converged=record[-1].gradient_norm <= spec.tol,
        record=tuple(record),
    )
