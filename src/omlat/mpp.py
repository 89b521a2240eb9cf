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
in that order, damped Levenberg-style when the factorization fails.  The
solve splits the band at the middle interior state: two worker threads
factor the halves before and after it at once, through LAPACK calls that
release the GIL, and the calling thread joins them at the middle state's
Schur complement.  The split is fixed, so the result does not depend on
the thread count.  The two LAPACK routines, ``dpbtrf`` and ``dtbtrs``,
come from scipy's ``cython_lapack`` extension, which this module loads
by itself: importing omlat does not import ``scipy.linalg``.  A solve
allocates one band, 8 N d min(2d, d + 5) bytes, since each half holds
its own copy of the middle state's block, and every factorization
attempt rebuilds the matrix in it, since the Cholesky factor overwrites
it.  Besides the band it holds at most nine arrays of the path's size
(:func:`_solve_bytes`): the action, its gradient and the band build
work in place in a few work arrays, and each array goes once it is dead.
Shooting on the second-order stationarity system was rejected: that
system is stiff and boundary-sensitive, while the discrete action is
bounded below.
"""
from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import math
import os
import re
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np
import scipy

from .action import OMReport, _action, _check_path, _midpoints, _residuals, om_gradient
from .errors import ConfigurationError, IntegrationError
from .lattice import LatticeConfig, _center_out_order
from .paths import Path
from .utils import map_blocks

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


def _cython_lapack():
    """scipy's ``scipy.linalg.cython_lapack`` extension, loaded by itself
    from the ``linalg`` directory of the scipy package: ``scipy.linalg``'s
    ``__init__``, which imports the rest of ``scipy.linalg`` and through it
    ``numpy.testing`` and ``numpy.f2py``, never runs.  The module is
    registered under its own name, so a later ``from scipy.linalg import
    cython_lapack`` returns this same module (the attribute
    ``scipy.linalg.cython_lapack`` stays unset: the import system sets it
    only on a first load).  Raises ImportError when the directory holds no
    such extension."""
    directory = os.path.join(scipy.__path__[0], "linalg")
    spec = importlib.machinery.PathFinder.find_spec("cython_lapack", [directory])
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no cython_lapack extension in {directory}")
    spec.name = "scipy.linalg.cython_lapack"
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lapack(name: str, signature: str):
    """LAPACK's ``name``, through the function pointer that
    ``scipy.linalg.cython_lapack`` publishes (:func:`_cython_lapack`), as a
    ctypes function: the call releases the GIL, which scipy's own LAPACK
    wrappers hold.  ``signature`` is the C signature the binding assumes,
    with ``d`` for double; a capsule that declares any other (a build with
    64-bit integers, say) would have the call corrupt memory, so it raises
    ImportError."""
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    capsule = _CYTHON_LAPACK.__pyx_capi__[name]
    declared = get_name(capsule)
    if re.sub(r"\w+_d \*", "d *", declared.decode()) != signature:
        raise ImportError(
            f"scipy {scipy.__version__} declares LAPACK {name} as {declared.decode()!r}, "
            f"which is not the {signature!r} that omlat calls"
        )
    types = {"char *": ctypes.c_char_p, "int *": ctypes.POINTER(ctypes.c_int), "d *": ctypes.c_void_p}
    args = signature.removeprefix("void (").removesuffix(")").split(", ")
    return ctypes.CFUNCTYPE(None, *(types[a] for a in args))(get_pointer(capsule, declared))


_CYTHON_LAPACK = _cython_lapack()
_dpbtrf = _lapack("dpbtrf", "void (char *, int *, int *, d *, int *, int *)")
_dtbtrs = _lapack("dtbtrs", "void (char *, char *, char *, int *, int *, int *, d *, int *, d *, int *, int *)")


def _factor(band: np.ndarray, n: int) -> int:
    """LAPACK ``dpbtrf``: overwrite the lower band of the first ``n``
    unknowns of ``band`` with its Cholesky factor L, in place.  ``band``
    holds min(2d, d + 5) band rows per unknown, ``band[..., o]`` of unknown
    m being ``H[m + o, m]``: LAPACK's lower band storage, column-major.
    Returns LAPACK's info, positive when that matrix is not positive
    definite."""
    rows = band.shape[-1]
    info = ctypes.c_int()
    _dpbtrf(b"L", ctypes.c_int(n), ctypes.c_int(rows - 1), band.ctypes.data, ctypes.c_int(rows), info)
    return info.value


def _substitute(band: np.ndarray, n: int, rhs: np.ndarray, trans: bytes) -> None:
    """LAPACK ``dtbtrs``: each row of the C-contiguous ``rhs`` (shape
    (nrhs, n)) becomes ``L^-1 rhs`` (``trans`` b"N") or ``L^-T rhs`` (b"T"),
    in place, with L the factor that :func:`_factor` left in ``band``."""
    rows = band.shape[-1]
    info = ctypes.c_int()
    _dtbtrs(
        b"L", trans, b"N", ctypes.c_int(n), ctypes.c_int(rows - 1), ctypes.c_int(rhs.shape[0]),
        band.ctypes.data, ctypes.c_int(rows), rhs.ctypes.data, ctypes.c_int(n), info,
    )
    if info.value:
        raise np.linalg.LinAlgError(f"dtbtrs failed with info {info.value}")


def _band_shape(steps: int, d: int) -> tuple:
    """Shape of the band buffer of a solve on a grid of ``steps`` steps and
    ``d`` sites: min(2d, d + 5) band rows for each site of each interior
    state, and one block row more, since each of the band's two halves
    ends in its own copy of the middle state (:func:`_two_ended_solve`)."""
    return (steps, d, min(2 * d, d + 5))


#: Arrays of a path's size, 8 (N + 1) d bytes each, that a solve holds at
#: most besides its band, at any moment and for any d and N.
_SOLVE_PATH_ARRAYS = 9


def _solve_bytes(steps: int, d: int) -> int:
    """Bytes a solve on a grid of ``steps`` steps and ``d`` sites holds at
    most: its band and :data:`_SOLVE_PATH_ARRAYS` path-sized arrays."""
    return 8 * (math.prod(_band_shape(steps, d)) + _SOLVE_PATH_ARRAYS * (steps + 1) * d)


def _hessian_band(
    path: Path, cfg: LatticeConfig, row_weight: np.ndarray, newton: bool, out: np.ndarray, reverse: bool = False
) -> np.ndarray:
    """Lower band of the Gauss-Newton matrix ``2 J^T J`` in the interior
    states of ``path`` (time-major, each time block's sites centre-out),
    plus the exact curvature terms when ``newton``, built in place in
    ``out`` (shape ``(steps - 1, d, min(2d, d + 5))``, any contents);
    returns the band as a view of ``out``.  ``reverse`` numbers the
    interior states last to first, which gives the band of the
    block-permuted matrix; the solver builds the second half of its band
    that way (:func:`_two_ended_solve`).

    J is the Jacobian of the scaled residuals ``w_k r_k``, w_k =
    row_weight[k] = sqrt(dt) / q(t_{k+1/2}), with no rho.  Interval k adds
    ``diag(w_k) M_k^+`` in phi_{k+1} and ``diag(w_k) M_k^-`` in phi_k, with
    ``M_k^+- = (nu A + lam I + diag f'(m_k)) / 2 +- I / dt``, so each block of
    H is a product ``M diag(u) M2`` of periodic tridiagonals
    ``diag(c) + h (S + S^T)``, with c the diagonal of M_k^+ or M_k^-,
    ``u = 2 w_k^2`` and S the cyclic shift on the sites: five cyclic
    diagonals.  In reverse, phi_k and phi_{k+1} trade places, and so do
    M_k^+ and M_k^-, which is dt negated in them; the residuals r_k keep
    their values.  ``out`` is zeroed and each shift of the three kinds of
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
    step = -1 if reverse else 1  # the intervals in the band's order
    h = -0.5 * cfg.nu
    # out[j, q, o] = H[j d + q + o, j d + q], q and q + o folded positions;
    # the entry of sites (a, b) lands at folded positions (fa, fb)
    out.fill(0.0)
    fa = np.argsort(_center_out_order(d))

    def add(s, values, cross=False):
        # shift s of each block: values[j] lands in block j, on and below its
        # diagonal (interval j in phi_{j+1} plus interval j + 1 in
        # phi_{j+1}) or, with cross, below it (phi_{j+2} x phi_{j+1}); one
        # shift's two sets of entries are disjoint, so either may go first
        fb = np.roll(fa, -s)  # folded position of site a + s
        if cross:
            out[:-1, fb, d + fa - fb] += values
        else:
            low = fa >= fb
            out[:, fb[low], (fa - fb)[low]] += values[:, low]

    # every product is formed in place in one of a few (N, d) work arrays,
    # and u is squared again for the last shifts rather than kept
    mids = _midpoints(path.states)
    base, work = np.empty_like(mids), np.empty_like(mids)
    u = np.square(row_weight[::step])
    u *= 2.0  # H = 2 J^T J
    if newton:
        # second-order terms of the residuals and the trace part: site-
        # diagonal, coupling phi_k and phi_{k+1} through f'' and f'''
        res = _residuals(path.states, dt, cfg, mids, out=np.empty_like(mids), work=(base, work))
        curv, base = np.multiply(u, 0.25, out=base), res
        curv *= res[::step]
        curv *= cfg.f.deriv(mids[::step], 2, out=base, work=work)
        curv -= np.multiply(cfg.f.deriv(mids[::step], 3, out=base, work=work), 0.25 * dt, out=base)
    cfg.f.deriv(mids[::step], out=base, work=work)
    base *= 0.5
    base += cfg.nu + 0.5 * cfg.lam
    cpu = np.add(base, step / dt, out=work)
    cpu *= u
    cmu = np.subtract(base, step / dt, out=mids)
    cmu *= u
    del mids
    ring = np.roll(u, -1, axis=-1)  # h^2 (u[a+1] + u[a-1])
    ring += np.roll(u, 1, axis=-1)
    ring *= h * h
    spare = u  # u is dead until the last shifts
    del u
    # shift 0: the cross blocks cpu cm, then plus = cpu cp and minus = cmu cm
    cross = np.subtract(base, step / dt, out=spare)
    cross *= cpu
    cross += ring
    if newton:
        cross += curv
    add(0, cross[1:-1], cross=True)
    plus = np.add(base, step / dt, out=spare)
    plus *= cpu
    plus += ring
    minus = base
    minus -= step / dt
    minus *= cmu
    minus += ring
    if newton:
        plus += curv
        minus += curv
        del curv
    plus[:-1] += minus[1:]
    add(0, plus[:-1])
    for s in (1, -1):
        plus = np.add(cpu, np.roll(cpu, -s, axis=-1), out=spare)
        plus *= h
        minus = np.add(cmu, np.roll(cmu, -s, axis=-1), out=base)
        minus *= h
        plus[:-1] += minus[1:]
        add(s, plus[:-1])
        cross = np.add(cpu, np.roll(cmu, -s, axis=-1), out=ring)
        cross *= h
        add(s, cross[1:-1], cross=True)
    u = np.square(row_weight[::step], out=spare)
    u *= 2.0
    for s in (2, -2):
        hv = np.multiply(np.roll(u, -s // 2, axis=-1), h * h, out=base)  # u[a+1], u[a-1]
        add(s, np.add(hv[:-1], hv[1:], out=ring[:-1]))
        add(s, hv[1:-1], cross=True)
    return out.reshape(-1, out.shape[-1]).T


def _build_band(path: Path, cfg: LatticeConfig, qs: np.ndarray, newton: bool, buffer: np.ndarray) -> int:
    """Build the band of ``path``'s interior states into ``buffer`` (shape
    :func:`_band_shape`) as :func:`_two_ended_solve` takes it, and return
    the middle interior state m = (N - 1) // 2, where the halves meet: the
    blocks of states 0..m in time order, from the sub-path that ends one
    state past m, then the blocks of states N - 2..m in reverse time order,
    from the sub-path that starts one state before it.  ``qs`` is q at the
    interval midpoints (:func:`_check_path`); each half takes its own row
    weights from it."""
    middle = (path.steps - 1) // 2
    scale = np.sqrt(path.dt)
    early, late = Path(path.states[: middle + 3], path.dt), Path(path.states[middle:], path.dt)
    _hessian_band(early, cfg, scale / qs[: middle + 2], newton, buffer[: middle + 1])
    _hessian_band(late, cfg, scale / qs[middle:], newton, buffer[middle + 1 :], reverse=True)
    return middle


def _two_ended_solve(band: np.ndarray, rhs: np.ndarray, middle: int) -> np.ndarray:
    """Solve ``H x = rhs`` for the folded unknowns of the N - 1 interior
    states (``rhs`` and the result of shape (N - 1, d)) by eliminating
    toward interior state ``middle`` from both ends, the two-ended
    ("twisted") block factorization (van der Vorst 1987, Parallel Computing
    5, 45-54).  The factorization overwrites ``band``.

    ``band`` (shape :func:`_band_shape`) holds blocks 0..middle of H in time
    order, then blocks N - 2..middle in reverse time order, so each half
    ends in its own copy of the middle state's block.  One worker thread
    per half factors the half's blocks before the middle one
    (:func:`_factor`) and forward-substitutes its part of ``rhs``; the
    LAPACK calls release the GIL, so the halves run in parallel.  The
    calling thread then forms the middle state's d x d Schur complement
    from each half's last factor block and its coupling to the middle
    state, which the factorization leaves in that block's band rows below
    the half, factors it with ``np.linalg.cholesky`` and back-substitutes.
    Returns the solution, in ``rhs`` itself when it is C-contiguous.
    Raises LinAlgError when H is not positive definite.
    """
    d, rows = band.shape[1:]
    halves = (band[: middle + 1], band[middle + 1 :])
    # the early half solves in place in rhs, the late half in a reversed copy
    rhs = np.ascontiguousarray(rhs)
    parts = (rhs[:middle], rhs[:middle:-1].copy())

    def eliminate(i, _):
        half, y = halves[i], parts[i]
        if y.size:
            if _factor(half, y.size):
                raise np.linalg.LinAlgError("not positive definite")
            _substitute(half, y.size, y.reshape(1, -1), b"N")

    map_blocks(eliminate, 2, 1)
    a, b = np.indices((d, d))
    # the middle block, whose band rows hold its lower triangle
    low = halves[0][-1][b, np.abs(a - b)]
    schur = np.where(a >= b, low, low.T)
    x = rhs[middle].copy()
    joined = [(half, y) for half, y in zip(halves, parts) if y.size]  # none at N = 2
    couplings = []
    for half, y in joined:
        # coupling[a, b] = H[middle site a, site b of the half's last
        # eliminated state], solved in place into Y^T, Y = L_last^-1 coupling^T
        o = d + a - b
        coupling = np.where(o < rows, half[-2][b, np.minimum(o, rows - 1)], 0.0)
        _substitute(half[-2], d, coupling, b"N")
        schur -= coupling @ coupling.T
        x -= coupling @ y[-1]
        couplings.append(coupling)
    lower = np.linalg.cholesky(schur)
    x = np.linalg.solve(lower.T, np.linalg.solve(lower, x))
    for (half, y), coupling in zip(joined, couplings):
        y[-1] -= coupling.T @ x
        _substitute(half, y.size, y.reshape(1, -1), b"T")
    rhs[middle] = x
    rhs[middle + 1 :] = parts[1][::-1]
    return rhs


def _backtrack(path: Path, cfg: LatticeConfig, qs, direction, t, slope: float, action_val: float, halvings: int):
    """Armijo backtracking from ``path`` along ``direction``: the first of
    the steps ``t, t/2, ...`` (at most ``halvings`` of them) whose action
    decreases by at least ``1e-4 t slope``, as (path, report, t, halvings
    taken), or None.  A trial whose action overflows is rejected as one
    that does not descend.  Every trial is formed in one array, which the
    accepted path keeps."""
    trial = np.empty_like(path.states)
    trial[0], trial[-1] = path.states[0], path.states[-1]
    for taken in range(halvings):
        np.multiply(direction, t, out=trial[1:-1])
        trial[1:-1] += path.states[1:-1]
        trial_path = Path(trial, path.dt)
        try:
            trial_report = _action(trial_path, cfg, qs)
            if trial_report.total <= action_val + 1e-4 * t * slope:
                return trial_path, trial_report, t, taken
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
    path = Path((1.0 - lam_interp) * spec.phi0[None, :] + lam_interp * spec.phiT[None, :], dt)
    del lam_interp
    # q at the interval midpoints, where the action evaluates it
    qs = _check_path(path, cfg)
    report = _action(path, cfg, qs)
    action_val = report.total

    grad = om_gradient(path, cfg)
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
            middle = _build_band(path, cfg, qs, spec.newton, buffer)
            buffer[..., 0] += damping
            tried = damping
            try:  # the solve overwrites -g, in folded order, with the step
                step = _two_ended_solve(buffer, np.negative(grad.take(order, axis=1)), middle)
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
            accepted = _backtrack(path, cfg, qs, direction, 1.0, slope, action_val, 30)
            del direction
        fallback = accepted is None
        if fallback:
            # no Gauss-Newton step descends: plain gradient descent
            slope = -float(np.sum(grad * grad))
            t = 1.0 / (1.0 + np.max(np.abs(grad)))
            accepted = _backtrack(path, cfg, qs, -grad, t, slope, action_val, 40)
        if accepted is None:
            break  # no descent possible at working precision

        path, report, t, taken = accepted
        del accepted, grad  # the old path and gradient go before the new gradient
        action_val = report.total
        grad = om_gradient(path, cfg)
        record.append(RecordRow(action_val, float(np.max(np.abs(grad))), tried, t, taken, int(fallback)))
        damping *= 0.25
        if damping < 1e-14 * (1.0 + abs(action_val)):
            damping = 0.0

    if report is None:  # the last search stalled on the path it started from
        report = _action(path, cfg, qs)
    return MPPResult(
        path=path,
        action=report,
        iterations=min(len(record), spec.max_iterations),
        converged=record[-1].gradient_norm <= spec.tol,
        record=tuple(record),
    )
