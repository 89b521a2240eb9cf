"""Weighted sequence space, lattice operators, and problem configuration.

Everything downstream works on a periodic truncation of the integer
lattice: sites i = -n..n, dimension d = 2n + 1, with site -n coupled to
site n.  States are plain 1-d numpy arrays of length d; site i lives at
array position i + n.  Norms carry per-site weights rho_i > 0:
``norm(u)^2 = sum_i (rho_i u_i)^2``.

The periodic second-difference operator A annihilates constants.  It
factors as A = B B^T = B^T B through the forward/backward difference
operators B, B^T; those are checked in the tests and not shipped here.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigurationError, DegenerateNoiseError

if TYPE_CHECKING:  # noise numbers its sites with _center_out_order from here
    from .noise import NoiseCoefficient

__all__ = [
    "PolynomialNonlinearity",
    "LatticeConfig",
    "weighted_norm",
    "apply_A",
    "drift",
]

#: Any component beyond this magnitude is treated as a blown-up trajectory.
BLOWUP_THRESHOLD = 1.0e8

#: Grid used for the numerical nonlinearity checks (f1)/(f2).
_F_CHECK_GRID = np.linspace(-10.0, 10.0, 1001)

#: Points of [0, T] at which the noise coefficient is checked nonzero.
_Q_CHECK_POINTS = 513

#: Largest growth exponent p: the growth check evaluates x^(2p) on
#: [-10, 10], and 10^(2p) must be a finite double.
_P_MAX = int(math.log10(np.finfo(float).max)) // 2

#: Range of the magnitudes whose squares are normal doubles, which |q| and
#: the weights rho_i must keep: the action divides by q^2, and the tube
#: experiment weighs its squared distances by rho^2.
_SQUARE_MIN, _SQUARE_MAX = math.sqrt(np.finfo(float).tiny), math.sqrt(np.finfo(float).max)


def _center_out_order(d: int) -> np.ndarray:
    """Array positions of sites 0, +1, -1, +2, -2, ... for dimension d.

    Noise rows are filled in this order, so truncations nest.  The solver
    numbers a time block's sites in it, which puts every ring neighbour
    within two sites, the wrap included, at most 4 positions away.
    """
    n = (d - 1) // 2
    order = np.empty(d, dtype=np.intp)
    order[0] = n
    for i in range(1, n + 1):
        order[2 * i - 1] = n + i
        order[2 * i] = n - i
    return order


def weighted_norm(u, rho) -> float:
    """Weighted norm ``(sum_i (rho_i u_i)^2)^(1/2)``.

    Zero if and only if u is the zero vector (rho is all-positive).
    """
    u = np.asarray(u, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if len(u) != len(rho):
        raise ConfigurationError(f"length mismatch: {sorted({len(u), len(rho)})}")
    return float(np.linalg.norm(rho * u))


def apply_A(u, out=None):
    """Periodic second-difference operator: ``(A u)_i = -u_{i-1} + 2 u_i - u_{i+1}``.

    Site -n wraps to site n.  Symmetric positive semidefinite; constants
    are in the kernel.  For d = 1 the wrap degenerates the row 2 - 1 - 1
    to zero.  Acts along the last axis; ``out`` (same shape as u, not
    overlapping it) receives the result when given.
    """
    u = np.asarray(u, dtype=float)
    out = np.multiply(2.0, u, out=out)
    # 2 u_i, minus the left neighbour, then minus the right one
    out[..., 1:] -= u[..., :-1]
    out[..., :1] -= u[..., -1:]
    out[..., :-1] -= u[..., 1:]
    out[..., -1:] -= u[..., :1]
    return out


@dataclass(frozen=True)
class PolynomialNonlinearity:
    """Odd polynomial nonlinearity ``f(x) = sum_k coeffs[k] x^(2k+1)``.

    ``coeffs[0]`` multiplies x, ``coeffs[1]`` multiplies x^3, and so on,
    so f(0) = 0 holds structurally.  ``p`` and ``growth_constant`` are the
    exponent and constant of the polynomial growth bound
    ``|f(x)| <= C |x| (1 + x^(2p))``.

    Two numerical condition checks are provided: :meth:`condition_f1`
    (monotone non-decreasing on a sign-check grid, automatic when all
    coefficients are nonnegative) and :meth:`condition_f2` (the growth
    bound on the same grid).  Construction warns, but does not fail, when
    the monotonicity check fails; the downstream dissipativity guarantees
    are then void.
    """

    coeffs: tuple = ()
    p: int = 1
    growth_constant: float = 1.0
    # _horner[order]: the Horner coefficients of :meth:`deriv`, built once
    _horner: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_horner", tuple(
            tuple(math.perm(2 * k + 1, order) * c for k, c in enumerate(coeffs) if 2 * k + 1 >= order)
            for order in range(4)
        ))
        if self.p < 1 or int(self.p) != self.p:
            raise ConfigurationError(f"growth exponent p must be a positive integer, got {self.p}")
        if self.p > _P_MAX:
            raise ConfigurationError(
                f"growth exponent p must be at most {_P_MAX}: the growth check's 10^(2p) on [-10, 10] overflows"
            )
        if self.growth_constant < 0:
            raise ConfigurationError("growth constant must be nonnegative")
        if self.coeffs and not self.condition_f1():
            warnings.warn(
                "nonlinearity fails the monotonicity grid check (f1); "
                "dissipativity-based guarantees do not apply",
                stacklevel=2,
            )

    def __call__(self, x):
        return self.deriv(x, 0)

    def deriv(self, x, order=1, out=None, work=None):
        """The ``order``-th derivative of f, for ``order`` 0 to 3: Horner in
        x^2 over the coefficients ``perm(2k+1, order) coeffs[k]`` of the
        terms with ``2k+1 >= order``, times x when ``order`` is even.
        ``out`` receives the result and ``work`` holds x^2 when given (each
        shaped like x, neither overlapping it or the other); the result
        does not depend on them."""
        x = np.asarray(x, dtype=float)
        terms = self._horner[order]
        acc = np.empty_like(x) if out is None else out
        acc.fill(terms[-1] if terms else 0.0)
        if len(terms) > 1:
            x2 = np.multiply(x, x, out=work)
            for c in reversed(terms[:-1]):
                acc *= x2
                acc += c
        if terms and order % 2 == 0:
            acc *= x
        return acc

    def condition_f1(self) -> bool:
        """Monotone non-decreasing check on a symmetric grid.

        Exact for the polynomial family when all coefficients are
        nonnegative; otherwise a finite sign check.
        """
        if all(c >= 0 for c in self.coeffs):
            return True
        return bool(np.all(np.diff(self(_F_CHECK_GRID)) >= -1e-12))

    def condition_f2(self) -> bool:
        """Growth bound ``|f(x)| <= C |x| (1 + x^(2p))`` on the check grid."""
        g = _F_CHECK_GRID
        with np.errstate(over="ignore"):  # a bound past the doubles holds every finite |f(x)|
            bound = self.growth_constant * np.abs(g) * (1.0 + g ** (2 * self.p))
        return bool(np.all(np.abs(self(g)) <= bound + 1e-12))


@dataclass(frozen=True)
class LatticeConfig:
    """Full problem specification shared by every module.

    Parameters
    ----------
    n : int
        Truncation half-width; sites run over i = -n..n, d = 2n + 1.
    nu : float
        Diffusion coefficient of the second-difference coupling, > 0.
    lam : float
        Linear decay coefficient, > 0.
    f : PolynomialNonlinearity
        Componentwise nonlinearity.
    g : ndarray or None
        Constant forcing vector of length d (None means zero).
    q : NoiseCoefficient
        Per-site, time-varying noise coefficient q_i(t).
    rho : ndarray or None
        Positive site weights (None means all ones).
    T : float
        Time horizon, > 0.
    """

    n: int
    nu: float
    lam: float
    f: PolynomialNonlinearity
    q: NoiseCoefficient
    T: float
    g: np.ndarray | None = None
    rho: np.ndarray | None = None

    def __post_init__(self):
        if self.n < 0 or int(self.n) != self.n:
            raise ConfigurationError(f"truncation half-width n must be >= 0, got {self.n}")
        if not 0 < self.nu < np.inf:
            raise ConfigurationError(f"nu must be positive and finite, got {self.nu}")
        if not 0 < self.lam < np.inf:
            raise ConfigurationError(f"lambda must be positive and finite, got {self.lam}")
        if not 0 < self.T < np.inf:
            raise ConfigurationError(f"T must be positive and finite, got {self.T}")
        d = self.d
        g = np.zeros(d) if self.g is None else np.asarray(self.g, dtype=float)
        rho = np.ones(d) if self.rho is None else np.asarray(self.rho, dtype=float)
        if g.shape != (d,):
            raise ConfigurationError(f"g must have length {d}, got shape {g.shape}")
        if rho.shape != (d,):
            raise ConfigurationError(f"rho must have length {d}, got shape {rho.shape}")
        if not np.all(np.isfinite(g)):
            raise ConfigurationError("g must be finite")
        # rho_i^2 must be a normal double, and a state's squared norm must
        # stay finite up to the blow-up threshold: d (rho_i BLOWUP_THRESHOLD)^2.
        # The test is for the inside, so it rejects nan as well.
        rho_max = _SQUARE_MAX / math.sqrt(d) / BLOWUP_THRESHOLD
        if not np.all((rho >= _SQUARE_MIN) & (rho <= rho_max)):
            raise ConfigurationError(
                f"weights rho_i must lie in [{_SQUARE_MIN:.4g}, {rho_max:.4g}] on {d} sites, "
                f"got {np.min(rho):.4g} to {np.max(rho):.4g}"
            )
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "rho", rho)
        self._check_noise_nondegenerate()

    def _check_noise_nondegenerate(self):
        # q_i(t) != 0 on a sampling grid, with no sign change per site:
        # a continuous nonzero coefficient keeps one sign.
        ts = np.linspace(0.0, self.T, _Q_CHECK_POINTS)
        if self.q.kind == "table":  # piecewise linear: its extremes sit at its nodes, 0 or T
            nodes = self.q.table_times
            ts = np.union1d(ts, nodes[(nodes > 0.0) & (nodes < self.T)])
        qs = self.q.grid(ts, self.n)
        if np.any(qs == 0.0):
            k, i = np.argwhere(qs == 0.0)[0]
            raise DegenerateNoiseError(
                f"q vanishes at t={ts[k]:.6g} (site {i - self.n})"
            )
        outside = ~((np.abs(qs) >= _SQUARE_MIN) & (np.abs(qs) <= _SQUARE_MAX))  # nan and inf too
        if np.any(outside):
            k, i = np.argwhere(outside)[0]
            raise ConfigurationError(
                f"noise coefficient q (q_spec) is {qs[k, i]:.4g} at t={ts[k]:.6g} (site {i - self.n}): "
                f"the action divides by q^2, so |q| must lie in [{_SQUARE_MIN:.4g}, {_SQUARE_MAX:.4g}]"
            )
        signs = np.sign(qs)
        if np.any(signs.min(axis=0) != signs.max(axis=0)):
            raise ConfigurationError(
                "noise coefficient changes sign on [0, T]; it must stay nonzero"
            )

    def widened(self, n: int) -> LatticeConfig:
        """Same problem on the wider truncation -n..n: forcing is
        zero-padded and weights are one-padded outside the original sites."""
        off = n - self.n
        g = np.zeros(2 * n + 1)
        g[off : off + self.d] = self.g
        rho = np.ones(2 * n + 1)
        rho[off : off + self.d] = self.rho
        return replace(self, n=n, g=g, rho=rho)

    @property
    def d(self) -> int:
        return 2 * self.n + 1


def drift(u, cfg: LatticeConfig, out=None):
    """Deterministic drift ``-nu A u - lam u - f(u) + g`` of the lattice system.

    The nonlinearity acts componentwise.  Accepts a single state of shape
    (d,) or a batch of shape (m, d); ``out`` (same shape as u, not
    overlapping it) receives the result when given.  The terms are
    combined left to right, so the result does not depend on ``out``.
    """
    u = np.asarray(u, dtype=float)
    out = apply_A(u, out=out)
    out *= -cfg.nu
    out -= cfg.lam * u
    if cfg.f.coeffs:  # f = 0 returns zeros, and x - 0.0 is x bit for bit
        out -= cfg.f(u)
    out += cfg.g
    return out
