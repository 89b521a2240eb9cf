"""Spectral decomposition of the damped-noise covariance on [0, 1] and
small-ball probability machinery.

The covariance kernel of the unit-coefficient damped noise path with
decay rate ``lam`` is

    ``K(t, s) = (1 / 2 lam) (e^{-lam |t - s|} - e^{-lam (t + s)})``.

Its eigenfunctions are ``g_i(s) = A_i sin(gamma_i s)`` with eigenvalues
``mu_i = 1 / (lam^2 + gamma_i^2)``, where gamma_i is the unique root of
``tan(gamma) = -gamma / lam`` in ``((2i-1) pi/2, (2i+1) pi/2)``.

Root handling: gamma_i sits a distance ``u_i ~ lam / gamma_i`` above the
left pole of tan, where the residual ``tan(gamma) + gamma / lam`` has
slope ``~ 1 + (gamma/lam)^2``.  A root stored as one double can therefore
carry a residual around ``slope * ulp(gamma) ~ 1e-9`` for i ~ 50 no
matter how it was computed.  We instead solve for and keep the pole
offset u_i, whose own ulp is ~1e-19, and evaluate the residual through
the exact identity ``tan((2i-1) pi/2 + u) = -cot(u)``; the roots then
satisfy the defining equation to ~1e-13.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

from .errors import ConfigurationError
from .noise import _TAG_SMALLBALL_BLOCK, _block_bits
from .utils import check_count, check_scale, map_blocks

__all__ = [
    "KLSpectrum",
    "kl_spectrum",
    "smallball_rates",
    "smallball_mc",
    "SmallBallMC",
    "wilson_interval",
]


@dataclass(frozen=True)
class KLSpectrum:
    """Roots, eigenvalues and normalization constants of the covariance
    eigenproblem.

    ``gamma[i]`` is the (i+1)-th root as a double; ``pole_offset[i]`` is
    the same root expressed as its distance above ``(2i+1) pi / 2``'s left
    pole, kept for high-accuracy residual evaluation.  ``A[i]`` normalizes
    ``A sin(gamma s)`` to unit norm on [0, 1].
    """

    lambda_decay: float
    gamma: np.ndarray
    mu: np.ndarray
    A: np.ndarray
    pole_offset: np.ndarray

    @property
    def count(self) -> int:
        return self.gamma.size

    def residuals(self) -> np.ndarray:
        """|tan(gamma_i) + gamma_i / lam| evaluated through the pole-offset
        representation (see module docstring)."""
        lam = self.lambda_decay
        out = np.empty(self.count)
        for idx in range(self.count):
            u = self.pole_offset[idx]
            # tan(c + u) = -cot(u) exactly, with c the left pole of bracket idx+1
            out[idx] = abs(-1.0 / math.tan(u) + self.gamma[idx] / lam)
        return out


def kl_spectrum(lam: float, count: int) -> KLSpectrum:
    """First ``count`` eigenpairs for a finite decay rate ``lam > 0``.

    Bisection runs on the pole offset u = gamma - (2i-1) pi/2 in (0, pi),
    where ``g(u) = lam cot(u) - gamma`` is strictly decreasing from +inf
    to -inf, so each bracket contains exactly one root; the iteration
    stops when the bracket cannot be split further in double precision.
    The bracket starts at min(1e-12, lam / 2c), c = (2i-1) pi/2, below the
    root u ~ lam / c however small lam is.
    """
    check_scale(lam, "decay rate")
    check_count(count, "count")
    gamma = np.empty(count)
    offsets = np.empty(count)
    for i in range(1, count + 1):
        c = (2 * i - 1) * math.pi / 2.0

        def g(u):
            return lam / math.tan(u) - (c + u)

        lo, hi = min(1e-12, 0.5 * lam / c), math.pi - 1e-12
        # g(lo) > 0 > g(hi); keep the sign invariant while halving.  Halving
        # a width of pi reaches the spacing of any double in 1100 steps
        for _ in range(1100):
            midpoint = 0.5 * (lo + hi)
            if midpoint <= lo or midpoint >= hi:
                break
            if g(midpoint) > 0.0:
                lo = midpoint
            else:
                hi = midpoint
        u = 0.5 * (lo + hi)
        offsets[i - 1] = u
        gamma[i - 1] = c + u
    mu = 1.0 / (lam**2 + gamma**2)
    # normalization: int_0^1 sin^2(gamma s) ds = 1/2 - sin(2 gamma) / (4 gamma)
    sin_sq_integral = 0.5 - np.sin(2.0 * gamma) / (4.0 * gamma)
    A = 1.0 / np.sqrt(sin_sq_integral)
    return KLSpectrum(lambda_decay=lam, gamma=gamma, mu=mu, A=A, pole_offset=offsets)


def smallball_rates(alpha: float) -> tuple:
    """Exponential rates ``(rate_up, rate_low)`` of the two-sided
    small-ball estimate for weights i^(-alpha).

    With ``rho = 1 / (2 alpha - 1)``, the probability of the ball of radius
    eps lies between constant multiples of
    ``eps^(rho (3-alpha)) exp(-rate_low eps^(-2 rho))`` and
    ``eps^(rho (1-alpha)) exp(-rate_up eps^(-2 rho))``; the constants are
    unknown.  Requires alpha > 1/2 (at alpha = 1/2 the exponent rho
    diverges).
    """
    if not 0.5 < alpha < math.inf:
        raise ConfigurationError(f"alpha must exceed 1/2 and be finite, got {alpha}")
    rho = 1.0 / (2.0 * alpha - 1.0)
    try:
        return alpha - 0.5, alpha * (1.0 + rho) ** rho
    except OverflowError:
        raise ConfigurationError(f"alpha={alpha} is too close to 1/2: rate_low = alpha (1 + rho)^rho overflows") from None


def wilson_interval(hits: int, trials: int) -> tuple:
    """Wilson 95% score interval for a binomial proportion."""
    check_count(trials, "trials")
    z = 1.959963984540054
    p = hits / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == trials else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class SmallBallMC:
    """Monte Carlo estimates of ``P(sqrt(sum_i i^(-2 alpha) X_i^2) <= eps)``
    with shared samples across radii (hit counts are exactly monotone in
    eps)."""

    estimates: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray


#: Samples per generator key, and per task of the block pool, fixed as
#: :data:`omlat.tube.TUBE_BLOCK_SIZE` is.
SMALLBALL_BLOCK_SIZE = 65536

#: Coordinate bounds of the small-ball stages: stage s draws coordinates
#: ``[_STAGES[s], _STAGES[s + 1])``, and the last stage runs up to i_max.
_STAGES = (0, 1, 8, 32, 256)

#: Normals in one small-ball draw: a stage of width w is drawn
#: ``max(1, _DRAW_NORMALS // w)`` rows at a time.  Each draw continues the
#: block's stream, so the sums do not depend on it; it caps the memory of
#: a block.
_DRAW_NORMALS = 65536


def _staged_sums(g: Generator, count: int, w: np.ndarray, cutoff: float) -> np.ndarray:
    """``sum_j w[j] x_ij^2`` for ``count`` rows of single-precision normals
    drawn from ``g``, one stage of coordinates after another.

    The first stage covers every row; a later stage covers only the rows
    whose partial sum is still at most ``cutoff``, in ascending row order,
    as one row-major (rows, width) draw taken in pieces of at most
    :data:`_DRAW_NORMALS` normals (at least one row).  A pruned row keeps
    its partial sum, which already exceeds ``cutoff``.  Each sum is
    einsum's own loop, not a BLAS call, so its bits do not depend on the
    BLAS thread count.
    """
    bounds = [b for b in _STAGES if b < w.size] + [w.size]
    sums = np.zeros(count)
    alive = np.arange(count)
    for lo, hi in zip(bounds, bounds[1:]):
        if lo:
            alive = alive[sums[alive] <= cutoff]
        w_stage = w[lo:hi]
        step = max(1, _DRAW_NORMALS // w_stage.size)
        for start in range(0, alive.size, step):
            rows = alive[start : start + step]
            x = g.standard_normal((rows.size, w_stage.size), dtype=np.float32).astype(np.float64)
            sums[rows] += np.einsum("ij,ij,j->i", x, x, w_stage)
    return sums


def _required_i_max(alpha: float, eps_min: float) -> str:
    # sum_{i > I} i^(-2 alpha) <= I^(1 - 2 alpha) / (2 alpha - 1) < 1e-3 eps_min^2;
    # near alpha = 1/2 the I needed overflows a double, so give its power of ten
    target = 1e-3 * eps_min**2 * (2.0 * alpha - 1.0)
    exponent = -1.0 / (2.0 * alpha - 1.0)
    digits = exponent * math.log10(target)
    return f"10^{digits:.0f}" if digits > 300 else str(int(math.ceil(target**exponent)) + 1)


def _check_truncation(alpha: float, i_max: int, eps_min: float, name: str) -> None:
    """Reject a truncation ``i_max`` below 1, or one whose tail mass is not
    below ``1e-3 eps_min^2`` (alpha > 1/2); ``name`` names it in the message."""
    check_count(i_max, name)
    tail_mass = i_max ** (1.0 - 2.0 * alpha) / (2.0 * alpha - 1.0)
    if tail_mass >= 1e-3 * eps_min**2:
        raise ConfigurationError(
            f"{name}={i_max} leaves truncated mass {tail_mass:.3e} >= "
            f"{1e-3 * eps_min**2:.3e}; need {name} >= {_required_i_max(alpha, eps_min)}"
        )


def smallball_mc(
    alpha: float,
    i_max: int,
    eps,
    samples: int,
    seed: int = 0,
) -> SmallBallMC:
    """Estimate the small-ball probabilities for weights ``i^(-alpha)``.

    The truncation must satisfy ``i_max >= 1`` and ``sum_{i > i_max}
    i^(-2 alpha) < 1e-3 min(eps)^2``; otherwise a configuration error
    names ``i_max`` (for the mass condition, its required value).  Each
    block of :data:`SMALLBALL_BLOCK_SIZE` samples draws from its one SFC64
    generator, keyed by :func:`~omlat.noise._block_bits` as a tube block
    is; the blocks run on the pool of :func:`~omlat.utils.map_blocks`, and
    their hit counts are summed in block order, so the estimate does not
    depend on the thread count.  A block draws its coordinates in stages
    (:data:`_STAGES`, the last running up to ``i_max``), and a stage after
    the first only for the samples whose partial sum is still at most
    ``max(eps)^2``.  Partial sums only grow, so a pruned sample can never
    be a hit, and hit counts stay exactly monotone in eps within a run.
    Which samples survive depends on ``max(eps)``, so the draws after the
    first stage, and with them the estimates, do too.  Draws use
    single-precision normals accumulated in double.
    """
    if not alpha > 0.5:
        raise ConfigurationError(f"alpha must exceed 1/2, got {alpha}")
    eps = np.atleast_1d(np.asarray(eps, dtype=float))
    check_scale(eps, "radii")
    check_count(samples, "samples")
    _check_truncation(alpha, i_max, float(np.min(eps)), "i_max")
    w = np.arange(1, i_max + 1, dtype=float) ** (-2.0 * alpha)
    thresholds = eps**2
    cutoff = float(np.max(thresholds))

    def block_hits(block_index, count):
        g = Generator(_block_bits(seed, _TAG_SMALLBALL_BLOCK, block_index))
        sums = _staged_sums(g, count, w, cutoff)
        return np.searchsorted(np.sort(sums), thresholds, side="right")

    hits = sum(map_blocks(block_hits, samples, SMALLBALL_BLOCK_SIZE))
    est = hits / samples
    ci = np.array([wilson_interval(int(h), samples) for h in hits])
    return SmallBallMC(estimates=est, ci_lo=ci[:, 0], ci_hi=ci[:, 1])

