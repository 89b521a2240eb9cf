"""Desk-scale tube-probability experiments.

The defining property of the path action is asymptotic: the probability
that a trajectory stays within eps of a smooth reference path phi,
relative to the probability that the damped noise path stays within eps
of zero, behaves like ``exp(-total_action(phi) / 2)`` as eps shrinks.
This module estimates both tube probabilities by Monte Carlo on small
systems (one or three sites) and reports the ratio against that
prediction.

Common random numbers are used throughout: one block of Wiener
increments drives both the solution ensemble and the reference-noise
ensemble, and every radius is evaluated on the same samples, which makes
the hit counts exactly monotone in eps.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

from .action import _check_path, om_action
from .errors import ConfigurationError, StatisticalPowerError
from .lattice import LatticeConfig, apply_A
from .noise import _TAG_TUBE_BLOCK, _block_bits
from .paths import Path
from .sde import euler_maruyama
from .utils import check_count, map_blocks

__all__ = ["TubeExperiment", "TubeTable", "tube_ratio"]

#: Trajectories per generator key, and per task of the block pool; fixed
#: so results do not depend on the thread count.
TUBE_BLOCK_SIZE = 32768

#: Fewest hits each ensemble needs at the largest radius.
MIN_HITS = 50

#: Steps a block draws and steps at a time.  The generator's stream
#: continues from chunk to chunk, so results are the same for every chunk
#: size; the size bounds a block's increments at
#: ``_TUBE_CHUNK_STEPS * count * d`` doubles whatever the number of steps.
_TUBE_CHUNK_STEPS = 8

#: Steps between a block's prune points: at global steps 32, 64, ... a
#: block drops the trajectories whose two partial distances both exceed
#: ``max(eps)^2``.  The prune points do not depend on the chunk size, so
#: neither do the results; they do depend on ``max(eps)``.
_TUBE_STAGE_STEPS = 32


@dataclass(frozen=True)
class TubeExperiment:
    """Specification of one ratio experiment.

    ``phi`` must start at the initial condition the solution ensemble is
    launched from (phi(0) is taken as u0), and it must pass the action's
    entry check (sites, horizon, noise floor).  ``denominator`` selects the
    reference-noise ensemble: "convolution" damps the noise by the
    linear-part rates in its eigenbasis; "plain" uses the undamped
    cumulative noise path.
    """

    cfg: LatticeConfig
    phi: Path
    eps: tuple
    samples: int
    seed: int = 0
    denominator: str = "convolution"

    def __post_init__(self):
        if self.cfg.n > 1:
            raise ConfigurationError(
                f"tube experiments are desk scale: need n <= 1, config has n={self.cfg.n}"
            )
        _check_path(self.phi, self.cfg)
        eps = tuple(float(e) for e in self.eps)
        if not eps or not all(1e-150 <= e <= 1e150 for e in eps):  # e^2 a normal double
            raise ConfigurationError(f"need radii in [1e-150, 1e150], got {eps}")
        if self.denominator not in ("convolution", "plain"):
            raise ConfigurationError(f"unknown denominator kind {self.denominator!r}")
        check_count(self.samples, "samples")
        object.__setattr__(self, "eps", eps)


@dataclass(frozen=True)
class TubeTable:
    """Per-radius hit counts, their ratio with a propagated 95% interval,
    and the action-based prediction (one prediction, radius independent)."""

    eps: np.ndarray
    num_hits: np.ndarray
    den_hits: np.ndarray
    ratio: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    predicted: float


def _block_distances(exp: TubeExperiment, block_index: int, count: int):
    """Squared tube distances of the ``count`` trajectories of keyed block
    ``block_index`` (at most :data:`TUBE_BLOCK_SIZE`), for the solution
    ensemble and the reference-noise ensemble (common increments), in
    trajectory order.

    Both distances are running sums of non-negative terms, so a trajectory
    whose two partial sums both exceed ``max(eps)^2`` can never be a hit at
    any radius.  The steps are taken in stages of :data:`_TUBE_STAGE_STEPS`,
    and each stage after the first covers only the trajectories where
    either partial sum is still at most ``max(eps)^2``.  The increments
    are drawn time-major from the block's one generator: step after step,
    standard normals scaled by sqrt(dt) for the surviving trajectories in
    ascending order, one (steps, alive, d) draw per chunk of at most
    :data:`_TUBE_CHUNK_STEPS` steps, each stepped as soon as it is drawn.
    A pruned trajectory keeps its partial sums, which already exceed every
    radius squared, so the hit counts are exact for the trajectories' own
    increments; a block whose trajectories are all pruned stops drawing."""
    cfg = exp.cfg
    phi = exp.phi.states
    N, d = exp.phi.steps, cfg.d
    dt = exp.phi.dt
    cutoff = max(exp.eps) ** 2
    rho_sq = (cfg.rho**2)[None, :]
    g = Generator(_block_bits(exp.seed, _TAG_TUBE_BLOCK, block_index))

    alpha, V = np.linalg.eigh(cfg.nu * apply_A(np.eye(d)) + cfg.lam * np.eye(d))
    # The plain denominator is the convolution one with unit decay and no
    # basis change: x * 1.0 is x bit for bit.  At d = 1 the eigenbasis is
    # [[1.0]] and the basis changes are exact copies, so they are skipped:
    # `@` on (count, 1) is a slow per-row loop, and np.dot hands it to
    # BLAS, whose threads contend with the pool.
    convolution = exp.denominator == "convolution"
    decay = (np.exp(-alpha * dt) if convolution else np.ones(d))[None, :]
    rotate = convolution and d > 1

    # trapezoid accumulation: half weight at k = 0 and k = N; at k = 0 both
    # ensembles sit exactly on their reference, so that term is zero
    num_sq = np.zeros(count)
    den_sq = np.zeros(count)
    x = np.zeros((count, d))  # reference-noise state, in the eigenbasis when rotated
    sq = np.empty((count, d))  # weighted squared distance per site
    u = np.tile(phi[0], (count, 1))

    def add_site_sum(acc, w):
        # acc += w * (sum of the columns of sq), overwriting sq.  Summing
        # the columns one after another gives np.sum(sq, axis=1) bit for
        # bit for d <= 7 (TubeExperiment allows d <= 3) without its slow
        # reduction over short rows.
        s = sq[:, 0]
        for i in range(1, d):
            s = s + sq[:, i]
        s *= w
        acc += s

    def accumulate(k, u, forced):
        np.add(x, forced @ V if rotate else forced, out=x)
        np.multiply(x, decay, out=x)
        y = x @ V.T if rotate else x
        w = dt if k < N - 1 else 0.5 * dt
        np.subtract(u, phi[k + 1], out=sq)
        np.square(sq, out=sq)
        np.multiply(sq, rho_sq, out=sq)
        add_site_sum(num_sq, w)
        np.square(y, out=sq)
        np.multiply(sq, rho_sq, out=sq)
        add_site_sum(den_sq, w)

    first = block_index * TUBE_BLOCK_SIZE
    trajectories = np.arange(first, first + count)
    num_all, den_all = num_sq, den_sq
    # Every trajectory keeps its row in the block's arrays: a prune point
    # moves the survivors, in ascending order, to the front, and the state
    # becomes the views of that prefix.  So a prune point allocates nothing
    # that outlives it, and a smaller alive set draws into a prefix of the
    # block's one buffer.
    alive = count
    buffer = np.empty(min(_TUBE_CHUNK_STEPS, _TUBE_STAGE_STEPS, N) * count * d)
    for s0 in range(0, N, _TUBE_STAGE_STEPS):
        if s0:
            keep = (num_sq <= cutoff) | (den_sq <= cutoff)
            survivors_first = np.argsort(~keep, kind="stable")
            for a in (trajectories, num_all, den_all, x, u):
                a[:alive] = a[:alive][survivors_first]
            alive = int(keep.sum())
            if not alive:
                break
            num_sq, den_sq, x, u, sq = num_all[:alive], den_all[:alive], x[:alive], u[:alive], sq[:alive]
        s1 = min(s0 + _TUBE_STAGE_STEPS, N)
        for k0 in range(s0, s1, _TUBE_CHUNK_STEPS):
            dW = buffer[: (min(k0 + _TUBE_CHUNK_STEPS, s1) - k0) * alive * d].reshape(-1, alive, d)
            g.standard_normal(out=dW)
            dW *= np.sqrt(dt)
            # the transpose is the stepper's (alive, steps, d) layout, and
            # each step reads one contiguous (alive, d) block of it
            u = euler_maruyama(u, dW.transpose(1, 0, 2), cfg, dt, trajectories[:alive], k0, accumulate)
    num_out = np.empty(count)
    den_out = np.empty(count)
    num_out[trajectories - first] = num_all
    den_out[trajectories - first] = den_all
    return num_out, den_out


def tube_ratio(exp: TubeExperiment) -> TubeTable:
    """Estimate ``P(|u - phi| <= eps) / P(|W| <= eps)`` for each radius and
    compare with ``exp(-action(phi)/2)`` evaluated on the same grid.

    The samples are cut into keyed blocks of :data:`TUBE_BLOCK_SIZE`
    trajectories, one task each for the pool's workers; the blocks depend
    only on ``samples``, and every block draws from its own generator, so
    the counts do not depend on the thread count.  A block stops drawing
    and stepping a trajectory at the first prune point (every
    :data:`_TUBE_STAGE_STEPS` steps) where it has left both tubes of
    radius ``max(eps)``; the hit counts are exact, but the draws after the
    first stage, and with them the counts, depend on ``max(eps)``.

    Raises
    ------
    StatisticalPowerError
        If either event has fewer than :data:`MIN_HITS` hits at the
        largest radius; the message suggests larger samples or radii.
    IntegrationError
        If a trajectory of the solution ensemble blows up while it is
        still stepped; a pruned trajectory is not stepped on.  The error
        is the first block's, in sample order, that has one, and names the
        block's first blow-up step and its largest component there.
    """
    predicted = float(np.exp(-0.5 * om_action(exp.phi, exp.cfg).total))

    eps_sq = np.asarray(exp.eps) ** 2

    def block_hits(block_index, count):
        num_sq, den_sq = _block_distances(exp, block_index, count)
        return np.stack([np.searchsorted(np.sort(sq), eps_sq, side="right") for sq in (num_sq, den_sq)])

    num_hits, den_hits = sum(map_blocks(block_hits, exp.samples, TUBE_BLOCK_SIZE))

    largest = int(np.argmax(exp.eps))
    if num_hits[largest] < MIN_HITS or den_hits[largest] < MIN_HITS:
        raise StatisticalPowerError(
            f"only {num_hits[largest]} / {den_hits[largest]} hits at the largest "
            f"radius {max(exp.eps)}; increase samples (now {exp.samples}) or use "
            "larger radii"
        )

    n = exp.samples
    num_p = num_hits / n
    den_p = den_hits / n
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(den_hits > 0, num_p / np.where(den_p > 0, den_p, 1.0), np.nan)
        se = np.sqrt(
            np.where(num_hits > 0, (1.0 - num_p) / np.maximum(num_hits, 1), np.inf)
            + np.where(den_hits > 0, (1.0 - den_p) / np.maximum(den_hits, 1), np.inf)
        )
    ci_lo = ratio * np.exp(-1.959963984540054 * se)
    ci_hi = ratio * np.exp(+1.959963984540054 * se)
    return TubeTable(
        eps=np.asarray(exp.eps),
        num_hits=num_hits,
        den_hits=den_hits,
        ratio=ratio,
        ci_lo=ci_lo,
        ci_hi=ci_hi,
        predicted=predicted,
    )
