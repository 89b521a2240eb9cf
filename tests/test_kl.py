import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator

from omlat import ConfigurationError, kl
from omlat.kl import kl_spectrum, smallball_mc, smallball_rates, wilson_interval
from omlat.noise import _TAG_SMALLBALL_BLOCK, _block_bits
from oracles import (
    eigenfunction,
    eigenfunction_orthogonality,
    kernel_eigen_check,
    ou_kernel,
    smallball_reference,
)


def bisect_root_oracle(lam, i, tol=1e-12):
    """Plain bisection on tan(g) + g/lam over the i-th bracket, shrunk
    away from the poles; independent of the module's parametrization."""
    lo = (2 * i - 1) * math.pi / 2 + 1e-9
    hi = (2 * i + 1) * math.pi / 2 - 1e-9

    def h(g):
        return math.tan(g) + g / lam

    assert h(lo) < 0 < h(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if h(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestSpectrum:
    def test_first_root_matches_independent_bisection(self):
        spec = kl_spectrum(0.4, 3)
        assert spec.gamma[0] == pytest.approx(bisect_root_oracle(0.4, 1), abs=1e-10)
        assert spec.gamma[1] == pytest.approx(bisect_root_oracle(0.4, 2), abs=1e-10)

    def test_residuals_small(self):
        spec = kl_spectrum(0.4, 50)
        assert np.max(spec.residuals()) <= 1e-10

    def test_eigenvalue_identity_by_construction(self):
        spec = kl_spectrum(0.4, 50)
        assert np.max(np.abs(spec.mu * (0.4**2 + spec.gamma**2) - 1.0)) <= 1e-14

    def test_one_root_per_bracket_and_increasing(self):
        for lam in (0.1, 0.4, 2.0):
            spec = kl_spectrum(lam, 30)
            for i in range(1, 31):
                assert (2 * i - 1) * math.pi / 2 < spec.gamma[i - 1] < (2 * i + 1) * math.pi / 2
            assert np.all(np.diff(spec.gamma) > 0)
            assert np.all(np.diff(spec.mu) < 0)

    def test_normalization_and_bound(self):
        spec = kl_spectrum(0.4, 20)
        assert np.all(spec.A <= 2.0)
        # A_i normalizes the eigenfunction to unit norm
        s = np.linspace(0, 1, 4001)
        for i in (1, 7, 20):
            vals = eigenfunction(spec, i, s) ** 2
            assert np.trapezoid(vals, s) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("lam", [1e-11, 1e-13, 1e-150])
    def test_tiny_decay_rate_roots_sit_lam_over_c_above_the_poles(self, lam):
        # tan(c + u) = -cot(u) = -(c + u) / lam gives u = lam / c to first
        # order (the next term is lam / c^2 smaller), below any fixed lower
        # end of the bracket
        spec = kl_spectrum(lam, 50)
        c = (2 * np.arange(1, 51) - 1) * math.pi / 2
        np.testing.assert_allclose(spec.pole_offset, lam / c, rtol=1e-9)

    def test_invalid_arguments(self):
        for lam in (0.0, math.nan, math.inf, 1e300, 1e-300):
            with pytest.raises(ConfigurationError, match="decay rate"):
                kl_spectrum(lam, 5)
        with pytest.raises(ConfigurationError):
            kl_spectrum(0.4, 0)


class TestKernelChecks:
    def test_eigen_residuals_first_five(self):
        spec = kl_spectrum(0.4, 5)
        for i in range(1, 6):
            assert kernel_eigen_check(spec, i, 2001) <= 1e-6

    def test_quadrature_refinement(self):
        # the split at the diagonal kink keeps Simpson's full order:
        # doubling the budget shrinks the residual far more than 4x
        spec = kl_spectrum(0.4, 10)
        coarse = kernel_eigen_check(spec, 10, 101, eval_points=21)
        fine = kernel_eigen_check(spec, 10, 201, eval_points=21)
        assert coarse / fine >= 4.0

    def test_orthogonality(self):
        spec = kl_spectrum(0.4, 5)
        assert eigenfunction_orthogonality(spec, 5) <= 1e-8

    def test_mercer_partial_sums_increase_to_diagonal(self):
        spec = kl_spectrum(0.4, 400)
        for t in (0.3, 0.7):
            target = float(ou_kernel(0.4, t, t))
            partial = [
                float(np.sum(spec.mu[:m] * eigenfunction(spec, np.arange(1, m + 1), t) ** 2))
                for m in (10, 50, 200, 400)
            ]
            assert all(a < b for a, b in zip(partial, partial[1:]))
            assert all(p <= target + 1e-9 for p in partial)
            assert target - partial[-1] < target - partial[0]

    def test_index_out_of_range(self):
        spec = kl_spectrum(0.4, 3)
        with pytest.raises(ConfigurationError):
            kernel_eigen_check(spec, 4)


class TestSmallBallBounds:
    def test_alpha_one(self):
        assert smallball_rates(1.0) == (0.5, 2.0)

    def test_alpha_three_halves(self):
        rate_up, rate_low = smallball_rates(1.5)
        assert rate_up == pytest.approx(1.0)
        assert rate_low == pytest.approx(1.5 * math.sqrt(1.5))

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.51, 5.0))
    def test_upper_rate_below_lower_rate(self, alpha):
        rate_up, rate_low = smallball_rates(alpha)
        assert rate_up < rate_low

    def test_boundary_alpha_rejected(self):
        with pytest.raises(ConfigurationError):
            smallball_rates(0.5)


class TestWilson:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(50, 1000)
        assert lo < 0.05 < hi

    def test_zero_hits(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0
        assert hi > 0.0


def _block_generator(seed, index):
    """The generator of small-ball block ``index``, built as the package
    builds it."""
    return Generator(_block_bits(seed, _TAG_SMALLBALL_BLOCK, index))


def _staged_replay(seed, index, count, w, cutoff):
    """Replay the staged stream of block ``index`` with one draw per stage
    over a mask of the rows still alive; return the sums and each row's
    partial sum when it is dropped (nan for rows never dropped)."""
    g = _block_generator(seed, index)
    replay, dropped = np.zeros(count), np.full(count, np.nan)
    alive = np.ones(count, dtype=bool)
    bounds = [b for b in (0, 1, 8, 32, 256) if b < w.size] + [w.size]
    for lo, hi in zip(bounds, bounds[1:]):
        leaving = alive & (replay > cutoff)
        dropped[leaving] = replay[leaving]
        alive &= ~leaving
        x = g.standard_normal((int(alive.sum()), hi - lo), dtype=np.float32).astype(np.float64)
        replay[alive] += np.einsum("ij,ij,j->i", x, x, w[lo:hi])
    return replay, dropped


class TestSmallBallMC:
    def test_huge_radius_captures_everything(self):
        res = smallball_mc(1.0, 2000, [100.0], 2000, seed=5)
        assert res.estimates[0] == 1.0

    def test_monotone_in_radius(self):
        res = smallball_mc(1.0, 3000, [1.2, 0.9, 0.6], 20000, seed=7)
        assert res.estimates[0] >= res.estimates[1] >= res.estimates[2]

    def test_deterministic(self):
        a = smallball_mc(1.0, 2000, [0.8], 20000, seed=11)
        b = smallball_mc(1.0, 2000, [0.8], 20000, seed=11)
        assert np.array_equal(a.estimates, b.estimates)

    @pytest.mark.parametrize("eps", [[0.0], [0.5, -0.1], [np.nan], [0.5, np.inf]])
    def test_bad_radius_rejected(self, eps):
        with pytest.raises(ConfigurationError, match="radii"):
            smallball_mc(1.0, 12000, eps, 1000)

    def test_one_generator_per_block(self, monkeypatch):
        # every coordinate of a block, tail included, comes from the
        # block's one generator: 70 000 samples are two blocks
        built = []

        def counting(bits):
            built.append(bits)
            return Generator(bits)

        monkeypatch.setattr(kl, "Generator", counting)
        res = smallball_mc(1.0, 3000, [0.6], 70_000, seed=0)
        assert res.estimates[0] > 0
        assert len(built) == 2

    def test_hits_equal_the_replayed_blocks(self):
        # a two-block run counts exactly the hits of its blocks' replayed
        # streams: 65 536 samples from block 0, 4 464 from block 1
        eps = np.array([0.7, 0.6])
        w = np.arange(1, 3001, dtype=float) ** -2.0
        res = smallball_mc(1.0, 3000, eps, 70_000, seed=3)
        replays = [_staged_replay(3, 0, 65536, w, 0.49)[0], _staged_replay(3, 1, 4464, w, 0.49)[0]]
        expected = [sum(int(np.count_nonzero(r <= e * e)) for r in replays) for e in eps]
        assert np.rint(res.estimates * 70_000).tolist() == expected

    @pytest.mark.parametrize("count", [65536, 34464, 1001])
    @pytest.mark.parametrize("chunk", [8192, 777])
    def test_chunked_head_sums_equal_one_shot_sums(self, monkeypatch, count, chunk):
        # each draw of at most ``chunk`` normals continues the block's
        # stream, so the sums equal those of one draw per stage
        monkeypatch.setattr(kl, "_DRAW_NORMALS", chunk)
        w_head = np.arange(1, 257, dtype=float) ** -2.0
        one_shot, _ = _staged_replay(11, 0, count, w_head, 0.25)
        sums = kl._staged_sums(_block_generator(11, 0), count, w_head, 0.25)
        np.testing.assert_array_equal(sums, one_shot)

    @pytest.mark.parametrize("width", [2000, 257, 256, 20, 1])
    def test_pruned_rows_exceed_the_largest_radius(self, width):
        # a dropped row must already lie beyond the cutoff, so pruning
        # never loses a hit
        count, cutoff = 20_000, 0.25
        w = np.arange(1, width + 1, dtype=float) ** -2.0
        replay, dropped = _staged_replay(5, 0, count, w, cutoff)
        sums = kl._staged_sums(_block_generator(5, 0), count, w, cutoff)
        np.testing.assert_array_equal(sums, replay)
        pruned = ~np.isnan(dropped)
        assert pruned.any() == (width > 1)
        assert np.all(dropped[pruned] > cutoff)

    def test_tail_sums_do_not_depend_on_blas_threads(self):
        # the staged sums of a default run, whose last stage is the
        # 11 744-wide tail, each taken once with one BLAS thread and once
        # with two, must agree bit for bit
        code = (
            "import hashlib, numpy as np\n"
            "from numpy.random import Generator\n"
            "from omlat.kl import _staged_sums\n"
            "from omlat.noise import _TAG_SMALLBALL_BLOCK, _block_bits\n"
            "w = np.arange(1, 12001, dtype=float) ** -2.0\n"
            "g = Generator(_block_bits(5, _TAG_SMALLBALL_BLOCK, 0))\n"
            "print(hashlib.sha256(_staged_sums(g, 65536, w, 0.25).tobytes()).hexdigest())\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.realpath(kl.__file__)))
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
            digests.add(proc.stdout)
        assert len(digests) == 1, digests

    def test_truncation_precondition_names_required_size(self):
        with pytest.raises(ConfigurationError) as err:
            smallball_mc(1.0, 100, [0.3], 100, seed=0)
        assert "11113" in str(err.value)

    @pytest.mark.parametrize(
        "eps, expected",
        [(0.5, 0.011129314895026306), (0.4, 0.0007023706429760871), (0.3, 1.7770367158614255e-06)],
    )
    def test_cramer_von_mises_reference(self, eps, expected):
        # the benchmark's small-ball reference values, computed separately
        # from the same series
        assert smallball_reference(eps, 12000) == pytest.approx(expected, rel=1e-11)

    def test_rate_window_smoke(self):
        # moderate-scale version of the rate check; the full-scale run
        # lives in the acceptance suite
        res = smallball_mc(1.0, 3000, [0.6], 200_000, seed=0)
        scaled = math.log(res.estimates[0]) * 0.36
        assert -2.0 <= scaled <= -0.5


def test_spectrum_weight_decay_near_one():
    # mu_i ~ (pi i)^(-2): the weights sqrt(mu_i) decay like i^(-alpha) with
    # alpha ~ 1, the small-ball family's alpha = 1
    spec = kl_spectrum(0.4, 400)
    i = np.arange(1, spec.count + 1, dtype=float)
    slope = np.polyfit(np.log(i), 0.5 * np.log(spec.mu), 1)[0]
    assert -slope == pytest.approx(1.0, abs=0.05)
