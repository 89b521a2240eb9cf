import numpy as np
import pytest
from numpy.random import Generator, Philox

from omlat import (
    ConfigurationError,
    NoiseCoefficient,
    NoisePath,
    sample_noise,
    shift_noise,
    wq_path,
)
from omlat.noise import _block_bits, _philox_key
from oracles import ou_convolution, ou_states


def trajectory_draws(seed, count, steps, d, dt):
    """``count`` independent noise paths, each from one generator call.

    Keyed by the retired whole-trajectory tag 2, so the statistical
    checks below see the same draws they were calibrated on.
    """
    for j in range(count):
        g = Generator(Philox(key=_philox_key(seed, 2, 0, j)))
        yield NoisePath(dt=dt, increments=np.sqrt(dt) * g.standard_normal((steps, d)), trajectory=j)


class TestSampling:
    def test_same_seed_identical(self):
        a = sample_noise(123, 64, 5, 0.01)
        b = sample_noise(123, 64, 5, 0.01)
        np.testing.assert_array_equal(a.increments, b.increments)

    def test_distinct_seeds_differ(self):
        a = sample_noise(1, 32, 3, 0.01)
        b = sample_noise(2, 32, 3, 0.01)
        assert np.max(np.abs(a.increments - b.increments)) > 1e-3

    def test_distinct_trajectories_differ(self):
        a = sample_noise(1, 32, 3, 0.01, trajectory=0)
        b = sample_noise(1, 32, 3, 0.01, trajectory=1)
        assert np.max(np.abs(a.increments - b.increments)) > 1e-3

    def test_rows_are_order_independent(self):
        full = sample_noise(42, 100, 7, 0.5)
        # row k of a (k+1)-step draw is row k of the full draw, whatever
        # order the draws are made in
        for k in (99, 3, 57, 0):
            np.testing.assert_array_equal(sample_noise(42, k + 1, 7, 0.5).increments[k], full.increments[k])

    def test_site_values_stable_under_widening(self):
        # widening the truncation keeps the values on common sites
        narrow = sample_noise(7, 20, 2 * 3 + 1, 0.1)
        wide = sample_noise(7, 20, 2 * 6 + 1, 0.1)
        np.testing.assert_array_equal(wide.increments[:, 3:10], narrow.increments)

    def test_moments(self):
        dt = 0.37
        noise = sample_noise(2024, 2000, 51, dt)  # 102000 draws
        draws = noise.increments.ravel()
        assert abs(draws.mean()) < 4 * np.sqrt(dt / draws.size)
        assert abs(draws.var() / dt - 1.0) < 0.02

    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            sample_noise(1, 0, 3, 0.1)
        with pytest.raises(ConfigurationError):
            sample_noise(1, 10, 4, 0.1)  # even d
        with pytest.raises(ConfigurationError):
            sample_noise(1, 10, 3, 0.0)


def numpy_scalar_key(seed, tag, a, b):
    """The Philox key built with numpy scalar operations, as it was before
    the key words were computed as Python integers."""
    word = (np.uint64(tag) << np.uint64(56)) | (np.uint64(a) << np.uint64(32)) | np.uint64(b)
    return np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), word], dtype=np.uint64)


class TestRekeyedGenerator:
    @pytest.mark.parametrize("seed", [0, 2**64 - 1, 2**63, 12345])
    def test_rows_match_a_fresh_generator_per_row(self, seed):
        d, steps, dt = 7, 40, 0.3
        center_out = [3, 4, 2, 5, 1, 6, 0]  # array positions of sites 0, +1, -1, ...
        for trajectory in (0, 1, 17, 2**24 - 1):
            got = sample_noise(seed, steps, d, dt, trajectory=trajectory).increments
            for k in range(steps):
                row = np.empty(d)
                row[center_out] = Generator(Philox(key=_philox_key(seed, 1, trajectory, k))).standard_normal(d)
                np.testing.assert_array_equal(got[k], row * np.sqrt(dt))

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, 2**63, 12345])
    def test_key_words_match_numpy_scalar_construction(self, seed):
        for tag, a, b in [(1, 0, 0), (1, 2**24 - 1, 2**32 - 1), (3, 0, 77), (4, 0, 2**31), (5, 0, 12)]:
            np.testing.assert_array_equal(_philox_key(seed, tag, a, b), numpy_scalar_key(seed, tag, a, b))


def first_draws(seed, tag, index, size=4):
    return Generator(_block_bits(seed, tag, index)).standard_normal(size)


class TestBlockBits:
    def test_distinct_triples_give_distinct_first_draws(self):
        triples = [
            (seed, tag, index)
            for seed in (0, 1, 2**32, 2**63 + 5)
            for tag in (3, 5)
            for index in (0, 1, 2**16, 2**32 - 1)
        ]
        draws = {tuple(first_draws(*t)) for t in triples}
        assert len(draws) == len(triples)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_seed_outside_64_bits_rejected_not_aliased(self, seed):
        # a key word holds 64 bits: reducing the seed would give -1 the
        # stream of 2^64 - 1, and 2^64 + 5 that of 5
        with pytest.raises(ConfigurationError, match="seed"):
            first_draws(seed, 5, 7, 64)
        first_draws(2**64 - 1, 5, 7, 64)

    def test_seed_above_two_to_the_32_does_not_collide_with_a_smaller_seed(self):
        # the high 32-bit word of the seed is entropy of its own: seed
        # 2^32 + s is not seed s, nor s with another block index
        for s in (0, 1, 12345):
            big = first_draws(2**32 + s, 5, 0)
            for index in (0, 1):
                assert not np.array_equal(big, first_draws(s, 5, index))


class TestCoefficient:
    def test_constant(self):
        q = NoiseCoefficient.constant(2.5)
        np.testing.assert_array_equal(q.grid([0.3], 2)[0], np.full(5, 2.5))

    def test_affine_profile(self):
        q = NoiseCoefficient.affine(0.01, 31.0)
        vals = q.grid([1.0], 2)[0]
        sites = np.array([-2, -1, 0, 1, 2])
        expected = 0.01 * (31.0 - 1.0 + 1.0 / (np.abs(sites) + 1.0))
        np.testing.assert_allclose(vals, expected)

    def test_table_interpolates(self):
        times = np.array([0.0, 1.0, 2.0])
        values = np.array([[1.0, 2.0, 3.0], [2.0, 3.0, 4.0], [3.0, 4.0, 5.0]])
        q = NoiseCoefficient.table(times, values)
        np.testing.assert_allclose(q.grid([0.5], 1)[0], [1.5, 2.5, 3.5])
        # beyond the table it holds the boundary row
        np.testing.assert_allclose(q.grid([5.0], 1)[0], [3.0, 4.0, 5.0])

    def test_table_narrower_selection(self):
        times = np.array([0.0, 1.0])
        values = np.tile(np.arange(1.0, 6.0), (2, 1))
        q = NoiseCoefficient.table(times, values)
        np.testing.assert_allclose(q.grid([0.0], 1)[0], [2.0, 3.0, 4.0])

    def test_table_validation(self):
        with pytest.raises(ConfigurationError):
            NoiseCoefficient.table([0.0, 0.0], np.ones((2, 3)))
        with pytest.raises(ConfigurationError):
            NoiseCoefficient.table([0.0, 1.0], np.ones((2, 4)))

    @pytest.mark.parametrize(
        "times, value", [([0.0, np.nan, 40.0], 1.0), ([0.0, 10.0, np.inf], 1.0), ([0.0, 1.0, 2.0], np.nan)]
    )
    def test_table_rejects_non_finite_entries(self, times, value):
        # nan compares false, so a nan time passed the strictly-increasing test
        values = np.ones((3, 1))
        values[1] = value
        with pytest.raises(ConfigurationError, match="table times and values must be finite"):
            NoiseCoefficient.table(times, values)


class TestWqPath:
    def test_zero_coefficient(self):
        noise = sample_noise(5, 16, 3, 0.1)
        p = wq_path(noise, NoiseCoefficient.constant(0.0))
        assert np.all(p.states == 0.0)

    def test_unit_coefficient_is_partial_sums(self):
        noise = sample_noise(5, 16, 3, 0.1)
        p = wq_path(noise, NoiseCoefficient.constant(1.0))
        np.testing.assert_allclose(p.states[1:], np.cumsum(noise.increments, axis=0), atol=0)
        assert np.all(p.states[0] == 0.0)

    def test_terminal_variance_matches_quadrature(self):
        # Var W_i(T) = int_0^T q_i(s)^2 ds, estimated over 10^4 trajectories
        q = NoiseCoefficient.affine(0.05, 3.0)
        steps, d, dt = 64, 3, 1.0 / 64
        finals = np.empty((10_000, d))
        for j, noise in enumerate(trajectory_draws(99, 10_000, steps, d, dt)):
            finals[j] = wq_path(noise, q).states[-1]
        ts = np.linspace(0.0, 1.0, 1001)
        target = np.trapezoid(q.grid(ts, 1) ** 2, ts, axis=0)
        est = finals.var(axis=0)
        assert np.all(np.abs(est / target - 1.0) < 0.05)


class TestOuConvolution:
    def test_zero_coefficient(self):
        noise = sample_noise(5, 16, 3, 0.1)
        p = ou_convolution(noise, NoiseCoefficient.constant(0.0), alpha=1.0)
        assert np.all(p.states == 0.0)

    def test_vanishing_damping_reduces_to_wq(self):
        noise = sample_noise(8, 128, 3, 1.0 / 128)
        q = NoiseCoefficient.constant(0.7)
        conv = ou_convolution(noise, q, alpha=1e-12)
        plain = wq_path(noise, q)
        assert np.max(np.abs(conv.states - plain.states)) < 1e-6

    def test_stationary_variance(self):
        # Var X(T) -> q^2 (1 - e^(-2 a T)) / (2 a) for constant q, a
        alpha, qval, steps, dt = 1.0, 0.8, 256, 2.0 / 256
        q = NoiseCoefficient.constant(qval)
        # the 10 000 trajectories stepped as one (N, paths, d) stack
        draws = np.stack([noise.increments for noise in trajectory_draws(4242, 10_000, steps, 1, dt)], axis=1)
        finals = ou_states(draws, q.grid(dt * np.arange(steps), 0), np.exp(-alpha * dt))[-1, :, 0]
        target = qval**2 * (1.0 - np.exp(-2 * alpha * 2.0)) / (2 * alpha)
        assert abs(finals.var() / target - 1.0) < 0.05

    def test_negative_alpha_rejected(self):
        noise = sample_noise(5, 8, 1, 0.1)
        with pytest.raises(ConfigurationError):
            ou_convolution(noise, NoiseCoefficient.constant(1.0), alpha=-0.5)


class TestShift:
    def test_zero_shift_is_identity(self):
        noise = sample_noise(3, 32, 3, 0.25)
        shifted = shift_noise(noise, 0.0)
        np.testing.assert_array_equal(shifted.increments, noise.increments)

    def test_shifts_compose(self):
        noise = sample_noise(3, 32, 3, 0.25)
        once = shift_noise(noise, 12 * 0.25)
        twice = shift_noise(shift_noise(noise, 5 * 0.25), 7 * 0.25)
        np.testing.assert_array_equal(once.increments, twice.increments)
        assert once.origin_step == twice.origin_step == 12

    def test_off_grid_shift_rejected(self):
        noise = sample_noise(3, 32, 3, 0.25)
        with pytest.raises(ConfigurationError):
            shift_noise(noise, 0.3)

    def test_pathwise_shift_identity(self):
        # W(s + t) = W(s) + [shifted path with time-shifted coefficient](t)
        q = NoiseCoefficient.affine(0.01, 31.0)
        dt = 30.0 / 512
        noise = sample_noise(77, 512, 5, dt)
        m = 128
        s = m * dt
        full = wq_path(noise, q)
        shifted = wq_path(shift_noise(noise, s), q)
        recombined = full.states[m] + shifted.states
        assert np.max(np.abs(full.states[m:] - recombined)) <= 1e-12

    def test_itô_isometry_3sigma(self):
        # E |W(T)|^2 against the trapezoid quadrature of q^2, 10^4 samples
        q = NoiseCoefficient.affine(0.05, 3.0)
        steps, dt = 64, 1.0 / 64
        sq = np.empty(10_000)
        for j, noise in enumerate(trajectory_draws(31337, 10_000, steps, 1, dt)):
            sq[j] = wq_path(noise, q).states[-1, 0] ** 2
        ts = np.linspace(0.0, 1.0, 2001)
        target = float(np.trapezoid(q.grid(ts, 0)[:, 0] ** 2, ts))
        err = abs(sq.mean() - target)
        assert err <= 3.0 * sq.std() / np.sqrt(sq.size)
