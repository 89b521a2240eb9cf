import numpy as np
import pytest

from omlat import (
    ConfigurationError,
    IntegrationError,
    LatticeConfig,
    NoiseCoefficient,
    NoisePath,
    PolynomialNonlinearity,
    apriori_bound_check,
    cocycle_check,
    drift,
    integrate,
    sample_noise,
    shift_noise,
    truncation_tail,
    weighted_norm,
    wq_path,
)
from omlat import sde
from omlat.sde import euler_maruyama, integrate_ensemble
from oracles import strong_errors

CUBIC = PolynomialNonlinearity(coeffs=(0.0, 0.1), p=1, growth_constant=0.1)
LINEAR = PolynomialNonlinearity(coeffs=(), p=1, growth_constant=1.0)


def silent_noise(steps, d, dt):
    return NoisePath(dt=dt, increments=np.zeros((steps, d)))


def rk4_flow(u0, cfg, steps, dt):
    """Classical fourth-order reference for the noise-free flow."""
    u = np.asarray(u0, dtype=float).copy()
    out = [u.copy()]
    for _ in range(steps):
        k1 = drift(u, cfg)
        k2 = drift(u + 0.5 * dt * k1, cfg)
        k3 = drift(u + 0.5 * dt * k2, cfg)
        k4 = drift(u + dt * k3, cfg)
        u = u + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(u.copy())
    return np.array(out)


class TestIntegrate:
    def test_linear_decay_of_constants(self):
        # A annihilates constants, so u(t) = c exp(-lam t) when f = 0, q = 0
        cfg = LatticeConfig(n=2, nu=0.1, lam=0.4, f=LINEAR, q=NoiseCoefficient.constant(1.0), T=1.0)
        steps = 256
        dt = 1.0 / steps
        p = integrate(np.full(5, 2.0), silent_noise(steps, 5, dt), cfg)
        exact = 2.0 * np.exp(-0.4 * p.times)
        assert np.max(np.abs(p.states - exact[:, None])) <= 5 * dt

    def test_deterministic_cubic_matches_rk4(self):
        # constant initial data stays constant across sites: per-site ODE
        cfg = LatticeConfig(n=1, nu=0.1, lam=0.4, f=CUBIC, q=NoiseCoefficient.constant(1.0), T=1.0)
        steps = 512
        dt = 1.0 / steps
        u0 = np.full(3, 1.0)
        em = integrate(u0, silent_noise(steps, 3, dt), cfg)
        ref = rk4_flow(u0, cfg, 8 * steps, dt / 8.0)
        assert np.max(np.abs(em.states[-1] - ref[-1])) <= 5 * dt

    def test_strong_self_convergence_order_one(self):
        # root-mean-square error over 16 paths against the same Brownian
        # paths resolved 128x finer, in the time-integrated norm
        cfg = LatticeConfig(n=2, nu=0.2, lam=0.5, f=CUBIC, q=NoiseCoefficient.constant(0.5), T=1.0)
        u0 = np.array([0.1, 0.5, 1.0, 0.5, 0.1])
        errs = strong_errors(cfg, u0, seed=9, paths=16, fine_steps=2**14, factors=(32, 64, 128))
        # halving dt should halve the strong error
        assert 1.7 <= errs[1] / errs[0] <= 2.3
        assert 1.7 <= errs[2] / errs[1] <= 2.3

    def test_pathwise_determinism(self):
        cfg = LatticeConfig(n=1, nu=0.1, lam=0.4, f=CUBIC, q=NoiseCoefficient.constant(1.0), T=1.0)
        noise = sample_noise(9, 64, 3, 1.0 / 64)
        a = integrate(np.zeros(3), noise, cfg)
        b = integrate(np.zeros(3), noise, cfg)
        np.testing.assert_array_equal(a.states, b.states)

    def test_blowup_reports_step(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            runaway = PolynomialNonlinearity(coeffs=(0.0, -1.0), p=1, growth_constant=1.0)
        cfg = LatticeConfig(n=0, nu=0.1, lam=0.1, f=runaway, q=NoiseCoefficient.constant(1.0), T=4.0)
        with pytest.raises(IntegrationError) as err:
            integrate(np.array([5.0]), silent_noise(64, 1, 4.0 / 64), cfg)
        assert err.value.step is not None

    def test_norm_nonincreasing_without_forcing(self):
        cfg = LatticeConfig(n=3, nu=0.3, lam=0.6, f=CUBIC, q=NoiseCoefficient.constant(1.0), T=2.0)
        steps = 512
        p = integrate(np.array([0.0, 0.1, 0.6, 1.0, 0.6, 0.1, 0.0]), silent_noise(steps, 7, 2.0 / steps), cfg)
        norms = np.array([weighted_norm(s, cfg.rho) for s in p.states])
        assert np.all(np.diff(norms) <= 1e-12)

    def test_continuous_dependence_same_noise(self):
        cfg = LatticeConfig(n=2, nu=0.2, lam=0.5, f=CUBIC, q=NoiseCoefficient.constant(0.4), T=1.0)
        steps = 256
        noise = sample_noise(55, steps, 5, 1.0 / steps)
        rng = np.random.default_rng(1)
        u1 = rng.standard_normal(5)
        u2 = u1 + 0.1 * rng.standard_normal(5)
        p1 = integrate(u1, noise, cfg)
        p2 = integrate(u2, noise, cfg)
        sup = max(
            weighted_norm(a - b, cfg.rho) for a, b in zip(p1.states, p2.states)
        )
        assert sup <= 1.05 * weighted_norm(u1 - u2, cfg.rho)

    def test_shape_mismatch(self):
        cfg = LatticeConfig(n=1, nu=0.1, lam=0.4, f=CUBIC, q=NoiseCoefficient.constant(1.0), T=1.0)
        with pytest.raises(ConfigurationError):
            integrate(np.zeros(5), silent_noise(8, 3, 1.0 / 8), cfg)
        with pytest.raises(ConfigurationError):
            integrate(np.zeros(3), silent_noise(8, 5, 1.0 / 8), cfg)


def per_trajectory_updates(u0, increments, cfg, dt):
    """Reference for the batched stepper: each trajectory on its own, with
    the update ``u + drift(u) dt + q(t_k) dW_k`` written out."""
    m, steps, d = increments.shape
    qs = cfg.q.grid(dt * np.arange(steps), cfg.n)
    out = np.empty((m, steps + 1, d))
    for j in range(m):
        u = np.array(u0[j], dtype=float)
        out[j, 0] = u
        for k in range(steps):
            u = u + drift(u, cfg) * dt + qs[k] * increments[j, k]
            out[j, k + 1] = u
    return out


class TestBatchedStepper:
    @pytest.mark.parametrize("n", [0, 1, 30])
    def test_matches_per_trajectory_loop(self, n):
        g = np.linspace(-0.2, 0.3, 2 * n + 1)
        cfg = LatticeConfig(n=n, nu=0.1, lam=0.4, f=CUBIC, q=NoiseCoefficient.affine(0.01, 31.0), T=30.0, g=g)
        steps, m = 60, 5
        dt = cfg.T / steps
        increments = np.stack([sample_noise(3, steps, cfg.d, dt, trajectory=j).increments for j in range(m)])
        u0 = np.random.default_rng(n).standard_normal((m, cfg.d))
        expected = per_trajectory_updates(u0, increments, cfg, dt)
        np.testing.assert_array_equal(euler_maruyama(u0, increments, cfg, dt, range(m)), expected)
        for j in range(m):
            noise = NoisePath(dt=dt, increments=increments[j], trajectory=j)
            np.testing.assert_array_equal(integrate(u0[j], noise, cfg).states, expected[j])

    def test_observer_sees_each_state_and_forcing(self):
        cfg = LatticeConfig(n=1, nu=0.1, lam=0.4, f=CUBIC, q=NoiseCoefficient.affine(0.01, 31.0), T=1.0)
        steps, dt = 16, 1.0 / 16
        increments = np.stack([sample_noise(4, steps, 3, dt, trajectory=j).increments for j in range(2)])
        u0 = np.ones((2, 3))
        states = euler_maruyama(u0, increments, cfg, dt, range(2))
        qs = cfg.q.grid(dt * np.arange(steps), cfg.n)
        seen = []

        def observe(k, u, forced):
            np.testing.assert_array_equal(u, states[:, k + 1])
            np.testing.assert_array_equal(forced, qs[k] * increments[:, k])
            seen.append(k)

        final = euler_maruyama(u0, increments, cfg, dt, range(2), observe=observe)
        assert seen == list(range(steps))
        np.testing.assert_array_equal(final, states[:, -1])

    def test_inputs_untouched_and_observer_copies_rebuild_states(self):
        # the stepper works in its own buffers: u0 and the increments are
        # left as they were, and copies taken by an observer are the states
        cfg = LatticeConfig(n=2, nu=0.1, lam=0.4, f=CUBIC, q=NoiseCoefficient.affine(0.01, 31.0), T=1.0)
        steps, dt, m = 24, 1.0 / 24, 3
        increments = np.stack([sample_noise(9, steps, 5, dt, trajectory=j).increments for j in range(m)])
        u0 = np.random.default_rng(9).standard_normal((m, 5))
        u0_before, increments_before = u0.copy(), increments.copy()
        states = euler_maruyama(u0, increments, cfg, dt, range(m))
        kept = [u0.copy()]
        final = euler_maruyama(u0, increments, cfg, dt, range(m), observe=lambda k, u, forced: kept.append(u.copy()))
        np.testing.assert_array_equal(u0, u0_before)
        np.testing.assert_array_equal(increments, increments_before)
        np.testing.assert_array_equal(np.stack(kept, axis=1), states)
        np.testing.assert_array_equal(final, states[:, -1])

    def test_ensemble_matches_integrate_whatever_the_group_size(self, monkeypatch):
        cfg = LatticeConfig(n=2, nu=0.2, lam=0.5, f=CUBIC, q=NoiseCoefficient.constant(0.4), T=1.0)
        u0 = np.array([0.1, 0.5, 1.0, 0.5, 0.1])
        steps = 32
        noises = [sample_noise(6, steps, 5, 1.0 / steps, trajectory=j) for j in range(5)]
        expected = [integrate(u0, noise, cfg) for noise in noises]
        for budget in (sde.ENSEMBLE_STATE_BYTES, 1, 2 * 8 * (steps + 1) * 5):
            monkeypatch.setattr(sde, "ENSEMBLE_STATE_BYTES", budget)
            pairs = list(integrate_ensemble(u0, 6, 5, steps, cfg))
            assert [noise.trajectory for noise, _ in pairs] == list(range(5))
            for (noise, path), ref_noise, ref in zip(pairs, noises, expected):
                np.testing.assert_array_equal(noise.increments, ref_noise.increments)
                assert (noise.dt, noise.origin_step) == (ref_noise.dt, 0)
                np.testing.assert_array_equal(path.states, ref.states)
                np.testing.assert_array_equal(path.times, ref.times)

    @pytest.mark.parametrize("budget", [sde.ENSEMBLE_STATE_BYTES, 1, 2 * 8 * (32 * 9 + 33 * (9 + 5))])
    def test_centre_paths_equal_integrate_on_their_own_draws(self, monkeypatch, budget):
        # one draw per trajectory on 9 sites; the 5-site lattice steps on its
        # centre columns, and equals a run on its own 5-site draw bit for bit
        monkeypatch.setattr(sde, "ENSEMBLE_STATE_BYTES", budget)
        cfg = LatticeConfig(n=2, nu=0.2, lam=0.5, f=CUBIC, q=NoiseCoefficient.affine(0.3, 2.0), T=1.0)
        wide = cfg.widened(4)
        u0, u0_wide = np.linspace(0.1, 0.5, 5), np.linspace(-0.4, 0.4, 9)
        steps, dt = 32, 1.0 / 32
        pairs = list(integrate_ensemble(u0_wide, 6, 5, steps, wide, centre=(u0, cfg)))
        assert len(pairs) == 5
        for j, (path, path_wide) in enumerate(pairs):
            ref = integrate(u0, sample_noise(6, steps, 5, dt, trajectory=j), cfg)
            ref_wide = integrate(u0_wide, sample_noise(6, steps, 9, dt, trajectory=j), wide)
            assert path.states.tobytes() == ref.states.tobytes()
            assert path_wide.states.tobytes() == ref_wide.states.tobytes()
            assert (path.dt, path_wide.dt) == (dt, dt)

    def test_centre_lattice_checked(self):
        cfg = LatticeConfig(n=2, nu=0.2, lam=0.5, f=CUBIC, q=NoiseCoefficient.constant(0.4), T=1.0)
        wide = cfg.widened(3)
        with pytest.raises(ConfigurationError, match="more than 5"):
            next(integrate_ensemble(np.zeros(5), 1, 2, 8, cfg, centre=(np.zeros(7), wide)))
        with pytest.raises(ConfigurationError, match=r"shape \(5,\)"):
            next(integrate_ensemble(np.zeros(7), 1, 2, 8, wide, centre=(np.zeros(7), cfg)))

    def test_a_noise_is_a_view_of_its_group(self, monkeypatch):
        # the pairs of one group share its one noise array; no copy is made
        monkeypatch.setattr(sde, "ENSEMBLE_STATE_BYTES", 2 * 8 * (8 + 9) * 5)
        cfg = LatticeConfig(n=2, nu=0.2, lam=0.5, f=CUBIC, q=NoiseCoefficient.constant(0.4), T=1.0)
        noises = [noise.increments for noise, _ in integrate_ensemble(np.zeros(5), 1, 4, 8, cfg)]
        assert [a.base is b.base for a, b in zip(noises, noises[1:])] == [True, False, True]

    @pytest.mark.parametrize("chunk", [1, 7, 16, 40])
    def test_chunks_through_k0_equal_one_call(self, chunk):
        # q varies in time, so a chunk that evaluated it at the wrong times
        # would change the states
        cfg = LatticeConfig(n=1, nu=0.1, lam=0.4, f=CUBIC, q=NoiseCoefficient.affine(0.05, 3.0), T=3.0)
        steps, m = 40, 3
        dt = cfg.T / steps
        increments = np.stack([sample_noise(5, steps, cfg.d, dt, trajectory=j).increments for j in range(m)])
        u0 = np.random.default_rng(5).standard_normal((m, cfg.d))
        states = euler_maruyama(u0, increments, cfg, dt, range(m))
        seen = []
        final = euler_maruyama(u0, increments, cfg, dt, range(m),
                               observe=lambda k, u, forced: seen.append((k, u.copy(), forced.copy())))
        pieces, chunked_seen, u = [u0[:, None]], [], u0
        for k0 in range(0, steps, chunk):
            part = increments[:, k0 : k0 + chunk]
            pieces.append(euler_maruyama(u, part, cfg, dt, range(m), k0)[:, 1:])
            u = euler_maruyama(u, part, cfg, dt, range(m), k0,
                               observe=lambda k, u, forced: chunked_seen.append((k, u.copy(), forced.copy())))
        np.testing.assert_array_equal(np.concatenate(pieces, axis=1), states)
        np.testing.assert_array_equal(u, final)
        assert [k for k, _, _ in chunked_seen] == [k for k, _, _ in seen] == list(range(steps))
        for (_, u_a, f_a), (_, u_b, f_b) in zip(chunked_seen, seen):
            np.testing.assert_array_equal(u_a, u_b)
            np.testing.assert_array_equal(f_a, f_b)

    def test_blowup_in_a_later_chunk_names_the_global_step(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            runaway = PolynomialNonlinearity(coeffs=(0.0, -1.0), p=1, growth_constant=1.0)
        cfg = LatticeConfig(n=0, nu=0.1, lam=0.1, f=runaway, q=NoiseCoefficient.constant(1.0), T=4.0)
        steps, dt = 64, 4.0 / 64
        u0 = np.array([[0.1], [0.8]])
        zeros = np.zeros((2, steps, 1))
        with pytest.raises(IntegrationError) as whole:
            euler_maruyama(u0, zeros, cfg, dt, range(2))
        step = whole.value.step
        assert step > 5
        u = u0
        with pytest.raises(IntegrationError) as chunked:
            for k0 in range(0, steps, 5):
                u = euler_maruyama(u, zeros[:, k0 : k0 + 5], cfg, dt, range(2), k0, observe=lambda *a: None)
        assert (chunked.value.trajectory, chunked.value.step) == (1, step)
        assert chunked.value.time == whole.value.time == dt * step
        assert str(chunked.value) == str(whole.value)

    def test_blowup_names_trajectory_step_and_site(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            runaway = PolynomialNonlinearity(coeffs=(0.0, -1.0), p=1, growth_constant=1.0)
        cfg = LatticeConfig(n=1, nu=0.1, lam=0.1, f=runaway, q=NoiseCoefficient.constant(1.0), T=4.0)
        steps, dt = 64, 4.0 / 64
        u0 = np.array([[0.0, 0.1, 0.0], [0.0, 0.0, 5.0], [0.2, 0.0, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            ref = per_trajectory_updates(u0, np.zeros((3, steps, 3)), cfg, dt)
        bad = ~(np.abs(ref) < 1.0e8).all(axis=2)  # (trajectory, time)
        step = int(np.argmax(bad.any(axis=0)))
        assert bad[1, step] and not bad[0].any() and not bad[2].any()
        site = int(np.argmax(np.abs(ref[1, step]))) - 1
        with pytest.raises(IntegrationError) as err:
            euler_maruyama(u0, np.zeros((3, steps, 3)), cfg, dt, range(40, 43))
        assert (err.value.trajectory, err.value.step) == (41, step)
        assert f"trajectory 41 blew up at step {step} " in str(err.value)
        assert f"site {site}:" in str(err.value)
        with pytest.raises(IntegrationError, match=f"trajectory 7 blew up at step {step} "):
            integrate(u0[1], NoisePath(dt=dt, increments=np.zeros((steps, 3)), trajectory=7), cfg)


class TestAprioriBound:
    def strong_cfg(self):
        return LatticeConfig(
            n=2, nu=0.1, lam=0.4, f=CUBIC, q=NoiseCoefficient.affine(0.01, 31.0), T=2.0
        )

    def test_all_zero_gives_zero_ratio(self):
        cfg = LatticeConfig(n=1, nu=0.1, lam=0.4, f=CUBIC, q=NoiseCoefficient.constant(1.0), T=1.0)
        zero_noise = NoisePath(dt=1.0 / 8, increments=np.zeros((8, 3)))
        u = integrate(np.zeros(3), zero_noise, cfg)
        w = wq_path(zero_noise, NoiseCoefficient.constant(0.0))
        rep = apriori_bound_check([(u, w)], cfg)
        assert rep.max_ratio == 0.0
        assert np.all(rep.lhs == 0.0)

    def test_ratio_stable_under_refinement(self):
        cfg = self.strong_cfg()
        u0 = np.array([0.0, 0.3, 0.6, 0.3, 0.0])
        maxima = []
        for steps in (128, 256):
            dt = cfg.T / steps
            pairs = []
            for j in range(100):
                noise = sample_noise(2027, steps, 5, dt, trajectory=j)
                pairs.append((integrate(u0, noise, cfg), wq_path(noise, cfg.q)))
            rep = apriori_bound_check(pairs, cfg)
            assert np.isfinite(rep.max_ratio)
            maxima.append(rep.max_ratio)
        assert 0.5 <= maxima[1] / maxima[0] <= 2.0

    def test_g_term_doubles_with_g(self):
        base = self.strong_cfg()
        g = np.array([0.0, 1.0, 2.0, 1.0, 0.0])
        cfg1 = LatticeConfig(n=2, nu=0.1, lam=0.4, f=CUBIC, q=base.q, T=2.0, g=g)
        cfg2 = LatticeConfig(n=2, nu=0.1, lam=0.4, f=CUBIC, q=base.q, T=2.0, g=2 * g)
        noise = sample_noise(5, 64, 5, 2.0 / 64)
        u1 = integrate(np.zeros(5), noise, cfg1)
        u2 = integrate(np.zeros(5), noise, cfg2)
        w = wq_path(noise, base.q)
        r1 = apriori_bound_check([(u1, w)], cfg1)
        r2 = apriori_bound_check([(u2, w)], cfg2)
        # u0 = 0 and the same noise path: only int |g|^2 dt = T |g|^2 moves
        g_sq = weighted_norm(g, cfg1.rho) ** 2
        assert r2.rhs[0] - r1.rhs[0] == pytest.approx(3.0 * cfg1.T * g_sq, rel=1e-12)

    def test_overflowing_bound_functional_names_the_trajectory(self):
        # |W|^(4p+2) at p = 154 overflows once |W|^2 > 10; the silent path's
        # functional is 0 and passes, the second pair is named by its index
        f = PolynomialNonlinearity(coeffs=(), p=154, growth_constant=1.0)
        cfg = LatticeConfig(n=1, nu=0.1, lam=0.4, f=f, q=NoiseCoefficient.constant(3.0), T=1.0)
        pairs = []
        for noise in (silent_noise(16, 3, 1.0 / 16), sample_noise(0, 16, 3, 1.0 / 16, trajectory=1)):
            pairs.append((integrate(np.zeros(3), noise, cfg), wq_path(noise, cfg.q)))
        assert apriori_bound_check(pairs[:1], cfg).rhs[0] == 0.0
        with pytest.raises(IntegrationError, match="trajectory 1 overflows at p = 154") as raised:
            apriori_bound_check(pairs, cfg)
        assert raised.value.trajectory == 1


class TestCocycle:
    def example_cfg(self, n=5):
        return LatticeConfig(
            n=n, nu=0.1, lam=0.4, f=CUBIC, q=NoiseCoefficient.affine(0.01, 31.0), T=30.0
        )

    def gaussian_bump(self, n, sigma=8.0):
        i = np.arange(-n, n + 1)
        return 0.6 * np.exp(-(i**2) / (2 * sigma**2))

    def test_zero_shift(self):
        cfg = self.example_cfg(n=2)
        noise = sample_noise(12, 128, 5, 30.0 / 128)
        assert cocycle_check(self.gaussian_bump(2), noise, [0.0], cfg) == [0.0]

    @pytest.mark.parametrize("frac", [0.25, 0.5])
    def test_example_config_deviation_vanishes(self, frac):
        cfg = self.example_cfg(n=5)
        steps = 512
        noise = sample_noise(4, steps, cfg.d, cfg.T / steps)
        (dev,) = cocycle_check(self.gaussian_bump(5), noise, [frac * cfg.T], cfg)
        assert dev <= 1e-12

    def test_deviation_uniform_over_grid(self):
        # the check already maximizes over the grid; a second split point
        # behaves the same
        cfg = self.example_cfg(n=3)
        steps = 256
        noise = sample_noise(8, steps, cfg.d, cfg.T / steps)
        u0 = self.gaussian_bump(3)
        devs = cocycle_check(u0, noise, [m * cfg.T / steps for m in (32, 64, 192)], cfg)
        assert len(devs) == 3 and all(dev <= 1e-12 for dev in devs)

    def test_full_leg_integrated_once_for_all_restarts(self, monkeypatch):
        # 256 steps in full, then 192 and 128 from the restarts at T/4, T/2
        import omlat.sde as sde_mod

        legs = []

        def counted(u0, noise, cfg):
            legs.append(noise.steps)
            return integrate(u0, noise, cfg)

        monkeypatch.setattr(sde_mod, "integrate", counted)
        cfg = self.example_cfg(n=1)
        noise = sample_noise(8, 256, cfg.d, cfg.T / 256)
        devs = cocycle_check(np.zeros(3), noise, [64 * noise.dt, 128 * noise.dt], cfg)
        assert legs == [256, 192, 128]
        assert devs == [0.0, 0.0]

    def test_restart_on_the_grid_repeats_the_full_run_bit_for_bit(self):
        # q is evaluated at dt (m + k) on both legs, so the restarted leg
        # takes the same floating-point steps as the full run; dt = 0.1 is
        # not a binary fraction, so s + k dt would round differently
        cfg = self.example_cfg(n=2)
        steps = 300
        noise = sample_noise(13, steps, cfg.d, cfg.T / steps)
        full = integrate(self.gaussian_bump(2), noise, cfg)
        for m in (1, 77, 150):
            s = m * noise.dt
            restarted = integrate(full.states[m], shift_noise(noise, s), cfg)
            np.testing.assert_array_equal(restarted.states, full.states[m:])
            assert cocycle_check(self.gaussian_bump(2), noise, [s], cfg) == [0.0]

    def test_off_grid_split_rejected(self):
        cfg = self.example_cfg(n=1)
        noise = sample_noise(8, 64, 3, 30.0 / 64)
        with pytest.raises(ConfigurationError):
            cocycle_check(np.zeros(3), noise, [0.33 * cfg.T], cfg)


def decaying_table_noise(n, scale=0.25):
    sites = np.arange(-n, n + 1)
    profile = scale * 2.0 ** (-np.abs(sites).astype(float))
    return NoiseCoefficient.table([0.0, 1e9], np.vstack([profile, profile]))


class TestTruncationTail:
    def ensemble(self, n, seed=2024, count=50, steps=128, T=2.0, nu=0.5):
        cfg = LatticeConfig(
            n=n, nu=nu, lam=0.4, f=CUBIC, q=decaying_table_noise(n), T=T
        )
        u0 = np.zeros(cfg.d)
        for i in range(-2, 3):
            u0[i + n] = 1.0 / (1.0 + i * i)
        paths = []
        for j in range(count):
            noise = sample_noise(seed, steps, cfg.d, T / steps, trajectory=j)
            paths.append(integrate(u0, noise, cfg))
        return cfg, paths

    def test_empty_tail(self):
        cfg, paths = self.ensemble(n=4, count=3)
        tails, tails_wide, msd = truncation_tail(zip(paths, paths), [4], cfg.rho, cfg.rho)
        assert tails == tails_wide == [0.0] and msd == 0.0

    def test_monotone_in_cutoff(self):
        cfg8, paths8 = self.ensemble(n=8)
        cfg16, paths16 = self.ensemble(n=16)
        for tails in truncation_tail(zip(paths8, paths16), range(2, 9), cfg8.rho, cfg16.rho)[:2]:
            assert all(a >= b for a, b in zip(tails, tails[1:]))
            assert tails[0] > 0.0

    def test_stable_under_widening(self):
        # same seeds on a wider truncation change the tail at fixed K by < 10%
        _, paths8 = self.ensemble(n=8)
        _, paths16 = self.ensemble(n=16)
        [t8], [t16], _ = truncation_tail(zip(paths8, paths16), [5], np.ones(17), np.ones(33))
        assert abs(t16 - t8) < 0.10 * t8

    def test_mean_square_difference_shrinks_as_n_doubles(self):
        cfgs = {}
        paths = {}
        for n in (4, 8, 16):
            cfgs[n], paths[n] = self.ensemble(n=n)

        def diff(n_small, n_big):
            off = n_big - n_small
            acc = 0.0
            for a, b in zip(paths[n_small], paths[n_big]):
                acc += np.max(
                    np.sum((a.states - b.states[:, off : off + a.d]) ** 2, axis=1)
                )
            return acc / len(paths[n_small])

        d1 = diff(4, 8)
        d2 = diff(8, 16)
        assert d2 < d1
        for small, big, expected in ((4, 8, d1), (8, 16, d2)):
            _, _, msd = truncation_tail(zip(paths[small], paths[big]), [1], cfgs[small].rho, cfgs[big].rho)
            assert msd == expected

    def test_cutoff_beyond_truncation_rejected(self):
        cfg, paths = self.ensemble(n=4, count=2)
        with pytest.raises(ConfigurationError):
            truncation_tail(zip(paths, paths), [7], cfg.rho, cfg.rho)

    def test_narrower_widening_mixed_sites_and_empty_ensemble_rejected(self):
        cfg4, paths4 = self.ensemble(n=4, count=2)
        cfg8, paths8 = self.ensemble(n=8, count=2)
        with pytest.raises(ConfigurationError, match="fewer than 17"):
            truncation_tail(zip(paths8, paths4), [1], cfg8.rho, cfg4.rho)
        with pytest.raises(ConfigurationError, match="paths of 9 and 9 sites"):
            truncation_tail(zip(paths4, paths4), [1], cfg4.rho, cfg8.rho)
        with pytest.raises(ConfigurationError, match="at least one trajectory"):
            truncation_tail(iter(()), [1], cfg4.rho, cfg8.rho)


class TestEnsembleStream:
    """The ensemble statistics reduce :func:`integrate_ensemble`'s stream
    as it is stepped; each equals its value from a kept list, bit for bit."""

    def cfgs(self):
        cfg = LatticeConfig(n=3, nu=0.3, lam=0.4, f=CUBIC, q=decaying_table_noise(6), T=1.0)
        return cfg, cfg.widened(6)

    @staticmethod
    def bump(cfg):
        u0 = np.zeros(cfg.d)
        for i in range(-2, 3):
            u0[i + cfg.n] = 1.0 / (1.0 + i * i)
        return u0

    def kept(self, cfg, count, steps):
        dt = cfg.T / steps
        noises = [sample_noise(9, steps, cfg.d, dt, trajectory=j) for j in range(count)]
        return noises, [integrate(self.bump(cfg), noise, cfg) for noise in noises]

    @pytest.mark.parametrize("budget", [sde.ENSEMBLE_STATE_BYTES, 32 * 2**20, 1])
    def test_truncation_tails_from_the_stream_equal_the_per_cutoff_walk_over_a_list(self, monkeypatch, budget):
        monkeypatch.setattr(sde, "ENSEMBLE_STATE_BYTES", budget)
        cfg, wide = self.cfgs()
        count, steps, cutoffs = 6, 20, range(1, cfg.n + 1)
        stream = integrate_ensemble(self.bump(wide), 9, count, steps, wide, centre=(self.bump(cfg), cfg))
        tails, tails_wide, msd = truncation_tail(stream, cutoffs, cfg.rho, wide.rho)
        (_, paths), (_, paths_wide) = self.kept(cfg, count, steps), self.kept(wide, count, steps)
        assert (tails, tails_wide, msd) == truncation_tail(zip(paths, paths_wide), cutoffs, cfg.rho, wide.rho)

        def per_cutoff(paths, K, rho):
            # one walk over the kept list per cutoff, in trajectory order
            mask = np.abs(np.arange(-(paths[0].d // 2), paths[0].d // 2 + 1)) > K
            acc = None
            for p in paths:
                tail = np.sum((rho[mask] * p.states[:, mask]) ** 2, axis=1)
                acc = tail if acc is None else acc + tail
            return float(np.max(acc / len(paths)))

        assert tails == [per_cutoff(paths, K, cfg.rho) for K in cutoffs]
        assert tails_wide == [per_cutoff(paths_wide, K, wide.rho) for K in cutoffs]
        off = wide.n - cfg.n
        expected = sum(
            np.max(np.sum((a.states - b.states[:, off : off + a.d]) ** 2, axis=1)) for a, b in zip(paths, paths_wide)
        ) / count
        assert np.float64(msd).tobytes() == np.float64(expected).tobytes()

    @pytest.mark.parametrize("budget", [sde.ENSEMBLE_STATE_BYTES, 32 * 2**20, 1])
    def test_bound_from_the_stream_equals_the_bound_from_a_list(self, monkeypatch, budget):
        monkeypatch.setattr(sde, "ENSEMBLE_STATE_BYTES", budget)
        cfg, _ = self.cfgs()
        u0 = self.bump(cfg)
        stream = ((path, wq_path(noise, cfg.q)) for noise, path in integrate_ensemble(u0, 9, 6, 20, cfg))
        streamed = apriori_bound_check(stream, cfg)
        noises, paths = self.kept(cfg, 6, 20)
        kept = apriori_bound_check([(p, wq_path(w, cfg.q)) for p, w in zip(paths, noises)], cfg)
        for field in ("lhs", "rhs", "ratios"):
            assert getattr(streamed, field).tobytes() == getattr(kept, field).tobytes(), field
        assert streamed.max_ratio == kept.max_ratio
