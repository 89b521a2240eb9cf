import numpy as np
import pytest

from omlat import (
    ConfigurationError,
    DegenerateNoiseError,
    IntegrationError,
    LatticeConfig,
    NoiseCoefficient,
    Path,
    PolynomialNonlinearity,
    apply_A,
    om_action,
    trace_term,
)
from omlat.action import _action, _check_path
from omlat.lattice import drift
from oracles import om_gradient, residuals

CUBIC = PolynomialNonlinearity(coeffs=(0.0, 0.1), p=1, growth_constant=0.1)
LINEAR = PolynomialNonlinearity(coeffs=(), p=1, growth_constant=1.0)


def sampled_path(fn, steps, T, d):
    ts = np.linspace(0.0, T, steps + 1)
    return Path(np.array([fn(t) for t in ts]).reshape(-1, d), T / steps)


def example_cfg(n=1, T=30.0):
    return LatticeConfig(n=n, nu=0.1, lam=0.4, f=CUBIC, q=NoiseCoefficient.affine(0.01, 31.0), T=T)


def rk4_states(u0, cfg, steps, dt):
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


class TestResidual:
    def test_zero_path_zero_forcing(self):
        cfg = example_cfg(T=1.0)
        p = Path(np.zeros((9, 3)), 0.125)
        assert np.all(residuals(p, cfg) == 0.0)

    def test_affine_path_linear_system_closed_form(self):
        # f = 0: r_k = v + (nu A + lam) (a + v t_mid) for phi(t) = a + v t
        cfg = LatticeConfig(n=1, nu=0.3, lam=0.7, f=LINEAR, q=NoiseCoefficient.constant(1.0), T=1.0)
        a = np.array([1.0, -0.5, 2.0])
        v = np.array([0.2, 0.1, -0.3])
        dt = 0.125
        p = Path(a[None, :] + v[None, :] * (dt * np.arange(9))[:, None], dt)
        M = cfg.nu * apply_A(np.eye(3)).T + cfg.lam * np.eye(3)
        for k in range(8):
            t_mid = (k + 0.5) * dt
            expected = v + M @ (a + v * t_mid)
            np.testing.assert_allclose(residuals(p, cfg)[k], expected, atol=1e-12)

    def test_deterministic_flow_residual_second_order(self):
        cfg = example_cfg(n=2, T=1.0)
        u0 = np.array([0.1, 0.5, 1.0, 0.5, 0.1])
        norms = []
        for steps in (64, 128):
            states = rk4_states(u0, cfg, steps, 1.0 / steps)
            p = Path(states, 1.0 / steps)
            norms.append(np.max(np.abs(residuals(p, cfg))))
        assert 3.0 <= norms[0] / norms[1] <= 5.0

    def test_interval_index_range(self):
        # one residual per interval k = 0..N-1
        cfg = example_cfg(T=1.0)
        p = Path(np.zeros((5, 3)), 0.25)
        assert residuals(p, cfg).shape == (4, 3)


class TestTraceTerm:
    def test_reference_cubic_value(self):
        cfg = example_cfg(n=2)
        assert trace_term(np.array([1.0, 2.0, 0.0, 0.0, 0.0]), cfg) == pytest.approx(-1.5, abs=1e-14)

    def test_zero_for_linear_dynamics(self):
        cfg = LatticeConfig(n=1, nu=0.1, lam=0.4, f=LINEAR, q=NoiseCoefficient.constant(1.0), T=1.0)
        assert trace_term(np.array([1.0, 2.0, 3.0]), cfg) == 0.0

    def test_matches_finite_difference_of_drift_divergence(self):
        f = PolynomialNonlinearity(coeffs=(0.2, 0.05, 0.01), p=2, growth_constant=1.0)
        rho = np.array([0.7, 1.0, 1.3])
        cfg = LatticeConfig(n=1, nu=0.1, lam=0.4, f=f, q=NoiseCoefficient.constant(1.0), T=1.0, rho=rho)
        phi = np.array([0.4, -1.2, 0.9])
        h = 1e-5

        def F_i(i, x):
            return -f(np.array([x]))[0]

        fd = sum((F_i(i, phi[i] + h) - F_i(i, phi[i] - h)) / (2 * h) for i in range(3))
        assert trace_term(phi, cfg) == pytest.approx(fd, abs=1e-7)


class TestOmAction:
    def test_scalar_linear_closed_form(self):
        # single site, f = 0, q = 1: action of phi(t) = t is
        # int_0^1 (1 + lam t)^2 dt = 1 + lam + lam^2 / 3
        lam = 0.4
        cfg = LatticeConfig(n=0, nu=0.1, lam=lam, f=LINEAR, q=NoiseCoefficient.constant(1.0), T=1.0)
        steps = 2**10
        p = sampled_path(lambda t: np.array([t]), steps, 1.0, 1)
        rep = om_action(p, cfg)
        assert rep.trace_term == 0.0
        assert rep.total == pytest.approx(1.0 + lam + lam**2 / 3.0, abs=1e-6)

    def test_zero_residual_path_leaves_trace_only(self):
        cfg = example_cfg(n=1, T=1.0)
        drifts = []
        for steps in (128, 256):
            states = rk4_states(np.array([0.2, 0.5, 0.2]), cfg, steps, 1.0 / steps)
            rep = om_action(Path(states, 1.0 / steps), cfg)
            drifts.append(rep.drift_term)
            assert rep.total == rep.drift_term + rep.trace_term
        assert drifts[1] <= drifts[0] / 3.0

    def test_quadratic_homogeneity_in_q(self):
        cfg1 = LatticeConfig(n=1, nu=0.1, lam=0.4, f=CUBIC, q=NoiseCoefficient.constant(0.7), T=1.0)
        cfg2 = LatticeConfig(n=1, nu=0.1, lam=0.4, f=CUBIC, q=NoiseCoefficient.constant(1.4), T=1.0)
        rng = np.random.default_rng(12)
        p = Path(rng.standard_normal((17, 3)), 1.0 / 16)
        r1, r2 = om_action(p, cfg1), om_action(p, cfg2)
        assert r2.drift_term == pytest.approx(r1.drift_term / 4.0, rel=1e-12)
        assert r2.trace_term == r1.trace_term

    def test_drift_term_nonnegative(self):
        cfg = example_cfg(n=2, T=2.0)
        rng = np.random.default_rng(3)
        for _ in range(5):
            p = Path(rng.standard_normal((33, 5)), 2.0 / 32)
            rep = om_action(p, cfg)
            assert rep.drift_term >= 0.0
            assert np.all(rep.per_interval_drift >= 0.0)

    def test_time_reversal_changes_drift_term(self):
        cfg = example_cfg(n=1, T=1.0)
        states = rk4_states(np.array([0.2, 0.6, 0.2]), cfg, 64, 1.0 / 64)
        fwd = om_action(Path(states, 1.0 / 64), cfg)
        bwd = om_action(Path(states[::-1], 1.0 / 64), cfg)
        assert abs(fwd.drift_term - bwd.drift_term) > 1e-3

    def test_richardson_ratio_on_smooth_path(self):
        cfg = LatticeConfig(n=1, nu=0.2, lam=0.6, f=CUBIC, q=NoiseCoefficient.constant(0.8), T=1.0)

        def phi(t):
            return np.array([np.sin(1.3 * t), 0.5 * np.cos(t), 0.3 * t * (1 - t)])

        totals = [om_action(sampled_path(phi, steps, 1.0, 3), cfg).total for steps in (32, 64, 128)]
        ratio = (totals[0] - totals[1]) / (totals[1] - totals[2])
        assert 3.0 <= ratio <= 5.0

    def test_degenerate_coefficient_rejected(self):
        cfg = LatticeConfig(n=0, nu=0.1, lam=0.4, f=CUBIC, q=NoiseCoefficient.constant(5e-13), T=1.0)
        p = Path(np.zeros((5, 1)), 0.25)
        with pytest.raises(DegenerateNoiseError):
            om_action(p, cfg)

    def test_integrand_matches_hand_expanded_form(self):
        # the worked-example integrand, expanded by hand, against the action
        # of one interval whose midpoint is phi at time t with velocity vel
        t = 11.37
        cfg = example_cfg(n=3, T=2 * t)
        rng = np.random.default_rng(8)
        phi = rng.standard_normal(7)
        vel = rng.standard_normal(7)
        sites = np.arange(-3, 4)
        s = 31.0 - t + 1.0 / (np.abs(sites) + 1.0)
        lap = np.roll(phi, 1) - 2 * phi + np.roll(phi, -1)
        hand = np.sum(
            ((vel - 0.1 * lap + 0.4 * phi + 0.1 * phi**3) / (0.01 * s)) ** 2
        ) - 0.3 * np.sum(phi**2)
        p = Path([phi - t * vel, phi + t * vel], 2 * t)
        assert om_action(p, cfg).total == pytest.approx(2 * t * hand, rel=1e-12)


class TestOmGradient:
    def fd_gradient(self, path, cfg, h=1e-6):
        base = path.states.copy()
        out = np.zeros((path.steps - 1, path.d))
        for k in range(1, path.steps):
            for i in range(path.d):
                plus = base.copy()
                plus[k, i] += h
                minus = base.copy()
                minus[k, i] -= h
                fp = om_action(Path(plus, path.dt), cfg).total
                fm = om_action(Path(minus, path.dt), cfg).total
                out[k - 1, i] = (fp - fm) / (2 * h)
        return out

    def test_matches_finite_differences(self):
        cfg = example_cfg(n=1, T=2.0)
        rng = np.random.default_rng(2718)
        for _ in range(20):
            p = Path(rng.standard_normal((7, 3)), 2.0 / 6)
            g = om_gradient(p, cfg)
            fd = self.fd_gradient(p, cfg)
            scale = max(1.0, np.max(np.abs(g)))
            assert np.max(np.abs(g - fd)) / scale <= 1e-6

    def test_matches_finite_differences_weighted(self):
        rho = np.array([0.5, 1.0, 2.0])
        g_force = np.array([0.1, -0.2, 0.3])
        cfg = LatticeConfig(
            n=1, nu=0.25, lam=0.9, f=PolynomialNonlinearity(coeffs=(0.1, 0.05), p=1, growth_constant=1.0),
            q=NoiseCoefficient.affine(0.1, 4.0), T=2.0, rho=rho, g=g_force,
        )
        rng = np.random.default_rng(99)
        p = Path(rng.standard_normal((9, 3)), 2.0 / 8)
        g = om_gradient(p, cfg)
        fd = self.fd_gradient(p, cfg)
        scale = max(1.0, np.max(np.abs(g)))
        assert np.max(np.abs(g - fd)) / scale <= 1e-6

    def test_zero_at_zero_path(self):
        cfg = LatticeConfig(n=1, nu=0.1, lam=0.4, f=CUBIC, q=NoiseCoefficient.constant(1.0), T=1.0)
        p = Path(np.zeros((9, 3)), 0.125)
        assert np.all(om_gradient(p, cfg) == 0.0)

    def test_linear_in_path_for_quadratic_action(self):
        cfg = LatticeConfig(n=1, nu=0.1, lam=0.4, f=LINEAR, q=NoiseCoefficient.constant(1.0), T=1.0)
        rng = np.random.default_rng(31)
        p1 = Path(rng.standard_normal((9, 3)), 0.125)
        p2 = Path(2.5 * p1.states, 0.125)
        np.testing.assert_allclose(om_gradient(p2, cfg), 2.5 * om_gradient(p1, cfg), rtol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_states_raise_like_an_overflow(bad):
    # the solver's line-search trials are arrays, not checked Paths: the
    # action's overflow test is what rejects a trial that left the doubles
    cfg = example_cfg(T=1.0)
    p = Path(np.zeros((9, 3)), 0.125)
    states = p.states.copy()
    states[4, 1] = bad
    with pytest.raises(IntegrationError, match="interval 3"):
        _action(states, p.dt, cfg, _check_path(p, cfg))


def test_horizon_mismatch_rejected():
    cfg = example_cfg(T=30.0)
    p = Path(np.zeros((9, 3)), 0.125)  # covers [0, 1] only
    with pytest.raises(ConfigurationError, match="horizon"):
        om_action(p, cfg)


class TestNoRhoWeight:
    """The action is the Cameron-Martin norm of the noise q_i dW_i plus a
    trace, and neither depends on the weights rho of l^2_rho."""

    @staticmethod
    def cfg(rho, f=CUBIC):
        return LatticeConfig(n=1, nu=0.1, lam=0.4, f=f, q=NoiseCoefficient.affine(0.5, 2.0), T=1.0, rho=rho)

    @staticmethod
    def sine_path(steps):
        ts = np.linspace(0.0, 1.0, steps + 1)
        return Path(np.outer(np.sin(np.pi * ts / 2), [0.8, 0.5, -0.3]), 1.0 / steps)

    def test_action_and_gradient_do_not_change_with_rho(self):
        p = self.sine_path(64)
        base = self.cfg(None)
        for rho in (np.full(3, 3.0), np.array([0.5, 1.0, 2.0])):
            cfg = self.cfg(rho)
            assert om_action(p, cfg).total == om_action(p, base).total
            assert om_action(p, cfg).trace_term == om_action(p, base).trace_term
            np.testing.assert_array_equal(om_gradient(p, cfg), om_gradient(p, base))

    def test_matches_the_euler_chain_density_at_first_order(self):
        # f = 0: the Euler chain u_{k+1} = u_k - dt L u_k + q(t_k) dW_k is
        # Gaussian, and the tube ratio's small-eps limit at fixed dt is
        # exp(-h^T C^-1 h / 2), h^T C^-1 h = sum_k dt |(dphi_k/dt + L phi_k) / q(t_k)|^2,
        # which holds no rho.  The action's midpoint rule differs from the
        # chain's left-point rule by O(dt).
        cfg = self.cfg(np.array([0.5, 1.0, 2.0]), f=LINEAR)
        L = cfg.nu * apply_A(np.eye(3)).T + cfg.lam * np.eye(3)
        gaps = []
        for steps in (256, 512, 1024):
            p = self.sine_path(steps)
            phi, dt = p.states, p.dt
            h = (phi[1:] - phi[:-1]) / dt + phi[:-1] @ L.T
            chain = dt * np.sum((h / cfg.q.grid(p.times[:-1], cfg.n)) ** 2)
            gaps.append(np.exp(-0.5 * om_action(p, cfg).total) / np.exp(-0.5 * chain) - 1.0)
        assert abs(gaps[0]) <= 5e-3
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 1.9 <= coarse / fine <= 2.1
