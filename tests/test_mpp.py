import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy
from scipy import sparse
from scipy.linalg import solveh_banded
from scipy.sparse.linalg import spsolve

import omlat
from omlat import (
    ConfigurationError,
    IntegrationError,
    LatticeConfig,
    NoiseCoefficient,
    Path,
    PolynomialNonlinearity,
    om_action,
    om_gradient,
)
from omlat.action import _action, _check_path
from omlat.lattice import _center_out_order
from omlat.mpp import (
    BVPSpec,
    _SOLVE_PATH_ARRAYS,
    _band_shape,
    _build_band,
    _cython_lapack,
    _hessian_band,
    _lapack,
    _solve_bytes,
    _two_ended_solve,
    solve_mpp,
)
from oracles import el_residual_example5, residuals

CUBIC = PolynomialNonlinearity(coeffs=(0.0, 0.1), p=1, growth_constant=0.1)
LINEAR = PolynomialNonlinearity(coeffs=(), p=1, growth_constant=1.0)


def scalar_cfg(lam=1.3):
    return LatticeConfig(n=0, nu=0.1, lam=lam, f=LINEAR, q=NoiseCoefficient.constant(1.0), T=1.0)


def example5_spec(n=30, steps=600, tol=None):
    cfg = LatticeConfig(
        n=n, nu=0.1, lam=0.4, f=CUBIC, q=NoiseCoefficient.affine(0.01, 31.0), T=30.0
    )
    i = np.arange(-n, n + 1)
    phi0 = 0.6 * np.exp(-(i**2) / 128.0)
    return BVPSpec(cfg=cfg, phi0=phi0, phiT=np.zeros(cfg.d), steps=steps, gradient_tol=tol)


def action_along_homotopy(spec, path_a, path_b, samples=11):
    """Action along the straight-line blend of two paths sharing both
    endpoints, at ``samples`` equally spaced blend weights from 0 to 1."""
    if not path_a.same_grid(path_b):
        raise ConfigurationError("paths must share one grid")
    if np.any(path_a.states[0] != path_b.states[0]) or np.any(path_a.states[-1] != path_b.states[-1]):
        raise ConfigurationError("paths must share both endpoints")
    out = np.empty(samples)
    for j, w in enumerate(np.linspace(0.0, 1.0, samples)):
        blend = (1.0 - w) * path_a.states + w * path_b.states
        out[j] = om_action(Path(blend, path_a.dt), spec.cfg).total
    return out


class TestSolveMpp:
    def test_linear_scalar_matches_sinh_interpolant(self):
        lam = 1.3
        spec = BVPSpec(cfg=scalar_cfg(lam), phi0=np.array([1.0]), phiT=np.array([0.3]), steps=256)
        res = solve_mpp(spec)
        assert res.converged
        ts = res.path.times
        exact = (1.0 * np.sinh(lam * (1.0 - ts)) + 0.3 * np.sinh(lam * ts)) / np.sinh(lam)
        assert np.max(np.abs(res.path.states[:, 0] - exact)) <= 1e-3

    def test_single_interior_unknown(self):
        # d = 1, N = 2: the one unknown is the middle state, and both halves are empty
        spec = BVPSpec(cfg=scalar_cfg(), phi0=np.array([1.0]), phiT=np.array([0.3]), steps=2)
        res = solve_mpp(spec)
        assert res.converged and res.iterations <= 3
        assert res.record[-1].gradient_norm <= spec.tol

    def test_linear_scalar_error_is_second_order(self):
        lam = 1.3
        errs = []
        for steps in (64, 128):
            spec = BVPSpec(
                cfg=scalar_cfg(lam), phi0=np.array([1.0]), phiT=np.array([0.3]),
                steps=steps, gradient_tol=1e-12,
            )
            res = solve_mpp(spec)
            ts = res.path.times
            exact = (np.sinh(lam * (1.0 - ts)) + 0.3 * np.sinh(lam * ts)) / np.sinh(lam)
            errs.append(np.max(np.abs(res.path.states[:, 0] - exact)))
        assert 3.0 <= errs[0] / errs[1] <= 5.0

    def test_zero_boundary_data_is_stationary(self):
        spec = BVPSpec(cfg=scalar_cfg(), phi0=np.zeros(1), phiT=np.zeros(1), steps=16)
        res = solve_mpp(spec)
        assert res.converged
        assert res.iterations == 1
        assert res.record[-1].gradient_norm == 0.0
        assert res.action.drift_term == 0.0
        assert np.all(res.path.states == 0.0)

    def test_endpoints_never_move(self):
        spec = example5_spec(n=4, steps=60)
        res = solve_mpp(spec)
        np.testing.assert_array_equal(res.path.states[0], spec.phi0)
        np.testing.assert_array_equal(res.path.states[-1], spec.phiT)

    def test_action_history_monotone(self):
        spec = example5_spec(n=6, steps=120)
        res = solve_mpp(spec)
        assert np.all(np.diff([r.action for r in res.record]) <= 1e-12)

    def test_gradient_vanishes_at_solution(self):
        spec = example5_spec(n=4, steps=80, tol=1e-10)
        res = solve_mpp(spec)
        assert res.converged
        g = om_gradient(res.path, spec.cfg)
        assert np.max(np.abs(g)) <= 1e-10

    def test_symmetric_data_gives_symmetric_path(self):
        spec = example5_spec(n=6, steps=120)
        res = solve_mpp(spec)
        assert np.max(np.abs(res.path.states - res.path.states[:, ::-1])) <= 1e-12

    def test_newton_option_agrees_with_gauss_newton(self):
        base = example5_spec(n=3, steps=60, tol=1e-11)
        newton = BVPSpec(
            cfg=base.cfg, phi0=base.phi0, phiT=base.phiT, steps=60,
            gradient_tol=1e-11, newton=True,
        )
        r1 = solve_mpp(base)
        r2 = solve_mpp(newton)
        assert r1.converged and r2.converged
        assert np.max(np.abs(r1.path.states - r2.path.states)) <= 1e-8

    def test_non_convergence_reported_not_raised(self):
        spec = BVPSpec(
            cfg=scalar_cfg(), phi0=np.array([1.0]), phiT=np.array([0.3]),
            steps=256, max_iterations=1, gradient_tol=1e-15,
        )
        res = solve_mpp(spec)
        assert not res.converged
        assert res.iterations == 1

    def test_invalid_spec(self):
        with pytest.raises(ConfigurationError):
            BVPSpec(cfg=scalar_cfg(), phi0=np.zeros(2), phiT=np.zeros(1), steps=8)
        with pytest.raises(ConfigurationError):
            BVPSpec(cfg=scalar_cfg(), phi0=np.zeros(1), phiT=np.zeros(1), steps=1)


class TestElResidual:
    def test_zero_path_zero_residual(self):
        p = Path(np.zeros((61, 7)), 0.5)
        assert np.all(el_residual_example5(p) == 0.0)
        assert np.all(el_residual_example5(p, displayed_form=True) == 0.0)

    def test_wrong_horizon_rejected(self):
        p = Path(np.zeros((11, 3)), 0.1)
        with pytest.raises(ConfigurationError):
            el_residual_example5(p)

    def test_stencil_locality(self):
        rng = np.random.default_rng(6)
        n, steps = 6, 60
        base = np.zeros((steps + 1, 2 * n + 1))
        k0, i0 = 30, 6  # site index -n + 6 = 0
        bumped = base.copy()
        bumped[k0, i0] += 0.37
        r0 = el_residual_example5(Path(base, 0.5))
        r1 = el_residual_example5(Path(bumped, 0.5))
        diff = np.abs(r1 - r0)
        nz = np.argwhere(diff > 0)
        assert nz.size > 0
        for k, i in nz:
            assert abs((k + 1) - k0) <= 1  # interior row k corresponds to time k+1
            assert min(abs(i - i0), 2 * n + 1 - abs(i - i0)) <= 2

    def test_converged_path_satisfies_stationarity_system(self):
        # independent cross-check of the two formulations: the interior
        # optimum of the discrete action solves the hand-derived system
        res = solve_mpp(example5_spec(n=8, steps=300, tol=1e-11))
        assert res.converged
        r = np.max(np.abs(el_residual_example5(res.path)))
        assert r <= 5e-4

    def test_refinement_exposes_displayed_form_defect(self):
        # the variant with equal neighbouring amplitudes stalls; the
        # derivation-consistent form decays at second order
        rc, rd = {}, {}
        for steps in (300, 600):
            res = solve_mpp(example5_spec(n=6, steps=steps, tol=1e-11))
            rc[steps] = np.max(np.abs(el_residual_example5(res.path)))
            rd[steps] = np.max(np.abs(el_residual_example5(res.path, displayed_form=True)))
        assert rc[300] / rc[600] >= 3.0
        assert rd[300] / rd[600] <= 2.0


class TestHomotopy:
    def test_equal_paths_constant(self):
        spec = BVPSpec(cfg=scalar_cfg(), phi0=np.array([1.0]), phiT=np.array([0.3]), steps=32)
        res = solve_mpp(spec)
        vals = action_along_homotopy(spec, res.path, res.path, samples=5)
        assert np.max(np.abs(vals - vals[0])) <= 1e-12

    def test_minimum_at_solution(self):
        spec = example5_spec(n=3, steps=80, tol=1e-10)
        res = solve_mpp(spec)
        bump = res.path.states.copy()
        interior = np.arange(1, res.path.steps)
        bump[interior] += 0.15 * np.sin(np.pi * interior / res.path.steps)[:, None]
        other = Path(bump, res.path.dt)
        vals = action_along_homotopy(spec, res.path, other, samples=9)
        assert np.argmin(vals) == 0

    def test_quadratic_action_is_quadratic_along_blend(self):
        spec = BVPSpec(cfg=scalar_cfg(), phi0=np.array([1.0]), phiT=np.array([0.3]), steps=64)
        res = solve_mpp(spec)
        bump = res.path.states.copy()
        bump[1:-1, 0] += 0.3 * np.sin(np.linspace(0, np.pi, 63))
        vals = action_along_homotopy(spec, res.path, Path(bump, res.path.dt), samples=7)
        second = np.diff(vals, 2)
        assert np.max(np.abs(second - second[0])) <= 1e-10

    def test_endpoint_mismatch_rejected(self):
        spec = BVPSpec(cfg=scalar_cfg(), phi0=np.array([1.0]), phiT=np.array([0.3]), steps=16)
        res = solve_mpp(spec)
        other = res.path.states.copy()
        other[-1] += 1.0
        with pytest.raises(ConfigurationError):
            action_along_homotopy(spec, res.path, Path(other, res.path.dt))


class TestSolverFallback:
    def test_gradient_descent_fallback_still_descends(self, monkeypatch):
        # break the linear-algebra path: every step must come from the
        # gradient fallback, which still has to make monotone progress
        import omlat.mpp as mpp_mod

        # every factorization reports a matrix that is not positive definite
        monkeypatch.setattr(mpp_mod, "_factor", lambda band, n: 1)
        spec = BVPSpec(
            cfg=scalar_cfg(lam=0.8), phi0=np.array([1.0]), phiT=np.array([0.2]),
            steps=16, max_iterations=50, gradient_tol=1e-10,
        )
        res = solve_mpp(spec)
        assert all(r.fallback == 1 for r in res.record[1:])
        actions = [r.action for r in res.record]
        assert np.all(np.diff(actions) <= 1e-12)
        assert actions[-1] < actions[0]
        np.testing.assert_array_equal(res.path.states[0], spec.phi0)
        np.testing.assert_array_equal(res.path.states[-1], spec.phiT)

    def test_stalled_search_takes_one_gradient_per_row(self, monkeypatch):
        # no step descends: the solver stops on the starting path, whose
        # one gradient is the one its record row reports
        import omlat.mpp as mpp_mod

        calls = []

        def counted_gradient(path, cfg):
            calls.append(path)
            return om_gradient(path, cfg)

        monkeypatch.setattr(mpp_mod, "_backtrack", lambda *args: None)
        monkeypatch.setattr(mpp_mod, "om_gradient", counted_gradient)
        spec = BVPSpec(cfg=scalar_cfg(), phi0=np.array([1.0]), phiT=np.array([0.3]), steps=16)
        res = solve_mpp(spec)
        assert not res.converged and res.iterations == 1
        assert len(calls) == 1
        assert len(res.record) == 1

    def test_overflowing_trial_is_rejected_like_one_that_does_not_descend(self, monkeypatch):
        # the first trial of the first search overflows (call 0 is the
        # starting path's action): the search halves the step and goes on
        import omlat.mpp as mpp_mod

        calls = []

        def first_trial_overflows(path, cfg, qs):
            calls.append(path)
            if len(calls) == 2:
                raise IntegrationError("action overflows")
            return _action(path, cfg, qs)

        monkeypatch.setattr(mpp_mod, "_action", first_trial_overflows)
        spec = BVPSpec(cfg=scalar_cfg(), phi0=np.array([1.0]), phiT=np.array([0.3]), steps=16)
        res = solve_mpp(spec)
        assert len(calls) > 2
        assert res.converged
        assert res.record[1].backtracks >= 1


def path_band_shape(steps, d):
    """Shape of the band of all interior states of a ``steps``-step path:
    the solve's buffer has one block row more, for the middle state's
    second copy."""
    return (steps - 1,) + _band_shape(steps, d)[1:]


def dense_from_lower_band(band):
    half, size = band.shape
    H = np.zeros((size, size))
    for o in range(half):
        j = np.arange(size - o)
        H[j + o, j] = H[j, j + o] = band[o, : size - o]
    return H


def folded_unknowns(n, blocks):
    """Natural (time-major) index of each unknown of the solver's band:
    every time block lists its sites 0, +1, -1, +2, -2, ..."""
    sites = [0] + [s for i in range(1, n + 1) for s in (i, -i)]
    d = 2 * n + 1
    return (d * np.arange(blocks)[:, None] + np.array(sites)[None, :] + n).ravel()


def central_jacobian(fun, x, h=1e-5):
    """Central-difference Jacobian of ``fun`` (array -> array) at ``x``."""
    cols = []
    for m in range(x.size):
        e = np.zeros(x.size)
        e[m] = h
        cols.append((fun(x + e) - fun(x - e)) / (2.0 * h))
    return np.stack(cols, axis=1)


class TestHessianBand:
    """The assembled band against oracles that share none of its algebra:
    central differences of the scaled residuals and of the gradient."""

    STEPS = 8

    def setup_problem(self, n):
        rng = np.random.default_rng(40 + n)
        cfg = LatticeConfig(
            n=n, nu=0.1, lam=0.4, f=CUBIC, q=NoiseCoefficient.affine(0.01, 31.0), T=30.0,
            rho=rng.uniform(0.5, 1.5, 2 * n + 1),
        )
        dt = cfg.T / self.STEPS
        path = Path(rng.normal(size=(self.STEPS + 1, cfg.d)), dt)
        t_mid = dt * (np.arange(self.STEPS) + 0.5)
        row_weight = np.sqrt(dt) / cfg.q.grid(t_mid, n)

        def with_interior(x):
            states = path.states.copy()
            states[1:-1] = x.reshape(self.STEPS - 1, cfg.d)
            return Path(states, dt)

        return cfg, path, row_weight, with_interior

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_gauss_newton_band_is_2_jt_j(self, n):
        cfg, path, row_weight, with_interior = self.setup_problem(n)

        def scaled(x):
            return (row_weight * residuals(with_interior(x), cfg)).ravel()

        x0 = path.states[1:-1].ravel()
        # the scaling is the one whose squares sum to the drift part
        assert np.sum(scaled(x0) ** 2) == pytest.approx(om_action(path, cfg).drift_term, rel=1e-13)
        J = central_jacobian(scaled, x0)
        fold = folded_unknowns(n, self.STEPS - 1)
        oracle = (2.0 * J.T @ J)[np.ix_(fold, fold)]
        band = _hessian_band(path, cfg, row_weight, False, np.empty(path_band_shape(self.STEPS, cfg.d)))
        H = dense_from_lower_band(band)
        assert np.max(np.abs(H - oracle)) <= 1e-9 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_newton_band_is_exact_hessian(self, n):
        cfg, path, row_weight, with_interior = self.setup_problem(n)

        def gradient(x):
            return om_gradient(with_interior(x), cfg).ravel()

        fold = folded_unknowns(n, self.STEPS - 1)
        oracle = central_jacobian(gradient, path.states[1:-1].ravel())[np.ix_(fold, fold)]
        band = _hessian_band(path, cfg, row_weight, True, np.empty(path_band_shape(self.STEPS, cfg.d)))
        H = dense_from_lower_band(band)
        assert np.max(np.abs(H - oracle)) <= 1e-9 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 30])
    def test_half_bandwidth(self, n):
        # the fold first narrows the band at n = 3: d + 4 < 2d - 1 from d = 7
        cfg, path, row_weight, _ = self.setup_problem(n)
        d = cfg.d
        band = _hessian_band(path, cfg, row_weight, True, np.empty(path_band_shape(self.STEPS, d)))
        assert band.shape == (min(2 * d, d + 5), (self.STEPS - 1) * d)
        H = dense_from_lower_band(band)
        rows, cols = np.nonzero(H)
        assert np.max(np.abs(rows - cols)) == min(2 * d - 1, d + 4)

    @pytest.mark.parametrize("newton", [False, True], ids=["gauss-newton", "newton"])
    @pytest.mark.parametrize("n", [0, 1, 2, 30])
    def test_build_ignores_what_the_buffer_held(self, n, newton):
        # d = 1 and 3 have coinciding shifts, which must still add
        cfg, path, row_weight, _ = self.setup_problem(n)
        shape = path_band_shape(self.STEPS, cfg.d)
        from_nan = _hessian_band(path, cfg, row_weight, newton, np.full(shape, np.nan))
        from_zero = _hessian_band(path, cfg, row_weight, newton, np.zeros(shape))
        assert_same_bits(from_nan, from_zero)
        assert_same_bits(from_nan, reference_band(path, cfg, row_weight, newton))


def reference_band(path, cfg, row_weight, newton):
    """The band with all five cyclic diagonals of the plus, minus and
    cross blocks held at once, then scattered shift by shift into a fresh
    zero array: the assembly whose bits the in-place build keeps."""

    def diagonals(c, u, c2, h):
        up, dn = np.roll(u, -1, axis=-1), np.roll(u, 1, axis=-1)
        cu, uc2 = c * u, u * c2
        return {
            0: cu * c2 + h * h * (up + dn),
            1: h * (cu + np.roll(uc2, -1, axis=-1)),
            -1: h * (cu + np.roll(uc2, 1, axis=-1)),
            2: h * h * up,
            -2: h * h * dn,
        }

    d, N, dt = cfg.d, path.steps, path.dt
    mids = 0.5 * (path.states[:-1] + path.states[1:])
    u = 2.0 * row_weight**2
    base = cfg.nu + 0.5 * cfg.lam + 0.5 * cfg.f.deriv(mids)
    cp, cm = base + 1.0 / dt, base - 1.0 / dt
    h = -0.5 * cfg.nu
    plus = diagonals(cp[:-1], u[:-1], cp[:-1], h)
    minus = diagonals(cm[1:], u[1:], cm[1:], h)
    cross = diagonals(cp[1:-1], u[1:-1], cm[1:-1], h)
    if newton:
        curv = (
            0.25 * u * residuals(path, cfg) * cfg.f.deriv(mids, 2)
            - 0.25 * dt * cfg.f.deriv(mids, 3)
        )
        plus[0] += curv[:-1]
        minus[0] += curv[1:]
        cross[0] += curv[1:-1]
    rows = min(2 * d, d + 5)
    band3 = np.zeros((N - 1, d, rows))
    fa = np.argsort(_center_out_order(d))
    for s in plus:
        fb = np.roll(fa, -s)
        low = fa >= fb
        band3[:, fb[low], (fa - fb)[low]] += (plus[s] + minus[s])[:, low]
        band3[:-1, fb, d + fa - fb] += cross[s]
    return band3.reshape(-1, rows).T


def assert_same_bits(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


def two_half_band(path, cfg, newton):
    """The solve's band buffer for ``path``, built fresh into NaN."""
    band = np.full(_band_shape(path.steps, cfg.d), np.nan)
    _build_band(path, cfg, _check_path(path, cfg), newton, band)
    return band


class TestBandBuffer:
    """The band is built in place, in one buffer per solve."""

    def solve_with_first_attempt_broken(self, monkeypatch, breaks):
        # ``breaks(band, n, factor)`` stands in for each factorization of the
        # first attempt; every attempt's band is recorded as it reaches the
        # two-ended solve, and the retry must rebuild the same buffer
        import omlat.mpp as mpp_mod

        seen, factor, solve = [], mpp_mod._factor, mpp_mod._two_ended_solve

        def recording_solve(band, rhs, middle):
            seen.append((band.__array_interface__["data"][0], band.copy()))
            return solve(band, rhs, middle)

        def breaking_factor(band, n):
            return breaks(band, n, factor) if len(seen) == 1 else factor(band, n)

        monkeypatch.setattr(mpp_mod, "_two_ended_solve", recording_solve)
        monkeypatch.setattr(mpp_mod, "_factor", breaking_factor)
        spec = example5_spec(n=2, steps=16)
        res = solve_mpp(spec)
        assert res.converged and res.record[1].damping > 0.0 and res.record[1].fallback == 0
        assert len(seen) == len(res.record)  # one failed attempt, then one per step
        assert len({address for address, _ in seen}) == 1

        lam = np.linspace(0.0, 1.0, 17)[:, None]
        start = Path((1.0 - lam) * spec.phi0 + lam * spec.phiT, 30.0 / 16)
        fresh = two_half_band(start, spec.cfg, False)
        fresh[..., 0] += res.record[1].damping
        assert_same_bits(seen[1][1], fresh)

    def test_failed_attempt_leaves_no_trace_in_the_next_band(self, monkeypatch):
        # the first factorization of each half scribbles NaN over its half
        # and fails, as a partial Cholesky factor would
        def scribble(band, n, factor):
            band[...] = np.nan
            return 1

        self.solve_with_first_attempt_broken(monkeypatch, scribble)

    @pytest.mark.parametrize("part", ["late-half", "middle-state"])
    def test_failure_in_one_part_leaves_no_trace_in_the_next_band(self, monkeypatch, part):
        # late-half: only the reversed half fails to factor.  middle-state:
        # both halves factor, but the middle block is negated, so the
        # middle state's Schur complement is indefinite
        def breaks(band, n, factor):
            if band.ctypes.data == band.base.ctypes.data:  # the half that starts the buffer
                info = factor(band, n)
                if part == "middle-state":
                    band[-1] *= -1.0
                return info
            if part == "middle-state":
                return factor(band, n)
            band[...] = np.nan
            return 1

        self.solve_with_first_attempt_broken(monkeypatch, breaks)

    @pytest.mark.parametrize("steps", [2, 3, 16])
    def test_solve_allocates_the_checked_shape(self, monkeypatch, steps):
        # the two halves are built into one buffer of _band_shape, the
        # shape the CLI's memory check multiplies out
        import omlat.mpp as mpp_mod

        outs = []

        def recording_build(path, cfg, row_weight, newton, out, reverse=False):
            outs.append((out, reverse))
            return _hessian_band(path, cfg, row_weight, newton, out, reverse)

        monkeypatch.setattr(mpp_mod, "_hessian_band", recording_build)
        spec = example5_spec(n=2, steps=steps)
        solve_mpp(spec)
        assert outs
        buffers = {id(out.base) for out, _ in outs}
        assert len(buffers) == 1
        buffer = outs[0][0].base
        assert buffer.shape == _band_shape(steps, 5)
        m = (steps - 1) // 2
        for out, reverse in outs:
            assert out.shape[0] == (steps - 1 - m if reverse else m + 1)
            assert out.ctypes.data == buffer[m + 1 if reverse else 0].ctypes.data

    @pytest.mark.parametrize("newton", [False, True], ids=["gauss-newton", "newton"])
    def test_build_holds_few_grid_arrays(self, newton):
        # N = 1200, d = 61: the band is 66 (N, d)-sized arrays, the build's
        # own arrays at most 8 at any time (7.01 measured Gauss-Newton, 7.23
        # Newton)
        spec = example5_spec(steps=1200)
        cfg, dt = spec.cfg, spec.cfg.T / 1200
        path = Path(np.random.default_rng(5).normal(scale=0.3, size=(1201, cfg.d)), dt)
        row_weight = np.sqrt(dt) / _check_path(path, cfg)
        out = np.empty(path_band_shape(1200, cfg.d))
        tracemalloc.start()
        try:
            _hessian_band(path, cfg, row_weight, newton, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 1200 * cfg.d * 8

    @pytest.mark.parametrize("newton", [False, True], ids=["gauss-newton", "newton"])
    @pytest.mark.parametrize("n, steps", [(0, 100_000), (1, 30_000), (30, 1200)])
    def test_solve_holds_its_band_and_nine_path_arrays(self, n, steps, newton):
        # everything the solve allocates, its result included, at most the
        # band and 9 arrays of 8 (N + 1) d bytes at any moment: 7.0 to 7.3
        # measured at d = 1, 3 and 61
        spec = replace(example5_spec(n=n, steps=steps), newton=newton)
        tracemalloc.start()
        try:
            solve_mpp(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _SOLVE_PATH_ARRAYS == 9
        assert peak <= _solve_bytes(steps, spec.cfg.d)


def block_reversed(H, d):
    """``H`` with its d x d blocks in reverse order, rows and columns."""
    blocks = H.shape[0] // d
    perm = (d * np.arange(blocks)[::-1, None] + np.arange(d)[None, :]).ravel()
    return H[np.ix_(perm, perm)]


def example_problem(n, steps, seed=0):
    """The example-5 coefficients on 2n + 1 sites, with random weights and
    a path near the linear start: a Newton matrix there is positive
    definite."""
    rng = np.random.default_rng(seed)
    d = 2 * n + 1
    cfg = LatticeConfig(
        n=n, nu=0.1, lam=0.4, f=CUBIC, q=NoiseCoefficient.affine(0.01, 31.0), T=30.0,
        rho=rng.uniform(0.5, 1.5, d),
    )
    lam = np.linspace(0.0, 1.0, steps + 1)[:, None]
    states = (1.0 - lam) * rng.normal(scale=0.6, size=d) + rng.normal(scale=0.05, size=(steps + 1, d))
    path = Path(states, cfg.T / steps)
    row_weight = np.sqrt(path.dt) / _check_path(path, cfg)
    return cfg, path, row_weight


class TestTwoEndedSolve:
    """The two halves of the band and the solve that joins them, against
    the natural band in time order and scipy's banded Cholesky solve."""

    @pytest.mark.parametrize("newton", [False, True], ids=["gauss-newton", "newton"])
    @pytest.mark.parametrize("n, steps", [(0, 3), (0, 16), (1, 7), (2, 9), (30, 7)])
    def test_reversed_build_is_the_block_reversed_band(self, n, steps, newton):
        cfg, path, row_weight = example_problem(n, steps)
        shape = path_band_shape(steps, cfg.d)
        natural, reversed_ = (
            dense_from_lower_band(_hessian_band(path, cfg, row_weight, newton, np.empty(shape), reverse))
            for reverse in (False, True)
        )
        oracle = block_reversed(natural, cfg.d)
        assert np.max(np.abs(reversed_ - oracle)) <= 1e-15 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("damping", [0.0, 0.5], ids=["undamped", "damped"])
    @pytest.mark.parametrize("newton", [False, True], ids=["gauss-newton", "newton"])
    @pytest.mark.parametrize(
        "n, steps", [(0, 2), (0, 3), (0, 64), (1, 7), (1, 600), (30, 7), (30, 600)]
    )
    def test_matches_scipy_on_the_natural_band(self, n, steps, newton, damping):
        cfg, path, row_weight = example_problem(n, steps)
        d = cfg.d
        natural = _hessian_band(path, cfg, row_weight, newton, np.empty(path_band_shape(steps, d)))
        natural[0] += damping
        rhs = np.random.default_rng(steps).normal(size=(steps - 1, d))
        # solveh_banded takes at most one band row per unknown
        oracle = solveh_banded(natural[: natural.shape[1]], rhs.ravel(), lower=True).reshape(steps - 1, d)
        band = two_half_band(path, cfg, newton)
        band[..., 0] += damping
        x = _two_ended_solve(band, rhs, (steps - 1) // 2)
        assert np.max(np.abs(x - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_any_memory_order_of_rhs(self):
        # the solve works in place in a C-ordered rhs, and on a copy of any other
        cfg, path, row_weight = example_problem(2, 9)
        rhs = np.random.default_rng(1).normal(size=(8, 5))
        x = [
            _two_ended_solve(two_half_band(path, cfg, False), rhs.copy(order=order), 4)
            for order in "CF"
        ]
        assert_same_bits(x[0], x[1])

    def test_indefinite_matrix_raises(self):
        cfg, path, row_weight = example_problem(1, 9)
        band = two_half_band(path, cfg, False)
        band[..., 0] -= 1e6
        with pytest.raises(np.linalg.LinAlgError):
            _two_ended_solve(band, np.ones((8, 3)), 4)

    def test_abi_check_rejects_another_signature(self):
        # a cython_lapack built with 64-bit integers would declare another
        # signature; the binding refuses it rather than corrupt memory
        with pytest.raises(ImportError, match=f"scipy {scipy.__version__}"):
            _lapack("dpbtrf", "void (char *, long *, long *, d *, long *, long *)")
        with pytest.raises(ImportError, match="dtbtrs"):
            _lapack("dtbtrs", "void (char *, int *, int *, d *, int *, int *)")

    def test_results_do_not_depend_on_the_thread_count(self, monkeypatch):
        base = example5_spec(n=3, steps=120)
        spec = BVPSpec(cfg=base.cfg, phi0=base.phi0, phiT=base.phiT, steps=120, newton=True)
        results = []
        for threads in ("1", "2"):
            monkeypatch.setenv("OMLAT_THREADS", threads)
            results.append(solve_mpp(spec))
        assert_same_bits(results[0].path.states, results[1].path.states)
        assert results[0].record == results[1].record


def fresh_python(code):
    """Standard output of ``code`` run in a fresh interpreter that imports
    this checkout's omlat."""
    src = os.path.dirname(os.path.dirname(os.path.realpath(omlat.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True).stdout


class TestLapackBinding:
    """The solver loads scipy's ``cython_lapack`` extension by itself, not
    through ``scipy.linalg``."""

    def test_later_scipy_import_sees_the_same_routines(self):
        # omlat first, as the CLI does, then scipy.linalg in the same process
        out = json.loads(fresh_python(
            "import ctypes, json, sys\n"
            "from omlat import mpp\n"
            "loaded = 'scipy.linalg' in sys.modules\n"
            "from scipy.linalg import cython_lapack\n"
            "get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(('PyCapsule_GetName', ctypes.pythonapi))\n"
            "get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(\n"
            "    ('PyCapsule_GetPointer', ctypes.pythonapi))\n"
            "pairs = [\n"
            "    (get_pointer(cython_lapack.__pyx_capi__[name], get_name(cython_lapack.__pyx_capi__[name])),\n"
            "     ctypes.cast(bound, ctypes.c_void_p).value)\n"
            "    for name, bound in (('dpbtrf', mpp._dpbtrf), ('dtbtrs', mpp._dtbtrs))\n"
            "]\n"
            "print(json.dumps({'loaded': loaded, 'same': cython_lapack is mpp._CYTHON_LAPACK, 'pairs': pairs}))\n"
        ))
        assert not out["loaded"]
        assert out["same"]
        for scipys, ours in out["pairs"]:
            assert scipys is not None and scipys == ours

    def test_loads_the_extension_scipy_linalg_imports(self):
        ours = fresh_python("from omlat import mpp; print(mpp._CYTHON_LAPACK.__file__)")
        theirs = fresh_python("from scipy.linalg import cython_lapack; print(cython_lapack.__file__)")
        assert ours == theirs and ours.strip().startswith(os.path.dirname(scipy.__file__))

    def test_missing_extension_raises(self, monkeypatch, tmp_path):
        # a scipy whose linalg directory holds no cython_lapack is refused,
        # naming its version; nothing else is tried
        (tmp_path / "linalg").mkdir()
        monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
        with pytest.raises(ImportError, match=f"scipy {scipy.__version__}"):
            _cython_lapack()


def natural_gauss_newton(path, cfg, row_weight):
    """Sparse ``2 J^T J`` in natural site order, J the Jacobian of the
    scaled residuals in the interior states, assembled block by block."""
    d, N, dt = cfg.d, path.steps, path.dt
    eye = np.eye(d)
    A = 2.0 * eye - np.roll(eye, 1, axis=1) - np.roll(eye, -1, axis=1)
    mids = 0.5 * (path.states[:-1] + path.states[1:])
    blocks = [[None] * (N + 1) for _ in range(N)]
    for k in range(N):
        half = 0.5 * (cfg.nu * A + cfg.lam * eye + np.diag(cfg.f.deriv(mids[k])))
        w = row_weight[k][:, None]
        blocks[k][k] = sparse.csr_matrix(w * (half - eye / dt))
        blocks[k][k + 1] = sparse.csr_matrix(w * (half + eye / dt))
    J = sparse.bmat(blocks, format="csc")[:, d : N * d]
    return (2.0 * J.T @ J).tocsc()


class TestFoldedStep:
    def test_first_step_matches_natural_order_spsolve(self):
        # d = 61 with an off-centre bump: a fold that mirrored the sites
        # would still pass on data symmetric about site 0
        base = example5_spec(n=30, steps=16)
        i = np.arange(-30, 31)
        spec = BVPSpec(
            cfg=base.cfg, phi0=0.6 * np.exp(-((i - 7) ** 2) / 50.0), phiT=0.1 * np.sin(i / 5.0),
            steps=16, max_iterations=1, gradient_tol=1e-300,
        )
        res = solve_mpp(spec)
        assert res.record[1].damping == 0.0 and res.record[1].fallback == 0

        lam = np.linspace(0.0, 1.0, 17)[:, None]
        start = Path((1.0 - lam) * spec.phi0 + lam * spec.phiT, 30.0 / 16)
        t_mid = start.dt * (np.arange(16) + 0.5)
        row_weight = np.sqrt(start.dt) / spec.cfg.q.grid(t_mid, 30)
        H = natural_gauss_newton(start, spec.cfg, row_weight)
        oracle = spsolve(H, -om_gradient(start, spec.cfg).ravel()).reshape(15, 61)
        taken = (res.path.states - start.states)[1:-1] / res.record[1].step_length
        assert np.max(np.abs(taken - oracle)) <= 1e-12 * np.max(np.abs(oracle))
