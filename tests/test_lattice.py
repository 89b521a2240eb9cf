import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omlat import (
    ConfigurationError,
    DegenerateNoiseError,
    LatticeConfig,
    NoiseCoefficient,
    PolynomialNonlinearity,
    apply_A,
    drift,
    weighted_norm,
)
from oracles import apply_B, apply_BT, dense_B, grid_noise_check

CUBIC = PolynomialNonlinearity(coeffs=(0.0, 0.1), p=1, growth_constant=0.1)
Q_UNIT = NoiseCoefficient.constant(1.0)


def make_cfg(n=1, nu=0.1, lam=0.4, f=CUBIC, q=Q_UNIT, T=1.0, g=None, rho=None):
    return LatticeConfig(n=n, nu=nu, lam=lam, f=f, q=q, T=T, g=g, rho=rho)


def rand_vec(rng, d):
    return rng.standard_normal(d)


class TestWeightedNormInner:
    def test_euclidean_case(self):
        assert weighted_norm([3.0, 4.0], [1.0, 1.0]) == pytest.approx(5.0, abs=1e-15)

    def test_weighted_case(self):
        assert weighted_norm([1.0, 1.0], [2.0, 1.0]) == pytest.approx(np.sqrt(5.0), abs=1e-15)

    def test_basis_vector(self):
        for d in (3, 7):
            for k in range(d):
                e = np.zeros(d)
                e[k] = 1.0
                assert weighted_norm(e, np.ones(d)) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            weighted_norm([1.0, 2.0], [1.0, 1.0, 1.0])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=15))
    def test_norm_is_inner_diagonal(self, values):
        u = np.array(values)
        rho = np.linspace(0.5, 2.0, u.size)
        assert weighted_norm(u, rho) ** 2 == pytest.approx(np.sum((rho * u) ** 2), rel=1e-12)

    def test_norm_zero_iff_zero(self):
        assert weighted_norm(np.zeros(5), np.ones(5)) == 0.0
        u = np.zeros(5)
        u[3] = 1e-150
        assert weighted_norm(u, np.ones(5)) > 0.0


class TestOperators:
    def test_constant_in_kernel(self):
        for n in range(0, 5):
            d = 2 * n + 1
            assert np.all(apply_A(np.full(d, 3.7)) == 0.0)
            assert np.all(apply_B(np.full(d, -1.2)) == 0.0)

    def test_A_first_unit_vector(self):
        np.testing.assert_allclose(apply_A([1.0, 0.0, 0.0]), [2.0, -1.0, -1.0])

    def test_B_first_unit_vector(self):
        np.testing.assert_allclose(apply_B([1.0, 0.0, 0.0]), [-1.0, 0.0, 1.0])

    def test_dense_matrices_structure(self):
        A = apply_A(np.eye(5)).T
        assert np.all(np.diag(A) == 2.0)
        assert A[0, 4] == -1.0 and A[4, 0] == -1.0
        B = dense_B(5)
        assert np.all(np.diag(B) == -1.0)
        assert B[4, 0] == 1.0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_factorization_identities(self, n):
        d = 2 * n + 1
        A = apply_A(np.eye(d)).T
        B = dense_B(d)
        assert np.max(np.abs(A - B @ B.T)) <= 1e-14
        assert np.max(np.abs(A - B.T @ B)) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_A_equals_B_BT_pointwise(self, n):
        rng = np.random.default_rng(7 + n)
        u = rand_vec(rng, 2 * n + 1)
        np.testing.assert_allclose(apply_A(u), apply_BT(apply_B(u)), atol=1e-13)
        np.testing.assert_allclose(apply_A(u), apply_B(apply_BT(u)), atol=1e-13)

    def test_adjointness_unweighted(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            d = 2 * rng.integers(1, 7) + 1
            u, v = rand_vec(rng, d), rand_vec(rng, d)
            assert abs(np.dot(apply_BT(u), v) - np.dot(u, apply_B(v))) <= 1e-12

    def test_A_positive_semidefinite(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = 2 * rng.integers(1, 9) + 1
            u = rand_vec(rng, d)
            assert np.dot(apply_A(u), u) >= -1e-12

    def test_spectrum_bounded_below_by_lam(self):
        nu, lam = 0.1, 0.4
        for n in (1, 3, 5):
            d = 2 * n + 1
            vals = np.linalg.eigvalsh(nu * apply_A(np.eye(d)).T + lam * np.eye(d))
            assert np.all(vals >= lam - 1e-12)

    def test_batch_rows_match_single(self):
        rng = np.random.default_rng(5)
        batch = rng.standard_normal((4, 7))
        out = apply_A(batch)
        for j in range(4):
            np.testing.assert_array_equal(out[j], apply_A(batch[j]))


ROLL_FORMULAS = {
    "A": (apply_A, lambda u: 2.0 * u - np.roll(u, 1, axis=-1) - np.roll(u, -1, axis=-1)),
    "B": (apply_B, lambda u: np.roll(u, -1, axis=-1) - u),
    "BT": (apply_BT, lambda u: np.roll(u, 1, axis=-1) - u),
}


@pytest.mark.parametrize("op", sorted(ROLL_FORMULAS))
@pytest.mark.parametrize("d", [1, 3, 61])
@pytest.mark.parametrize("lead", [(), (4,), (3, 5)], ids=["single", "batch", "stack"])
def test_operators_match_roll_formulas(op, d, lead):
    # the slice arithmetic must round exactly like the np.roll formulas,
    # along the last axis of any stack (and into out= for apply_A)
    apply, formula = ROLL_FORMULAS[op]
    u = np.random.default_rng(d).standard_normal(lead + (d,))
    expected = formula(u)
    np.testing.assert_array_equal(apply(u), expected)
    if op == "A":
        out = np.full_like(u, np.nan)
        assert apply(u, out=out) is out
        np.testing.assert_array_equal(out, expected)


class TestNonlinearity:
    def test_zero_at_zero(self):
        assert CUBIC(0.0) == 0.0
        assert PolynomialNonlinearity(coeffs=(0.3, 0.2, 0.05))(0.0) == 0.0

    def test_cubic_values_and_derivatives(self):
        x = np.array([-2.0, 0.5, 3.0])
        np.testing.assert_allclose(CUBIC(x), 0.1 * x**3)
        np.testing.assert_allclose(CUBIC.deriv(x), 0.3 * x**2)
        np.testing.assert_allclose(CUBIC.deriv(x, 2), 0.6 * x)
        np.testing.assert_allclose(CUBIC.deriv(x, 3), 0.6)

    def test_conditions_pass_for_reference_cubic(self):
        assert CUBIC.condition_f1()
        assert CUBIC.condition_f2()

    def test_conditions_fail_for_negative_cubic(self):
        with pytest.warns(UserWarning):
            bad = PolynomialNonlinearity(coeffs=(0.0, -1.0), p=1, growth_constant=0.1)
        assert not bad.condition_f1()
        assert not bad.condition_f2()

    def test_growth_exponent_range(self):
        # p = 154 keeps 10^(2p) finite; C |x| (1 + x^(2p)) may still pass the
        # doubles at |x| = 10, and then holds every finite |f(x)| silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert PolynomialNonlinearity(coeffs=(0.0, 1.0), p=154, growth_constant=1.0).condition_f2()
        with pytest.raises(ConfigurationError, match="at most 154"):
            PolynomialNonlinearity(coeffs=(0.0, 1.0), p=155, growth_constant=1.0)

    def test_empty_polynomial_is_zero(self):
        f0 = PolynomialNonlinearity(coeffs=(), p=1, growth_constant=1.0)
        x = np.linspace(-3, 3, 7)
        assert np.all(f0(x) == 0.0)
        assert np.all(f0.deriv(x) == 0.0)

    def test_deriv_matches_finite_difference(self):
        f = PolynomialNonlinearity(coeffs=(0.2, 0.1, 0.03), p=2, growth_constant=1.0)
        x = np.linspace(-2, 2, 9)
        h = 1e-6
        np.testing.assert_array_equal(f.deriv(x, 0), f(x))
        np.testing.assert_allclose(f(x), 0.2 * x + 0.1 * x**3 + 0.03 * x**5, rtol=1e-14, atol=1e-15)
        fd = (f(x + h) - f(x - h)) / (2 * h)
        np.testing.assert_allclose(f.deriv(x), fd, rtol=1e-8, atol=1e-8)
        for order in (2, 3):
            fd = (f.deriv(x + h, order - 1) - f.deriv(x - h, order - 1)) / (2 * h)
            np.testing.assert_allclose(f.deriv(x, order), fd, rtol=1e-7, atol=1e-6)


class TestDrift:
    def test_zero_state_zero_forcing(self):
        cfg = make_cfg(n=2)
        assert np.all(drift(np.zeros(5), cfg) == 0.0)

    def test_reference_config_unit_bump(self):
        # center: -nu*2 - lam - f(1) = -0.2 - 0.4 - 0.1; neighbours: +nu
        cfg = LatticeConfig(n=1, nu=0.1, lam=0.4, f=CUBIC, q=NoiseCoefficient.affine(0.01, 31.0), T=30.0)
        e0 = np.array([0.0, 1.0, 0.0])
        out = drift(e0, cfg)
        assert out[1] == pytest.approx(-0.7, abs=1e-15)
        assert out[0] == pytest.approx(0.1, abs=1e-15)
        assert out[2] == pytest.approx(0.1, abs=1e-15)

    def test_linear_case_matches_dense_matrix(self):
        f0 = PolynomialNonlinearity(coeffs=(), p=1, growth_constant=1.0)
        cfg = make_cfg(n=3, nu=0.25, lam=0.7, f=f0)
        d = cfg.d
        M = -(cfg.nu * apply_A(np.eye(d)).T + cfg.lam * np.eye(d))
        rng = np.random.default_rng(17)
        for _ in range(10):
            u = rand_vec(rng, d)
            np.testing.assert_allclose(drift(u, cfg), M @ u, atol=1e-13)

    @pytest.mark.parametrize("shape", [(61,), (6, 61)], ids=["single", "batch"])
    def test_out_matches_expression(self, shape):
        # -nu A u - lam u - f(u) + g in that order, whether or not out= is given
        cfg = make_cfg(n=30, g=np.linspace(-0.3, 0.2, 61))
        u = np.random.default_rng(29).standard_normal(shape)
        expected = -cfg.nu * ROLL_FORMULAS["A"][1](u) - cfg.lam * u - cfg.f(u) + cfg.g
        np.testing.assert_array_equal(drift(u, cfg), expected)
        out = np.full(shape, np.nan)
        assert drift(u, cfg, out=out) is out
        np.testing.assert_array_equal(out, expected)

    def test_linear_drift_matches_the_expression_bit_for_bit(self):
        # with no coefficients drift leaves out "- f(u)": f(u) is zeros, and
        # x - 0.0 is x bit for bit, signed zeros, infinities and NaN included
        f0 = PolynomialNonlinearity(coeffs=(), p=1, growth_constant=1.0)
        cfg = make_cfg(n=2, f=f0, g=np.full(5, -0.0))
        u = np.array([[0.0] * 5, [-0.0] * 5, [0.3, -0.0, np.inf, -np.inf, np.nan], [-1.5, 2.0, -0.0, 0.0, 7.0]])
        expected = -cfg.nu * ROLL_FORMULAS["A"][1](u) - cfg.lam * u - cfg.f(u) + cfg.g
        with np.errstate(invalid="ignore"):
            got = drift(u, cfg)
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))
        assert np.signbit(got[0]).all()  # the zero state's drift is -0.0: signed zeros are checked

    def test_one_sided_dissipativity_unweighted(self):
        cfg = make_cfg(n=3)
        rng = np.random.default_rng(23)
        for _ in range(50):
            u, v = rand_vec(rng, 7), rand_vec(rng, 7)
            lhs = np.dot(drift(u, cfg) - drift(v, cfg), u - v)
            assert lhs <= -cfg.lam * np.dot(u - v, u - v) + 1e-12


# q values: ordinary ones, zeros, the edges of the |q| range, and non-finite
_Q_VALUES = st.one_of(
    st.floats(-5.0, 5.0),
    st.sampled_from([0.0, 1e-160, -1e-160, 1.49e-154, 1.5e-154, 1.34e154, 1.35e154, 1e160, np.nan, np.inf]),
)


@st.composite
def _noise_cases(draw):
    """(n, T, q) with q constant, affine or a table whose nodes may lie
    outside [0, T], on 0 or T, or inside."""
    n = draw(st.integers(0, 2))
    T = draw(st.one_of(st.floats(0.01, 50.0), st.sampled_from([0.5, 1.0, 2.0, 30.0])))
    kind = draw(st.sampled_from(["constant", "affine", "table"]))
    if kind == "constant":
        return n, T, NoiseCoefficient.constant(draw(_Q_VALUES))
    if kind == "affine":
        a = draw(st.one_of(st.floats(-60.0, 60.0), st.integers(-3, 31).map(float)))
        return n, T, NoiseCoefficient.affine(draw(_Q_VALUES), a)
    node = st.one_of(st.floats(-T, 2.0 * T), st.sampled_from([0.0, T / 4, T / 2, T]))
    times = sorted(draw(st.sets(node, min_size=1, max_size=5)))
    sites = 2 * (n + draw(st.integers(0, 1))) + 1
    row = st.lists(_Q_VALUES.filter(np.isfinite), min_size=sites, max_size=sites)
    return n, T, NoiseCoefficient.table(times, draw(st.lists(row, min_size=len(times), max_size=len(times))))


def _raised(fn):
    """The class of the configuration error ``fn()`` raises, or None."""
    try:
        fn()
    except ConfigurationError as exc:
        return type(exc)
    return None


class TestLatticeConfig:
    def test_dimension(self):
        assert make_cfg(n=0).d == 1
        assert make_cfg(n=30).d == 61

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"nu": 0.0},
            {"nu": -1.0},
            {"lam": 0.0},
            {"T": 0.0},
            {"n": -1},
            {"rho": np.array([1.0, 0.0, 1.0])},
            {"rho": np.array([1.0, -2.0, 1.0])},
            {"g": np.array([1.0, 2.0])},
            {"T": np.inf},
            {"nu": np.inf},
            {"lam": np.inf},
            {"rho": np.array([1.0, np.nan, 1.0])},
            {"rho": np.array([1.0, np.inf, 1.0])},
            {"g": np.array([0.0, np.nan, 0.0])},
            {"g": np.array([0.0, np.inf, 0.0])},
            {"q": NoiseCoefficient.constant(np.nan)},
            {"q": NoiseCoefficient.constant(np.inf)},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        # the message names the parameter (q by its config key)
        (name,) = kwargs
        match = {"n": "half-width", "lam": "lambda", "rho": "rho_i", "g": r"\bg\b", "q": "q_spec"}.get(name, name)
        with pytest.raises(ConfigurationError, match=match):
            make_cfg(**kwargs)

    @pytest.mark.parametrize("bad", [np.nan, -1.0])
    def test_rejected_weight_names_its_site(self, bad):
        # n = 1: array position 1 is site 0; a nan among the weights must
        # not hide the site behind a "nan to nan" range
        with pytest.raises(ConfigurationError, match=rf"rho_i is {bad:.4g} at site 0:"):
            make_cfg(n=1, rho=np.array([1.0, bad, 1.0]))

    def test_vanishing_noise_rejected(self):
        with pytest.raises(ConfigurationError):
            make_cfg(q=NoiseCoefficient.constant(0.0))

    def test_sign_changing_noise_rejected(self):
        # c0 (a - t + ...) crosses zero inside [0, T] when a < T.
        with pytest.raises(ConfigurationError):
            make_cfg(q=NoiseCoefficient.affine(0.01, 0.5), T=30.0)

    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(_noise_cases())
    def test_node_check_decides_as_the_grid_check(self, case):
        # q is piecewise linear in t, so 0, T and the table's nodes decide
        # what the old 513-point grid decided
        n, T, q = case
        old, new = _raised(lambda: grid_noise_check(q, n, T)), _raised(lambda: make_cfg(n=n, q=q, T=T))
        if old is DegenerateNoiseError and new is ConfigurationError:
            # the grid landed exactly on a zero inside a linear piece, which
            # the nodes see as the sign change or range it lies in
            ts = np.linspace(0.0, T, 513)
            zero_times = ts[np.any(q.grid(ts, n) == 0.0, axis=1)]
            nodes = [0.0, T, *(q.table_times if q.kind == "table" else ())]
            assert zero_times.size and not np.isin(zero_times, nodes).any()
        else:
            assert old is new

    def test_defaults_are_uniform(self):
        cfg = make_cfg(n=2)
        np.testing.assert_array_equal(cfg.rho, np.ones(5))
        np.testing.assert_array_equal(cfg.g, np.zeros(5))

    def test_config_values_immutable(self):
        cfg = make_cfg(n=1)
        with pytest.raises(Exception):
            cfg.nu = 2.0
