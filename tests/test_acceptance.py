"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured numbers (run with ``pytest tests/test_acceptance.py -v -s``).

Frozen seeds make every criterion deterministic; the counter-based
generators reproduce the same draws regardless of execution order.
"""
import numpy as np

from omlat import (
    LatticeConfig,
    NoiseCoefficient,
    NoisePath,
    Path,
    PolynomialNonlinearity,
    apply_A,
    cocycle_check,
    drift,
    integrate,
    kl_spectrum,
    om_action,
    om_gradient,
    sample_noise,
    smallball_mc,
    truncation_tail,
    weighted_norm,
)
from omlat.cli import main
from omlat.mpp import BVPSpec, solve_mpp
from omlat.tube import TubeExperiment, tube_ratio
from oracles import (
    apply_B,
    apply_BT,
    binomial_tails,
    dense_B,
    eigenfunction_orthogonality,
    el_residual_example5,
    example5_boundary,
    example5_config,
    kernel_eigen_check,
    smallball_reference,
    strong_errors,
)

CUBIC = PolynomialNonlinearity(coeffs=(0.0, 0.1), p=1, growth_constant=0.1)
LINEAR = PolynomialNonlinearity(coeffs=(), p=1, growth_constant=1.0)


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


def test_criterion_01_operator_identities():
    worst_factor = 0.0
    for n in range(1, 9):
        d = 2 * n + 1
        A, B = apply_A(np.eye(d)).T, dense_B(d)
        worst_factor = max(
            worst_factor,
            np.max(np.abs(A - B @ B.T)),
            np.max(np.abs(A - B.T @ B)),
        )
        assert np.all(apply_A(np.full(d, 1.7)) == 0.0)
    assert worst_factor <= 1e-14
    rng = np.random.default_rng(2024)
    worst_adj = 0.0
    for _ in range(100):
        d = 2 * int(rng.integers(1, 9)) + 1
        u, v = rng.standard_normal(d), rng.standard_normal(d)
        worst_adj = max(worst_adj, abs(np.dot(apply_BT(u), v) - np.dot(u, apply_B(v))))
    assert worst_adj <= 1e-12
    print(
        f"\nACCEPTANCE 01 operator-identities: PASS "
        f"(factorization <= {worst_factor:.2e}, adjointness <= {worst_adj:.2e})"
    )


def test_criterion_02_integrator_order():
    # strong self-convergence: root-mean-square error over 16 Brownian paths
    cfg = LatticeConfig(n=2, nu=0.2, lam=0.5, f=CUBIC, q=NoiseCoefficient.constant(0.5), T=1.0)
    u0 = np.array([0.1, 0.5, 1.0, 0.5, 0.1])
    errs = strong_errors(cfg, u0, seed=9, paths=16, fine_steps=2**14, factors=(32, 64, 128))
    r1, r2 = errs[1] / errs[0], errs[2] / errs[1]
    assert 1.7 <= r1 <= 2.3 and 1.7 <= r2 <= 2.3

    # deterministic sub-case against a fourth-order reference
    det_cfg = LatticeConfig(n=1, nu=0.1, lam=0.4, f=CUBIC, q=NoiseCoefficient.constant(1.0), T=1.0)
    steps = 512
    dt = 1.0 / steps
    em = integrate(np.full(3, 1.0), NoisePath(dt=dt, increments=np.zeros((steps, 3))), det_cfg)
    ref4 = rk4_states(np.full(3, 1.0), det_cfg, 8 * steps, dt / 8.0)
    det_err = float(np.max(np.abs(em.states[-1] - ref4[-1])))
    assert det_err <= 5 * dt
    print(
        f"\nACCEPTANCE 02 integrator-order: PASS "
        f"(halving ratios {r1:.2f}, {r2:.2f}; deterministic error {det_err:.2e} <= {5*dt:.2e})"
    )


def test_criterion_03_cocycle_property():
    cfg = example5_config(n=5)
    steps = 512
    noise = sample_noise(4, steps, cfg.d, cfg.T / steps)
    u0, _ = example5_boundary(5)
    devs = cocycle_check(u0, noise, [frac * cfg.T for frac in (0.25, 0.5)], cfg)
    assert all(dev <= 1e-12 for dev in devs)
    print(f"\nACCEPTANCE 03 cocycle: PASS (deviations {devs[0]:.2e}, {devs[1]:.2e} at s=T/4, T/2)")


def test_criterion_04_truncation_convergence():
    def decaying_noise(n):
        sites = np.arange(-n, n + 1)
        profile = 0.25 * 2.0 ** (-np.abs(sites).astype(float))
        return NoiseCoefficient.table([0.0, 1e9], np.vstack([profile, profile]))

    ensembles = {}
    for n in (4, 8, 16):
        cfg = LatticeConfig(n=n, nu=0.5, lam=0.4, f=CUBIC, q=decaying_noise(n), T=2.0)
        u0 = np.zeros(cfg.d)
        for i in range(-2, 3):
            u0[i + n] = 1.0 / (1.0 + i * i)
        ensembles[n] = (
            cfg,
            [
                integrate(u0, sample_noise(2024, 128, cfg.d, cfg.T / 128, trajectory=j), cfg)
                for j in range(200)
            ],
        )

    cfg8, paths8 = ensembles[8]
    cfg16, paths16 = ensembles[16]
    tails, _, _ = truncation_tail(zip(paths8, paths16), range(2, 9), cfg8.rho, cfg16.rho)
    assert all(a >= b for a, b in zip(tails, tails[1:]))
    assert tails[0] > 0.0

    def msd(n_small, n_big):
        off = n_big - n_small
        acc = 0.0
        for a, b in zip(ensembles[n_small][1], ensembles[n_big][1]):
            acc += np.max(np.sum((a.states - b.states[:, off : off + a.d]) ** 2, axis=1))
        return acc / 200.0

    d48, d816 = msd(4, 8), msd(8, 16)
    assert d816 < d48
    print(
        f"\nACCEPTANCE 04 truncation: PASS "
        f"(tails monotone {tails[0]:.2e}..{tails[-1]:.2e}; widening diff {d48:.2e} -> {d816:.2e})"
    )


def test_criterion_05_action_gradient():
    cfg = LatticeConfig(n=1, nu=0.1, lam=0.4, f=CUBIC, q=NoiseCoefficient.affine(0.01, 31.0), T=2.0)
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(20):
        p = Path(rng.standard_normal((7, 3)), 2.0 / 6)
        g = om_gradient(p, cfg)
        fd = np.zeros_like(g)
        h = 1e-6
        for k in range(1, 6):
            for i in range(3):
                plus, minus = p.states.copy(), p.states.copy()
                plus[k, i] += h
                minus[k, i] -= h
                fd[k - 1, i] = (
                    om_action(Path(plus, p.dt), cfg).total
                    - om_action(Path(minus, p.dt), cfg).total
                ) / (2 * h)
        worst = max(worst, np.max(np.abs(g - fd)) / max(1.0, np.max(np.abs(g))))
    assert worst <= 1e-6

    cfg1 = LatticeConfig(n=1, nu=0.1, lam=0.4, f=CUBIC, q=NoiseCoefficient.constant(0.7), T=1.0)
    cfg2 = LatticeConfig(n=1, nu=0.1, lam=0.4, f=CUBIC, q=NoiseCoefficient.constant(1.4), T=1.0)
    p = Path(rng.standard_normal((17, 3)), 1.0 / 16)
    r1, r2 = om_action(p, cfg1), om_action(p, cfg2)
    homog = abs(r2.drift_term - r1.drift_term / 4.0)
    assert homog <= 1e-12 * max(1.0, r1.drift_term)
    assert r2.trace_term == r1.trace_term

    smooth_cfg = LatticeConfig(n=1, nu=0.2, lam=0.6, f=CUBIC, q=NoiseCoefficient.constant(0.8), T=1.0)

    def phi(t):
        return np.array([np.sin(1.3 * t), 0.5 * np.cos(t), 0.3 * t * (1 - t)])

    totals = []
    for steps in (32, 64, 128):
        ts = np.linspace(0.0, 1.0, steps + 1)
        totals.append(om_action(Path(np.array([phi(t) for t in ts]), 1.0 / steps), smooth_cfg).total)
    richardson = (totals[0] - totals[1]) / (totals[1] - totals[2])
    assert 3.0 <= richardson <= 5.0
    print(
        f"\nACCEPTANCE 05 action-gradient: PASS "
        f"(FD mismatch <= {worst:.2e}, homogeneity {homog:.2e}, Richardson {richardson:.2f})"
    )


def test_criterion_06_linear_mpp_oracle():
    lam = 1.3
    cfg = LatticeConfig(n=0, nu=0.1, lam=lam, f=LINEAR, q=NoiseCoefficient.constant(1.0), T=1.0)
    spec = BVPSpec(cfg=cfg, phi0=np.array([1.0]), phiT=np.array([0.3]), steps=256)
    res = solve_mpp(spec)
    assert res.converged
    ts = res.path.times
    exact = (np.sinh(lam * (1.0 - ts)) + 0.3 * np.sinh(lam * ts)) / np.sinh(lam)
    err = float(np.max(np.abs(res.path.states[:, 0] - exact)))
    assert err <= 1e-3
    print(f"\nACCEPTANCE 06 linear-mpp-oracle: PASS (max error {err:.2e} <= 1e-3 at dt=2^-8)")


def test_criterion_07_example5_cross_validation():
    # default tolerance: the full-size problem converges
    n = 30
    phi0, phiT = example5_boundary(n)
    cfg = example5_config(n)
    res = solve_mpp(BVPSpec(cfg=cfg, phi0=phi0, phiT=phiT, steps=600))
    assert res.converged
    np.testing.assert_array_equal(res.path.states[0], phi0)
    np.testing.assert_array_equal(res.path.states[-1], phiT)
    sym = float(np.max(np.abs(res.path.states - res.path.states[:, ::-1])))
    assert sym <= 1e-6
    # qualitative profile: the bump decays monotonically toward zero
    norms = [weighted_norm(res.path.states[k], cfg.rho) for k in (0, 150, 300, 450, 600)]
    assert all(a > b for a, b in zip(norms, norms[1:]))
    assert norms[-1] == 0.0

    # dt halving: the stationarity-system residual drops at least 3x
    # (tight tolerance isolates the grid effect from the solver floor)
    residuals = {}
    for steps in (600, 1200):
        tight = solve_mpp(BVPSpec(cfg=cfg, phi0=phi0, phiT=phiT, steps=steps, gradient_tol=1e-11))
        assert tight.converged
        residuals[steps] = float(np.max(np.abs(el_residual_example5(tight.path))))
    ratio = residuals[600] / residuals[1200]
    assert ratio >= 3.0
    print(
        f"\nACCEPTANCE 07 example5-cross-validation: PASS "
        f"(iters={res.iterations}, action={res.action.total:.6f}, symmetry {sym:.2e}, "
        f"residual {residuals[600]:.2e} -> {residuals[1200]:.2e}, ratio {ratio:.2f})"
    )


def test_criterion_08_kl_spectrum():
    spec = kl_spectrum(0.4, 50)
    worst_root = float(np.max(spec.residuals()))
    assert worst_root <= 1e-10
    worst_eigen = max(kernel_eigen_check(spec, i, 2001) for i in range(1, 6))
    assert worst_eigen <= 1e-6
    orth = eigenfunction_orthogonality(spec, 5, 2001)
    assert orth <= 1e-8
    print(
        f"\nACCEPTANCE 08 kl-spectrum: PASS "
        f"(root residuals <= {worst_root:.2e}, kernel residuals <= {worst_eigen:.2e}, "
        f"orthogonality <= {orth:.2e})"
    )


def test_criterion_09_smallball_rates():
    # the rate is tested against the Cramer-von Mises reference at every
    # radius; 1e6 samples expect only 1.8 hits at eps = 0.3, so the rate
    # window applies where at least 50 hits are expected (0.5 and 0.4)
    samples = 1_000_000
    eps = [0.5, 0.4, 0.3]
    res = smallball_mc(1.0, 12000, eps, samples, seed=0)
    hits = [int(h) for h in np.rint(res.estimates * samples)]
    assert hits[0] >= hits[1] >= hits[2]
    refs = [smallball_reference(e, 12000) for e in eps]
    tails = [min(binomial_tails(h, samples, p)) for h, p in zip(hits, refs)]
    assert all(t >= 1e-6 for t in tails)
    window = [float(np.log(res.estimates[j]) * eps[j] ** 2) for j in range(2)]
    assert all(-2.0 <= w <= -0.5 for w in window)
    print(
        f"\nACCEPTANCE 09 smallball-rates: PASS "
        f"(hits {hits} vs expected {[round(p * samples, 2) for p in refs]}, "
        f"smaller binomial tail >= {min(tails):.2e}; log P * eps^2 = "
        f"{', '.join(f'{w:.3f}' for w in window)} at eps=0.5, 0.4 in [-2, -0.5])"
    )


def test_criterion_10_tube_consistency():
    cfg = LatticeConfig(n=0, nu=0.1, lam=0.4, f=LINEAR, q=NoiseCoefficient.constant(1.0), T=1.0)
    N = 512
    ts = np.linspace(0.0, 1.0, N + 1)

    zero_phi = Path(np.zeros((N + 1, 1)), 1.0 / N)
    z = tube_ratio(TubeExperiment(cfg=cfg, phi=zero_phi, eps=(0.3, 0.2), samples=1_000_000, seed=1))
    assert z.predicted == 1.0
    assert all(z.ci_lo[j] <= 1.0 <= z.ci_hi[j] for j in range(2))

    phi = Path(0.8 * np.sin(np.pi * ts / 2)[:, None], 1.0 / N)
    t = tube_ratio(TubeExperiment(cfg=cfg, phi=phi, eps=(0.3, 0.2), samples=1_000_000, seed=2))
    smallest = int(np.argmin(t.eps))
    assert t.num_hits[smallest] >= 50
    target = -0.5 * om_action(phi, cfg).total
    log_ratio = float(np.log(t.ratio[smallest]))
    rel = abs(log_ratio - target) / abs(target)
    assert rel <= 0.25
    print(
        f"\nACCEPTANCE 10 tube-consistency: PASS "
        f"(zero-action CIs contain 1; log-ratio {log_ratio:.4f} vs {target:.4f}, "
        f"relative {rel:.3f} <= 0.25 at eps=0.2 with {t.num_hits[smallest]} hits)"
    )


def test_criterion_11_reproducibility(tmp_path):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(
        "n = 4\nnu = 0.1\nlambda = 0.4\nf_coeffs = 0, 0.1\np = 1\nC_f = 0.1\n"
        "g = zero\nq_spec = example5:0.01,31\nrho = uniform\nT = 30\n"
    )
    scalar_file = tmp_path / "s.cfg"
    scalar_file.write_text(
        "n = 0\nnu = 0.1\nlambda = 0.4\nf_coeffs =\np = 1\nC_f = 1.0\n"
        "g = zero\nq_spec = constant:1.0\nrho = uniform\nT = 1\n"
    )
    pairs = []
    for tag, argv in {
        "simulate": lambda out: [
            "simulate", "--config", str(cfg_file), "--seed", "11", "--out", out,
            "--dt", "0.25", "--ensemble", "2",
        ],
        "mpp": lambda out: ["mpp", "--config", str(cfg_file), "--out", out, "--dt", "0.25"],
        "tube": lambda out: [
            "verify", "tube", "--config", str(scalar_file), "--out", out,
            "--samples", "20000", "--eps", "0.4,0.3", "--dt", str(1.0 / 128),
        ],
    }.items():
        outs = []
        for run in ("r1", "r2"):
            out = tmp_path / f"{tag}_{run}"
            assert main(argv(str(out))) == 0
            outs.append(out)
        for csv in sorted(outs[0].glob("*.csv")):
            twin = outs[1] / csv.name
            pairs.append(csv.name)
            assert csv.read_bytes() == twin.read_bytes(), f"{tag}/{csv.name} differs"
    print(f"\nACCEPTANCE 11 reproducibility: PASS (byte-identical: {', '.join(pairs)})")
