import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.random import Generator

from omlat import (
    ConfigurationError,
    IntegrationError,
    LatticeConfig,
    NoiseCoefficient,
    NoisePath,
    Path,
    PolynomialNonlinearity,
    StatisticalPowerError,
    apply_A,
    drift,
    integrate,
    om_action,
    tube,
)
from omlat.noise import _TAG_TUBE_BLOCK, _block_bits
from omlat.sde import euler_maruyama
from omlat.tube import _TUBE_STAGE_STEPS, TubeExperiment, _block_distances, tube_ratio
from oracles import l2rho_path_norm, ou_convolution, residuals

LINEAR = PolynomialNonlinearity(coeffs=(), p=1, growth_constant=1.0)
CUBIC = PolynomialNonlinearity(coeffs=(0.0, 0.1), p=1, growth_constant=0.1)


def scalar_cfg(lam=0.4, q=1.0, T=1.0):
    return LatticeConfig(n=0, nu=0.1, lam=lam, f=LINEAR, q=NoiseCoefficient.constant(q), T=T)


class TestPathNorm:
    def test_identical_paths(self):
        p = Path(np.random.default_rng(0).standard_normal((9, 3)), 0.125)
        assert l2rho_path_norm(p, p, np.ones(3)) == 0.0

    def test_constant_difference(self):
        dt, T = 0.1, 1.0
        a = Path(np.zeros((11, 3)), dt)
        c = np.array([0.3, -0.4, 1.2])
        b = Path(np.tile(c, (11, 1)), dt)
        rho = np.array([1.0, 2.0, 0.5])
        expected = np.sqrt(np.sum((rho * c) ** 2) * T)
        assert l2rho_path_norm(a, b, rho) == pytest.approx(expected, rel=1e-12)

    def test_matches_fine_quadrature(self):
        # trapezoid error O(dt^2) against a much finer grid
        def f(t):
            return np.array([np.sin(2 * t), np.cos(t)])

        def dist(steps):
            ts = np.linspace(0.0, 1.0, steps + 1)
            a = Path(np.array([f(t) for t in ts]), 1.0 / steps)
            b = Path(np.zeros((steps + 1, 2)), 1.0 / steps)
            return l2rho_path_norm(a, b, np.ones(2))

        errs = [abs(dist(steps) - dist(4096)) for steps in (32, 64)]
        assert 3.2 <= errs[0] / errs[1] <= 4.8

    def test_grid_mismatch(self):
        a = Path(np.zeros((9, 1)), 0.125)
        b = Path(np.zeros((5, 1)), 0.25)
        with pytest.raises(ConfigurationError):
            l2rho_path_norm(a, b, np.ones(1))


class TestBlockArithmetic:
    def test_batch_matches_single_trajectory_integration(self, monkeypatch):
        # the vectorized ensemble must reproduce integrate() and the
        # damped-noise update on the same increments
        cfg = LatticeConfig(n=1, nu=0.2, lam=0.5, f=CUBIC, q=NoiseCoefficient.constant(0.8), T=1.0)
        N, count = 16, 5
        dt = 1.0 / N
        ts = np.linspace(0.0, 1.0, N + 1)
        phi = Path(np.outer(np.sin(np.pi * ts), np.array([0.1, 0.3, 0.1])), dt)
        monkeypatch.setattr(tube, "MIN_HITS", 1)
        exp = TubeExperiment(cfg=cfg, phi=phi, eps=(10.0,), samples=count, seed=99)
        table = tube_ratio(exp)
        assert table.num_hits[0] == count  # huge radius: sanity

        num_sq, den_sq = _block_distances(exp, 0, count)
        dW = block_increments(exp, 0, count)
        alpha = np.linalg.eigvalsh(cfg.nu * np.array([[2., -1, -1], [-1, 2, -1], [-1, -1, 2]]) + cfg.lam * np.eye(3))
        for j in range(count):
            noise = NoisePath(dt=dt, increments=dW[j])
            u = integrate(phi.states[0], noise, cfg)
            expected = l2rho_path_norm(u, phi, cfg.rho) ** 2
            assert num_sq[j] == pytest.approx(expected, rel=1e-12, abs=1e-14)
        # scalar shortcut for the damped reference: nu A has the constant
        # eigenvector, so compare through ou_convolution per eigenmode
        V = np.linalg.eigh(cfg.nu * np.array([[2., -1, -1], [-1, 2, -1], [-1, -1, 2]]) + cfg.lam * np.eye(3))[1]
        q0 = cfg.q.grid([0.0], 1)[0]
        for j in range(count):
            modes = NoisePath(dt=dt, increments=(q0 * dW[j]) @ V / q0[0])
            conv = ou_convolution(modes, cfg.q, alpha)
            y = conv.states @ V.T
            expected = l2rho_path_norm(Path(y, dt), Path(np.zeros((N + 1, 3)), dt), cfg.rho) ** 2
            assert den_sq[j] == pytest.approx(expected, rel=1e-10, abs=1e-14)


def block_increments(exp, block_index, count):
    """The increments of one keyed tube block, sample-major (count, N, d):
    one time-major (N, count, d) draw of the block's generator, transposed."""
    g = Generator(_block_bits(exp.seed, _TAG_TUBE_BLOCK, block_index))
    dW = np.sqrt(exp.phi.dt) * g.standard_normal((exp.phi.steps, count, exp.cfg.d))
    return dW.transpose(1, 0, 2)


def matmul_block_distances(exp, block_index, count, filler=None):
    """Reference for ``_block_distances``: its own Euler-Maruyama loop and
    ``@`` products, as the tube computed them before it used the shared
    stepper, replaying its staged draw.  Each stage of ``_TUBE_STAGE_STEPS``
    steps draws one time-major (steps, alive, d) array for the rows still
    alive, and a row stays alive while either partial sum is at most
    ``max(eps)^2``.  With a ``filler`` generator the pruned rows are stepped
    on to N as well, on its draws.  Returns the two sums and the alive mask
    of each stage."""
    cfg = exp.cfg
    phi = exp.phi.states
    N, d = exp.phi.steps, cfg.d
    dt = exp.phi.dt
    cutoff = max(exp.eps) ** 2
    rho_sq = (cfg.rho**2)[None, :]
    g = Generator(_block_bits(exp.seed, _TAG_TUBE_BLOCK, block_index))
    qs = cfg.q.grid(dt * np.arange(N), cfg.n)
    alpha, V = np.linalg.eigh(cfg.nu * apply_A(np.eye(d)).T + cfg.lam * np.eye(d))
    decay = np.exp(-alpha * dt)[None, :]
    u = np.tile(phi[0], (count, 1))
    x = np.zeros((count, d))
    num_sq = np.zeros(count)
    den_sq = np.zeros(count)
    num_sq += 0.5 * dt * np.sum(rho_sq * (u - phi[0]) ** 2, axis=1)
    alive = np.ones(count, dtype=bool)
    stages = []
    for s0 in range(0, N, _TUBE_STAGE_STEPS):
        if s0:
            alive = alive & ((num_sq <= cutoff) | (den_sq <= cutoff))
        stages.append(alive)
        s1 = min(s0 + _TUBE_STAGE_STEPS, N)
        dW = np.zeros((s1 - s0, count, d))
        dW[:, alive] = np.sqrt(dt) * g.standard_normal((s1 - s0, alive.sum(), d))
        rows = alive
        if filler is not None:
            dW[:, ~alive] = np.sqrt(dt) * filler.standard_normal((s1 - s0, (~alive).sum(), d))
            rows = np.ones(count, dtype=bool)
        ur, xr, nr, dr = u[rows], x[rows], num_sq[rows], den_sq[rows]
        for k in range(s0, s1):
            forced = qs[k] * dW[k - s0][rows]
            ur = ur + drift(ur, cfg) * dt + forced
            if exp.denominator == "convolution":
                xr = decay * (xr + forced @ V)
                y = xr @ V.T
            else:
                xr = xr + forced
                y = xr
            w = dt if k < N - 1 else 0.5 * dt
            nr += w * np.sum(rho_sq * (ur - phi[k + 1]) ** 2, axis=1)
            dr += w * np.sum(rho_sq * y**2, axis=1)
        u[rows], x[rows], num_sq[rows], den_sq[rows] = ur, xr, nr, dr
    return num_sq, den_sq, stages


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("denominator", ["convolution", "plain"])
@pytest.mark.parametrize("reference", ["zero", "sine"])
def test_block_distances_match_matmul_loop(n, denominator, reference):
    cfg = LatticeConfig(n=n, nu=0.2, lam=0.5, f=CUBIC, q=NoiseCoefficient.affine(0.1, 3.0), T=1.0)
    N = 48
    ts = np.linspace(0.0, 1.0, N + 1)
    amp = 0.0 if reference == "zero" else 0.4
    phi = Path(amp * np.outer(np.sin(np.pi * ts / 2), np.linspace(0.5, 1.0, cfg.d)), 1.0 / N)
    exp = TubeExperiment(cfg=cfg, phi=phi, eps=(0.3,), samples=700, seed=31, denominator=denominator)
    for block_index, count in ((0, 700), (3, 257)):
        got = _block_distances(exp, block_index, count)
        expected = matmul_block_distances(exp, block_index, count)
        np.testing.assert_array_equal(got[0], expected[0])
        np.testing.assert_array_equal(got[1], expected[1])


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("denominator", ["convolution", "plain"])
def test_pruning_is_exact(n, denominator):
    # stepping every pruned row on to N, on filler draws, changes no hit
    # count: its full-length sums still exceed the largest radius squared
    cfg = LatticeConfig(n=n, nu=0.2, lam=0.5, f=CUBIC, q=NoiseCoefficient.affine(1.0, 1.0), T=1.0)
    N = 100
    phi = Path(np.zeros((N + 1, cfg.d)), 1.0 / N)
    eps = tuple((1 + n) * e for e in (0.4, 0.3, 0.2))
    exp = TubeExperiment(cfg=cfg, phi=phi, eps=eps, samples=600, seed=17, denominator=denominator)
    got = _block_distances(exp, 1, 600)
    num_sq, den_sq, stages = matmul_block_distances(exp, 1, 600, filler=Generator(np.random.SFC64(5)))
    kept = stages[-1]
    assert 0 < kept.sum() < 600 // 2
    np.testing.assert_array_equal(got[0][kept], num_sq[kept])
    np.testing.assert_array_equal(got[1][kept], den_sq[kept])
    cutoff = max(eps) ** 2
    assert np.all(num_sq[~kept] > cutoff) and np.all(den_sq[~kept] > cutoff)
    eps_sq = np.asarray(eps) ** 2
    for full, staged in zip((num_sq, den_sq), got):
        np.testing.assert_array_equal(
            np.searchsorted(np.sort(staged), eps_sq, side="right"),
            np.searchsorted(np.sort(full), eps_sq, side="right"),
        )


def test_tube_ratio_reports_the_first_blow_up_in_sample_order(monkeypatch):
    # u' = u^3 - ..., blocks of 500 trajectories.  Block 0 first blows up
    # at step 56 (trajectory 84), block 1 at step 46 (trajectory 658).
    # Each block is its own task, so the run reports block 0's, the first
    # in sample order, on one thread and on two
    monkeypatch.setattr(tube, "TUBE_BLOCK_SIZE", 500)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        runaway = PolynomialNonlinearity(coeffs=(0.0, -1.0), p=1, growth_constant=1.0)
    cfg = LatticeConfig(n=0, nu=0.1, lam=0.1, f=runaway, q=NoiseCoefficient.constant(1.0), T=2.0)
    N = 256
    phi = Path(np.zeros((N + 1, 1)), 2.0 / N)
    exp = TubeExperiment(cfg=cfg, phi=phi, eps=(100.0,), samples=2000, seed=3)

    def first_blow_up(run):
        with pytest.raises(IntegrationError) as err, np.errstate(over="ignore", invalid="ignore"):
            run()
        return err.value.trajectory, err.value.step

    assert [first_blow_up(lambda: _block_distances(exp, b, 500)) for b in (0, 1)] == [(84, 56), (658, 46)]
    for threads in ("1", "2"):
        monkeypatch.setenv("OMLAT_THREADS", threads)
        assert first_blow_up(lambda: tube_ratio(exp)) == (84, 56)


def chunks(N):
    """(k0, steps) of each chunk a block draws over N steps: stages of
    _TUBE_STAGE_STEPS steps, each cut into chunks of _TUBE_CHUNK_STEPS."""
    return [
        (k0, min(k0 + tube._TUBE_CHUNK_STEPS, s0 + _TUBE_STAGE_STEPS, N) - k0)
        for s0 in range(0, N, _TUBE_STAGE_STEPS)
        for k0 in range(s0, min(s0 + _TUBE_STAGE_STEPS, N), tube._TUBE_CHUNK_STEPS)
    ]


def test_a_block_draws_each_chunk_in_one_call_from_its_one_generator(monkeypatch):
    generators, draws = [], []

    class Counting:
        def __init__(self, bits):
            generators.append(bits)
            self.g = Generator(bits)

        def standard_normal(self, *args, **kwargs):
            draws.append(kwargs["out"].shape)
            return self.g.standard_normal(*args, **kwargs)

    N = 100
    phi = Path(np.zeros((N + 1, 1)), 1.0 / N)
    exp = TubeExperiment(cfg=scalar_cfg(), phi=phi, eps=(0.3,), samples=5000, seed=6)
    expected = _block_distances(exp, 1, 5000)
    monkeypatch.setattr(tube, "Generator", Counting)
    got = _block_distances(exp, 1, 5000)
    np.testing.assert_array_equal(got[0], expected[0])
    np.testing.assert_array_equal(got[1], expected[1])
    assert len(generators) == 1
    # four stages, of 32, 32, 32 and 4 steps, each drawn a chunk at a time
    assert [steps for steps, _, _ in draws] == [steps for _, steps in chunks(N)]
    stages = matmul_block_distances(exp, 1, 5000)[2]
    assert [alive for _, alive, _ in draws] == [int(stages[k0 // _TUBE_STAGE_STEPS].sum()) for k0, _ in chunks(N)]


def test_each_stage_steps_and_labels_the_surviving_trajectories(monkeypatch):
    # a blow-up names the trajectory's index in the run, first + alive[row]
    calls = []

    def recording(u0, increments, cfg, dt, trajectories, k0, observe):
        calls.append((k0, list(trajectories)))
        return euler_maruyama(u0, increments, cfg, dt, trajectories, k0, observe)

    monkeypatch.setattr(tube, "euler_maruyama", recording)
    N = 100
    phi = Path(np.zeros((N + 1, 1)), 1.0 / N)
    exp = TubeExperiment(cfg=scalar_cfg(), phi=phi, eps=(0.3,), samples=300, seed=2)
    _block_distances(exp, 2, 300)
    stages = matmul_block_distances(exp, 2, 300)[2]
    assert [k0 for k0, _ in calls] == [k0 for k0, _ in chunks(N)]
    for k0, labels in calls:
        alive = np.flatnonzero(stages[k0 // _TUBE_STAGE_STEPS])
        assert labels == (2 * tube.TUBE_BLOCK_SIZE + alive).tolist()
    assert len(calls[-1][1]) < 300


def test_only_a_trajectory_still_stepped_can_blow_up():
    # u' = u^3 - ...: with nothing pruned, trajectory 17456 (row 1072 of
    # block 1) blows up first, at step 47.  At eps 0.3 it has left the tube
    # by the prune point at step 32, and the first blow-up is trajectory
    # 16516's, at step 61, a trajectory the block still steps
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        runaway = PolynomialNonlinearity(coeffs=(0.0, -1.0), p=1, growth_constant=1.0)
    cfg = LatticeConfig(n=0, nu=0.1, lam=0.1, f=runaway, q=NoiseCoefficient.constant(1.0), T=2.0)
    N = 256
    phi = Path(np.zeros((N + 1, 1)), 2.0 / N)
    first = tube.TUBE_BLOCK_SIZE
    blown = {}
    for eps in (100.0, 0.3):
        exp = TubeExperiment(cfg=cfg, phi=phi, eps=(eps,), samples=2000, seed=1)
        with pytest.raises(IntegrationError) as err, np.errstate(over="ignore", invalid="ignore"):
            _block_distances(exp, 1, 2000)
        blown[eps] = (err.value.trajectory, err.value.step)
    assert blown == {100.0: (first + 1072, 47), 0.3: (first + 132, 61)}
    assert type(blown[0.3][0]) is int
    with np.errstate(over="ignore", invalid="ignore"):
        second_stage = matmul_block_distances(exp, 1, 2000)[2][1]
    assert second_stage[132] and not second_stage[1072]


def test_a_block_whose_trajectories_all_leave_stops_drawing(monkeypatch):
    calls = []

    def recording(u0, increments, *args):
        calls.append(increments.shape)
        return euler_maruyama(u0, increments, *args)

    monkeypatch.setattr(tube, "euler_maruyama", recording)
    N = 128
    phi = Path(np.ones((N + 1, 1)), 1.0 / N)
    exp = TubeExperiment(cfg=scalar_cfg(), phi=phi, eps=(0.01,), samples=200, seed=3)
    num_sq, den_sq = _block_distances(exp, 0, 200)
    assert calls == [(200, steps, 1) for k0, steps in chunks(N) if k0 < _TUBE_STAGE_STEPS]  # the first stage's chunks
    assert np.all(num_sq > 1e-4) and np.all(den_sq > 1e-4)


def test_pruning_block_holds_no_more_memory_than_one_that_prunes_nothing():
    # every stage draws into a prefix of the block's one buffer
    def traced_peak(eps, N=256, count=2048):
        phi = Path(np.zeros((N + 1, 1)), 1.0 / N)
        exp = TubeExperiment(cfg=scalar_cfg(), phi=phi, eps=(eps,), samples=count, seed=4)
        tracemalloc.start()
        try:
            num_sq, den_sq = _block_distances(exp, 0, count)
            return tracemalloc.get_traced_memory()[1], np.mean((num_sq <= eps**2) | (den_sq <= eps**2))
        finally:
            tracemalloc.stop()

    traced_peak(10.0)  # leaves out what only a first call allocates
    (pruning, kept), (whole, all_kept) = traced_peak(0.3), traced_peak(10.0)
    assert kept < 0.5 and all_kept == 1.0
    assert pruning <= whole, (pruning, whole)


def test_block_memory_does_not_grow_with_the_number_of_steps():
    # a block holds its increments a fixed number of steps at a time, so
    # its peak memory is set by its size, not by N
    def traced_peak(N, count=2048):
        phi = Path(np.zeros((N + 1, 1)), 1.0 / N)
        exp = TubeExperiment(cfg=scalar_cfg(), phi=phi, eps=(0.3,), samples=count, seed=4)
        tracemalloc.start()
        try:
            _block_distances(exp, 0, count)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = traced_peak(256), traced_peak(4096)
    assert long <= short + 2**16, (short, long)


def test_a_block_holds_no_more_memory_than_a_half_size_block_at_a_32_step_chunk(monkeypatch):
    # a full block pays for its rows with a short chunk: at the default
    # chunk, its traced peak stays within that of a half-size block drawn
    # 32 steps at a time.  A 16-step chunk would not
    def traced_peak(count, N=64):
        phi = Path(np.zeros((N + 1, 1)), 1.0 / N)
        exp = TubeExperiment(cfg=scalar_cfg(), phi=phi, eps=(10.0,), samples=count, seed=4)
        tracemalloc.start()
        try:
            _block_distances(exp, 0, count)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    size = tube.TUBE_BLOCK_SIZE
    traced_peak(size // 2)  # leaves out what only a first call allocates
    block = traced_peak(size)
    monkeypatch.setattr(tube, "_TUBE_CHUNK_STEPS", 16)
    longer_chunk = traced_peak(size)
    monkeypatch.setattr(tube, "_TUBE_CHUNK_STEPS", 32)
    half_block = traced_peak(size // 2)
    assert block <= half_block < longer_chunk, (block, half_block, longer_chunk)


class TestTubeRatio:
    def test_zero_action_ratio_near_one(self):
        cfg = scalar_cfg()
        N = 256
        phi = Path(np.zeros((N + 1, 1)), 1.0 / N)
        exp = TubeExperiment(cfg=cfg, phi=phi, eps=(0.3, 0.2), samples=60_000, seed=1)
        table = tube_ratio(exp)
        assert table.predicted == 1.0
        assert om_action(phi, cfg).total == 0.0
        for j in range(2):
            assert table.ci_lo[j] <= 1.0 <= table.ci_hi[j]

    def test_hits_monotone_in_radius(self):
        cfg = scalar_cfg()
        N = 128
        phi = Path(np.zeros((N + 1, 1)), 1.0 / N)
        exp = TubeExperiment(cfg=cfg, phi=phi, eps=(0.5, 0.35, 0.25), samples=30_000, seed=3)
        table = tube_ratio(exp)
        assert table.num_hits[0] >= table.num_hits[1] >= table.num_hits[2]
        assert table.den_hits[0] >= table.den_hits[1] >= table.den_hits[2]

    def test_nonzero_reference_log_ratio_tracks_action(self):
        cfg = scalar_cfg()
        N = 256
        ts = np.linspace(0.0, 1.0, N + 1)
        phi = Path(0.8 * np.sin(np.pi * ts / 2)[:, None], 1.0 / N)
        exp = TubeExperiment(cfg=cfg, phi=phi, eps=(0.3, 0.2), samples=150_000, seed=2)
        table = tube_ratio(exp)
        target = -0.5 * om_action(phi, cfg).total
        smallest = int(np.argmin(table.eps))
        assert table.num_hits[smallest] >= 50
        log_ratio = np.log(table.ratio[smallest])
        assert abs(log_ratio - target) / abs(target) <= 0.25

    def test_doubling_q_shifts_prediction_and_trend(self):
        N = 256
        ts = np.linspace(0.0, 1.0, N + 1)
        phi = Path(0.8 * np.sin(np.pi * ts / 2)[:, None], 1.0 / N)
        tables, actions = {}, {}
        for qval in (1.0, 2.0):
            cfg = scalar_cfg(q=qval)
            exp = TubeExperiment(cfg=cfg, phi=phi, eps=(0.6,), samples=60_000, seed=5)
            tables[qval] = tube_ratio(exp)
            actions[qval] = om_action(exp.phi, exp.cfg).total
        a1, a2 = actions[1.0], actions[2.0]
        assert a2 == pytest.approx(a1 / 4.0, rel=1e-12)
        # weaker relative penalty -> ratio moves toward 1, matching the sign
        assert tables[2.0].ratio[0] > tables[1.0].ratio[0]
        assert tables[2.0].predicted > tables[1.0].predicted

    def test_statistical_power_error(self):
        cfg = scalar_cfg()
        N = 64
        phi = Path(np.zeros((N + 1, 1)), 1.0 / N)
        exp = TubeExperiment(cfg=cfg, phi=phi, eps=(0.05,), samples=300, seed=1)
        with pytest.raises(StatisticalPowerError):
            tube_ratio(exp)

    def test_deterministic(self):
        cfg = scalar_cfg()
        N = 64
        phi = Path(np.zeros((N + 1, 1)), 1.0 / N)
        exp = TubeExperiment(cfg=cfg, phi=phi, eps=(0.4,), samples=20_000, seed=8)
        t1 = tube_ratio(exp)
        t2 = tube_ratio(exp)
        np.testing.assert_array_equal(t1.num_hits, t2.num_hits)
        np.testing.assert_array_equal(t1.den_hits, t2.den_hits)

    def test_mismatched_reference_rejected(self):
        cfg = scalar_cfg()
        phi = Path(np.zeros((9, 3)), 0.125)
        with pytest.raises(ConfigurationError):
            TubeExperiment(cfg=cfg, phi=phi, eps=(0.3,), samples=100)

    @pytest.mark.parametrize("eps", [(), (0.0,), (0.3, -0.1), (np.nan, 0.3), (0.3, np.nan), (np.inf,)])
    def test_bad_radius_rejected(self, eps):
        # a nan radius would set the prune cutoff to nan and drop every
        # trajectory at the first prune point
        phi = Path(np.zeros((9, 1)), 0.125)
        with pytest.raises(ConfigurationError, match="radii"):
            TubeExperiment(cfg=scalar_cfg(), phi=phi, eps=eps, samples=100)

    def test_more_than_three_sites_rejected(self):
        # the observer's in-order site sum equals np.sum(axis=1) only for
        # d <= 7, so the experiment itself keeps d <= 3
        cfg = LatticeConfig(n=2, nu=0.1, lam=0.4, f=LINEAR, q=NoiseCoefficient.constant(1.0), T=1.0)
        phi = Path(np.zeros((9, 5)), 0.125)
        with pytest.raises(ConfigurationError, match="n <= 1"):
            TubeExperiment(cfg=cfg, phi=phi, eps=(0.3,), samples=100)


class TestPlainDenominator:
    def test_plain_variant_runs_and_differs(self):
        cfg = scalar_cfg()
        N = 128
        phi = Path(np.zeros((N + 1, 1)), 1.0 / N)
        conv = tube_ratio(
            TubeExperiment(cfg=cfg, phi=phi, eps=(0.5,), samples=30_000, seed=6)
        )
        plain = tube_ratio(
            TubeExperiment(cfg=cfg, phi=phi, eps=(0.5,), samples=30_000, seed=6, denominator="plain")
        )
        # same increments drive both; the undamped reference wanders
        # further, so its tube hits can only decrease
        assert plain.den_hits[0] < conv.den_hits[0]
        assert np.isfinite(plain.ratio[0])
        # which trajectories are pruned depends on the denominator; over one
        # stage nothing is pruned, and the solution ensembles are the same
        short = Path(np.zeros((_TUBE_STAGE_STEPS + 1, 1)), 1.0 / _TUBE_STAGE_STEPS)
        nums = [
            _block_distances(TubeExperiment(cfg=cfg, phi=short, eps=(0.5,), samples=3000, seed=6,
                                            denominator=kind), 0, 3000)[0]
            for kind in ("convolution", "plain")
        ]
        np.testing.assert_array_equal(nums[0], nums[1])


def test_log_ratio_flattens_toward_prediction():
    # the radius-dependent normalization cancels in the ratio, so the
    # log-ratio approaches the action prediction as the tube shrinks.  At
    # eps 0.3 and 0.2 the gap is as small as its Monte Carlo error, so the
    # two are not ordered against each other: both lie below the gap at
    # 0.4, and the smallest tube's gap is small in absolute terms (the
    # plain denominator leaves about 0.2 there)
    cfg = scalar_cfg()
    N = 512
    ts = np.linspace(0.0, 1.0, N + 1)
    phi = Path(0.8 * np.sin(np.pi * ts / 2)[:, None], 1.0 / N)
    exp = TubeExperiment(cfg=cfg, phi=phi, eps=(0.4, 0.3, 0.2), samples=400_000, seed=2)
    table = tube_ratio(exp)
    target = -0.5 * om_action(phi, cfg).total
    gaps = [abs(np.log(table.ratio[j]) - target) for j in range(3)]
    assert gaps[0] > gaps[1] and gaps[0] > gaps[2]
    assert gaps[2] < 0.1


def test_prediction_does_not_depend_on_rho():
    # rho weighs the tube distance and nothing else: scaling rho by c
    # scales every distance by c, so the counts at radius c eps are those
    # at eps, and the prediction exp(-S/2) must not move either
    N = 32
    ts = np.linspace(0.0, 1.0, N + 1)
    phi = Path(np.outer(np.sin(np.pi * ts / 2), [0.8, 0.5, -0.3]), 1.0 / N)
    tables = []
    for rho, c in ((np.ones(3), 1.0), (np.full(3, 3.0), 3.0), (np.array([0.5, 1.0, 2.0]), 1.0)):
        cfg = LatticeConfig(n=1, nu=0.1, lam=0.4, f=CUBIC, q=NoiseCoefficient.affine(0.5, 2.0), T=1.0, rho=rho)
        exp = TubeExperiment(cfg=cfg, phi=phi, eps=(c * 10.0, c * 1.2), samples=2000, seed=4)
        tables.append(tube_ratio(exp))
    uniform, scaled, mixed = tables
    assert scaled.predicted == uniform.predicted == mixed.predicted < 1.0
    np.testing.assert_array_equal(scaled.num_hits, uniform.num_hits)
    np.testing.assert_array_equal(scaled.den_hits, uniform.den_hits)



def test_log_ratio_under_non_uniform_rho_is_nearer_the_rho_free_prediction():
    # d = 3, rho = (0.5, 1, 2), f = 0, q = 1: -S/2 is -0.643, and an action
    # that weighted the residuals by rho^2 would give -1.125.  Over seeds
    # 0-29 the log ratio at eps 0.6 lies in [-0.67, -0.45], nearer the
    # first on every seed (0.4-0.6 s a run on 2 vCPUs).
    rho = np.array([0.5, 1.0, 2.0])
    cfg = LatticeConfig(n=1, nu=0.1, lam=0.4, f=LINEAR, q=NoiseCoefficient.constant(1.0), T=1.0, rho=rho)
    N = 128
    ts = np.linspace(0.0, 1.0, N + 1)
    phi = Path(0.5 * np.sin(np.pi * ts / 2)[:, None] * np.ones(3), 1.0 / N)
    table = tube_ratio(TubeExperiment(cfg=cfg, phi=phi, eps=(0.6,), samples=32768, seed=5))
    log_ratio = np.log(table.ratio[0])
    weighted = -0.5 * phi.dt * np.sum((rho * residuals(phi, cfg)) ** 2)
    assert abs(log_ratio - np.log(table.predicted)) < abs(log_ratio - weighted)
