"""Command-line entry point.

Subcommands: ``simulate`` (sample trajectories), ``mpp`` (most-probable
path between fixed endpoints), ``om`` (action of a stored path CSV), and
``verify <experiment>`` for the desk-scale checks (kl, cocycle,
truncation, bound, smallball, tube).  One config file defines the
problem; experiment options are flags.  Each command has a check phase
(:func:`_check` and its ``_plan_*`` hook), which reads the flags, the
config and the input files, runs every library check and returns a plan,
and a run phase (``_run_*``), which computes and writes.  Only
:func:`main` opens the run between the two, writing manifest.json into
the output directory before any data file, so a rejected run creates no
directory.  It rewrites the manifest once at the end of the run,
finished or failed, with the wall clock, status, exit code and error;
reruns with identical inputs produce byte-identical CSVs.

Exit codes: 0 success, 2 configuration error (a size too large for
memory included, and for ``mpp`` an installed scipy whose LAPACK it
cannot bind), 3 numerical failure (blow-up or non-convergence),
4 insufficient statistical power.
"""
from __future__ import annotations

import argparse
import math
import platform
import sys
import time
from operator import itemgetter
from pathlib import Path as FsPath
from types import SimpleNamespace

import numpy as np
import scipy

from . import __version__
from .action import _check_path, om_action
from .config import config_hash, load_config
from .errors import (
    ConfigurationError,
    IntegrationError,
    OmlatError,
    StatisticalPowerError,
)
from .io import format_float as _f, parse_floats, read_csv, read_path_csv, write_csv, write_json, write_path_csv
from .kl import _check_truncation, kl_spectrum, smallball_mc, smallball_rates
from .mpp import BVPSpec, RecordRow, _bind_lapack, _solve_bytes, solve_mpp
from .noise import _MAX_STEPS, _MAX_TRAJECTORIES, sample_noise, wq_path
from .paths import Path
from .sde import apriori_bound_check, cocycle_check, integrate_ensemble, truncation_tail
from .tube import TubeExperiment, tube_ratio
from .utils import check_count, check_memory as _check_memory, check_scale, worker_count

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_POWER = 4

#: Largest residual ``verify kl`` accepts, relative to max(1, gamma_i / lambda):
#: the residual is the difference of two terms of that size.
_KL_RESIDUAL_TOL = 1e-12


def parse_state_spec(raw: str, n: int) -> np.ndarray:
    """Boundary/initial state grammar: ``zero`` | ``gauss:<amp>,<sigma>``
    | ``csv:<path>`` (single-row CSV of 2n+1 finite values)."""
    d = 2 * n + 1
    kind, _, rest = raw.strip().partition(":")
    if raw.strip() == "zero":
        return np.zeros(d)
    if kind == "gauss":
        amp, sigma = parse_floats(rest, "gauss state spec <amp>,<sigma>", 2)
        width = 2.0 * (sigma * sigma)  # sigma**2 raises OverflowError
        if not (sigma > 0 and 0 < width < math.inf):
            raise ConfigurationError(f"gauss state spec {raw!r}: sigma must be positive with 2 sigma^2 in (0, inf)")
        i = np.arange(-n, n + 1)
        with np.errstate(over="ignore"):  # exp(-inf) = 0 is the profile's limit
            return amp * np.exp(-(i**2) / width)
    if kind == "csv":
        _, data = read_csv(rest, "state file")
        if data.shape[0] != 1:
            raise ConfigurationError(f"state file {rest}: expected one row, got {data.shape[0]}")
        if data.size != d:
            raise ConfigurationError(f"state file {rest}: expected {d} values, got {data.size}")
        return data[0]
    raise ConfigurationError(f"unknown state spec {raw!r}")


def _check(args) -> SimpleNamespace:
    """The check phase; computes and writes nothing.  The plan it returns
    is the flags, with the config as ``cfg``, the ``--dt`` grid as
    ``steps`` of ``dt`` (``grid`` says what set it), states for the state
    flags and ``--eps`` as ``radii``; the command's hook adds the rest.
    A grid has at most :data:`_MAX_STEPS` steps, and the command's peak on
    it must fit in memory."""
    flags = vars(args)
    plan = SimpleNamespace(**flags)
    if not 0 <= args.seed < 2**64:
        raise ConfigurationError(f"--seed must lie in [0, 2^64), got {args.seed}")
    if "config" in flags:
        plan.cfg = cfg = load_config(args.config)
    if "ensemble" in flags:
        check_count(args.ensemble, "--ensemble")
        if args.ensemble > _MAX_TRAJECTORIES:
            raise ConfigurationError(
                f"--ensemble={args.ensemble} is more than the 2^24 trajectories the noise keys address"
            )
    if "dt" in flags:
        dt = args.dt
        if dt is None:
            steps, plan.grid = args.default_steps, f"the default {args.default_steps} steps (no --dt)"
        else:
            if not (math.isfinite(dt) and dt > 0):
                raise ConfigurationError(f"--dt must be a positive finite step, got {dt}")
            if not cfg.T / dt < _MAX_STEPS + 0.5:  # an overflow to inf fails this too
                raise ConfigurationError(f"--dt={dt} gives more than 2^32 steps on the horizon T={cfg.T}")
            steps = int(round(cfg.T / dt))
            if steps < 1 or abs(steps * dt - cfg.T) > 1e-9 * max(1.0, cfg.T):
                raise ConfigurationError(f"--dt={dt} does not divide the horizon T={cfg.T}")
            plan.grid = f"--dt={dt} gives {steps} steps"
        plan.steps, plan.dt = steps, cfg.T / steps
        if args.peak:
            what = f"the run's peak of {args.peak} trajectories of {cfg.d} sites"
            _check_memory(8 * args.peak * (steps + 1) * cfg.d, plan.grid, what)
    for name in ("u0", "phi0", "phiT"):
        if name in flags:
            try:
                setattr(plan, name, parse_state_spec(flags[name], cfg.n))
            except ConfigurationError as exc:
                raise ConfigurationError(f"--{name}: {exc}") from None
    if "samples" in flags:
        check_count(args.samples, "--samples")
    if "eps" in flags:
        plan.radii = parse_floats(args.eps, "--eps")
        check_scale(plan.radii, "--eps")
    args.phases[0](plan)
    return plan


def _prepare_out(args, plan, check_s: float) -> tuple:
    """Open the run: create ``--out`` and write its manifest, with the
    worker thread count, the Python, numpy and scipy versions, the plan's
    grid and the check phase's wall clock ``check_s``.  Returns the
    directory and the manifest, which ``main`` completes at the end."""
    out = FsPath(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"--out {out}: cannot create the output directory ({exc})") from exc
    flags = {k: v for k, v in vars(args).items() if k not in ("phases", "default_steps", "peak")}
    if "steps" in vars(plan):
        flags.update(dt=plan.dt, steps=plan.steps)
    config = flags.get("config")
    payload = {
        "subcommand": f"verify-{args.experiment}" if args.command == "verify" else args.command,
        "config": config,
        "config_hash": config_hash(config) if config else None,
        "seed": args.seed,
        "out": str(out),
        "version": __version__,
        "threads": worker_count(),
        "versions": {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__},
        "args": flags,
        "check_s": check_s,
    }
    write_json(out / "manifest.json", payload)
    return out, payload


def _run_simulate(plan, out) -> int:
    cfg = plan.cfg
    summary = {"trajectories": [], "steps": plan.steps, "dt": plan.dt}
    # map keeps no noise view, which would hold its group while the next is stepped
    paths = map(itemgetter(1), integrate_ensemble(plan.u0, plan.seed, plan.ensemble, plan.steps, cfg))
    for j, path in enumerate(paths):
        name = f"path_{j:03d}.csv"
        write_path_csv(path, out / name)
        # each state's weighted_norm, from one product per trajectory
        norms = [math.sqrt(row.dot(row)) for row in cfg.rho * path.states]
        summary["trajectories"].append(
            {"index": j, "file": name, "sup_norm": max(norms), "final_norm": norms[-1]}
        )
    write_json(out / "summary.json", summary)
    print(f"simulate: wrote {plan.ensemble} trajectories to {out}")
    return EXIT_OK


def _plan_mpp(plan) -> None:
    cfg = plan.cfg
    _check_memory(_solve_bytes(plan.steps, cfg.d), plan.grid, f"the solver's band and work arrays for {cfg.d} sites")
    plan.sites = _parse_slice(plan.slice, cfg.n) if plan.slice else []
    plan.spec = BVPSpec(
        cfg=cfg, phi0=plan.phi0, phiT=plan.phiT, steps=plan.steps,
        max_iterations=plan.max_iter, gradient_tol=plan.tol, newton=plan.newton,
    )
    try:
        _bind_lapack()
    except ImportError as exc:
        raise ConfigurationError(f"mpp cannot call LAPACK: {exc}") from exc


def _run_mpp(plan, out) -> int:
    result = solve_mpp(plan.spec)
    write_path_csv(result.path, out / "mpp_path.csv")
    write_json(out / "om_report.json", result.action.as_dict())
    write_csv(
        out / "convergence.csv",
        ",".join(("iteration", *RecordRow._fields)),
        [(k, *row) for k, row in enumerate(result.record)],
    )
    for i in plan.sites:
        write_csv(
            out / f"slice_i{i}.csv",
            f"t,u_{i}",
            zip(result.path.times, result.path.states[:, i + plan.cfg.n]),
        )
    status = "converged" if result.converged else "NOT converged"
    print(
        f"mpp: {status} after {result.iterations} iterations, "
        f"action={_f(result.action.total)}, grad={result.record[-1].gradient_norm:.3e}"
    )
    return EXIT_OK if result.converged else EXIT_NUMERICAL


def _parse_slice(raw: str, n: int) -> list:
    """Sites named by a ``--slice`` spec such as ``i=0,10``, each checked
    against the lattice -n..n; an empty site is rejected."""
    body = raw.strip()
    if body.startswith("i="):
        body = body[2:]
    try:
        sites = [int(tok) for tok in body.split(",")]
    except ValueError as exc:
        raise ConfigurationError(f"--slice {raw!r}: expected sites such as i=0,10") from exc
    for i in sites:
        if abs(i) > n:
            raise ConfigurationError(f"--slice: site {i} outside -{n}..{n}")
    return sites


def _plan_om(plan) -> None:
    plan.path = read_path_csv(plan.path)
    _check_path(plan.path, plan.cfg)


def _run_om(plan, out) -> int:
    report = om_action(plan.path, plan.cfg)
    write_json(out / "om_report.json", report.as_dict())
    print(f"om: drift={_f(report.drift_term)} trace={_f(report.trace_term)} total={_f(report.total)}")
    return EXIT_OK


def _plan_kl(plan) -> None:
    check_scale(plan.lam, "--lambda")
    check_count(plan.m, "--m")
    # the peak holds six doubles an eigenpair: the spectrum's four, the
    # residual and the residual check's one buffer; the CSV is written row
    # by row.  49.8 bytes an eigenpair at m = 50 000 and 53.9 at m = 15 000
    # (tracemalloc), about 90 kB more than the six whatever m: seven counted
    _check_memory(56 * plan.m, f"--m={plan.m}", "the spectrum with its residuals")


def _run_kl(plan, out) -> int:
    spec = kl_spectrum(plan.lam, plan.m)
    res = spec.residuals()
    write_csv(
        out / "kl_spectrum.csv",
        "i,gamma,mu,A,residual",
        ((i + 1, spec.gamma[i], spec.mu[i], spec.A[i], res[i]) for i in range(plan.m)),
    )
    print(f"verify kl: m={plan.m} max residual {res.max():.3e}")
    scaled = np.divide(spec.gamma, plan.lam)  # res / max(1, gamma / lambda), in place
    np.maximum(scaled, 1.0, out=scaled)
    if np.max(np.divide(res, scaled, out=scaled)) > _KL_RESIDUAL_TOL:
        print(f"verify kl: a residual exceeds {_KL_RESIDUAL_TOL:g} max(1, gamma_i / lambda)", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _plan_cocycle(plan) -> None:
    # restarts at steps N//4 and N//2: below 4 steps one is t = 0, where no deviation can show
    if plan.steps < 4:
        raise ConfigurationError(f"{plan.grid}: verify cocycle needs at least 4 steps to restart after t = 0")


def _run_cocycle(plan, out) -> int:
    noise = sample_noise(plan.seed, plan.steps, plan.cfg.d, plan.dt)
    # restart at grid steps, so every --dt grid has them
    starts = [m * noise.dt for m in (plan.steps // 4, plan.steps // 2)]
    devs = cocycle_check(plan.u0, noise, starts, plan.cfg)
    for s, dev in zip(starts, devs):
        print(f"verify cocycle: s={s:g} deviation={dev:.3e}")
    write_csv(out / "cocycle.csv", "s,deviation", zip(starts, devs))
    return EXIT_OK if max(devs) <= 1e-12 else EXIT_NUMERICAL


def _plan_truncation(plan) -> None:
    cfg = plan.cfg
    if cfg.n < 1:
        raise ConfigurationError(f"truncation needs n >= 1 (cutoffs K = 1..n), config has n={cfg.n}")
    plan.wide = cfg.widened(2 * cfg.n)


def _run_truncation(plan, out) -> int:
    cfg, wide = plan.cfg, plan.wide
    # a bump on the sites |i| <= min(2, n), on the widened lattice and on its centre
    i = np.arange(-wide.n, wide.n + 1)
    u0 = np.where(np.abs(i) <= min(2, cfg.n), 1.0 / (1.0 + i * i), 0.0)
    # one noise draw per trajectory, on the widened lattice; the lattice cut at n steps on its centre columns
    pairs = integrate_ensemble(u0, plan.seed, plan.ensemble, plan.steps, wide, centre=(u0[cfg.n : 3 * cfg.n + 1], cfg))
    cutoffs = range(1, cfg.n + 1)
    tails, tails_wide, msd = truncation_tail(pairs, cutoffs, cfg.rho, wide.rho)
    write_csv(out / "truncation.csv", "K,tail,tail_wide", zip(cutoffs, tails, tails_wide))
    monotone = all(x >= y for x, y in zip(tails, tails[1:]))
    print(f"verify truncation: tails monotone={monotone}, mean-square diff to 2n: {msd:.3e}")
    return EXIT_OK if monotone else EXIT_NUMERICAL


def _run_bound(plan, out) -> int:
    cfg = plan.cfg
    ensemble = integrate_ensemble(plan.u0, plan.seed, plan.ensemble, plan.steps, cfg)
    # map keeps no noise view, which would hold its group while the next is stepped
    report = apriori_bound_check(map(lambda pair: (pair[1], wq_path(pair[0], cfg.q)), ensemble), cfg)
    rows = zip(range(plan.ensemble), report.lhs, report.rhs, report.ratios)
    write_csv(out / "bound.csv", "trajectory,sup_norm_sq,bound_functional,ratio", rows)
    print(f"verify bound: max empirical ratio {report.max_ratio:.4g} over {plan.ensemble} paths")
    return EXIT_OK


def _plan_smallball(plan) -> None:
    if not all(0.0 < e <= 1.0 for e in plan.radii):
        raise ConfigurationError(f"--eps: radii must lie in (0, 1], got {plan.eps!r}")
    plan.rates = smallball_rates(plan.alpha)
    _check_truncation(plan.alpha, plan.imax, min(plan.radii), "--imax")
    # bytes per coordinate: 16 for the weights, at most 20 for each worker's draws (tracemalloc)
    nbytes = (16 + 20 * worker_count()) * plan.imax
    _check_memory(nbytes, f"--imax={plan.imax}", "the small-ball weights with each worker's draws")


def _run_smallball(plan, out) -> int:
    eps = plan.radii
    res = smallball_mc(plan.alpha, plan.imax, eps, plan.samples, seed=plan.seed)
    rows = [(e, res.estimates[j], res.ci_lo[j], res.ci_hi[j], *plan.rates) for j, e in enumerate(eps)]
    write_csv(out / "smallball.csv", "eps,estimate,ci_lo,ci_hi,rate_up,rate_low", rows)
    print("verify smallball: " + " ".join(f"P({e:g})={res.estimates[j]:.3e}" for j, e in enumerate(eps)))
    return EXIT_OK


def _plan_tube(plan) -> None:
    cfg, steps = plan.cfg, plan.steps
    kind, _, rest = plan.reference.partition(":")
    if plan.reference == "zero":
        states = np.zeros((steps + 1, cfg.d))
    elif kind == "sine":
        amps = parse_floats(rest, "--reference sine")
        if len(amps) > 1:
            raise ConfigurationError(f"--reference sine takes at most one amplitude, got {rest!r}")
        amp = (amps or [0.5])[0]
        ts = np.linspace(0.0, cfg.T, steps + 1)
        states = amp * np.sin(np.pi * ts / (2.0 * cfg.T))[:, None] * np.ones(cfg.d)[None, :]
    else:
        raise ConfigurationError(f"--reference {plan.reference!r}: expected zero or sine:<amp>")
    plan.exp = TubeExperiment(
        cfg=cfg, phi=Path(states, plan.dt), eps=tuple(plan.radii), samples=plan.samples, seed=plan.seed,
        denominator=plan.denominator,
    )


def _run_tube(plan, out) -> int:
    table = tube_ratio(plan.exp)
    write_csv(
        out / "tube.csv",
        "eps,num_hits,den_hits,ratio,ci_lo,ci_hi,predicted",
        [
            (table.eps[j], int(table.num_hits[j]), int(table.den_hits[j]),
             table.ratio[j], table.ci_lo[j], table.ci_hi[j], table.predicted)
            for j in range(len(table.eps))
        ],
    )
    print(
        f"verify tube: predicted={table.predicted:.4f} "
        + " ".join(f"ratio({e:g})={table.ratio[j]:.4f}" for j, e in enumerate(table.eps))
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="omlat", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"omlat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run, hook=lambda plan: None, config=True, steps=None, peak=None):
        """The run phase ``run``, the check hook ``hook``, and the shared
        flags: ``--config`` unless ``config`` is false, ``--seed``,
        ``--out``, and ``--dt`` when the default grid has ``steps`` steps,
        on which the run holds at most ``peak`` trajectories of states
        (tracemalloc, rounded up; mpp's hook counts its solve)."""
        if config:
            p.add_argument("--config", required=True, help="problem config file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="out", help="output directory")
        if steps:
            p.add_argument("--dt", type=float, default=None, help="time step (must divide T)")
            p.set_defaults(default_steps=steps, peak=peak)
        p.set_defaults(phases=(hook, run))

    p = sub.add_parser("simulate", help="integrate trajectories of the lattice system")
    common(p, _run_simulate, steps=1024, peak=5)
    p.add_argument("--ensemble", type=int, default=1, help="number of trajectories")
    p.add_argument("--u0", default="gauss:0.6,8", help="initial state: zero|gauss:<amp>,<sigma>|csv:<path>")

    p = sub.add_parser("mpp", help="most-probable path between fixed endpoints")
    common(p, _run_mpp, _plan_mpp, steps=600)
    p.add_argument("--phi0", default="gauss:0.6,8", help="state at t=0")
    p.add_argument("--phiT", default="zero", help="state at t=T")
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--tol", type=float, default=None, help="gradient tolerance (default 1e-8 d N)")
    p.add_argument("--newton", action="store_true", help="full Newton steps")
    p.add_argument("--slice", default=None, help="site slices to export, e.g. i=0,10")

    p = sub.add_parser("om", help="action of a stored path CSV")
    common(p, _run_om, _plan_om)  # no --dt: the grid is the path CSV's
    p.add_argument("--path", required=True, help="path CSV (as written by simulate/mpp)")

    p = sub.add_parser("verify", help="desk-scale verification experiments")
    vsub = p.add_subparsers(dest="experiment", required=True)

    v = vsub.add_parser("kl", help="covariance eigenpairs and root residuals")
    common(v, _run_kl, _plan_kl, config=False)
    v.add_argument("--lambda", dest="lam", type=float, default=0.4)
    v.add_argument("--m", type=int, default=50)

    v = vsub.add_parser("cocycle", help="flow consistency under the noise shift")
    common(v, _run_cocycle, _plan_cocycle, steps=512, peak=5)
    v.add_argument("--u0", default="gauss:0.6,8")

    v = vsub.add_parser("truncation", help="tail statistics and widening comparison")
    common(v, _run_truncation, _plan_truncation, steps=256, peak=12)
    v.add_argument("--ensemble", type=int, default=200)

    v = vsub.add_parser("bound", help="a priori sup-norm bound over an ensemble")
    common(v, _run_bound, steps=256, peak=10)
    v.add_argument("--ensemble", type=int, default=100)
    v.add_argument("--u0", default="gauss:0.6,8")

    v = vsub.add_parser("smallball", help="weighted chi-square small-ball probabilities")
    common(v, _run_smallball, _plan_smallball, config=False)
    v.add_argument("--alpha", type=float, default=1.0)
    v.add_argument("--imax", type=int, default=12000)
    v.add_argument("--eps", default="0.5,0.4,0.3")
    v.add_argument("--samples", type=int, default=1_000_000)

    v = vsub.add_parser("tube", help="tube-probability ratio against the action prediction")
    common(v, _run_tube, _plan_tube, steps=256, peak=6)
    v.add_argument("--eps", default="0.3,0.2")
    v.add_argument("--samples", type=int, default=100_000)
    v.add_argument("--reference", default="zero", help="zero|sine:<amp>")
    v.add_argument("--denominator", default="convolution", choices=["convolution", "plain"])

    return parser


# Exit code and stderr label of each handled error, most specific first.
_FAILURES = (
    (ConfigurationError, EXIT_CONFIG, "configuration error"),
    (IntegrationError, EXIT_NUMERICAL, "numerical failure"),
    (StatisticalPowerError, EXIT_POWER, "statistical power"),
    (OmlatError, EXIT_NUMERICAL, "error"),
    (MemoryError, EXIT_CONFIG, "out of memory; use smaller sizes"),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    run = code = error = None  # run: (out, manifest payload) once the run is open
    try:
        plan = _check(args)
        run = _prepare_out(args, plan, time.perf_counter() - started)
        code = args.phases[1](plan, run[0])
    except (OmlatError, MemoryError) as exc:
        error = exc
        code, label = next((c, lbl) for cls, c, lbl in _FAILURES if isinstance(exc, cls))
        print(f"{label}: {exc}", file=sys.stderr)
    except BaseException as exc:
        error = exc
        raise
    finally:
        if run is not None:
            out, payload = run
            payload.update(
                wall_clock_s=time.perf_counter() - started,
                status="ok" if code == EXIT_OK else "failed",
                exit_code=code,
                error=None if error is None else {"type": type(error).__name__, "message": str(error)},
            )
            write_json(out / "manifest.json", payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
