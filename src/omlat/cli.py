"""Command-line entry point.

Subcommands: ``simulate`` (sample trajectories), ``mpp`` (most-probable
path between fixed endpoints), ``om`` (action of a stored path CSV), and
``verify <experiment>`` for the desk-scale checks (kl, cocycle,
truncation, bound, smallball, tube).  One config file defines the
problem; experiment options are flags.  Every run writes manifest.json
into the output directory before any data file, and rewrites it once at
the end of the run, finished or failed, with the wall clock, status,
exit code and error; reruns with identical inputs produce
byte-identical CSVs.

Exit codes: 0 success, 2 configuration error (a size too large for
memory included), 3 numerical failure (blow-up or non-convergence),
4 insufficient statistical power.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from pathlib import Path as FsPath

import numpy as np
import scipy

from . import __version__
from .action import _check_path, om_action
from .config import _parse_float_list, config_hash, load_config
from .errors import (
    ConfigurationError,
    IntegrationError,
    OmlatError,
    StatisticalPowerError,
)
from .io import read_path_csv, write_csv, write_manifest, write_om_json, write_path_csv
from .kl import _check_decay_rate, _check_truncation, kl_spectrum, smallball_mc, smallball_rates
from .lattice import weighted_norm
from .mpp import BVPSpec, RecordRow, _band_shape, solve_mpp
from .noise import sample_noise, wq_path
from .paths import Path
from .sde import apriori_bound_check, cocycle_check, integrate_ensemble, truncation_tail
from .tube import TubeExperiment, tube_ratio
from .utils import check_count, format_float as _f, worker_count

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_POWER = 4

#: Most steps a ``--dt`` grid may have, and most trajectories an
#: ``--ensemble`` may have: the step and trajectory counter ranges of the
#: noise keys (``noise._philox_key``).
_MAX_STEPS = 2**32
_MAX_TRAJECTORIES = 2**24


def parse_state_spec(raw: str, n: int) -> np.ndarray:
    """Boundary/initial state grammar: ``zero`` | ``gauss:<amp>,<sigma>``
    | ``csv:<path>`` (single-row CSV of 2n+1 finite values)."""
    d = 2 * n + 1
    kind, _, rest = raw.strip().partition(":")
    if kind == "zero":
        return np.zeros(d)
    if kind == "gauss":
        parts = _parse_float_list(rest, "gauss state spec")
        if len(parts) != 2:
            raise ConfigurationError("gauss state spec needs <amp>,<sigma>")
        amp, sigma = parts
        if not sigma > 0:
            raise ConfigurationError(f"gauss state spec: sigma must be positive, got {sigma:g}")
        i = np.arange(-n, n + 1)
        return amp * np.exp(-(i**2) / (2.0 * sigma**2))
    if kind == "csv":
        try:
            data = np.loadtxt(rest, delimiter=",", ndmin=1)
        except OSError as exc:
            raise ConfigurationError(f"state file {rest}: {exc}") from exc
        except ValueError as exc:
            raise ConfigurationError(f"state file {rest}: not a CSV of numbers") from exc
        if data.size != d:
            raise ConfigurationError(f"state file {rest}: expected {d} values, got {data.size}")
        if not np.all(np.isfinite(data)):
            raise ConfigurationError(f"state file {rest}: values must be finite")
        return data.astype(float)
    raise ConfigurationError(f"unknown state spec {raw!r}")


def _radii(raw: str) -> list:
    """The ``--eps`` list: at least one number."""
    eps = _parse_float_list(raw, "--eps")
    if not eps:
        raise ConfigurationError(f"--eps: need at least one radius, got {raw!r}")
    return eps


def _check_ensemble(count: int) -> None:
    """``--ensemble`` is at least 1 and at most :data:`_MAX_TRAJECTORIES`."""
    check_count(count, "--ensemble")
    if count > _MAX_TRAJECTORIES:
        raise ConfigurationError(
            f"--ensemble={count} is more than the 2^24 trajectories the noise keys address"
        )


def _check_memory(nbytes: int, dt: float | None, steps: int, what: str) -> None:
    """Reject a ``--dt`` grid of ``steps`` steps on which ``what`` needs
    more than the host's physical memory."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > memory:
        raise ConfigurationError(
            f"--dt={dt} gives {steps} steps: {what} needs {nbytes} bytes, "
            f"more than the {memory} bytes of physical memory"
        )


def _steps_from_dt(T: float, d: int, dt: float | None, default_steps: int) -> int:
    """Steps of the ``--dt`` grid on [0, T]: dt must be positive, finite
    and divide T into at most :data:`_MAX_STEPS` steps, and one trajectory
    of ``d`` states on the grid must fit in the host's physical memory."""
    if dt is None:
        return default_steps
    if not (math.isfinite(dt) and dt > 0):
        raise ConfigurationError(f"--dt must be a positive finite step, got {dt}")
    if not T / dt < _MAX_STEPS + 0.5:  # an overflow to inf fails this too
        raise ConfigurationError(f"--dt={dt} gives more than 2^32 steps on the horizon T={T}")
    steps = int(round(T / dt))
    if steps < 1 or abs(steps * dt - T) > 1e-9 * max(1.0, T):
        raise ConfigurationError(f"--dt={dt} does not divide the horizon T={T}")
    _check_memory(8 * (steps + 1) * d, dt, steps, f"one trajectory of {d} sites")
    return steps


def _prepare_out(args, **derived) -> FsPath:
    """Open the run: create ``--out`` and write its manifest, with the
    worker thread count and the Python, numpy and scipy versions.  ``main``
    closes the run from ``args.run``; ``derived`` holds values the
    handler computed from the flags (the ``--dt`` grid)."""
    out = FsPath(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"--out {out}: cannot create the output directory ({exc})") from exc
    config = getattr(args, "config", None)
    payload = {
        "subcommand": f"verify-{args.experiment}" if args.command == "verify" else args.command,
        "config": config,
        "config_hash": config_hash(config) if config else None,
        "seed": args.seed,
        "out": str(out),
        "version": __version__,
        "threads": worker_count(),
        "versions": {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__},
        "args": {**{k: v for k, v in vars(args).items() if k not in ("func", "run")}, **derived},
    }
    write_manifest(out, payload)
    args.run = (out, payload)
    return out


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    _check_ensemble(args.ensemble)
    steps = _steps_from_dt(cfg.T, cfg.d, args.dt, 1024)
    u0 = parse_state_spec(args.u0, cfg.n)
    out = _prepare_out(args, dt=cfg.T / steps, steps=steps)
    summary = {"trajectories": [], "steps": steps, "dt": cfg.T / steps}
    for j, (_, path) in enumerate(integrate_ensemble(u0, args.seed, args.ensemble, steps, cfg)):
        name = f"path_{j:03d}.csv"
        write_path_csv(path, out / name)
        norms = [weighted_norm(s, cfg.rho) for s in path.states]
        summary["trajectories"].append(
            {"index": j, "file": name, "sup_norm": max(norms), "final_norm": norms[-1]}
        )
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"simulate: wrote {args.ensemble} trajectories to {out}")
    return EXIT_OK


def cmd_mpp(args) -> int:
    cfg = load_config(args.config)
    steps = _steps_from_dt(cfg.T, cfg.d, args.dt, 600)
    band = 8 * math.prod(_band_shape(steps, cfg.d))
    _check_memory(band, args.dt, steps, f"the solver's band for {cfg.d} sites")
    sites = _parse_slice(args.slice, cfg.n) if args.slice else []
    spec = BVPSpec(
        cfg=cfg,
        phi0=parse_state_spec(args.phi0, cfg.n),
        phiT=parse_state_spec(args.phiT, cfg.n),
        steps=steps,
        max_iterations=args.max_iter,
        gradient_tol=args.tol,
        newton=args.newton,
    )
    out = _prepare_out(args, dt=cfg.T / steps, steps=steps)
    result = solve_mpp(spec)
    write_path_csv(result.path, out / "mpp_path.csv")
    write_om_json(result.action, out / "om_report.json")
    write_csv(
        out / "convergence.csv",
        ",".join(("iteration", *RecordRow._fields)),
        [(k, *row) for k, row in enumerate(result.record)],
    )
    for i in sites:
        write_csv(
            out / f"slice_i{i}.csv",
            f"t,u_{i}",
            zip(result.path.times, result.path.states[:, i + cfg.n]),
        )
    status = "converged" if result.converged else "NOT converged"
    print(
        f"mpp: {status} after {result.iterations} iterations, "
        f"action={_f(result.action.total)}, grad={result.record[-1].gradient_norm:.3e}"
    )
    return EXIT_OK if result.converged else EXIT_NUMERICAL


def _parse_slice(raw: str, n: int) -> list:
    """Sites named by a ``--slice`` spec such as ``i=0,10``, each checked
    against the lattice -n..n."""
    body = raw.strip()
    if body.startswith("i="):
        body = body[2:]
    try:
        sites = [int(tok) for tok in body.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigurationError(f"bad slice spec {raw!r}; expected i=0,10") from exc
    for i in sites:
        if abs(i) > n:
            raise ConfigurationError(f"slice site {i} outside -{n}..{n}")
    return sites


def cmd_om(args) -> int:
    cfg = load_config(args.config)
    path = read_path_csv(args.path)
    _check_path(path, cfg)
    out = _prepare_out(args)
    report = om_action(path, cfg)
    write_om_json(report, out / "om_report.json")
    print(
        f"om: drift={_f(report.drift_term)} trace={_f(report.trace_term)} "
        f"total={_f(report.total)}"
    )
    return EXIT_OK


def _verify_kl(args) -> int:
    _check_decay_rate(args.lam, "--lambda")
    check_count(args.m, "--m")
    out = _prepare_out(args)
    spec = kl_spectrum(args.lam, args.m)
    res = spec.residuals()
    write_csv(
        out / "kl_spectrum.csv",
        "i,gamma,mu,A,residual",
        [(i + 1, spec.gamma[i], spec.mu[i], spec.A[i], res[i]) for i in range(args.m)],
    )
    print(f"verify kl: m={args.m} max residual {res.max():.3e}")
    return EXIT_OK


def _verify_cocycle(args) -> int:
    cfg = load_config(args.config)
    steps = _steps_from_dt(cfg.T, cfg.d, args.dt, 512)
    u0 = parse_state_spec(args.u0, cfg.n)
    out = _prepare_out(args, dt=cfg.T / steps, steps=steps)
    noise = sample_noise(args.seed, steps, cfg.d, cfg.T / steps)
    # restart at grid steps, so every --dt grid has them
    starts = [m * noise.dt for m in (steps // 4, steps // 2)]
    devs = cocycle_check(u0, noise, starts, cfg)
    for s, dev in zip(starts, devs):
        print(f"verify cocycle: s={s:g} deviation={dev:.3e}")
    write_csv(out / "cocycle.csv", "s,deviation", zip(starts, devs))
    return EXIT_OK if max(devs) <= 1e-12 else EXIT_NUMERICAL


def _verify_truncation(args) -> int:
    cfg = load_config(args.config)
    if cfg.n < 1:
        raise ConfigurationError(f"truncation needs n >= 1 (cutoffs K = 1..n), config has n={cfg.n}")
    _check_ensemble(args.ensemble)
    steps = _steps_from_dt(cfg.T, cfg.d, args.dt, 256)
    wide = cfg.widened(2 * cfg.n)
    out = _prepare_out(args, dt=cfg.T / steps, steps=steps)
    bump = min(2, cfg.n)

    def run(sub):
        u0 = np.zeros(sub.d)
        for i in range(-bump, bump + 1):
            u0[i + sub.n] = 1.0 / (1.0 + i * i)
        return [path for _, path in integrate_ensemble(u0, args.seed, args.ensemble, steps, sub)]

    paths, paths_wide = run(cfg), run(wide)
    cutoffs = list(range(1, cfg.n + 1))
    rows = []
    for K in cutoffs:
        rows.append(
            (
                K,
                truncation_tail(paths, K, cfg.rho),
                truncation_tail(paths_wide, K, wide.rho),
            )
        )
    write_csv(out / "truncation.csv", "K,tail,tail_wide", rows)
    msd = 0.0
    off = wide.n - cfg.n
    for a, b in zip(paths, paths_wide):
        msd += np.max(np.sum((a.states - b.states[:, off : off + a.d]) ** 2, axis=1))
    msd /= len(paths)
    tails = [r[1] for r in rows]
    monotone = all(x >= y for x, y in zip(tails, tails[1:]))
    print(f"verify truncation: tails monotone={monotone}, mean-square diff to 2n: {msd:.3e}")
    return EXIT_OK if monotone else EXIT_NUMERICAL


def _verify_bound(args) -> int:
    cfg = load_config(args.config)
    _check_ensemble(args.ensemble)
    steps = _steps_from_dt(cfg.T, cfg.d, args.dt, 256)
    u0 = parse_state_spec(args.u0, cfg.n)
    out = _prepare_out(args, dt=cfg.T / steps, steps=steps)
    paths, wqs = [], []
    for noise, path in integrate_ensemble(u0, args.seed, args.ensemble, steps, cfg):
        paths.append(path)
        wqs.append(wq_path(noise, cfg.q))
    report = apriori_bound_check(paths, wqs, cfg)
    write_csv(
        out / "bound.csv",
        "trajectory,sup_norm_sq,bound_functional,ratio",
        [(j, report.lhs[j], report.rhs[j], report.ratios[j]) for j in range(args.ensemble)],
    )
    print(f"verify bound: max empirical ratio {report.max_ratio:.4g} over {args.ensemble} paths")
    return EXIT_OK


def _verify_smallball(args) -> int:
    eps = _radii(args.eps)
    if not all(0.0 < e <= 1.0 for e in eps):
        raise ConfigurationError(f"--eps: radii must lie in (0, 1], got {args.eps!r}")
    rate_up, rate_low = smallball_rates(args.alpha)
    check_count(args.samples, "--samples")
    _check_truncation(args.alpha, args.imax, min(eps), "--imax")
    out = _prepare_out(args)
    res = smallball_mc(args.alpha, args.imax, eps, args.samples, seed=args.seed)
    rows = [
        (e, res.estimates[j], res.ci_lo[j], res.ci_hi[j], rate_up, rate_low)
        for j, e in enumerate(eps)
    ]
    write_csv(out / "smallball.csv", "eps,estimate,ci_lo,ci_hi,rate_up,rate_low", rows)
    print(
        "verify smallball: "
        + " ".join(f"P({e:g})={res.estimates[j]:.3e}" for j, e in enumerate(eps))
    )
    return EXIT_OK


def _verify_tube(args) -> int:
    cfg = load_config(args.config)
    check_count(args.samples, "--samples")
    steps = _steps_from_dt(cfg.T, cfg.d, args.dt, 256)
    eps = tuple(_radii(args.eps))
    kind, _, rest = args.reference.partition(":")
    if kind == "zero":
        states = np.zeros((steps + 1, cfg.d))
    elif kind == "sine":
        amps = _parse_float_list(rest, "--reference sine")
        if len(amps) > 1:
            raise ConfigurationError(f"--reference sine takes at most one amplitude, got {rest!r}")
        amp = (amps or [0.5])[0]
        ts = np.linspace(0.0, cfg.T, steps + 1)
        states = amp * np.sin(np.pi * ts / (2.0 * cfg.T))[:, None] * np.ones(cfg.d)[None, :]
    else:
        raise ConfigurationError(f"unknown tube reference {args.reference!r}")
    exp = TubeExperiment(
        cfg=cfg, phi=Path(states, cfg.T / steps), eps=eps, samples=args.samples, seed=args.seed,
        denominator=args.denominator,
    )
    out = _prepare_out(args, dt=cfg.T / steps, steps=steps)
    table = tube_ratio(exp)
    write_csv(
        out / "tube.csv",
        "eps,num_hits,den_hits,ratio,ci_lo,ci_hi,predicted",
        [
            (table.eps[j], int(table.num_hits[j]), int(table.den_hits[j]),
             table.ratio[j], table.ci_lo[j], table.ci_hi[j], table.predicted)
            for j in range(len(eps))
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

    def common(p, dt=True):
        p.add_argument("--config", required=True, help="problem config file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="out", help="output directory")
        if dt:
            p.add_argument("--dt", type=float, default=None, help="time step (must divide T)")

    p = sub.add_parser("simulate", help="integrate trajectories of the lattice system")
    common(p)
    p.add_argument("--ensemble", type=int, default=1, help="number of trajectories")
    p.add_argument("--u0", default="gauss:0.6,8", help="initial state: zero|gauss:<amp>,<sigma>|csv:<path>")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("mpp", help="most-probable path between fixed endpoints")
    common(p)
    p.add_argument("--phi0", default="gauss:0.6,8", help="state at t=0")
    p.add_argument("--phiT", default="zero", help="state at t=T")
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--tol", type=float, default=None, help="gradient tolerance (default 1e-8 d N)")
    p.add_argument("--newton", action="store_true", help="full Newton steps")
    p.add_argument("--slice", default=None, help="site slices to export, e.g. i=0,10")
    p.set_defaults(func=cmd_mpp)

    p = sub.add_parser("om", help="action of a stored path CSV")
    common(p, dt=False)  # the grid is the path CSV's
    p.add_argument("--path", required=True, help="path CSV (as written by simulate/mpp)")
    p.set_defaults(func=cmd_om)

    p = sub.add_parser("verify", help="desk-scale verification experiments")
    vsub = p.add_subparsers(dest="experiment", required=True)

    v = vsub.add_parser("kl", help="covariance eigenpairs and root residuals")
    v.add_argument("--lambda", dest="lam", type=float, default=0.4)
    v.add_argument("--m", type=int, default=50)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default="out")
    v.set_defaults(func=_verify_kl)

    v = vsub.add_parser("cocycle", help="flow consistency under the noise shift")
    common(v)
    v.add_argument("--u0", default="gauss:0.6,8")
    v.set_defaults(func=_verify_cocycle)

    v = vsub.add_parser("truncation", help="tail statistics and widening comparison")
    common(v)
    v.add_argument("--ensemble", type=int, default=200)
    v.set_defaults(func=_verify_truncation)

    v = vsub.add_parser("bound", help="a priori sup-norm bound over an ensemble")
    common(v)
    v.add_argument("--ensemble", type=int, default=100)
    v.add_argument("--u0", default="gauss:0.6,8")
    v.set_defaults(func=_verify_bound)

    v = vsub.add_parser("smallball", help="weighted chi-square small-ball probabilities")
    v.add_argument("--alpha", type=float, default=1.0)
    v.add_argument("--imax", type=int, default=12000)
    v.add_argument("--eps", default="0.5,0.4,0.3")
    v.add_argument("--samples", type=int, default=1_000_000)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default="out")
    v.set_defaults(func=_verify_smallball)

    v = vsub.add_parser("tube", help="tube-probability ratio against the action prediction")
    common(v)
    v.add_argument("--eps", default="0.3,0.2")
    v.add_argument("--samples", type=int, default=100_000)
    v.add_argument("--reference", default="zero", help="zero|sine:<amp>")
    v.add_argument("--denominator", default="convolution", choices=["convolution", "plain"])
    v.set_defaults(func=_verify_tube)

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
    args.run = None  # (out, manifest payload) once the handler opens its run directory
    started = time.perf_counter()
    code = error = None
    try:
        code = args.func(args)
    except (OmlatError, MemoryError) as exc:
        error = exc
        code, label = next((c, lbl) for cls, c, lbl in _FAILURES if isinstance(exc, cls))
        print(f"{label}: {exc}", file=sys.stderr)
    except BaseException as exc:
        error = exc
        raise
    finally:
        if args.run is not None:
            out, payload = args.run
            payload.update(
                wall_clock_s=time.perf_counter() - started,
                status="ok" if code == EXIT_OK else "failed",
                exit_code=code,
                error=None if error is None else {"type": type(error).__name__, "message": str(error)},
            )
            write_manifest(out, payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
