"""One pass of a workload in a fresh process.

Usage (started by run.py): ``python3 perfbench/worker.py <spec.json>``.
The spec names the commands, the output root, the clock reading taken
just before this process was started, whether to trace, and whether to
repeat the tube experiment on one thread.  The pass writes its timings,
exit codes, versions and (when traced) spans to the spec's ``result``
file; the commands' own output goes to this process's stdout.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time

# Modules whose public functions the traced run wraps.
LAYERS = ("noise", "lattice", "sde", "action", "mpp", "tube", "kl", "io", "config")
# Generator constructions are counted where the generator class is looked up.
COUNTED = (("noise", "Generator"), ("tube", "Generator"), ("kl", "Generator"))


def _notes(tube_module):
    """Counts kept with a span, derived from argument and result sizes."""
    # Paths per keyed tube block; the tube module may stop naming it once
    # its stepper is rewritten, and the traced run must still work then.
    block = getattr(tube_module, "TUBE_BLOCK_SIZE", 16384)
    return {
        "noise.sample_noise": lambda a, r: {"normals": int(r.increments.size)},
        "sde.integrate": lambda a, r: {"steps": int(r.states.shape[0] - 1)},
        "mpp.solve_mpp": lambda a, r: {"iterations": int(r.iterations)},
        "tube.tube_ratio": lambda a, r: {
            "samples": int(a["exp"].samples),
            "steps": int(a["exp"].phi.steps),
            "d": int(a["exp"].cfg.d),
            "block": int(block),
        },
        "kl.smallball_mc": lambda a, r: {"samples": int(a["samples"]), "block": int(a["block_size"])},
    }


def _run(cli, argv) -> tuple:
    """Exit code of one CLI invocation; an escaped exception counts as a
    failure with its message, so one bad command does not end the pass."""
    try:
        return int(cli.main(argv)), None
    except SystemExit as exc:  # argparse rejects the arguments
        return int(exc.code or 0), f"SystemExit({exc.code})"
    except Exception as exc:  # noqa: BLE001 - recorded and reported as a failed command
        return 1, f"{type(exc).__name__}: {exc}"


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)

    import numpy
    import scipy

    import omlat
    import omlat.cli as cli
    import omlat.config
    import omlat.tube

    for cfg in spec["configs"]:
        omlat.config.load_config(cfg)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spec["t0"]

    recorder = None
    if spec["trace"]:
        import spans

        recorder = spans.Recorder()
        spans.instrument(recorder, "omlat", LAYERS, _notes(omlat.tube), COUNTED)

    commands = []
    started = time.perf_counter()
    for cmd in spec["commands"]:
        t = time.perf_counter()
        code, error = _run(cli, cmd["argv"])
        commands.append({"name": cmd["name"], "exit": code, "error": error, "s": time.perf_counter() - t})
    wall_s = time.perf_counter() - started

    threads1 = None
    if spec.get("threads1"):
        cmd = spec["threads1"]
        os.environ["OMLAT_THREADS"] = "1"
        t = time.perf_counter()
        code, error = _run(cli, cmd["argv"])
        threads1 = {"name": cmd["name"], "exit": code, "error": error, "s": time.perf_counter() - t}

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "commands": commands,
        "threads1": threads1,
        "omlat_file": omlat.__file__,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "omlat": omlat.__version__,
        },
        "spans": recorder.spans if recorder is not None else None,
    }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
