"""omlat benchmark: runs one workload of CLI commands, checks the outputs,
and prints the metrics as one JSON object on the last line.

    python3 perfbench/run.py --workload mpp-example5 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (``src/omlat``, ``configs/``).
Each pass of a workload is one fresh Python process (perfbench/worker.py)
that imports omlat from ``src`` and runs the workload's commands through
``omlat.cli.main`` one after another.  Passes repeat until ``--seconds``
have been measured; end-to-end metrics are medians over passes.

``--trace 0`` reports the end-to-end metrics (wall_s, setup_s,
peak_rss_mb).  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics from the traced ones; on a workload that
runs the tube experiment its untraced passes repeat it with one thread.
The line before the result holds the details: pinned environment,
per-command times, gate failures and the sha256 of every output CSV.
Outputs go to ``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gates  # noqa: E402
import spans as sp  # noqa: E402
from workloads import GROUPS, WORKLOADS  # noqa: E402

OUT_ROOT = ".bench_out"
# A run must end within 180 s: no pass starts that might not finish by then.
BUDGET_S = 170.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("mpp.solve_mpp.busy_s", "s"), ("mpp.solve_mpp.self_s", "s"),
    ("mpp.iterations", "count"), ("mpp.action_evals", "count"),
    ("action.om_action.calls", "count"), ("action.om_action.busy_s", "s"),
    ("action.om_gradient.calls", "count"), ("action.om_gradient.busy_s", "s"),
    ("noise.sample_noise.calls", "count"), ("noise.sample_noise.busy_s", "s"),
    ("noise.generators", "count"), ("noise.normals", "count"),
    ("sde.integrate.calls", "count"), ("sde.integrate.self_s", "s"), ("sde.em_steps", "count"),
    ("sde.truncation_tail.busy_s", "s"),
    ("lattice.drift.sde.calls", "count"), ("lattice.drift.sde.busy_s", "s"),
    ("tube.tube_ratio.busy_s", "s"), ("tube.blocks", "count"), ("tube.path_steps", "count"),
    ("tube.generators", "count"), ("lattice.drift.tube.busy_s", "s"), ("tube.block_bytes", "B"),
    ("kl.smallball_mc.busy_s", "s"), ("kl.generators", "count"), ("kl.tail_draws", "count"),
    ("io.write_path_csv.calls", "count"), ("io.write_path_csv.busy_s", "s"),
    ("io.bytes_written", "B"), ("io.read_path_csv.busy_s", "s"),
    ("config.load_config.busy_s", "s"),
    ("trace.overhead_s", "s"), ("tube.threads1_s", "s"), ("tube.scaling_eff", "ratio"),
) + tuple((g, "s") for g in GROUPS)


def pinned_env() -> dict:
    """Worker environment: omlat from the checkout's src, omlat's own pool
    sized to the usable CPUs, and single-threaded BLAS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    env["OMLAT_THREADS"] = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def csv_digests(out: str) -> dict:
    digests = {}
    for root, _, files in os.walk(out):
        for f in sorted(files):
            if f.endswith(".csv"):
                p = os.path.join(root, f)
                with open(p, "rb") as fh:
                    digests[os.path.relpath(p, out)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(digests.items()))


def data_bytes(path: str) -> int:
    """Bytes of the data files under ``path``; manifests are left out because
    they carry the wall-clock time."""
    return sum(
        os.path.getsize(os.path.join(r, f)) for r, _, fs in os.walk(path) for f in fs if f != "manifest.json"
    )


def run_pass(base, work, seed, trace, threads1, env, deadline) -> dict:
    """One fresh worker process over the commands of ``work``, then the
    gates and digests of what it wrote under ``base``."""
    out = os.path.join(base, "pass")
    one_thread = os.path.join(base, "tube_threads1")
    for d in (out, one_thread):
        shutil.rmtree(d, ignore_errors=True)
    os.makedirs(out)
    commands = [
        dict(c, argv=[a.format(seed=seed, out=out) for a in c["argv"]]) for c in work["commands"]
    ]
    spec = {
        "configs": work["configs"],
        "commands": commands,
        "trace": trace,
        "threads1": None,
        "result": os.path.join(base, "pass.json"),
    }
    tube = next((c for c in commands if c["name"] == "tube"), None)
    if threads1 and tube is not None:
        argv = list(tube["argv"])
        argv[argv.index("--out") + 1] = one_thread
        spec["threads1"] = dict(tube, name="tube_threads1", argv=argv)
    spec_path = os.path.join(base, "spec.json")
    if os.path.exists(spec["result"]):
        os.remove(spec["result"])
    with open(os.path.join(base, "worker.log"), "w") as log:
        spec["t0"] = time.clock_gettime(time.CLOCK_MONOTONIC)
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                env=env, stdout=log, stderr=subprocess.STDOUT,
                timeout=max(1.0, deadline - time.monotonic()),
            )
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = None
    if code != 0 or not os.path.exists(spec["result"]):
        with open(os.path.join(base, "worker.log")) as fh:
            tail = fh.read()[-2000:]
        return {"crashed": f"worker exit {code}: {tail}", "attempted": len(commands)}
    with open(spec["result"]) as fh:
        res = json.load(fh)

    fails = []
    for cmd in res["commands"]:
        if cmd["exit"] != 0:
            cmd["fails"] = [f"exit {cmd['exit']}" + (f" ({cmd['error']})" if cmd["error"] else "")]
        else:
            cmd["fails"] = gates.GATES[cmd["name"]](os.path.join(out, cmd["name"]), cmd["name"])
        fails += [f"{cmd['name']}: {m}" for m in cmd["fails"]]
    res["gate_failures"] = fails
    res["failed"] = sum(1 for c in res["commands"] if c["fails"])
    res["attempted"] = len(res["commands"])
    res["digests"] = csv_digests(out)
    res["bytes_written"] = data_bytes(out)
    if res["threads1"] is not None:
        t1 = res["threads1"]
        one = csv_digests(one_thread).get("tube.csv")
        if t1["exit"] != 0 or one != res["digests"].get("tube/tube.csv"):
            res["gate_failures"].append("tube.csv with OMLAT_THREADS=1 differs from the pooled run")
    return res


def group_times(work, res) -> dict:
    group_of = {c["name"]: c["group"] for c in work["commands"]}
    times = dict.fromkeys(GROUPS, 0.0)
    for cmd in res["commands"]:
        if group_of[cmd["name"]] is not None:
            times[group_of[cmd["name"]]] += cmd["s"]
    return times


def layer_metrics(spans, bytes_written) -> dict:
    """Per-layer figures of one traced pass (see perfbench/README.md)."""
    tubes = [s[sp.NOTE] for s in spans if s[sp.NAME] == "tube.tube_ratio" and s[sp.NOTE]]
    balls = [s[sp.NOTE] for s in spans if s[sp.NAME] == "kl.smallball_mc" and s[sp.NOTE]]
    kl_generators = sp.calls(spans, "kl.Generator")
    head_blocks = sum(math.ceil(b["samples"] / b["block"]) for b in balls)
    return {
        "mpp.solve_mpp.busy_s": sp.busy(spans, "mpp.solve_mpp"),
        "mpp.solve_mpp.self_s": sp.self_time(spans, "mpp.solve_mpp"),
        "mpp.iterations": sp.note_sum(spans, "mpp.solve_mpp", "iterations"),
        "mpp.action_evals": sp.child_calls(spans, "action.om_action", "mpp.solve_mpp"),
        "action.om_action.calls": sp.calls(spans, "action.om_action"),
        "action.om_action.busy_s": sp.busy(spans, "action.om_action"),
        "action.om_gradient.calls": sp.calls(spans, "action.om_gradient"),
        "action.om_gradient.busy_s": sp.busy(spans, "action.om_gradient"),
        "noise.sample_noise.calls": sp.calls(spans, "noise.sample_noise"),
        "noise.sample_noise.busy_s": sp.busy(spans, "noise.sample_noise"),
        "noise.generators": sp.calls(spans, "noise.Generator"),
        "noise.normals": sp.note_sum(spans, "noise.sample_noise", "normals"),
        "sde.integrate.calls": sp.calls(spans, "sde.integrate"),
        "sde.integrate.self_s": sp.self_time(spans, "sde.integrate"),
        "sde.em_steps": sp.note_sum(spans, "sde.integrate", "steps"),
        "sde.truncation_tail.busy_s": sp.busy(spans, "sde.truncation_tail"),
        "lattice.drift.sde.calls": sp.calls(spans, "lattice.drift", site="sde"),
        "lattice.drift.sde.busy_s": sp.busy(spans, "lattice.drift", site="sde"),
        "tube.tube_ratio.busy_s": sp.busy(spans, "tube.tube_ratio"),
        "tube.blocks": sum(math.ceil(t["samples"] / t["block"]) for t in tubes),
        "tube.path_steps": sum(t["samples"] * t["steps"] for t in tubes),
        "tube.generators": sp.calls(spans, "tube.Generator"),
        "lattice.drift.tube.busy_s": sp.busy(spans, "lattice.drift", site="tube"),
        "tube.block_bytes": max((8 * t["block"] * t["steps"] * t["d"] for t in tubes), default=0),
        "kl.smallball_mc.busy_s": sp.busy(spans, "kl.smallball_mc"),
        "kl.generators": kl_generators,
        "kl.tail_draws": max(0, kl_generators - head_blocks),
        "io.write_path_csv.calls": sp.calls(spans, "io.write_path_csv"),
        "io.write_path_csv.busy_s": sp.busy(spans, "io.write_path_csv"),
        "io.bytes_written": bytes_written,
        "io.read_path_csv.busy_s": sp.busy(spans, "io.read_path_csv"),
        "config.load_config.busy_s": sp.busy(spans, "config.load_config"),
    }


def median_of(rows, key) -> float:
    return statistics.median(r[key] for r in rows) if rows else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = ["src/omlat/cli.py"] + WORKLOADS[args.workload]["configs"]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"not an omlat checkout (missing {', '.join(missing)}); run from its root", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    env = pinned_env()
    trace = bool(args.trace)
    work = WORKLOADS[args.workload]
    base = os.path.join(OUT_ROOT, args.workload)
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)

    # Warm-up: compile bytecode and fill the page cache before timing set-up.
    warm = run_pass(base, dict(work, commands=[]), args.seed, False, False, env, deadline)
    if "crashed" in warm:
        print(warm["crashed"], file=sys.stderr)
        return 3
    src = os.path.realpath("src")
    if not os.path.realpath(warm["omlat_file"]).startswith(src + os.sep):
        print(f"omlat imported from {warm['omlat_file']}, not from {src}", file=sys.stderr)
        return 3

    # Rounds of one untraced pass, plus a traced pass with --trace 1, until
    # another round would overrun --seconds.  setup_s is the median over
    # all passes.
    plain, traced, crashes, setups = [], [], [], []
    t_measure = time.monotonic()
    longest = 0.0
    while True:
        t = time.monotonic()
        for tr in (False, True) if trace else (False,):
            res = run_pass(base, work, args.seed, tr, trace and not tr, env, deadline)
            if "crashed" in res:
                crashes.append(res)
                continue
            if tr:
                res["layers"] = layer_metrics(res.pop("spans"), res["bytes_written"])
            (traced if tr else plain).append(res)
            setups.append(res["setup_s"])
        now = time.monotonic()
        longest = max(longest, now - t)
        if crashes or now + longest - t_measure > args.seconds or now + longest > deadline:
            break

    passes = plain + traced
    if not plain or (trace and not traced):
        print(json.dumps({"crashes": [c["crashed"] for c in crashes]}), file=sys.stderr)
        return 3

    gate_failures = sorted({m for r in passes for m in r["gate_failures"]})
    digests = plain[0]["digests"]
    if any(r["digests"] != digests for r in passes):
        gate_failures.append("output CSVs differ between passes of one seed")
    attempted = sum(r["attempted"] for r in passes) + sum(c["attempted"] for c in crashes)
    failed = sum(r["failed"] for r in passes) + sum(c["attempted"] for c in crashes)

    groups = {g: statistics.median(group_times(work, r)[g] for r in plain) for g in GROUPS}
    if trace:
        rows = [r["layers"] for r in traced]
        units = dict(PER_LAYER)
        metrics = {
            k: (statistics.median if units[k] == "s" else statistics.median_low)(row[k] for row in rows)
            for k in rows[0]
        }
        metrics["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(plain, "wall_s")
        ones = [r["threads1"]["s"] for r in plain if r["threads1"]]
        metrics["tube.threads1_s"] = statistics.median(ones) if ones else 0.0
        threads = int(env["OMLAT_THREADS"])
        metrics["tube.scaling_eff"] = (
            metrics["tube.threads1_s"] / (threads * groups["tube_s"]) if ones and groups["tube_s"] else 0.0
        )
        metrics.update(groups)
        table = PER_LAYER
    else:
        metrics = {k: median_of(plain, k) for k, _ in END_TO_END}
        metrics["setup_s"] = statistics.median(setups)
        table = END_TO_END

    versions = plain[0]["versions"]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "env": dict(
            versions,
            cpu_count=os.cpu_count(),
            usable_cpus=len(os.sched_getaffinity(0)),
            **{k: env[k] for k in ("OMLAT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        ),
        "failed_share": failed / attempted,
        "gate_failures": gate_failures,
        "command_s": {
            c["name"]: statistics.median(
                next(x["s"] for x in r["commands"] if x["name"] == c["name"]) for r in plain
            )
            for c in work["commands"]
        },
        "group_s": {g: v for g, v in groups.items() if v},
        "end_to_end_passes": {k: [r[k] for r in plain] for k, _ in END_TO_END},
        "setup_samples_s": setups,
        "sha256": digests,
    }
    os.makedirs(os.path.join(OUT_ROOT, "results"), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_ROOT, "results", tag + ".json"), "w") as fh:
        json.dump(dict(detail, metrics=metrics), fh, indent=1)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not gate_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
