"""The benchmark's workloads: CLI invocations run one after another in one
fresh process, and the recorded references their output gates compare with.

``{seed}`` and ``{out}`` in an argument are filled in per run.  Each
command has a short name (its output directory) and the group whose time
it counts towards (``None``: only the workload's wall time).
"""
from __future__ import annotations

EX5 = "configs/example5.cfg"
SCALAR = "configs/scalar.cfg"

# Sizes shrunk from the README's so that one pass takes a few seconds and
# a run holds many passes; each part keeps the property it exists for
# (d = 61 on example 5, many tube blocks per worker, a non-trivial
# small-ball tail-draw count).
ENSEMBLE = 8
TRUNCATION_ENSEMBLE = 20
BOUND_ENSEMBLE = 20
TUBE_SAMPLES = 262_144  # 16 blocks of 16384 paths
SMALLBALL_SAMPLES = 100_000
SMALLBALL_EPS = (0.5, 0.4, 0.3)


def _cmd(name, group, *argv):
    return {"name": name, "group": group, "argv": list(argv)}


WORKLOADS = {
    "mpp-example5": {
        "configs": [EX5],
        "commands": [
            _cmd("mpp_dt05", "mpp_s", "mpp", "--config", EX5, "--dt", "0.05", "--slice", "i=0,10",
                 "--seed", "{seed}", "--out", "{out}/mpp_dt05"),
            _cmd("mpp_dt025", "mpp_s", "mpp", "--config", EX5, "--dt", "0.025",
                 "--seed", "{seed}", "--out", "{out}/mpp_dt025"),
            _cmd("mpp_newton", "mpp_s", "mpp", "--config", EX5, "--dt", "0.05", "--newton",
                 "--seed", "{seed}", "--out", "{out}/mpp_newton"),
            _cmd("om_dt025", None, "om", "--config", EX5, "--path", "{out}/mpp_dt025/mpp_path.csv",
                 "--seed", "{seed}", "--out", "{out}/om_dt025"),
        ],
    },
    # Both stochastic experiments in one workload: per-step Euler-Maruyama
    # on example 5, then the batched scalar tube and small-ball Monte Carlo.
    "ensemble-montecarlo": {
        "configs": [EX5, SCALAR],
        "commands": [
            _cmd("simulate", "simulate_s", "simulate", "--config", EX5, "--dt", "0.05",
                 "--ensemble", str(ENSEMBLE), "--seed", "{seed}", "--out", "{out}/simulate"),
            _cmd("truncation", "truncation_s", "verify", "truncation", "--config", EX5,
                 "--ensemble", str(TRUNCATION_ENSEMBLE), "--seed", "{seed}", "--out", "{out}/truncation"),
            _cmd("bound", "bound_s", "verify", "bound", "--config", EX5,
                 "--ensemble", str(BOUND_ENSEMBLE), "--seed", "{seed}", "--out", "{out}/bound"),
            _cmd("cocycle", None, "verify", "cocycle", "--config", EX5, "--dt", "0.05859375",
                 "--seed", "{seed}", "--out", "{out}/cocycle"),
            _cmd("om_path000", None, "om", "--config", EX5, "--path", "{out}/simulate/path_000.csv",
                 "--seed", "{seed}", "--out", "{out}/om_path000"),
            _cmd("tube", "tube_s", "verify", "tube", "--config", SCALAR, "--eps", "0.3,0.2",
                 "--samples", str(TUBE_SAMPLES), "--reference", "zero", "--denominator", "convolution",
                 "--seed", "{seed}", "--out", "{out}/tube"),
            _cmd("smallball", "smallball_s", "verify", "smallball", "--alpha", "1", "--imax", "12000",
                 "--eps", ",".join(str(e) for e in SMALLBALL_EPS), "--samples", str(SMALLBALL_SAMPLES),
                 "--seed", "{seed}", "--out", "{out}/smallball"),
        ],
    },
}

# Command groups reported as per-command times, whichever workload runs them.
GROUPS = ("mpp_s", "simulate_s", "truncation_s", "bound_s", "tube_s", "smallball_s")

# Total action of the example-5 most-probable paths (deterministic: no
# random numbers are drawn).  Gate: agreement to 1e-9 relative.
MPP_ACTION = {
    "mpp_dt05": -1.9320846624765735,
    "mpp_dt025": -1.9320810741651027,
    "mpp_newton": -1.9322343177572956,
    "om_dt025": -1.9320810741651027,
}

# Small-ball probabilities P(sum_{i<=12000} i^-2 x_i^2 <= eps^2).  Since
# sum_i x_i^2 / (pi i)^2 is the Cramer-von Mises limit law, these are its
# CDF (Csorgo-Faraway series) at (eps^2 + 8.333e-5) / pi^2, the shift
# being the mean of the dropped terms i > 12000; a 4 000 000-sample run of
# the CLI agrees within one standard error.  Gate: the run's hit count is
# consistent with the reference, both binomial tails at least 1e-6.  A
# Wilson interval is not used: at eps = 0.3 a run expects 0.36 hits, where
# even a z = 6 interval rejects a correct sampler in 5e-4 of runs.
SMALLBALL_REFERENCE = {
    0.5: 0.011129314895026306,
    0.4: 0.0007023706429760871,
    0.3: 1.7770367158614255e-06,
}
SMALLBALL_TAIL = 1e-6
