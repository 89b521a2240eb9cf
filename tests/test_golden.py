"""Golden digests: the sha256 of every CSV that small ``simulate``,
``verify truncation``, ``verify bound``, ``verify tube``,
``verify smallball`` and ``mpp`` runs write.

The digests were taken from the per-trajectory Euler-Maruyama loops that
the batched stepper replaced, so they check on every run that batching
leaves each file byte-identical.  The ensemble runs are repeated at
three more group budgets, from one trajectory per group to 32 MB, the
tube runs with one and with two worker threads and with two step chunk
sizes, and the small-ball run with one and with two worker threads and
with two caps on the normals of one draw.  The tube runs span two keyed blocks of 32 768 paths, and their
digests pin the staged time-major SFC64 stream of each block, whose
stages after the first draw only for the trajectories still inside the
largest tube; the step chunk size does not move those prune points.  The small-ball digest pins the staged SFC64
stream of each block's one generator, tail included; both are seeded by
``noise._block_bits``.  A change to a random stream changes the digests
of the runs that draw from it: such a change re-pins them and says so.
The two ``mpp`` runs, one Gauss-Newton solve with ``--slice`` and one
``--newton`` solve on the 61-site example, draw nothing: their digests
pin the solver's bytes, band build and LAPACK solve included.  They were
taken when the solve called ``dpbtrf`` and two ``dtbtrs`` through a
``ctypes`` binding, and hold for scipy's ``dpbtrf`` and ``dpbtrs``
wrappers.
"""
import hashlib
from pathlib import Path as FsPath

import pytest

from omlat import kl, sde, tube
from omlat.cli import main

CONFIGS = FsPath(__file__).resolve().parent.parent / "configs"
EX5 = str(CONFIGS / "example5.cfg")
SCALAR = str(CONFIGS / "scalar.cfg")
THREE_SITES = (
    "n = 1\nnu = 0.2\nlambda = 0.5\nf_coeffs = 0, 0.1\np = 1\nC_f = 0.1\n"
    "g = zero\nq_spec = constant:0.8\nrho = uniform\nT = 1\n"
)

RUNS = {
    "simulate": ["simulate", "--config", EX5, "--dt", "0.5", "--ensemble", "3"],
    "truncation": ["verify", "truncation", "--config", EX5, "--dt", "0.5", "--ensemble", "3"],
    "bound": ["verify", "bound", "--config", EX5, "--dt", "0.5", "--ensemble", "3"],
    "tube": ["verify", "tube", "--config", SCALAR, "--samples", "40000", "--eps", "0.5,0.3"],
    "tube3": [
        "verify", "tube", "--config", "{three_sites}", "--samples", "40000", "--eps", "1.0,0.6",
        "--reference", "sine:0.3", "--denominator", "plain", "--dt", "0.015625",
    ],
    "smallball": ["verify", "smallball", "--samples", "70000", "--eps", "0.5,0.4"],
    "mpp": ["mpp", "--config", EX5, "--dt", "0.5", "--slice", "i=0,10"],
    "mpp_newton": ["mpp", "--config", EX5, "--dt", "0.5", "--newton"],
}

DIGESTS = {
    "simulate": {
        "path_000.csv": "b9cce76d991beeece4d112454eac15599f074b21207f762b93432993d66ba01a",
        "path_001.csv": "f4c013a935f0d550ab4fff68653cdd3aa91fd9dc82cc8fe6cfad8d8cd3784929",
        "path_002.csv": "98b34285cf50524668d8dc3d50f3850cf8a35ac04c10913a7dd8e312abdd39bb",
    },
    "truncation": {"truncation.csv": "6748ca34089773c6fc2160d5f5bdd097a099c13d8bc78ede54a5a37e62c39422"},
    "bound": {"bound.csv": "fe9d7c6a15c77160a484b4b408c59d06ec2b6243e824a86ccbab9fd183a976da"},
    "tube": {"tube.csv": "f8e4a00d625abe3a30273ab75c950a66c5fc5b3b0b63d1bee17d0834f8fc5cd3"},
    "tube3": {"tube.csv": "89139c59de46c052e2e1255e9a41471b4cf64ace7283ee47c29cde627b0d815a"},
    "smallball": {"smallball.csv": "0a527096989e48efdfd12833b139b8a710b2ddc87f8878a0afe95d09912aa6b8"},
    "mpp": {
        "convergence.csv": "efe7a0f2923de86711d4cee35f3584f576ef73db446cb3d415db1feb8582621c",
        "mpp_path.csv": "6c2b21a9831b58993b8c03589e82b14d35ab3e62eaf172b9e02321cd7a383b75",
        "slice_i0.csv": "36fac554c95ae89b013c08885cff6c403885792636921220646e02929523465a",
        "slice_i10.csv": "1545e9a841f024c8e0752ef4afc07560005f22d455e6571bc1a22bca6469728a",
    },
    "mpp_newton": {
        "convergence.csv": "ec18deb277d4dca251a271a416b19cea3255b7e12a392699f0d460dc028a74da",
        "mpp_path.csv": "319cde9e6058f38f526255c7541d96862757a4d1a948feebacf5836bf120ee7c",
    },
}

# Group budgets of the ensemble variants: one trajectory per group, groups
# of one and two trajectories of simulate and bound (truncation's are
# larger, so it runs one per group), and the 32 MB of earlier versions.
ENSEMBLE_BUDGETS = {"single": 1, "pairs": 2 * 8 * (60 + 61) * 61, "32MB": 32 * 2**20}

# (run, variant): ensembles at the default group budget and at each of
# ENSEMBLE_BUDGETS; tubes on one and two threads, and with their increments
# drawn and stepped 1 and 7 steps at a time; the small-ball blocks on one
# and two threads, and its stages drawn in chunks of at most the default
# 65 536 and 777 normals; each mpp run once.
TUBE_VARIANTS = ("threads1", "threads2", "steps1", "steps7")
VARIANTS = {
    "tube": TUBE_VARIANTS,
    "tube3": TUBE_VARIANTS,
    "smallball": ("threads1", "threads2", "chunk65536", "chunk777"),
    "mpp": ("solve",),
    "mpp_newton": ("solve",),
}
CASES = [(run, variant) for run in RUNS for variant in VARIANTS.get(run, ("grouped", *ENSEMBLE_BUDGETS))]


@pytest.mark.parametrize("run, variant", CASES, ids=[f"{r}-{v}" for r, v in CASES])
def test_csv_digests(tmp_path, monkeypatch, run, variant):
    three_sites = tmp_path / "three_sites.cfg"
    three_sites.write_text(THREE_SITES)
    if variant in ENSEMBLE_BUDGETS:
        monkeypatch.setattr(sde, "ENSEMBLE_STATE_BYTES", ENSEMBLE_BUDGETS[variant])
    elif variant.startswith("threads"):
        monkeypatch.setenv("OMLAT_THREADS", variant[-1])
    elif variant.startswith("chunk"):
        monkeypatch.setattr(kl, "_DRAW_NORMALS", int(variant[len("chunk"):]))
    elif variant.startswith("steps"):
        monkeypatch.setattr(tube, "_TUBE_CHUNK_STEPS", int(variant[len("steps"):]))
    out = tmp_path / run
    argv = [arg.replace("{three_sites}", str(three_sites)) for arg in RUNS[run]]
    assert main(argv + ["--seed", "11", "--out", str(out)]) == 0
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.glob("*.csv"))}
    assert digests == DIGESTS[run]
