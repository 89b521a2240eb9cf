"""Golden digests: the sha256 of every CSV that small ``simulate``,
``verify truncation``, ``verify bound``, ``verify tube`` and
``verify smallball`` runs write.

The digests were taken from the per-trajectory Euler-Maruyama loops that
the batched stepper replaced, so they check on every run that batching
leaves each file byte-identical.  The ensemble runs are repeated with one
trajectory per group, the tube runs with one and with two worker
threads and with two step chunk sizes, and the small-ball run with one
and with two worker threads and with two caps on the normals of one
draw.  The tube runs span two keyed blocks of 32 768 paths, and their
digests pin the staged time-major SFC64 stream of each block, whose
stages after the first draw only for the trajectories still inside the
largest tube; the step chunk size does not move those prune points.  The small-ball digest pins the staged SFC64
stream of each block's one generator, tail included; both are seeded by
``noise._block_bits``.  A change to a random stream changes the digests
of the runs that draw from it: such a change re-pins them and says so.
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
}

# (run, variant): ensembles at the default group size and one trajectory
# per group; tubes on one and two threads, and with their increments
# drawn and stepped 1 and 7 steps at a time; the small-ball blocks on one
# and two threads, and its stages drawn in chunks of at most the default
# 65 536 and 777 normals.
TUBE_VARIANTS = ("threads1", "threads2", "steps1", "steps7")
VARIANTS = {
    "tube": TUBE_VARIANTS,
    "tube3": TUBE_VARIANTS,
    "smallball": ("threads1", "threads2", "chunk65536", "chunk777"),
}
CASES = [(run, variant) for run in RUNS for variant in VARIANTS.get(run, ("grouped", "single"))]


@pytest.mark.parametrize("run, variant", CASES, ids=[f"{r}-{v}" for r, v in CASES])
def test_csv_digests(tmp_path, monkeypatch, run, variant):
    three_sites = tmp_path / "three_sites.cfg"
    three_sites.write_text(THREE_SITES)
    if variant == "single":
        monkeypatch.setattr(sde, "ENSEMBLE_STATE_BYTES", 1)
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
