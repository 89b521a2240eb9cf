import argparse
import contextlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import tracemalloc
import types
import warnings

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

import omlat
import omlat.cli as cli
from omlat import ConfigurationError, Path, kl_spectrum, parse_config, parse_q_spec, smallball_mc
from omlat.cli import build_parser, main, parse_state_spec
from omlat.io import read_path_csv, write_path_csv
from omlat.mpp import _band_shape, _solve_bytes
from oracles import example5_boundary, example5_config

EXAMPLE5 = """
n = 30
nu = 0.1
lambda = 0.4
f_coeffs = 0, 0.1
p = 1
C_f = 0.1
g = zero
q_spec = example5:0.01,31
rho = uniform
T = 30
"""

SCALAR = """
n = 0
nu = 0.1
lambda = 0.4
f_coeffs =
p = 1
C_f = 1.0
g = zero
q_spec = constant:1.0
rho = uniform
T = 1
"""


@pytest.fixture
def example5_file(tmp_path):
    f = tmp_path / "example5.cfg"
    f.write_text(EXAMPLE5)
    return str(f)


@pytest.fixture
def scalar_file(tmp_path):
    f = tmp_path / "scalar.cfg"
    f.write_text(SCALAR)
    return str(f)


class TestConfigParsing:
    def test_example5_fields(self):
        cfg = parse_config(EXAMPLE5)
        assert cfg.n == 30 and cfg.d == 61
        assert cfg.nu == 0.1 and cfg.lam == 0.4 and cfg.T == 30.0
        assert cfg.f.coeffs == (0.0, 0.1)
        np.testing.assert_array_equal(cfg.rho, np.ones(61))
        np.testing.assert_array_equal(cfg.g, np.zeros(61))
        np.testing.assert_allclose(cfg.q.grid([0.0], 1)[0], 0.01 * (31.0 + 1.0 / np.array([2.0, 1.0, 2.0])))

    def test_matches_programmatic_builder(self):
        cfg = parse_config(EXAMPLE5)
        built = example5_config()
        assert cfg.nu == built.nu and cfg.lam == built.lam
        np.testing.assert_array_equal(
            cfg.q.grid(np.linspace(0, 30, 7), 30), built.q.grid(np.linspace(0, 30, 7), 30)
        )

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            parse_config(EXAMPLE5 + "\nmystery = 3\n")

    def test_missing_key_rejected(self):
        with pytest.raises(ConfigurationError, match="missing"):
            parse_config("n = 1\nnu = 0.1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse_config(EXAMPLE5 + "\nn = 4\n")

    def test_explicit_vectors(self):
        text = SCALAR.replace("g = zero", "g = 0.25").replace("rho = uniform", "rho = 2.0")
        cfg = parse_config(text)
        np.testing.assert_array_equal(cfg.g, [0.25])
        np.testing.assert_array_equal(cfg.rho, [2.0])

    def test_wrong_vector_length(self):
        with pytest.raises(ConfigurationError, match="'g'"):
            parse_config(EXAMPLE5.replace("g = zero", "g = 1, 2, 3"))

    def test_bad_number(self):
        with pytest.raises(ConfigurationError, match="nu"):
            parse_config(EXAMPLE5.replace("nu = 0.1", "nu = fast"))

    def test_q_spec_grammar(self, tmp_path):
        assert parse_q_spec("constant:2.0").grid([0.0], 0)[0][0] == 2.0
        q = parse_q_spec("example5:0.01,31")
        assert q.grid([1.0], 0)[0][0] == pytest.approx(0.01 * 31.0)
        table = tmp_path / "q.csv"
        table.write_text("0.0,1.0,2.0,3.0\n1.0,1.5,2.5,3.5\n")
        qt = parse_q_spec(f"table:{table}")
        np.testing.assert_allclose(qt.grid([0.5], 1)[0], [1.25, 2.25, 3.25])
        with pytest.raises(ConfigurationError):
            parse_q_spec("banana:1")
        with pytest.raises(ConfigurationError):
            parse_q_spec("table:/no/such/file.csv")

    def test_state_specs(self):
        np.testing.assert_array_equal(parse_state_spec("zero", 2), np.zeros(5))
        bump = parse_state_spec("gauss:0.6,8", 30)
        phi0, phiT = example5_boundary(30)
        np.testing.assert_allclose(bump, phi0)
        with pytest.raises(ConfigurationError):
            parse_state_spec("triangle:1", 2)


class TestPathCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        from omlat import Path

        rng = np.random.default_rng(0)
        p = Path(rng.standard_normal((9, 3)), 0.125)
        dest = tmp_path / "p.csv"
        write_path_csv(p, dest)
        q = read_path_csv(dest)
        np.testing.assert_array_equal(p.states, q.states)
        np.testing.assert_array_equal(p.times, q.times)

    def test_header_shape(self, tmp_path):
        from omlat import Path

        p = Path(np.zeros((2, 5)), 1.0)
        dest = tmp_path / "p.csv"
        write_path_csv(p, dest)
        assert dest.read_text().splitlines()[0] == "t,u_-2,u_-1,u_0,u_1,u_2"

    def test_time_step_must_be_positive(self, tmp_path):
        # the start-at-0 and uniform-grid checks are in tests/test_paths.py
        csv = tmp_path / "still.csv"
        csv.write_text("t,u_0\n0,0\n0,0\n0,0\n")
        with pytest.raises(ConfigurationError, match="still.csv: time step dt must be positive and finite, got 0.0"):
            read_path_csv(csv)
        near = tmp_path / "near.csv"  # steps equal within a relative 1e-9
        near.write_text("t,u_0\n0,0\n0.25,0\n0.5000000000001,0\n")
        assert read_path_csv(near).dt == 0.25


class TestCliRuns:
    def test_simulate_shape_and_reproducibility(self, example5_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code = main([
                "simulate", "--config", example5_file, "--seed", "7",
                "--out", str(out), "--dt", "0.25", "--ensemble", "1",
            ])
            assert code == 0
        rows = (out1 / "path_000.csv").read_text().splitlines()
        assert rows[0].startswith("t,u_-30")
        assert len(rows) == 1 + 121  # header + N+1 grid points
        assert len(rows[1].split(",")) == 62
        assert (out1 / "path_000.csv").read_bytes() == (out2 / "path_000.csv").read_bytes()
        manifest = _closed_manifest(out1, 0)
        assert manifest["subcommand"] == "simulate"
        assert manifest["config_hash"]
        assert manifest["args"]["ensemble"] == 1 and manifest["args"]["steps"] == 120
        assert manifest["args"]["u0"] == "gauss:0.6,8" and "func" not in manifest["args"]

    def test_manifest_records_threads_and_versions_when_the_run_opens(self, tmp_path, monkeypatch):
        out = tmp_path / "sb"
        opened = []

        def reading_manifest(*args, **kwargs):
            opened.append(json.loads((out / "manifest.json").read_text()))
            return smallball_mc(*args, **kwargs)

        monkeypatch.setenv("OMLAT_THREADS", "3")
        monkeypatch.setattr("omlat.cli.smallball_mc", reading_manifest)
        code = main(["verify", "smallball", "--alpha", "1", "--imax", "3000", "--eps", "0.6",
                     "--samples", "2000", "--out", str(out)])
        versions = {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}
        for manifest in (opened[0], _closed_manifest(out, 0)):
            assert manifest["threads"] == min(3, len(os.sched_getaffinity(0)))
            assert manifest["versions"] == versions
        assert code == 0

    @pytest.mark.parametrize("count", ["0", "-1"])
    @pytest.mark.parametrize(
        "command",
        [["simulate"], ["verify", "truncation"], ["verify", "bound"]],
        ids=["simulate", "truncation", "bound"],
    )
    def test_ensemble_below_one_rejected(self, example5_file, tmp_path, capsys, command, count):
        out = tmp_path / "empty"
        code = main(command + [
            "--config", example5_file, "--out", str(out), "--dt", "0.25", "--ensemble", count,
        ])
        assert code == 2
        assert "--ensemble" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        [["simulate"], ["verify", "truncation"], ["verify", "bound"]],
        ids=["simulate", "truncation", "bound"],
    )
    def test_ensemble_beyond_the_noise_keys_rejected(self, tmp_path, capsys, monkeypatch, command):
        # the noise keys address trajectories 0 .. 2^24 - 1: 2^24 trajectories
        # reach the draws (stubbed here), one more is rejected before a run
        # opens.  The first draw is stubbed too, so a command that reached the
        # ensemble some other way would stop there, not step 2^24 trajectories
        class Drawn(Exception):
            pass

        def stub(*args, **kwargs):
            raise Drawn

        monkeypatch.setattr("omlat.cli.integrate_ensemble", stub)
        monkeypatch.setattr("omlat.sde.sample_noise", stub)
        cfg = tmp_path / "n1.cfg"
        cfg.write_text(EXAMPLE5.replace("n = 30", "n = 1").replace("T = 30", "T = 0.25"))
        argv = command + ["--config", str(cfg), "--dt", "0.25"]
        with pytest.raises(Drawn):
            main(argv + ["--out", str(tmp_path / "most"), "--ensemble", "16777216"])
        out = tmp_path / "many"
        code = main(argv + ["--out", str(out), "--ensemble", "16777217"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--ensemble=16777217" in err and "2^24" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["truncation", "bound"])
    def test_ensemble_memory_does_not_grow_with_the_ensemble(self, example5_file, tmp_path, monkeypatch, command):
        # one trajectory per group: each trajectory is reduced as it is
        # stepped, so 32 trajectories peak no higher than 4 do, give or take
        # less than one trajectory of states (61 sites, 60 steps)
        monkeypatch.setattr("omlat.sde.ENSEMBLE_STATE_BYTES", 1)
        peaks = []
        for count in (4, 32):
            tracemalloc.start()
            try:
                code = main([
                    "verify", command, "--config", example5_file, "--dt", "0.5", "--ensemble", str(count),
                    "--out", str(tmp_path / str(count)),
                ])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
        assert peaks[1] < peaks[0] + 8 * 61 * 61, peaks

    @pytest.mark.parametrize("dt", ["0", "-0.25", "nan", "inf", "1e-300"])
    @pytest.mark.parametrize(
        "command", [["simulate"], ["mpp"], ["verify", "tube"]], ids=["simulate", "mpp", "tube"]
    )
    def test_bad_dt_rejected(self, scalar_file, tmp_path, capsys, command, dt):
        out = tmp_path / "bad_dt"
        code = main(command + ["--config", scalar_file, "--out", str(out), f"--dt={dt}"])
        assert code == 2
        assert "--dt" in capsys.readouterr().err
        assert not out.exists()

    def test_dt_beyond_physical_memory_rejected(self, example5_file, tmp_path, capsys):
        # exactly 2^32 steps of 61 sites: 2.1 TB of states, rejected before
        # the output directory is created or anything is allocated
        out = tmp_path / "cocycle"
        code = main(["verify", "cocycle", "--config", example5_file, "--out", str(out),
                     "--dt", "6.984919309616089e-09"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--dt" in err and "physical memory" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, dt", [(["simulate", "--ensemble", "3"], "0.5"), (["verify", "bound"], "0.5"),
                        (["verify", "cocycle"], "0.5"), (["verify", "truncation"], "0.5"), (["verify", "tube"], "0.25")],
        ids=["simulate", "bound", "cocycle", "truncation", "tube"],
    )
    def test_run_peak_beyond_physical_memory_rejected(
        self, example5_file, scalar_file, tmp_path, capsys, monkeypatch, command, dt
    ):
        # physical memory holds two trajectories of states, but not the run's
        # peak: before the peak was counted, each run opened --out and failed
        # later with a MemoryError or was killed
        config, d = (scalar_file, 1) if command[-1] == "tube" else (example5_file, 61)
        steps = round((1.0 if d == 1 else 30.0) / float(dt))
        memory = 2 * 8 * (steps + 1) * d
        sysconf, fake = os.sysconf, {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": memory}
        monkeypatch.setattr(os, "sysconf", lambda name: fake.get(name) or sysconf(name))
        out = tmp_path / "run"
        assert main(command + ["--config", config, "--dt", dt, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"--dt={float(dt)} gives {steps} steps: " in err and "the run's peak" in err and "physical memory" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", [["simulate"], ["verify", "bound"], ["verify", "cocycle"], ["verify", "truncation"]],
        ids=["simulate", "bound", "cocycle", "truncation"],
    )
    def test_counted_peak_bounds_the_traced_peak(self, example5_file, tmp_path, monkeypatch, command):
        # one trajectory per group, as on a grid whose trajectory exceeds the
        # group's budget, and enough trajectories for the peak to level off
        monkeypatch.setattr("omlat.sde.ENSEMBLE_STATE_BYTES", 1)
        argv = command + ["--config", example5_file, "--dt", "0.025", "--out", str(tmp_path / "run")]
        if command[-1] != "cocycle":
            argv += ["--ensemble", "3"]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        counted = build_parser().parse_args(argv).peak * 8 * 1201 * 61
        assert 0.8 * counted < peak <= counted

    def test_counted_kl_bytes_bound_the_traced_peak(self, tmp_path, monkeypatch):
        counted = []
        monkeypatch.setattr("omlat.cli._check_memory", lambda nbytes, size, what: counted.append(nbytes))
        tracemalloc.start()
        try:
            assert main(["verify", "kl", "--m", "15000", "--out", str(tmp_path / "kl")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.8 * counted[0] < peak <= counted[0]

    def test_mpp_band_beyond_physical_memory_rejected(self, example5_file, tmp_path, capsys, monkeypatch):
        # the fewest steps of 61 sites whose solver band exceeds physical
        # memory while one trajectory fits; rejected before BVPSpec
        # allocates its check path (stubbed here) or a run opens
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        per_step = 8 * math.prod(_band_shape(2, 61))  # the band holds one block row per interior state
        steps = memory // per_step + 2
        assert 8 * (steps + 1) * 61 <= memory < 8 * math.prod(_band_shape(steps, 61))

        def no_spec(*args, **kwargs):
            raise AssertionError("BVPSpec built")

        monkeypatch.setattr("omlat.cli.BVPSpec", no_spec)
        out = tmp_path / "mpp"
        code = main(["mpp", "--config", example5_file, "--out", str(out), "--dt", repr(30.0 / steps)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"gives {steps} steps: the solver's band and work arrays for 61 sites" in err
        assert "--dt" in err and "physical memory" in err and "Traceback" not in err
        assert not out.exists()

    def test_mpp_working_set_beyond_physical_memory_rejected(self, scalar_file, tmp_path, capsys, monkeypatch):
        # d = 1: the band is two path-sized arrays, so a grid whose band and
        # one trajectory fit in physical memory can still need more for the
        # solve's other path-sized arrays, which the check counts too
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        steps = (memory - _solve_bytes(0, 1)) // (_solve_bytes(1, 1) - _solve_bytes(0, 1)) + 1
        assert 8 * math.prod(_band_shape(steps, 1)) + 8 * (steps + 1) <= memory < _solve_bytes(steps, 1)
        assert _solve_bytes(steps - 1, 1) <= memory

        def no_spec(*args, **kwargs):
            raise AssertionError("BVPSpec built")

        monkeypatch.setattr("omlat.cli.BVPSpec", no_spec)
        out = tmp_path / "mpp"
        code = main(["mpp", "--config", scalar_file, "--out", str(out), "--dt", repr(1.0 / steps)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"gives {steps} steps: the solver's band and work arrays for 1 sites" in err
        assert "physical memory" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value", [("--tol", "nan"), ("--tol", "-1"), ("--tol", "0"), ("--max-iter", "-3")]
    )
    def test_mpp_bad_solver_limits_rejected(self, scalar_file, tmp_path, capsys, flag, value):
        out = tmp_path / "mpp"
        code = main(["mpp", "--config", scalar_file, "--out", str(out), "--dt", "0.125", f"{flag}={value}"])
        assert code == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err
        assert not out.exists()

    def test_verify_tube_sine_takes_one_amplitude(self, scalar_file, tmp_path, capsys):
        out = tmp_path / "tube"
        code = main([
            "verify", "tube", "--config", scalar_file, "--out", str(out), "--reference", "sine:1,2,3",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "--reference" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["simulate", "--u0", "zero:7"], "--u0"),
            (["verify", "tube", "--reference", "zero:0.8"], "--reference"),
            (["mpp", "--slice", "i=0,,3"], "--slice"),
        ],
        ids=["u0-zero-with-text", "reference-zero-with-text", "slice-empty-site"],
    )
    def test_spec_with_stray_text_rejected_before_opening_out(self, scalar_file, tmp_path, capsys, argv, flag):
        # each ran to exit 0: the zero state, the zero reference, and slices 0 and 3
        out = tmp_path / "run"
        assert main(argv + ["--config", scalar_file, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", "2,,3,4", "1,", ",", "nan", " 1 , 2 "])
    def test_comma_list_rule(self, tmp_path, capsys, text):
        # one rule for every comma list: empty text is the empty list, and
        # any other holds only finite numbers.  "2,,3,4" loaded as the
        # three weights [2, 3, 4] when empty cells were skipped
        three_sites = SCALAR.replace("n = 0", "n = 1").replace("C_f = 1.0", "C_f = 2.0")
        config_fields = {
            "'g'": ("g = zero", "g = "), "'rho'": ("rho = uniform", "rho = "),
            "'f_coeffs'": ("f_coeffs =", "f_coeffs = "), "example5": ("constant:1.0", "example5:"),
        }
        runs = {}
        for k, (named, (old, key)) in enumerate(config_fields.items()):
            cfg = tmp_path / f"{k}.cfg"
            cfg.write_text(three_sites.replace(old, key + text))
            runs[named] = ["simulate", "--dt", "0.5", "--config", str(cfg)]
        (tmp_path / "plain.cfg").write_text(three_sites)
        runs["gauss"] = ["simulate", "--dt", "0.5", "--config", str(tmp_path / "plain.cfg"), "--u0", f"gauss:{text}"]
        runs["--eps"] = ["verify", "smallball", "--eps", text, "--samples", "1000"]
        good = {("", "'f_coeffs'"), (" 1 , 2 ", "'f_coeffs'"), (" 1 , 2 ", "gauss"), (" 1 , 2 ", "example5")}
        for k, (named, argv) in enumerate(runs.items()):
            out = tmp_path / f"run{k}"
            code = main(argv + ["--out", str(out)])
            err = capsys.readouterr().err
            if (text, named) in good:
                assert code == 0, (named, err)
            else:
                assert code == 2 and named in err and "Traceback" not in err, (named, err)
                assert not out.exists(), named

    def test_memory_error_exits_2_and_closes_manifest(self, tmp_path, capsys, monkeypatch):
        # a size the host cannot hold, past the check phase's estimate; the
        # allocation is simulated, since a real one may end in the OOM killer
        # rather than an exception
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,)")

        monkeypatch.setattr("omlat.cli.kl_spectrum", too_large)
        out = tmp_path / "kl"
        assert main(["verify", "kl", "--m", "1000", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "745. GiB" in err and "Traceback" not in err
        _closed_manifest(out, 2, "MemoryError")

    def test_mpp_artifacts_and_slices(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(EXAMPLE5.replace("n = 30", "n = 4"))
        out = tmp_path / "mpp"
        code = main([
            "mpp", "--config", str(cfg), "--out", str(out), "--dt", "0.25",
            "--slice", "i=0,3",
        ])
        assert code == 0
        for name in ("manifest.json", "mpp_path.csv", "om_report.json", "convergence.csv",
                     "slice_i0.csv", "slice_i3.csv"):
            assert (out / name).exists(), name
        report = json.loads((out / "om_report.json").read_text())
        assert report["total"] == report["drift_term"] + report["trace_term"]
        slice0 = (out / "slice_i0.csv").read_text().splitlines()
        assert slice0[0] == "t,u_0"
        path = read_path_csv(out / "mpp_path.csv")
        phi0, _ = example5_boundary(4)
        np.testing.assert_array_equal(path.states[0], phi0)
        np.testing.assert_array_equal(path.states[-1], np.zeros(9))

    @pytest.mark.parametrize("spec", ["i=99", "i=abc"])
    def test_mpp_bad_slice_rejected_before_solving(self, example5_file, tmp_path, spec):
        out = tmp_path / "mpp"
        code = main([
            "mpp", "--config", example5_file, "--out", str(out), "--dt", "0.05",
            "--slice", spec,
        ])
        assert code == 2
        assert not (out / "mpp_path.csv").exists()

    def test_mpp_zero_boundaries_trace_only(self, scalar_file, tmp_path):
        out = tmp_path / "mpp0"
        code = main([
            "mpp", "--config", scalar_file, "--out", str(out), "--dt", "0.125",
            "--phi0", "zero", "--phiT", "zero",
        ])
        assert code == 0
        report = json.loads((out / "om_report.json").read_text())
        assert report["drift_term"] == 0.0
        conv = (out / "convergence.csv").read_text().splitlines()
        assert len(conv) == 2  # header + single stationary iteration
        assert conv[0] == "iteration,action,gradient_norm,damping,step_length,backtracks,fallback"
        assert conv[1].endswith(",0,0,0,0")  # no step taken

    def test_mpp_convergence_log_records_fallback_steps(self, scalar_file, tmp_path, monkeypatch):
        import omlat.mpp as mpp_mod

        # every factorization reports a matrix that is not positive definite
        monkeypatch.setattr(mpp_mod, "_factor", lambda band, n: 1)
        out = tmp_path / "mpp_fallback"
        main(["mpp", "--config", scalar_file, "--out", str(out), "--dt", "0.125", "--max-iter", "3"])
        header, *rows = (out / "convergence.csv").read_text().splitlines()
        assert header.split(",")[3:] == ["damping", "step_length", "backtracks", "fallback"]
        cells = [row.split(",") for row in rows]
        assert len(cells) == 4 and cells[0][3:] == ["0", "0", "0", "0"]
        for row in cells[1:]:
            # every factorization failed, so the damping grew and each step is gradient descent
            assert row[6] == "1" and float(row[3]) > 0.0
            assert 0.0 < float(row[4]) <= 1.0 and int(row[5]) >= 0

    @pytest.mark.parametrize("broken", ["missing", "routine"])
    def test_scipy_without_usable_lapack_fails_mpp_only(self, scalar_file, tmp_path, capsys, monkeypatch, broken):
        # a scipy without _flapack, or whose _flapack lacks dpbtrs: mpp
        # exits 2 before its run opens, naming scipy's version, and a
        # command that never solves runs as before
        import omlat.mpp as mpp_mod

        monkeypatch.setattr(mpp_mod, "_LAPACK", {})  # as in a process that has not solved yet
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
        if broken == "missing":
            def missing():
                raise ImportError(f"scipy {scipy.__version__} has no _flapack extension")

            monkeypatch.setattr(mpp_mod, "_flapack", missing)
        else:
            extension = types.SimpleNamespace(dpbtrf=lambda *args, **kwargs: None)
            monkeypatch.setitem(sys.modules, "scipy.linalg._flapack", extension)
        out = tmp_path / "mpp"
        assert main(["mpp", "--config", scalar_file, "--out", str(out), "--dt", "0.125"]) == 2
        err = capsys.readouterr().err
        assert f"scipy {scipy.__version__}" in err and "LAPACK" in err and "Traceback" not in err
        assert broken == "missing" or "dpbtrs" in err
        assert not out.exists() and not mpp_mod._LAPACK
        assert main(["verify", "kl", "--lambda", "0.4", "--m", "3", "--out", str(tmp_path / "kl")]) == 0

    def test_mpp_files_do_not_depend_on_the_thread_count(self, tmp_path, monkeypatch):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(EXAMPLE5.replace("n = 30", "n = 4"))
        files = []
        for threads in ("1", "2"):
            monkeypatch.setenv("OMLAT_THREADS", threads)
            out = tmp_path / f"threads{threads}"
            code = main([
                "mpp", "--config", str(cfg), "--out", str(out), "--dt", "0.25", "--newton",
                "--slice", "i=0,3",
            ])
            assert code == 0
            files.append({f.name: f.read_bytes() for f in sorted(out.iterdir()) if f.name != "manifest.json"})
        assert sorted(files[0]) == [
            "convergence.csv", "mpp_path.csv", "om_report.json", "slice_i0.csv", "slice_i3.csv",
        ]
        assert files[0] == files[1]

    def test_bound_overflow_exits_numerical_naming_the_trajectory(self, tmp_path, capsys):
        # |W|^(4p+2) overflows at p = 154: the run fails instead of writing
        # an infinite bound functional and a ratio of 0
        cfg = tmp_path / "steep.cfg"
        cfg.write_text(SCALAR.replace("n = 0", "n = 1").replace("p = 1", "p = 154").replace("constant:1.0", "constant:3"))
        out = tmp_path / "bound"
        code = main(["verify", "bound", "--config", str(cfg), "--ensemble", "4", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "trajectory 0 overflows" in err
        assert "Warning" not in err and "Traceback" not in err
        assert not (out / "bound.csv").exists()
        _closed_manifest(out, 3, "IntegrationError")

    def test_growth_bound_violation_names_c_f(self, tmp_path, capsys):
        cfg = tmp_path / "steep.cfg"
        cfg.write_text(EXAMPLE5.replace("C_f = 0.1", "C_f = 0.01"))
        out = tmp_path / "steep"
        code = main(["mpp", "--config", str(cfg), "--out", str(out), "--dt", "0.5"])
        assert code == 2
        err = capsys.readouterr().err
        assert "C_f" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "row, fault",
        [("0.25,abc,0,0", "not a number"), ("0.25,0", "2 cells, the header has 4"),
         ("0.25,0,inf,0", "non-finite value")],
        ids=["non-numeric", "ragged", "non-finite"],
    )
    def test_om_bad_path_csv_names_file_and_line(self, tmp_path, capsys, row, fault):
        cfg = tmp_path / "n1.cfg"
        cfg.write_text(EXAMPLE5.replace("n = 30", "n = 1").replace("T = 30", "T = 0.5"))
        csv = tmp_path / "bad.csv"
        csv.write_text(f"t,u_-1,u_0,u_1\n0,0,0,0\n{row}\n")
        with pytest.raises(ConfigurationError, match=f"line 3: {fault}"):
            read_path_csv(csv)
        code = main(["om", "--config", str(cfg), "--path", str(csv), "--out", str(tmp_path / "om")])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad.csv, line 3" in err and "Traceback" not in err

    def test_om_path_csv_must_start_at_time_zero(self, scalar_file, tmp_path, capsys):
        # rows from t = 0.25 to the horizon 1 would give the action over [0.25, 1]
        csv = tmp_path / "late.csv"
        csv.write_text("t,u_0\n" + "".join(f"{t},0.5\n" for t in (0.25, 0.5, 0.75, 1)))
        with pytest.raises(ConfigurationError, match="late.csv: time grid must start at 0, got 0.25"):
            read_path_csv(csv)
        out = tmp_path / "om"
        code = main(["om", "--config", scalar_file, "--path", str(csv), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "late.csv: time grid must start at 0" in err and "Traceback" not in err
        assert not out.exists()

    def test_om_rejects_a_path_the_config_does_not_fit_before_opening_out(
        self, scalar_file, example5_file, tmp_path, capsys
    ):
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", scalar_file, "--out", str(sim), "--dt", "0.25"]) == 0
        longer = tmp_path / "long.cfg"
        longer.write_text(SCALAR.replace("T = 1", "T = 2"))
        cases = {
            example5_file: "path has 1 sites, config has 61",
            str(longer): "path covers [0, 1] but the configured horizon is 2",
        }
        for cfg, message in cases.items():
            out = tmp_path / "om"
            code = main(["om", "--config", cfg, "--path", str(sim / "path_000.csv"), "--out", str(out)])
            assert code == 2
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err
            assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["verify", "tube", "--samples", "1000"], ["mpp", "--dt", "0.25", "--phi0", "zero"]],
        ids=["tube", "mpp"],
    )
    def test_noise_below_the_action_floor_rejected_before_opening_out(self, tmp_path, capsys, argv):
        cfg = tmp_path / "faint.cfg"
        cfg.write_text(SCALAR.replace("constant:1.0", "constant:1e-13"))
        out = tmp_path / "run"
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "noise coefficient below 1e-12" in err and "Traceback" not in err
        assert not out.exists()

    def test_om_round_trip(self, example5_file, tmp_path):
        sim = tmp_path / "sim"
        main(["simulate", "--config", example5_file, "--seed", "3", "--out", str(sim), "--dt", "0.25"])
        out = tmp_path / "om"
        code = main([
            "om", "--config", example5_file, "--path", str(sim / "path_000.csv"),
            "--out", str(out),
        ])
        assert code == 0
        report = json.loads((out / "om_report.json").read_text())
        assert report["drift_term"] > 0

    def test_verify_kl_artifacts(self, tmp_path):
        out = tmp_path / "kl"
        code = main(["verify", "kl", "--lambda", "0.4", "--m", "10", "--out", str(out)])
        assert code == 0
        rows = (out / "kl_spectrum.csv").read_text().splitlines()
        assert rows[0] == "i,gamma,mu,A,residual"
        assert len(rows) == 11
        assert all(float(r.split(",")[4]) <= 1e-10 for r in rows[1:])

    def test_verify_cocycle_exit_zero(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(EXAMPLE5.replace("n = 30", "n = 2"))
        out = tmp_path / "coc"
        code = main([
            "verify", "cocycle", "--config", str(cfg), "--out", str(out),
            "--dt", str(30.0 / 128),
        ])
        assert code == 0
        rows = (out / "cocycle.csv").read_text().splitlines()
        assert len(rows) == 3
        assert all(float(r.split(",")[1]) <= 1e-12 for r in rows[1:])

    def test_verify_cocycle_restarts_at_grid_steps_on_every_grid(self, scalar_file, tmp_path):
        # 5 steps of 0.2: T/4 is no grid time, so the restarts are at steps 5 // 4 and 5 // 2
        out = tmp_path / "coc"
        code = main(["verify", "cocycle", "--config", scalar_file, "--out", str(out), "--dt", "0.2"])
        assert code == 0
        rows = [r.split(",") for r in (out / "cocycle.csv").read_text().splitlines()[1:]]
        assert [float(s) for s, _ in rows] == [0.2, 0.4]
        assert all(float(dev) == 0.0 for _, dev in rows)

    def test_verify_tube_zero_case(self, scalar_file, tmp_path):
        out = tmp_path / "tube"
        code = main([
            "verify", "tube", "--config", scalar_file, "--out", str(out),
            "--samples", "20000", "--eps", "0.4,0.3", "--dt", str(1.0 / 128),
        ])
        assert code == 0
        rows = (out / "tube.csv").read_text().splitlines()
        assert rows[0] == "eps,num_hits,den_hits,ratio,ci_lo,ci_hi,predicted"
        assert all(float(r.split(",")[6]) == 1.0 for r in rows[1:])

    def test_verify_tube_rejects_wide_lattice(self, example5_file, tmp_path):
        out = tmp_path / "x"
        code = main(["verify", "tube", "--config", example5_file, "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_verify_tube_without_samples_rejected_before_opening_out(self, scalar_file, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["verify", "tube", "--config", scalar_file, "--out", str(out), "--samples", "0"])
        assert code == 2
        assert "--samples" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_smallball_artifacts(self, tmp_path):
        out = tmp_path / "sb"
        code = main([
            "verify", "smallball", "--alpha", "1", "--imax", "3000",
            "--eps", "0.8,0.6", "--samples", "20000", "--out", str(out),
        ])
        assert code == 0
        rows = (out / "smallball.csv").read_text().splitlines()
        assert rows[0] == "eps,estimate,ci_lo,ci_hi,rate_up,rate_low"

    def test_exit_codes(self, scalar_file, tmp_path):
        assert main(["simulate", "--config", "/no/such.cfg", "--out", str(tmp_path / "x")]) == 2
        assert (
            main([
                "verify", "tube", "--config", scalar_file, "--out", str(tmp_path / "y"),
                "--samples", "300", "--eps", "0.05", "--dt", str(1.0 / 64),
            ])
            == 4
        )
        _closed_manifest(tmp_path / "y", 4, "StatisticalPowerError")
        # non-convergence exits 3 but still writes artifacts
        out = tmp_path / "nc"
        code = main([
            "mpp", "--config", scalar_file, "--out", str(out), "--dt", "0.015625",
            "--phi0", "csv:" + _write_csv_state(tmp_path, [1.0]),
            "--max-iter", "1", "--tol", "1e-15",
        ])
        assert code == 3
        assert (out / "mpp_path.csv").exists()
        _closed_manifest(out, 3)

    def test_manifest_written_before_outputs(self, example5_file, tmp_path, monkeypatch):
        # force a blow-up mid-run: manifest must already exist
        out = tmp_path / "boom"
        bad = tmp_path / "bad.cfg"
        bad.write_text(EXAMPLE5.replace("0, 0.1", "0, 0.1, 0"))  # same f, fine
        code = main([
            "simulate", "--config", str(bad), "--out", str(out), "--dt", "0.25",
            "--u0", "gauss:600000,8",
        ])
        assert code == 3
        _closed_manifest(out, 3, "IntegrationError")

    def test_unexpected_error_closes_manifest_then_propagates(self, scalar_file, tmp_path, monkeypatch):
        def broken_writer(*args, **kwargs):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr("omlat.cli.write_path_csv", broken_writer)
        out = tmp_path / "sim"
        with pytest.raises(RuntimeError, match="disk on fire"):
            main(["simulate", "--config", scalar_file, "--out", str(out), "--dt", "0.25"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed" and manifest["exit_code"] is None
        assert manifest["error"] == {"type": "RuntimeError", "message": "disk on fire"}
        assert manifest["wall_clock_s"] > 0

    @pytest.mark.parametrize(
        "probe", ["config-dir", "config-bytes", "q-table-dir", "path-dir", "path-bytes", "out-file"]
    )
    def test_unreadable_input_named(self, scalar_file, tmp_path, capsys, probe):
        target, out = tmp_path / "target", tmp_path / "out"
        if probe.endswith("bytes"):
            target.write_bytes(b"\xff\xfe t = 1\n")
        elif probe == "out-file":
            target.write_text("a file\n")
            out = target
        else:
            target.mkdir()
        config = scalar_file
        if probe.startswith("config"):
            config = str(target)
        elif probe == "q-table-dir":
            config = tmp_path / "table.cfg"
            config.write_text(SCALAR.replace("constant:1.0", f"table:{target}"))
        argv = ["--config", str(config), "--out", str(out)]
        if probe.startswith("path"):
            code = main(["om", "--path", str(target)] + argv)
        else:
            code = main(["simulate", "--dt", "0.25"] + argv)
        assert code == 2
        err = capsys.readouterr().err
        assert str(target) in err and "Traceback" not in err
        if probe == "out-file":
            assert "--out" in err and target.read_text() == "a file\n"
        else:
            assert not out.exists()

    @pytest.mark.parametrize("eps", ["", ","])
    def test_verify_smallball_empty_radius_list_rejected(self, tmp_path, capsys, eps):
        code = main(["verify", "smallball", "--eps", eps, "--out", str(tmp_path / "sb")])
        assert code == 2
        assert "--eps" in capsys.readouterr().err

    def test_verify_smallball_radius_range_checked_before_sampling(self, tmp_path, monkeypatch, capsys):
        def no_sampling(*args, **kwargs):
            raise AssertionError("smallball_mc ran before the radii were checked")

        monkeypatch.setattr("omlat.cli.smallball_mc", no_sampling)
        for eps in ("0.5,2", "0"):
            code = main(["verify", "smallball", "--eps", eps, "--out", str(tmp_path / "sb")])
            assert code == 2
            assert "--eps" in capsys.readouterr().err
            assert not (tmp_path / "sb").exists()

    @pytest.mark.parametrize("imax", ["0", "-3"])
    def test_verify_smallball_imax_below_one_rejected(self, tmp_path, capsys, imax):
        code = main([
            "verify", "smallball", "--imax", imax, "--samples", "1000", "--out", str(tmp_path / "sb"),
        ])
        assert code == 2
        assert "--imax" in capsys.readouterr().err
        assert not (tmp_path / "sb").exists()

    # --imax 10 leaves too much tail mass for the radius 0.5
    @pytest.mark.parametrize("flags", ["--imax 10", "--samples 0", "--samples -2"])
    def test_verify_smallball_bad_truncation_or_samples_rejected_before_opening_out(self, tmp_path, capsys, flags):
        code = main(["verify", "smallball", "--eps", "0.5", "--out", str(tmp_path / "sb"), *flags.split()])
        assert code == 2
        err = capsys.readouterr().err
        assert flags.split()[0] in err and "Traceback" not in err
        assert not (tmp_path / "sb").exists()

    @pytest.mark.parametrize("flags", ["--lambda nan --m 3", "--lambda 0", "--lambda inf", "--m 0", "--m -1"])
    def test_verify_kl_bad_flags_rejected_before_opening_out(self, tmp_path, capsys, flags):
        code = main(["verify", "kl", "--out", str(tmp_path / "kl"), *flags.split()])
        assert code == 2
        err = capsys.readouterr().err
        assert flags.split()[0] in err and "Traceback" not in err
        assert not (tmp_path / "kl").exists()

    def test_verify_kl_m_beyond_physical_memory_rejected_before_opening_out(self, tmp_path, capsys):
        out = tmp_path / "kl"
        assert main(["verify", "kl", "--m", "100000000000", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--m=100000000000" in err and "physical memory" in err and "Traceback" not in err
        assert not out.exists()

    def test_verify_smallball_imax_beyond_physical_memory_rejected_before_opening_out(self, tmp_path, capsys):
        out = tmp_path / "smallball"
        assert main(["verify", "smallball", "--imax", "100000000000", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--imax=100000000000" in err and "physical memory" in err and "Traceback" not in err
        assert not out.exists()

    def test_gauss_sigma_whose_square_is_subnormal_runs_without_warning(self, example5_file, tmp_path, capsys):
        # 2 sigma^2 = 2e-320: every site but the centre overflows i^2 / (2 sigma^2)
        # to inf, whose exp(-inf) = 0 is the profile's limit
        out = tmp_path / "bound"
        argv = ["verify", "bound", "--config", example5_file, "--u0", "gauss:1,1e-160", "--ensemble", "2"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv + ["--dt", "0.25", "--out", str(out)]) == 0
        assert not caught and "Warning" not in capsys.readouterr().err
        i = np.arange(-30, 31)
        np.testing.assert_array_equal(parse_state_spec("gauss:1,1e-160", 30), (i == 0).astype(float))

    @pytest.mark.parametrize("field", ["n", "p"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_integer_config_field_rejected_before_opening_out(self, tmp_path, capsys, field, value):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SCALAR.replace(f"\n{field} = ", f"\n{field} = {value} # "))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"field '{field}'" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1e300", "4611686018427387904"], ids=["1e300", "2^62"])
    def test_huge_n_rejected_before_opening_out(self, tmp_path, capsys, value):
        # 2n + 1 sites past numpy's largest array: LatticeConfig's first
        # d-sized array raised ValueError, a traceback and exit 1, before
        # one state of them was checked against physical memory
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SCALAR.replace("\nn = ", f"\nn = {value} # "))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "truncation half-width n=" in err and "physical memory" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value, command, named",
        [
            ("p", "1e300", ["simulate"], "growth exponent p"),
            ("rho", "1e300", ["simulate"], "weights rho_i"),
            ("rho", "1e-300", ["verify", "tube"], "weights rho_i"),
            ("q_spec", "constant:1e300", ["mpp"], "q (q_spec)"),
            ("q_spec", "constant:1e-300", ["simulate"], "q (q_spec)"),
        ],
        ids=["p-growth-check-overflows", "rho-norm-overflows", "rho-square-underflows", "q-square-overflows",
             "q-square-underflows"],
    )
    def test_extreme_config_value_rejected_before_opening_out(self, tmp_path, capsys, field, value, command, named):
        # 10^(2p) on the growth check's grid, d (rho 1e8)^2 and q^2 overflow,
        # rho^2 and q^2 underflow: each ran to exit 0 or 3, with numpy
        # warnings or none, before these ranges were checked
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SCALAR.replace(f"\n{field} = ", f"\n{field} = {value} # "))
        out = tmp_path / "run"
        assert main(command + ["--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert named in err and "Warning" not in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["verify", "tube", "--eps", "1e300"], "--eps"),
            (["verify", "tube", "--eps", "0.3,1e-300"], "--eps"),
            (["verify", "kl", "--lambda", "1e300"], "--lambda"),
            (["verify", "kl", "--lambda", "1e-300"], "--lambda"),
            (["verify", "smallball", "--alpha", "0.5000001"], "alpha"),
            (["verify", "smallball", "--alpha", "0.505"], "--imax"),
            (["simulate", "--seed", "-1"], "--seed"),
            (["simulate", "--seed", str(2**64)], "--seed"),
            (["simulate", "--u0", "gauss:1,1e200"], "gauss:1,1e200"),
            (["simulate", "--u0", "gauss:1,1e-200"], "gauss:1,1e-200"),
            (["mpp", "--phi0", "gauss:1,1e-200"], "gauss:1,1e-200"),
        ],
        ids=["tube-eps-huge", "tube-eps-tiny", "kl-lambda-huge", "kl-lambda-tiny", "smallball-alpha-near-half",
             "smallball-imax-beyond-doubles", "seed-negative", "seed-two-to-the-64", "gauss-sigma-square-overflows",
             "gauss-sigma-square-underflows", "mpp-gauss-sigma-square-underflows"],
    )
    def test_extreme_flag_rejected_before_opening_out(self, scalar_file, tmp_path, capsys, argv, flag):
        if argv[0] != "verify" or argv[1] == "tube":
            argv = argv + ["--config", scalar_file]
        out = tmp_path / "run"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("lam", ["1e-13", "1e-150"])
    def test_verify_kl_tiny_lambda_passes_its_residual_check(self, tmp_path, lam):
        # each residual cancels two terms of size gamma_i / lambda, 1e15 and
        # more here: the roots are right when it is a rounding of those
        out = tmp_path / "kl"
        assert main(["verify", "kl", "--lambda", lam, "--m", "50", "--out", str(out)]) == 0
        rows = np.loadtxt(out / "kl_spectrum.csv", delimiter=",", skiprows=1)
        assert np.all(rows[:, 4] <= 1e-14 * rows[:, 1] / float(lam))

    def test_verify_kl_residual_above_tolerance_is_a_numerical_failure(self, tmp_path, monkeypatch, capsys):
        def off_by_a_part_in_a_million(lam, m):
            spec = kl_spectrum(lam, m)
            return type(spec)(lam, spec.gamma, spec.mu, spec.A, spec.pole_offset * (1 + 1e-6))

        monkeypatch.setattr("omlat.cli.kl_spectrum", off_by_a_part_in_a_million)
        out = tmp_path / "kl"
        assert main(["verify", "kl", "--m", "5", "--out", str(out)]) == 3
        assert "exceeds" in capsys.readouterr().err
        _closed_manifest(out, 3)

    @pytest.mark.parametrize("spec", ["gauss:0.6,0", "gauss:0.6,-1", "gauss:nan,8"])
    def test_bad_gauss_state_spec_rejected(self, example5_file, tmp_path, capsys, spec):
        # the state is parsed before the run opens its output directory
        out = tmp_path / "run"
        for command in (["simulate"], ["verify", "cocycle"], ["verify", "bound"]):
            code = main([*command, "--config", example5_file, "--out", str(out), "--dt", "0.25", "--u0", spec])
            assert code == 2, command
            assert "gauss state spec" in capsys.readouterr().err
            assert not out.exists(), command

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_csv_state_rejected(self, example5_file, tmp_path, capsys, bad):
        state = tmp_path / "state.csv"
        state.write_text(",".join([bad] + ["0"] * 60) + "\n")
        out = tmp_path / "run"
        for command in (["simulate", "--u0"], ["verify", "cocycle", "--u0"], ["verify", "bound", "--u0"], ["mpp", "--phi0"]):
            code = main([*command, f"csv:{state}", "--config", example5_file, "--out", str(out), "--dt", "0.5"])
            assert code == 2, command
            err = capsys.readouterr().err
            assert f"{command[-1]}: state file {state}, line 1: non-finite value in" in err, command
            assert "Traceback" not in err, command
            assert not out.exists(), command

    @pytest.mark.parametrize(
        "text, fault", [("", "the file holds no rows"), ("1\n2\n3\n", "expected one row, got 3")],
        ids=["empty", "three-rows"],
    )
    def test_bad_csv_state_rejected_in_one_line(self, tmp_path, text, fault):
        # three values in three rows would fit the three sites, but a state is one row
        state = tmp_path / "state.csv"
        state.write_text(text)
        cfg = tmp_path / "n1.cfg"
        cfg.write_text(EXAMPLE5.replace("n = 30", "n = 1"))
        out = tmp_path / "sim"
        code, err = _run_cli(["simulate", "--config", str(cfg), "--u0", f"csv:{state}", "--dt", "0.5", "--out", str(out)])
        assert code == 2
        assert err == f"configuration error: --u0: state file {state}: {fault}\n"
        assert not out.exists()

    def test_verify_truncation_small_lattices(self, tmp_path, capsys):
        from pathlib import Path as FsPath

        scalar = FsPath(__file__).resolve().parent.parent / "configs" / "scalar.cfg"
        code = main(["verify", "truncation", "--config", str(scalar), "--out", str(tmp_path / "t0")])
        assert code == 2
        assert "n=0" in capsys.readouterr().err
        cfg = tmp_path / "n1.cfg"
        cfg.write_text(EXAMPLE5.replace("n = 30", "n = 1"))
        out = tmp_path / "t1"
        code = main([
            "verify", "truncation", "--config", str(cfg), "--out", str(out),
            "--dt", "0.5", "--ensemble", "2",
        ])
        assert code == 0
        rows = (out / "truncation.csv").read_text().splitlines()
        assert rows[0] == "K,tail,tail_wide" and len(rows) == 2

    def test_verify_truncation_rejects_a_q_table_too_narrow_for_2n_before_opening_out(self, tmp_path, capsys):
        # a table of 3 sites covers n = 1 but not the widened n = 2
        table = tmp_path / "q.csv"
        table.write_text("0,1,1,1\n30,1,1,1\n")
        cfg = tmp_path / "n1.cfg"
        cfg.write_text(EXAMPLE5.replace("n = 30", "n = 1").replace("example5:0.01,31", f"table:{table}"))
        out = tmp_path / "t1"
        code = main(["verify", "truncation", "--config", str(cfg), "--out", str(out), "--dt", "0.5", "--ensemble", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "table covers 3 sites, need 5" in err and "Traceback" not in err
        assert not out.exists()

    def test_overflowing_action_is_a_numerical_failure(self, scalar_file, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("t,u_0\n0,0\n0.5,1e200\n1,0\n")
        out = tmp_path / "om"
        code, err = _run_cli(["om", "--config", scalar_file, "--path", str(path), "--out", str(out)])
        assert code == 3
        assert err == "numerical failure: the action is not finite: it overflows on interval 0 (t in [0, 0.5])\n"
        _closed_manifest(out, 3, "IntegrationError")
        assert not (out / "om_report.json").exists()
        assert all("Infinity" not in f.read_text() for f in out.iterdir())

    def test_empty_q_table_rejected(self, tmp_path):
        table = tmp_path / "q.csv"
        table.write_text("")
        cfg = tmp_path / "table.cfg"
        cfg.write_text(SCALAR.replace("constant:1.0", f"table:{table}"))
        code, err = _run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")])
        assert code == 2
        assert err == f"configuration error: q_spec table {table}: the file holds no rows\n"

    @pytest.mark.parametrize(
        "spec, text, fault",
        [
            ("table", "0,1\n\n1,1\n", "line 2: 0 cells, line 1 has 2"),
            ("table", "0,1\n# q rises\n1,2\n", "line 2: not a number in '# q rises'"),
            ("table", "0,1\n1,x\n", "line 2: not a number in '1,x'"),
            ("table", "0,1,1\n1,1\n", "line 2: 2 cells, line 1 has 3"),
            ("csv", "0\n\n0\n", "line 2: 0 cells, line 1 has 1"),
            ("csv", "# a state\n0\n", "line 1: not a number in '# a state'"),
        ],
        ids=["table-blank-line", "table-comment-line", "table-not-a-number", "table-ragged", "csv-blank-line",
             "csv-comment-line"],
    )
    def test_input_csv_error_names_file_and_line(self, scalar_file, tmp_path, capsys, spec, text, fault):
        # np.loadtxt skipped blank and # lines; every line of a table or
        # state file is now a row
        data = tmp_path / "data.csv"
        data.write_text(text)
        config, argv = scalar_file, ["--u0", f"csv:{data}"]
        if spec == "table":
            config, argv = tmp_path / "table.cfg", []
            config.write_text(SCALAR.replace("constant:1.0", f"table:{data}"))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(config), "--dt", "0.25", "--out", str(out), *argv]) == 2
        what = "q_spec table" if spec == "table" else "--u0: state file"
        assert f"configuration error: {what} {data}, {fault}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, fault",
        [("0,1\nnan,2\n40,3\n", "line 2: non-finite value in 'nan,2'"),
         ("0,1\n10,2\ninf,3\n", "line 3: non-finite value in 'inf,3'"),
         ("0,1\n10,nan\n", "line 2: non-finite value in '10,nan'")],
        ids=["nan-time", "inf-time", "nan-value"],
    )
    def test_non_finite_q_table_rejected(self, tmp_path, capsys, text, fault):
        # a nan time passed the strictly-increasing test, and an inf time
        # loaded and ran to exit 0; the reader now names the line
        table = tmp_path / "q.csv"
        table.write_text(text)
        cfg = tmp_path / "table.cfg"
        cfg.write_text(SCALAR.replace("constant:1.0", f"table:{table}"))
        for command in (["simulate"], ["mpp"]):
            out = tmp_path / "run"
            assert main(command + ["--config", str(cfg), "--dt", "0.25", "--out", str(out)]) == 2
            assert f"q_spec table {table}, {fault}" in capsys.readouterr().err
            assert not out.exists()


CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
EX5_CFG = os.path.join(CONFIGS, "example5.cfg")
SCALAR_CFG = os.path.join(CONFIGS, "scalar.cfg")

# The README's example runs, at smaller sizes; "{path}" is a path CSV on example 5's grid.
README_RUNS = {
    "simulate": ["simulate", "--config", EX5_CFG, "--seed", "1", "--dt", "0.05", "--ensemble", "4"],
    "mpp": ["mpp", "--config", EX5_CFG, "--dt", "0.05", "--slice", "i=0,10"],
    "om": ["om", "--config", EX5_CFG, "--path", "{path}"],
    "kl": ["verify", "kl", "--lambda", "0.4", "--m", "50"],
    "cocycle": ["verify", "cocycle", "--config", EX5_CFG, "--dt", "0.05859375"],
    "truncation": ["verify", "truncation", "--config", EX5_CFG, "--ensemble", "4"],
    "bound": ["verify", "bound", "--config", EX5_CFG, "--ensemble", "4"],
    "smallball": ["verify", "smallball", "--alpha", "1", "--imax", "12000", "--eps", "0.5,0.4,0.3",
                  "--samples", "1000"],
    "tube": ["verify", "tube", "--config", SCALAR_CFG, "--eps", "0.3,0.2", "--samples", "1000"],
}

# Every option of every (sub)command: option strings, dest, default and
# whether it is required, as the parser had them before the commands were
# split into check and run phases.
_S = argparse.SUPPRESS
_HELP = (("-h", "--help"), "help", _S, False)
_OUT, _SEED = (("--out",), "out", "out", False), (("--seed",), "seed", 0, False)
_COMMON = [(("--config",), "config", None, True), _OUT, _SEED]
_DT = (("--dt",), "dt", None, False)
_U0 = (("--u0",), "u0", "gauss:0.6,8", False)
CLI_SURFACE = {
    (): [(("--version",), "version", _S, False), _HELP],
    ("simulate",): [*_COMMON, _DT, (("--ensemble",), "ensemble", 1, False), _U0, _HELP],
    ("mpp",): [
        *_COMMON, _DT, (("--max-iter",), "max_iter", 200, False), (("--newton",), "newton", False, False),
        (("--phi0",), "phi0", "gauss:0.6,8", False), (("--phiT",), "phiT", "zero", False),
        (("--slice",), "slice", None, False), (("--tol",), "tol", None, False), _HELP,
    ],
    ("om",): [*_COMMON, (("--path",), "path", None, True), _HELP],
    ("verify",): [_HELP],
    ("verify", "kl"): [(("--lambda",), "lam", 0.4, False), (("--m",), "m", 50, False), _OUT, _SEED, _HELP],
    ("verify", "cocycle"): [*_COMMON, _DT, _U0, _HELP],
    ("verify", "truncation"): [*_COMMON, _DT, (("--ensemble",), "ensemble", 200, False), _HELP],
    ("verify", "bound"): [*_COMMON, _DT, (("--ensemble",), "ensemble", 100, False), _U0, _HELP],
    ("verify", "smallball"): [
        (("--alpha",), "alpha", 1.0, False), (("--eps",), "eps", "0.5,0.4,0.3", False),
        (("--imax",), "imax", 12000, False), (("--samples",), "samples", 1_000_000, False), _OUT, _SEED, _HELP,
    ],
    ("verify", "tube"): [
        *_COMMON, _DT, (("--denominator",), "denominator", "convolution", False),
        (("--eps",), "eps", "0.3,0.2", False), (("--reference",), "reference", "zero", False),
        (("--samples",), "samples", 100_000, False), _HELP,
    ],
}


def _surface(parser, prefix=()):
    """Option strings, dest, default and requiredness of each option of
    ``parser`` and of its subcommands, by command path."""
    options = [(tuple(a.option_strings), a.dest, a.default, a.required) for a in parser._actions if a.option_strings]
    found = {prefix: sorted(options)}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found.update(_surface(sub, prefix + (name,)))
    return found


class TestCheckPhase:
    @pytest.mark.parametrize("name", sorted(README_RUNS))
    def test_check_phase_computes_and_writes_nothing(self, tmp_path, monkeypatch, name):
        # the run opener is reached, and before it nothing is computed or written
        class Opened(Exception):
            pass

        def opener(*args, **kwargs):
            raise Opened

        def computing(label):
            def fail(*args, **kwargs):
                raise AssertionError(f"{label} ran in the check phase")
            return fail

        inputs, work = tmp_path / "in", tmp_path / "work"
        inputs.mkdir()
        work.mkdir()
        path_csv = inputs / "path.csv"
        write_path_csv(Path(np.zeros((121, 61)), 0.25), path_csv)
        monkeypatch.setattr(cli, "_prepare_out", opener)
        for label in ("solve_mpp", "om_action", "kl_spectrum", "integrate_ensemble", "sample_noise",
                      "smallball_mc", "tube_ratio"):
            monkeypatch.setattr(cli, label, computing(label))
        monkeypatch.chdir(work)
        argv = [a.replace("{path}", str(path_csv)) for a in README_RUNS[name]]
        with pytest.raises(Opened):
            main(argv + ["--out", str(work / "run")])
        assert list(work.iterdir()) == []

    def test_cli_surface_is_pinned(self, capsys):
        assert _surface(build_parser()) == {command: sorted(options) for command, options in CLI_SURFACE.items()}
        for command in CLI_SURFACE:
            with pytest.raises(SystemExit) as exc:
                main([*command, "--help"])
            assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: omlat")

    def test_memory_message_names_the_default_grid(self, tmp_path, capsys, monkeypatch):
        # a lattice whose solver band on mpp's default 600 steps exceeds
        # physical memory, with --dt left out
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        n = 1
        while 8 * math.prod(_band_shape(600, 2 * n + 1)) <= memory:
            n *= 2
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(EXAMPLE5.replace("n = 30", f"n = {n}"))
        out = tmp_path / "mpp"
        assert main(["mpp", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"the default 600 steps (no --dt): the solver's band and work arrays for {2 * n + 1} sites" in err
        assert "--dt=None" not in err and not out.exists()

    @pytest.mark.parametrize("dt", ["1", "0.5", "0.3333333333333333"], ids=["1", "2", "3"])
    def test_verify_cocycle_below_four_steps_rejected(self, tmp_path, capsys, dt):
        # the restarts are steps N // 4 and N // 2; below 4 steps one is t = 0,
        # where the restarted run is the full run and cannot deviate
        out = tmp_path / "coc"
        assert main(["verify", "cocycle", "--config", SCALAR_CFG, "--dt", dt, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"--dt={float(dt)} gives" in err and "at least 4" in err and "Traceback" not in err
        assert not out.exists()

    def test_verify_cocycle_on_four_steps(self, tmp_path):
        out = tmp_path / "coc"
        assert main(["verify", "cocycle", "--config", SCALAR_CFG, "--dt", "0.25", "--out", str(out)]) == 0
        rows = [r.split(",") for r in (out / "cocycle.csv").read_text().splitlines()[1:]]
        assert [float(s) for s, _ in rows] == [0.25, 0.5]

    def test_manifest_records_the_check_phase_time_when_the_run_opens(self, tmp_path, monkeypatch):
        out = tmp_path / "kl"
        opened = []

        def reading_manifest(*args, **kwargs):
            opened.append(json.loads((out / "manifest.json").read_text()))
            return kl_spectrum(*args, **kwargs)

        monkeypatch.setattr("omlat.cli.kl_spectrum", reading_manifest)
        assert main(["verify", "kl", "--m", "5", "--out", str(out)]) == 0
        manifest = _closed_manifest(out, 0)
        assert opened[0]["check_s"] == manifest["check_s"]
        assert 0 <= manifest["check_s"] <= manifest["wall_clock_s"]


def _closed_manifest(out, code, error_type=None):
    """The manifest of a run in ``out`` that ended with exit ``code``
    (and, when it raised, an error of class ``error_type``)."""
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == ("ok" if code == 0 else "failed")
    assert manifest["exit_code"] == code
    assert manifest["wall_clock_s"] > 0
    if error_type is None:
        assert manifest["error"] is None
    else:
        assert manifest["error"]["type"] == error_type and manifest["error"]["message"]
    return manifest


def _run_cli(argv):
    """Exit code and stderr of ``python -m omlat`` in a fresh interpreter,
    where warnings print to stderr as they do for a user."""
    src = os.path.dirname(os.path.dirname(os.path.realpath(omlat.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "omlat", *argv], capture_output=True, text=True, env=env)
    return proc.returncode, proc.stderr


def _write_csv_state(tmp_path, values):
    f = tmp_path / "state.csv"
    f.write_text(",".join(str(v) for v in values) + "\n")
    return str(f)


class TestShippedConfigs:
    def test_repo_configs_parse(self):
        from pathlib import Path as FsPath

        from omlat import load_config

        root = FsPath(__file__).resolve().parent.parent / "configs"
        ex5 = load_config(root / "example5.cfg")
        assert ex5.d == 61 and ex5.T == 30.0
        scalar = load_config(root / "scalar.cfg")
        assert scalar.d == 1 and scalar.f.coeffs == ()


# --- fuzzing the CLI -----------------------------------------------------

# Valid config values, and bad ones (None drops the key).
_CONFIG_GOOD = {
    "n": ["0", "1"], "nu": ["0.1"], "lambda": ["0.4"], "f_coeffs": ["", "0, 0.1"], "p": ["1"],
    "C_f": ["0.1"], "g": ["zero"], "q_spec": ["constant:1.0", "example5:0.01,1.5", "table:q.csv"],
    "rho": ["uniform"], "T": ["1", "0.5"],
}
_EXTREMES = ["1e300", "1e-300"]
_CONFIG_BAD = {
    "n": ["2", "-1", "0.5", "x", "nan", "inf"], "nu": ["0", "nan", *_EXTREMES], "lambda": ["-1", *_EXTREMES],
    "f_coeffs": ["0, 1e300", "-1", "a"], "p": ["0", "nan", "inf", *_EXTREMES], "C_f": ["-1", *_EXTREMES],
    "g": ["0.25, 1", "nan", *_EXTREMES],
    "q_spec": ["constant:0", "example5:1", "banana:1", "constant:1e300", "constant:1e-300"],
    "rho": ["-1", "2, 2, 2, 2", *_EXTREMES], "T": ["0", "inf", *_EXTREMES],
}
_TEXT_FILES = {
    "q.csv": ["0,1,1,1\n2,1,1,1\n", "0,1\n2,1\n", "", "0\n", "t,q\n", "0,1,1,1\n"],
    "path.csv": ["t,u_0\n0,0\n0.5,0.1\n1,0\n", "t,u_-1,u_0,u_1\n0,0,0,0\n0.5,1,2,3\n1,0,0,0\n",
                 "t,u_0\n0,0\n", "t,u_0\n0,0\n0.5,x\n", "", "u,v\n1,2\n"],
    "state.csv": ["0\n", "0,0,0\n", "1e300\n", "x\n"],
}
_STATE = st.sampled_from(["zero", "gauss:0.6,8", "gauss:1", "gauss:1e300,1", "csv:state.csv", "tri:1"])
_DT = st.sampled_from(["0.25", "0.125", "0", "-1", "nan", "0.3", "x"])
_SEED = st.integers(min_value=-1, max_value=2**64)
_EPS = st.sampled_from(["0.3,0.2", "0.5", "", ",", "-1", "2", "x", "nan", "inf", "1e300", "1e-300"])


def _maybe(values):
    """A flag value, or None: the flag is left out."""
    return st.one_of(st.none(), values)


def _flags(**strategies):
    return st.fixed_dictionaries({f"--{k.replace('_', '-')}": s for k, s in strategies.items()})


# Per subcommand: whether it reads a config, and its flag values (None: flag left out).
# Sizes are capped so that every run takes milliseconds.
_COMMANDS = {
    ("simulate",): (True, _flags(dt=_maybe(_DT), seed=_maybe(_SEED), ensemble=st.integers(-1, 3), u0=_maybe(_STATE))),
    ("mpp",): (True, _flags(
        dt=_maybe(_DT), phi0=_maybe(_STATE), phiT=_maybe(_STATE), max_iter=st.integers(-1, 3),
        tol=_maybe(st.sampled_from(["1e-3", "0", "-1", "nan"])), newton=_maybe(st.just(True)),
        slice=_maybe(st.sampled_from(["i=0", "i=9", "i=x", ""])),
    )),
    ("om",): (True, _flags(seed=_maybe(_SEED))),
    ("verify", "kl"): (False, _flags(**{"lambda": st.sampled_from(["0.4", "0", "nan", "inf", "1e300", "1e-13", "1e-300"]), "m": st.integers(-1, 6)})),
    ("verify", "cocycle"): (True, _flags(dt=_maybe(_DT), seed=_maybe(_SEED), u0=_maybe(_STATE))),
    ("verify", "truncation"): (True, _flags(dt=_maybe(_DT), ensemble=st.integers(-1, 3))),
    ("verify", "bound"): (True, _flags(dt=_maybe(_DT), ensemble=st.integers(-1, 3), u0=_maybe(_STATE))),
    ("verify", "smallball"): (False, _flags(
        alpha=st.sampled_from(["3", "2", "1", "0.5", "nan", "0.5000001", "0.505"]), imax=st.integers(-1, 50), eps=_EPS,
        samples=st.integers(-1, 2000), seed=_maybe(_SEED),
    )),
    ("verify", "tube"): (True, _flags(
        dt=_maybe(_DT), eps=_EPS, samples=st.integers(-1, 2000), seed=_maybe(_SEED),
        reference=st.sampled_from(["zero", "sine:0.5", "sine:x", "line"]),
        denominator=st.sampled_from(["convolution", "plain", "other"]),
    )),
}


@st.composite
def _config_text(draw):
    broken = draw(st.sets(st.sampled_from(sorted(_CONFIG_GOOD)), max_size=1))
    lines = []
    for key, good in _CONFIG_GOOD.items():
        value = draw(st.sampled_from(_CONFIG_BAD[key] + [None])) if key in broken else draw(st.sampled_from(good))
        if value is not None:
            lines.append(f"{key} = {value}")
    lines.append(draw(st.sampled_from(["", "# note", "", "", "junk"])))
    return "\n".join(lines) + "\n"


@st.composite
def _file(draw, texts, text_share=3):
    """A file's content: text (``text_share`` times as likely as each
    other kind), non-UTF-8 bytes, a directory in its place, or no file."""
    kind = draw(st.sampled_from(["text"] * text_share + ["bytes", "dir", "missing"]))
    if kind == "text":
        return kind, draw(texts)
    if kind == "bytes":
        return kind, b"\xff" + draw(st.binary(max_size=16))
    return kind, None


_FILES = st.fixed_dictionaries({
    "run.cfg": _file(_config_text(), text_share=9),
    **{
        name: _file(st.one_of(st.sampled_from(texts), st.sampled_from(texts), st.text(max_size=40)))
        for name, texts in _TEXT_FILES.items()
    },
})


def _materialize(root, files):
    for name, (kind, content) in files.items():
        if kind == "text":
            (root / name).write_text(content)
        elif kind == "bytes":
            (root / name).write_bytes(content)
        elif kind == "dir":
            (root / name).mkdir()


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from(sorted(_COMMANDS)),
    files=_FILES,
    data=st.data(),
)
def test_cli_fuzz_exits_with_a_documented_code_and_closes_its_manifest(command, files, data):
    from pathlib import Path as FsPath

    needs_config, flag_strategy = _COMMANDS[command]
    flags = data.draw(flag_strategy)
    with tempfile.TemporaryDirectory() as tmp:
        root = FsPath(tmp)
        _materialize(root, files)
        out = root / "out"
        argv = list(command)
        if needs_config:
            argv += ["--config", str(root / "run.cfg")]
        if command == ("om",):
            argv += ["--path", str(root / "path.csv")]
        for flag, value in flags.items():
            if value is True:
                argv.append(flag)
            elif value is not None:
                argv.append(f"{flag}={value}".replace("csv:state.csv", f"csv:{root / 'state.csv'}"))
        argv += ["--out", str(out)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejected a flag
                code = exc.code
        assert code in (0, 2, 3, 4), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if out.exists():
            # every JSON file of the run is strict JSON: no NaN or Infinity tokens
            docs = {f.name: json.loads(f.read_text(), parse_constant=_reject_constant) for f in out.glob("*.json")}
            manifest = docs["manifest.json"]
            # a run whose inputs are rejected creates no output directory
            assert (manifest["error"] or {}).get("type") not in ("ConfigurationError", "DegenerateNoiseError"), (argv, err.getvalue())
            assert manifest["status"] == ("ok" if code == 0 else "failed")
            assert manifest["exit_code"] == code and manifest["wall_clock_s"] is not None
