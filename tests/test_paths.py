import math
import os

import numpy as np
import pytest

from omlat import ConfigurationError, Path
from omlat.io import format_float, read_path_csv, write_csv
from omlat.utils import worker_count
from oracles import csv_text


class TestPath:
    def test_basic_properties(self):
        p = Path(np.zeros((5, 3)), 0.25)
        assert p.steps == 4
        assert p.d == 3
        assert p.T == 1.0
        np.testing.assert_array_equal(p.times, 0.25 * np.arange(5))

    # A Path stores only dt, so an outside time grid enters through the path
    # CSV reader, which checks the column before building the Path.
    def test_nonuniform_grid_rejected(self, tmp_path):
        csv = tmp_path / "uneven.csv"
        csv.write_text("t,u_0\n" + "".join(f"{t},0\n" for t in (0.0, 0.25, 0.6, 0.75, 1.0)))
        with pytest.raises(ConfigurationError, match="time grid is not uniform with the step 0.25"):
            read_path_csv(csv)

    def test_grid_not_starting_at_zero_rejected(self, tmp_path):
        # a grid from 0.25 to 1 would let om_action report the action over [0.25, 1]
        csv = tmp_path / "late.csv"
        csv.write_text("t,u_0\n" + "".join(f"{t},0\n" for t in (0.25, 0.5, 0.75, 1.0)))
        with pytest.raises(ConfigurationError, match="time grid must start at 0, got 0.25"):
            read_path_csv(csv)

    def test_non_finite_rejected(self):
        states = np.zeros((3, 2))
        states[1, 0] = np.nan
        with pytest.raises(ConfigurationError, match="non-finite states"):
            Path(states, 0.5)
        for dt in (0.0, -0.25, np.nan, np.inf):
            with pytest.raises(ConfigurationError, match="dt must be positive and finite"):
                Path(np.zeros((3, 2)), dt)

    def test_shape_mismatch_rejected(self):
        for states in (np.zeros(3), np.zeros((1, 2)), np.zeros((3, 2, 1))):
            with pytest.raises(ConfigurationError, match="states must be"):
                Path(states, 0.5)

    def test_same_grid(self):
        a = Path(np.zeros((3, 2)), 0.5)
        b = Path(np.ones((3, 2)), 0.5)
        c = Path(np.zeros((3, 2)), 0.25)
        d = Path(np.zeros((4, 2)), 0.5)
        assert a.same_grid(b)
        assert not a.same_grid(c)
        assert not a.same_grid(d)


class TestUtils:
    def test_float_format_round_trips(self):
        for x in (1.0 / 3.0, 1e-300, 123456.789, -0.1):
            assert float(format_float(x)) == x

    def test_write_csv_matches_the_per_value_reference(self, tmp_path):
        # each column keeps its cell type down the rows, as in every table omlat writes
        rows = [
            (1, np.int64(2), np.int32(-3), 0.5, np.float64(-0.0), math.nan, math.inf, -math.inf, 5e-324, 1 / 3),
            (10**12, np.int64(-5), np.int32(7), -2.0, 0.0, np.float64(math.nan), -np.inf, np.inf, -5e-324, 1e300),
        ]
        for table in (rows, rows[:1], []):
            dest = tmp_path / "t.csv"
            write_csv(dest, "a,b,c,d,e,f,g,h,i,j", iter(table))
            assert dest.read_text() == csv_text("a,b,c,d,e,f,g,h,i,j", table)

    def test_worker_count_env(self, monkeypatch):
        usable = len(os.sched_getaffinity(0))
        monkeypatch.setenv("OMLAT_THREADS", "3")
        assert worker_count() == min(3, usable)
        monkeypatch.setenv("OMLAT_THREADS", "0")
        assert worker_count() == 1
        monkeypatch.setenv("OMLAT_THREADS", "not-a-number")
        assert worker_count() >= 1
        monkeypatch.delenv("OMLAT_THREADS")
        assert worker_count() >= 1

    def test_worker_count_is_capped_at_the_usable_cpus(self, monkeypatch):
        # each running block holds its buffers, so the cap bounds memory;
        # only the count is asked for, no thread is started
        monkeypatch.setenv("OMLAT_THREADS", "1000000")
        assert worker_count() == len(os.sched_getaffinity(0))

    def test_thread_count_does_not_change_results(self, monkeypatch):
        import numpy as np

        from omlat import LatticeConfig, NoiseCoefficient, PolynomialNonlinearity
        from omlat.paths import Path as P
        from omlat.tube import TubeExperiment, tube_ratio

        cfg = LatticeConfig(
            n=0, nu=0.1, lam=0.4,
            f=PolynomialNonlinearity(coeffs=(), p=1, growth_constant=1.0),
            q=NoiseCoefficient.constant(1.0), T=1.0,
        )
        phi = P(np.zeros((65, 1)), 1.0 / 64)
        exp = TubeExperiment(cfg=cfg, phi=phi, eps=(0.5,), samples=40_000, seed=4)
        monkeypatch.setenv("OMLAT_THREADS", "1")
        one = tube_ratio(exp)
        monkeypatch.setenv("OMLAT_THREADS", "4")
        four = tube_ratio(exp)
        np.testing.assert_array_equal(one.num_hits, four.num_hits)
        np.testing.assert_array_equal(one.den_hits, four.den_hits)
