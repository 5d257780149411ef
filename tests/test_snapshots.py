import json
import struct

import numpy as np
import pytest

from nlkg.errors import CorruptionError, DomainError
from nlkg.grid import Field, GridSpec, State
from nlkg.snapshots import (
    read_field_snapshot,
    read_state_checkpoint,
    read_trajectory,
    write_field_snapshot,
    write_json,
    write_series_csv,
    write_state_checkpoint,
    write_trajectory,
)
from nlkg.solver import SolverConfig, evolve, initial_data

from conftest import random_field


class TestFieldSnapshot:
    def test_round_trip(self, grid2d, rng, tmp_path):
        f = random_field(grid2d, rng)
        path = tmp_path / "field.snap"
        write_field_snapshot(path, f, time=1.25, m=0.5, p=2.0)
        g, time, m, p = read_field_snapshot(path)
        assert (time, m, p) == (1.25, 0.5, 2.0)
        assert g.grid == grid2d
        assert np.array_equal(g.values, f.values)

    def test_header_layout(self, grid2d, tmp_path):
        # d, n unsigned 64-bit then L, time, m, p float64, all little-endian
        f = Field(grid2d, np.zeros(grid2d.shape))
        path = tmp_path / "field.snap"
        write_field_snapshot(path, f, time=0.5, m=0.25, p=3.0)
        raw = path.read_bytes()
        d, n, L, time, m, p = struct.unpack("<QQdddd", raw[:48])
        assert (d, n) == (grid2d.d, grid2d.n)
        assert (L, time, m, p) == (grid2d.box_length, 0.5, 0.25, 3.0)
        assert len(raw) == 48 + grid2d.num_points * 8

    def test_truncated_payload_rejected(self, grid2d, tmp_path):
        f = Field(grid2d, np.zeros(grid2d.shape))
        path = tmp_path / "field.snap"
        write_field_snapshot(path, f)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(CorruptionError):
            read_field_snapshot(path)

    def test_state_checkpoint_round_trip(self, grid2d, rng, tmp_path):
        st = State(random_field(grid2d, rng), random_field(grid2d, rng), 0.75, 0.3, 2.0)
        u_path, v_path = write_state_checkpoint(tmp_path, "ck", st)
        back = read_state_checkpoint(u_path, v_path)
        assert back.time == st.time
        assert np.array_equal(back.u.values, st.u.values)
        assert np.array_equal(back.v.values, st.v.values)


class TestTrajectoryStore:
    def test_round_trip(self, tmp_path):
        g = GridSpec(2, 16, 4.0)
        st = initial_data(g, "gaussian", m=0.2, p=2.0, A=0.4, w=0.4)
        traj = evolve(st, SolverConfig(dt_init=1e-2, t_max=0.05))
        write_trajectory(tmp_path / "traj", traj)
        back = read_trajectory(tmp_path / "traj")
        assert back.termination == traj.termination
        assert len(back.snapshots) == len(traj.snapshots)
        assert np.array_equal(back.snapshots[-1].u.values, traj.snapshots[-1].u.values)
        t0, v0 = traj.series("sup_norm")
        t1, v1 = back.series("sup_norm")
        assert np.array_equal(t0, t1) and np.array_equal(v0, v1)

    def test_config_round_trip(self, tmp_path):
        g = GridSpec(1, 16, 4.0)
        cfg = SolverConfig(dt_init=1e-2, t_max=0.05, adapt_theta=None, snapshot_stride=2,
                           blowup_threshold=1e6, nonlinearity=0.5)
        traj = evolve(initial_data(g, "gaussian", m=0.0, p=2.0, A=0.4, w=0.4), cfg)
        write_trajectory(tmp_path / "traj", traj)
        assert read_trajectory(tmp_path / "traj").config == cfg
        # a store written without the key (before it existed) reads with none
        meta_path = tmp_path / "traj" / "meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["config"]
        meta_path.write_text(json.dumps(meta))
        assert read_trajectory(tmp_path / "traj").config is None
        traj.config = None
        write_trajectory(tmp_path / "bare", traj)
        assert read_trajectory(tmp_path / "bare").config is None

    def test_zero_count_is_domain_error(self, tmp_path):
        g = GridSpec(1, 16, 4.0)
        traj = evolve(initial_data(g, "gaussian", m=0.0, p=2.0, A=0.4, w=0.4),
                      SolverConfig(dt_init=1e-2, t_max=0.02))
        write_trajectory(tmp_path / "traj", traj)
        meta_path = tmp_path / "traj" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["count"] = 0
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(DomainError, match="at least one snapshot"):
            read_trajectory(tmp_path / "traj")

    @pytest.mark.parametrize("part", ["u", "v"])
    def test_missing_snapshot_file_is_corruption(self, tmp_path, part):
        g = GridSpec(1, 16, 4.0)
        traj = evolve(initial_data(g, "gaussian", m=0.0, p=2.0, A=0.4, w=0.4),
                      SolverConfig(dt_init=1e-2, t_max=0.02))
        write_trajectory(tmp_path / "traj", traj)
        missing = tmp_path / "traj" / f"snap000001_{part}.snap"
        missing.unlink()
        with pytest.raises(CorruptionError, match=f"snap000001_{part}.snap"):
            read_trajectory(tmp_path / "traj")


class TestCsvJson:
    def test_csv_header_and_sidecar(self, tmp_path):
        path = tmp_path / "series.csv"
        write_series_csv(path, {"time": [0.0, 0.1], "value": [1.0, 2.0]},
                         sidecar={"name": "demo"})
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "time,value"
        assert len(lines) == 3
        sidecar = json.loads((tmp_path / "series.csv.json").read_text())
        assert sidecar["name"] == "demo"

    def test_csv_deterministic(self, tmp_path):
        cols = {"time": np.linspace(0, 1, 5), "value": np.sqrt(np.linspace(0, 1, 5))}
        write_series_csv(tmp_path / "a.csv", cols)
        write_series_csv(tmp_path / "b.csv", cols)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_json_numpy_types(self, tmp_path):
        write_json(tmp_path / "x.json", {"a": np.float64(1.5), "b": np.arange(3)})
        back = json.loads((tmp_path / "x.json").read_text())
        assert back == {"a": 1.5, "b": [0, 1, 2]}
