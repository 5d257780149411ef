import dataclasses
import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlkg.errors import CorruptionError, DomainError
from nlkg.grid import Field, GridSpec, State
from nlkg.snapshots import (
    StoredStates,
    TrajectoryWriter,
    read_field_snapshot,
    read_trajectory,
    write_field_snapshot,
    write_json,
    write_series_csv,
    write_trajectory,
)
from nlkg.solver import SolverConfig, Trajectory, evolve, initial_data

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

    @pytest.mark.parametrize("damage", ["truncated", "not_an_object", "count", "termination",
                                        "nl_coeff", "scalar_series"])
    def test_damaged_meta_names_itself(self, tmp_path, damage):
        write_trajectory(tmp_path, short_run())
        path = tmp_path / "meta.json"
        text = path.read_text()
        if damage == "truncated":
            path.write_text(text[:len(text) // 2])
        elif damage == "not_an_object":
            path.write_text("[]")
        else:
            meta = json.loads(text)
            del meta[damage]
            path.write_text(json.dumps(meta))
        key = {"truncated": "not valid JSON", "not_an_object": "'count'"}.get(damage, repr(damage))
        with pytest.raises(CorruptionError, match=f"meta.json: .*{key}"):
            read_trajectory(tmp_path)


def short_run(n_states=3):
    g = GridSpec(1, 16, 4.0)
    traj = evolve(initial_data(g, "gaussian", m=0.2, p=2.0, A=0.4, w=0.4),
                  SolverConfig(dt_init=1e-2, t_max=0.01 * (n_states - 1), adapt_theta=None))
    assert len(traj.snapshots) == n_states
    return traj


FRAME = 48 + 16 * 8 + 4  # one frame of short_run: header, payload, CRC
MAGIC = 12  # b"NLKGTRAJ" and version 1 as uint32


def assert_states_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.time, a.mass_param, a.exponent) == (b.time, b.mass_param, b.exponent)
        assert a.u.values.tobytes() == b.u.values.tobytes()
        assert a.v.values.tobytes() == b.v.values.tobytes()


@st.composite
def trajectories(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    g = GridSpec(d, 8, draw(st.floats(0.5, 20.0)))
    count = draw(st.integers(1, 4))
    m, p = draw(st.floats(0.0, 1.0)), draw(st.floats(0.1, 3.9))
    times = np.cumsum(draw(st.lists(st.floats(1e-6, 1.0), min_size=count, max_size=count)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-300, 300, size=(count, 2, 1))
    states = [State(Field(g, rng.standard_normal(g.shape) * scale[i, 0]),
                    Field(g, rng.standard_normal(g.shape) * scale[i, 1]), float(t), m, p)
              for i, t in enumerate(times)]
    series = {"sup_norm": (times, rng.standard_normal(count))}
    return Trajectory(snapshots=states, termination=draw(st.sampled_from(
        ["reached_t_max", "blowup_detected"])), scalar_series=series,
        nl_coeff=draw(st.floats(0.0, 2.0)))


class TestTrajectoryFormat:
    @settings(max_examples=40, deadline=None)
    @given(traj=trajectories(), cut=st.tuples(*[st.none() | st.integers(-5, 5)] * 2,
                                             st.none() | st.sampled_from([-3, -2, -1, 1, 2, 3])))
    def test_round_trip_as_a_lazy_sequence(self, tmp_path_factory, traj, cut):
        directory = tmp_path_factory.mktemp("store")
        write_trajectory(directory, traj)
        back = read_trajectory(directory)
        states, count = back.snapshots, len(traj.snapshots)
        assert isinstance(states, StoredStates)
        assert np.array_equal(back.times, traj.times)
        assert_states_equal(states, traj.snapshots)
        assert_states_equal([states[k] for k in range(-count, 0)], traj.snapshots)
        assert_states_equal(states[slice(*cut)], traj.snapshots[slice(*cut)])
        assert_states_equal(list(reversed(states)), traj.snapshots[::-1])
        for k in (count, -count - 1):
            with pytest.raises(IndexError):
                states[k]
        assert (back.termination, back.nl_coeff) == (traj.termination, traj.nl_coeff)
        t, v = back.series("sup_norm")
        assert np.array_equal(t, traj.series("sup_norm")[0])
        assert np.array_equal(v, traj.series("sup_norm")[1])

    def test_layout(self, tmp_path):
        traj = short_run()
        write_trajectory(tmp_path, traj)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["meta.json", "states.bin"]
        raw = (tmp_path / "states.bin").read_bytes()
        assert raw[:MAGIC] == b"NLKGTRAJ" + struct.pack("<I", 1)
        assert len(raw) == MAGIC + 6 * FRAME
        for i, s in enumerate(traj.snapshots):
            for j, f in enumerate((s.u, s.v)):
                frame = raw[MAGIC + (2 * i + j) * FRAME:][:FRAME]
                assert struct.unpack("<QQdddd", frame[:48]) == (1, 16, 4.0, s.time, 0.2, 2.0)
                assert frame[48:-4] == f.values.astype("<f8").tobytes()
                assert struct.unpack("<I", frame[-4:])[0] == zlib.crc32(frame[:-4])
        assert json.loads((tmp_path / "meta.json").read_text())["count"] == 3

    def test_missing_meta_is_corruption(self, tmp_path):
        write_trajectory(tmp_path, short_run())
        (tmp_path / "meta.json").unlink()
        with pytest.raises(CorruptionError, match="meta.json"):
            read_trajectory(tmp_path)

    @pytest.mark.parametrize("offset, frame", [(0, 0), (9, 0)])
    def test_bad_magic_or_version(self, tmp_path, offset, frame):
        write_trajectory(tmp_path, short_run())
        path = tmp_path / "states.bin"
        raw = bytearray(path.read_bytes())
        raw[offset] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptionError, match=f"frame {frame}: bad magic or version"):
            read_trajectory(tmp_path)

    def test_flipped_payload_byte_fails_its_crc(self, tmp_path):
        write_trajectory(tmp_path, short_run())
        path = tmp_path / "states.bin"
        raw = bytearray(path.read_bytes())
        raw[MAGIC + 3 * FRAME + 48 + 17] ^= 0x10
        path.write_bytes(bytes(raw))
        states = read_trajectory(tmp_path).snapshots  # the headers are intact
        with pytest.raises(CorruptionError, match="frame 3: CRC mismatch"):
            states[1]

    def test_flipped_byte_in_the_last_frame_fails_only_that_state(self, tmp_path):
        traj = short_run()
        write_trajectory(tmp_path, traj)
        path = tmp_path / "states.bin"
        raw = bytearray(path.read_bytes())
        raw[MAGIC + 5 * FRAME + 48 + 3] ^= 0x01
        path.write_bytes(bytes(raw))
        back = read_trajectory(tmp_path)
        assert np.array_equal(back.times, traj.times)
        assert_states_equal(back.snapshots[:2], traj.snapshots[:2])
        for k in (2, -1):
            with pytest.raises(CorruptionError, match="frame 5: CRC mismatch"):
                back.snapshots[k]
        with pytest.raises(CorruptionError, match="frame 5: CRC mismatch"):
            list(back.snapshots)

    def test_store_rewritten_with_other_headers_fails_on_access(self, tmp_path):
        # each access checks its frames' CRCs against the headers checked at open
        write_trajectory(tmp_path, short_run())
        states = read_trajectory(tmp_path).snapshots
        traj = short_run()
        traj.snapshots[:] = [dataclasses.replace(s, mass_param=0.3) for s in traj.snapshots]
        write_trajectory(tmp_path, traj)
        with pytest.raises(CorruptionError, match="frame 0: CRC mismatch"):
            states[0]

    def test_flipped_header_byte(self, tmp_path):
        write_trajectory(tmp_path, short_run())
        path = tmp_path / "states.bin"
        raw = bytearray(path.read_bytes())
        raw[MAGIC + 2 * FRAME] ^= 0x04  # d = 5
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptionError, match="frame 2: spatial dimension"):
            read_trajectory(tmp_path)

    @pytest.mark.parametrize("cut", [1, 4, FRAME - 48, FRAME - 20])
    def test_truncated_last_frame(self, tmp_path, cut):
        write_trajectory(tmp_path, short_run())
        path = tmp_path / "states.bin"
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(CorruptionError, match="frame 5.*truncated"):
            read_trajectory(tmp_path)

    def test_fewer_frames_than_counted(self, tmp_path):
        write_trajectory(tmp_path, short_run())
        meta = json.loads((tmp_path / "meta.json").read_text())
        meta["count"] += 1
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(CorruptionError, match="frame 6 is missing"):
            read_trajectory(tmp_path)

    @pytest.mark.parametrize("change", ["grid", "m", "p"])
    def test_frame_unlike_the_first(self, tmp_path, change):
        traj = short_run()
        s = traj.snapshots[1]
        if change == "grid":
            g = GridSpec(1, 8, 4.0)
            s = State(Field(g, s.u.values[::2]), Field(g, s.v.values[::2]), s.time, 0.2, 2.0)
        else:
            s = State(s.u, s.v, s.time, 0.3 if change == "m" else 0.2, 2.5 if change == "p" else 2.0)
        with TrajectoryWriter(tmp_path) as store:
            store.add(traj.snapshots[0])
            store.add(s)
            store.commit(traj)
        with pytest.raises(CorruptionError, match="frame 2: grid, m or p differs"):
            read_trajectory(tmp_path)

    def test_time_that_does_not_increase(self, tmp_path):
        traj = short_run()
        traj.snapshots[1:] = traj.snapshots[:0:-1]  # order 0, 2, 1
        with TrajectoryWriter(tmp_path) as store:  # Trajectory itself refuses the order
            for s in traj.snapshots:
                store.add(s)
            store.commit(traj)
        with pytest.raises(CorruptionError, match="frame 4: time .* does not increase"):
            read_trajectory(tmp_path)


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
