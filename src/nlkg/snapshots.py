"""Binary field-snapshot format plus CSV/JSON emission helpers.

Snapshot layout (little-endian): d and n as unsigned 64-bit, then
box_length, time, m, p as IEEE-754 float64, then the n^d row-major
float64 payload.  A State checkpoint is a pair of snapshots (u and v).
A stored trajectory (v1) is states.bin: b"NLKGTRAJ" and version 1 as
uint32, then a u and a v frame per state, each a snapshot and the uint32
CRC32 of its bytes; meta.json, written last, marks it complete.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import CorruptionError, DomainError
from .grid import Field, GridSpec, State

__all__ = [
    "write_field_snapshot",
    "read_field_snapshot",
    "write_state_checkpoint",
    "read_state_checkpoint",
    "TrajectoryWriter",
    "write_trajectory",
    "read_meta",
    "read_trajectory",
    "write_series_csv",
    "write_json",
]

_HEADER = struct.Struct("<QQdddd")
_CRC = struct.Struct("<I")
_MAGIC = b"NLKGTRAJ" + _CRC.pack(1)


def _pack(field: Field, time: float, m: float, p: float) -> tuple:
    g = field.grid
    return (_HEADER.pack(g.d, g.n, g.box_length, time, m, p),
            np.ascontiguousarray(field.values, dtype="<f8"))


def _header(raw, where) -> tuple:
    """(grid, time, m, p) of a snapshot header."""
    if len(raw) != _HEADER.size:
        raise CorruptionError(f"{where}: truncated snapshot header")
    d, n, L, time, m, p = _HEADER.unpack(raw)
    try:
        return GridSpec(int(d), int(n), L), time, m, p
    except DomainError as exc:
        raise CorruptionError(f"{where}: {exc}") from None


def _field(grid: GridSpec, payload, where) -> Field:
    expected = grid.num_points * 8
    if len(payload) != expected:
        raise CorruptionError(f"{where}: payload has {len(payload)} bytes, expected {expected}")
    return Field(grid, np.frombuffer(payload, dtype="<f8").reshape(grid.shape).copy())


def write_field_snapshot(path, field: Field, time: float = 0.0,
                         m: float = 0.0, p: float = 1.0) -> None:
    with open(path, "wb") as fh:
        fh.writelines(_pack(field, time, m, p))


def read_field_snapshot(path):
    """Returns (Field, time, m, p)."""
    raw = memoryview(Path(path).read_bytes())
    grid, time, m, p = _header(raw[:_HEADER.size], path)
    return _field(grid, raw[_HEADER.size:], path), time, m, p


def write_state_checkpoint(directory, stem: str, state: State) -> tuple:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    u_path = directory / f"{stem}_u.snap"
    v_path = directory / f"{stem}_v.snap"
    write_field_snapshot(u_path, state.u, state.time, state.mass_param, state.exponent)
    write_field_snapshot(v_path, state.v, state.time, state.mass_param, state.exponent)
    return u_path, v_path


def read_state_checkpoint(u_path, v_path) -> State:
    u, time, m, p = read_field_snapshot(u_path)
    v, time_v, m_v, p_v = read_field_snapshot(v_path)
    if (time, m, p) != (time_v, m_v, p_v):
        raise CorruptionError("u/v checkpoint headers disagree")
    return State(u, v, time, m, p)


class TrajectoryWriter:
    """Appends each State given to :meth:`add` (say as evolve's `on_record`)
    to `directory`/states.bin; :meth:`commit` then writes meta.json.  An
    older store there loses its meta.json first, so a run that fails
    part-way leaves no readable store; an older v0 store's
    snapNNNNNN_{u,v}.snap files go next."""

    def __init__(self, directory):
        self.directory, self.count = Path(directory), 0
        self.directory.mkdir(parents=True, exist_ok=True)
        (self.directory / "meta.json").unlink(missing_ok=True)
        for old in self.directory.glob("snap*_[uv].snap"):
            if old.name[4:-7].isdigit():
                old.unlink()
        self._fh = open(self.directory / "states.bin", "wb")
        self._fh.write(_MAGIC)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def add(self, state: State) -> None:
        for f in (state.u, state.v):
            header, payload = _pack(f, state.time, state.mass_param, state.exponent)
            crc = zlib.crc32(payload, zlib.crc32(header))
            self._fh.writelines((header, payload, _CRC.pack(crc)))
        self.count += 1

    def commit(self, traj) -> None:
        """Close states.bin, then write meta.json through a temp file: the count
        and `traj`'s termination, nl_coeff, scalar series and config (or null)."""
        self._fh.close()
        meta = {
            "count": self.count,
            "termination": traj.termination,
            "nl_coeff": traj.nl_coeff,
            "config": None if traj.config is None else dataclasses.asdict(traj.config),
            "scalar_series": {k: [list(map(float, t)), list(map(float, v))]
                              for k, (t, v) in traj.scalar_series.items()},
        }
        write_json(self.directory / "meta.json.tmp", meta)
        os.replace(self.directory / "meta.json.tmp", self.directory / "meta.json")


def write_trajectory(directory, traj) -> None:
    """Store a trajectory: its snapshots folded through a TrajectoryWriter."""
    with TrajectoryWriter(directory) as store:
        for s in traj.snapshots:
            store.add(s)
        store.commit(traj)


def read_meta(directory) -> dict:
    """A stored trajectory's meta.json, without which the store is incomplete."""
    path = Path(directory) / "meta.json"
    if not path.exists():
        raise CorruptionError(f"{path}: missing, so the stored trajectory is incomplete")
    return json.loads(path.read_text())


def _v0_frames(directory: Path, count: int):
    """(where, Field, time, m, p) of v0's snapshot files, u before v."""
    for i in range(count):
        path = directory / f"snap{i // 2:06d}_{'uv'[i % 2]}.snap"
        if not path.exists():
            raise CorruptionError(f"{path}: missing from the stored trajectory")
        yield (f"{path} (frame {i})", *read_field_snapshot(path))


def _v1_frames(directory: Path, count: int):
    """(where, Field, time, m, p) of the first `count` frames of states.bin,
    each checked against its CRC."""
    path = directory / "states.bin"
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise CorruptionError(f"{path}: frame 0: bad magic or version")
        for i in range(count):
            where, raw = f"{path}: frame {i}", fh.read(_HEADER.size)
            if not raw:
                raise CorruptionError(f"{where} is missing; meta.json counts {count} frames")
            grid, time, m, p = _header(raw, where)
            size = grid.num_points * 8
            body = memoryview(fh.read(size + _CRC.size))
            if len(body) != size + _CRC.size:
                raise CorruptionError(f"{where} is truncated")
            if _CRC.unpack(body[size:])[0] != zlib.crc32(body[:size], zlib.crc32(raw)):
                raise CorruptionError(f"{where}: CRC mismatch")
            yield where, _field(grid, body[:size], where), time, m, p


def read_trajectory(directory, on_record=None):
    """The stored trajectory (v1 or v0), checked frame by frame.  `on_record`,
    when given, is called with each state as it is read, and the trajectory
    then keeps only the last one (and every series), as evolve's does.  A
    meta.json without a "config" key (an older store) reads with config None."""
    from .solver import SolverConfig, Trajectory

    directory, meta = Path(directory), read_meta(directory)
    v1 = (directory / "states.bin").exists()
    frames = (_v1_frames if v1 else _v0_frames)(directory, 2 * meta["count"])
    snapshots, first, t_u = [], None, -np.inf
    for i, (where, field, time, m, p) in enumerate(frames):
        first = first or (field.grid, m, p)
        if (field.grid, m, p) != first:
            raise CorruptionError(f"{where}: grid, m or p differs from the first frame")
        if not (time == t_u if i % 2 else time > t_u):
            raise CorruptionError(f"{where}: time {time} " + (f"is not its u frame's {t_u}" if i % 2
                                  else f"does not increase past {t_u}"))
        if i % 2 == 0:
            u, t_u = field, time
            continue
        state = State(u, field, time, m, p)
        if on_record is None:
            snapshots.append(state)
        else:
            snapshots = [state]
            on_record(state)
    series = {k: (np.array(t), np.array(v)) for k, (t, v) in meta["scalar_series"].items()}
    config = meta.get("config")
    return Trajectory(snapshots=snapshots, termination=meta["termination"],
                      scalar_series=series, nl_coeff=meta["nl_coeff"],
                      config=None if config is None else SolverConfig(**config))


def write_series_csv(path, columns: dict, sidecar: dict | None = None) -> None:
    """Write named columns as CSV with a header row; optionally a JSON
    sidecar (same path with .json appended) carrying metadata."""
    names = list(columns)
    arrays = [np.asarray(columns[k]) for k in names]
    length = len(arrays[0])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        writer.writerow(names)
        for i in range(length):
            writer.writerow([repr(float(a[i])) for a in arrays])
    if sidecar is not None:
        write_json(str(path) + ".json", sidecar)


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj)!r}")
