"""Binary field-snapshot format plus CSV/JSON emission helpers.

Snapshot layout (little-endian): d and n as unsigned 64-bit, then
box_length, time, m, p as IEEE-754 float64, then the n^d row-major
float64 payload.  A stored trajectory is states.bin: b"NLKGTRAJ" and
version 1 as uint32, then a u and a v frame per state, each a snapshot
and the uint32 CRC32 of its bytes; meta.json, written last, marks it
complete.  It reads back lazily, as a StoredStates.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import struct
import zlib
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from .errors import CorruptionError, DomainError
from .grid import Field, GridSpec, State

__all__ = [
    "write_field_snapshot",
    "read_field_snapshot",
    "TrajectoryWriter",
    "write_trajectory",
    "read_meta",
    "StoredStates",
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


class TrajectoryWriter:
    """Appends each State given to :meth:`add` (say as evolve's record hook)
    to `directory`/states.bin; :meth:`commit` then writes meta.json.  An
    older store there loses its meta.json first, so a run that fails
    part-way leaves no readable store."""

    def __init__(self, directory):
        self.directory, self.count = Path(directory), 0
        self.directory.mkdir(parents=True, exist_ok=True)
        (self.directory / "meta.json").unlink(missing_ok=True)
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
    try:
        meta = json.loads(path.read_text())
    except ValueError as exc:
        raise CorruptionError(f"{path}: not valid JSON ({exc})") from None
    for key in ("count", "termination", "nl_coeff", "scalar_series"):
        if not isinstance(meta, dict) or key not in meta:
            raise CorruptionError(f"{path}: no {key!r} key")
    return meta


class StoredStates(Sequence):
    """The states of a states.bin, each read and CRC-checked when accessed (by
    index, negative or a slice, or by iteration), with no cache or open file.
    Opening checks the magic and every frame header, seeking past the
    payloads, and takes `times`, `grid`, `mass_param`, `exponent` from them."""

    def __init__(self, path, count: int):
        self.path, times, first = Path(path), [], None
        if not self.path.exists():
            raise CorruptionError(f"{self.path}: missing, so the stored trajectory is incomplete")
        with open(self.path, "rb") as fh:
            if fh.read(len(_MAGIC)) != _MAGIC:
                raise CorruptionError(f"{self.path}: frame 0: bad magic or version")
            size = os.fstat(fh.fileno()).st_size
            for i in range(2 * count):
                where, raw = f"{self.path}: frame {i}", fh.read(_HEADER.size)
                if not raw:
                    raise CorruptionError(f"{where} is missing; meta.json counts {2 * count} frames")
                grid, time, m, p = _header(raw, where)
                first = first or (grid, m, p)
                if (grid, m, p) != first:
                    raise CorruptionError(f"{where}: grid, m or p differs from the first frame")
                t_u = times[-1] if times else -np.inf
                if not (time == t_u if i % 2 else time > t_u):
                    raise CorruptionError(f"{where}: time {time} " + (f"is not its u frame's {t_u}"
                                          if i % 2 else f"does not increase past {t_u}"))
                if i % 2 == 0:
                    times.append(time)
                if fh.seek(grid.num_points * 8 + _CRC.size, os.SEEK_CUR) > size:
                    raise CorruptionError(f"{where} is truncated")
        self.grid, self.mass_param, self.exponent = first or (None, None, None)
        self.times = np.array(times)

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        k, g, m, p = range(len(self))[k], self.grid, self.mass_param, self.exponent
        size = _HEADER.size + g.num_points * 8 + _CRC.size
        header = _HEADER.pack(g.d, g.n, g.box_length, self.times[k], m, p)
        with open(self.path, "rb") as fh:
            fh.seek(len(_MAGIC) + 2 * k * size)
            u, v = (self._checked(fh.read(size), header, 2 * k + j) for j in (0, 1))
        return State(u, v, float(self.times[k]), m, p)

    def _checked(self, raw: bytes, header: bytes, i: int) -> Field:
        """Frame i's field; its CRC must cover `header`, as checked at open."""
        where, payload = f"{self.path}: frame {i}", memoryview(raw)[_HEADER.size:-_CRC.size]
        if raw[-_CRC.size:] != _CRC.pack(zlib.crc32(payload, zlib.crc32(header))):
            raise CorruptionError(f"{where}: CRC mismatch")
        return _field(self.grid, payload, where)


def read_trajectory(directory):
    """The stored trajectory, its states a :class:`StoredStates`: every
    frame header is checked now, each state's payload when it is read.  A
    meta.json without a "config" key (an older store) reads with config None."""
    from .solver import SolverConfig, Trajectory

    directory, meta = Path(directory), read_meta(directory)
    series = {k: (np.array(t), np.array(v)) for k, (t, v) in meta["scalar_series"].items()}
    config = meta.get("config")
    return Trajectory(StoredStates(directory / "states.bin", meta["count"]), meta["termination"],
                      series, meta["nl_coeff"], None if config is None else SolverConfig(**config))


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
