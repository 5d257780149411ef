"""Binary field-snapshot format plus CSV/JSON emission helpers.

Snapshot layout (little-endian): d and n as unsigned 64-bit, then
box_length, time, m, p as IEEE-754 float64, then the n^d row-major
float64 payload.  A State checkpoint is a pair of snapshots (u and v).
"""

from __future__ import annotations

import csv
import dataclasses
import json
import struct
from pathlib import Path

import numpy as np

from .errors import CorruptionError
from .grid import Field, GridSpec, State

__all__ = [
    "write_field_snapshot",
    "read_field_snapshot",
    "write_state_checkpoint",
    "read_state_checkpoint",
    "write_trajectory",
    "read_trajectory",
    "write_series_csv",
    "write_json",
]

_HEADER = struct.Struct("<QQdddd")


def write_field_snapshot(path, field: Field, time: float = 0.0,
                         m: float = 0.0, p: float = 1.0) -> None:
    g = field.grid
    header = _HEADER.pack(g.d, g.n, g.box_length, time, m, p)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def read_field_snapshot(path):
    """Returns (Field, time, m, p)."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise CorruptionError(f"{path}: truncated snapshot header")
        d, n, L, time, m, p = _HEADER.unpack(raw)
        grid = GridSpec(int(d), int(n), L)
        payload = fh.read()
    expected = grid.num_points * 8
    if len(payload) != expected:
        raise CorruptionError(f"{path}: payload has {len(payload)} bytes, expected {expected}")
    values = np.frombuffer(payload, dtype="<f8").reshape(grid.shape).copy()
    return Field(grid, values), time, m, p


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


def write_trajectory(directory, traj) -> None:
    """Store a trajectory: per-snapshot u/v pairs plus a meta.json with the
    termination reason, nonlinearity coefficient, scalar series and the
    solver config (null when the trajectory has none)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, s in enumerate(traj.snapshots):
        write_state_checkpoint(directory, f"snap{i:06d}", s)
    meta = {
        "count": len(traj.snapshots),
        "termination": traj.termination,
        "nl_coeff": traj.nl_coeff,
        "config": None if traj.config is None else dataclasses.asdict(traj.config),
        "scalar_series": {k: [list(map(float, t)), list(map(float, v))]
                          for k, (t, v) in traj.scalar_series.items()},
    }
    write_json(directory / "meta.json", meta)


def read_trajectory(directory):
    """The stored trajectory; a meta.json without a "config" key (an older
    store) reads with config None."""
    from .solver import SolverConfig, Trajectory

    directory = Path(directory)
    with open(directory / "meta.json") as fh:
        meta = json.load(fh)
    try:
        snapshots = [read_state_checkpoint(directory / f"snap{i:06d}_u.snap",
                                           directory / f"snap{i:06d}_v.snap")
                     for i in range(meta["count"])]
    except FileNotFoundError as exc:
        raise CorruptionError(f"{exc.filename}: missing from the stored trajectory") from None
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
