"""Scenario configuration, subcommand dispatch, and CSV/JSON emission.

Config files are JSON.  Units: lengths in box units, times in the
equation's time units, frequencies in radians per length.  The physics
keys (grid.d, grid.n, grid.box_length, physics.m, physics.p) carry no
defaults; a missing key is a validation failure naming it.  All outputs
are deterministic for a fixed config and seed.

Subcommands: simulate, audit-tensors, cones, fit, decompose, sweep.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import blowup as blowup_mod
from . import cones as cones_mod
from . import conslaws, profiles, snapshots
from .errors import DomainError
from .grid import Field, GridSpec, _transient_distance
from .norms import critical_exponent, energy, lebesgue_norm
from .solver import SolverConfig, _check_data_params, evolve, initial_data

__all__ = ["ScenarioConfig", "load_config", "run", "main"]


def _number(value, key: str, kind=float):
    """A config number of `kind` (int or float).  A non-numeric value, or a
    fractional one where an integer is wanted, is a DomainError naming `key`
    rather than a traceback or a silent truncation."""
    try:
        number = kind(value)
        exact = kind is float or number == value or number == float(value)
    except (TypeError, ValueError, OverflowError):
        exact = False
    if not exact:
        what = "an integer" if kind is int else "a number"
        raise DomainError(f"config precondition violated: {key} = {value!r} is not {what}")
    return number


# every config name and its kind: int or float (read through _number), str
# or dict (taken as given), float | None, a sub-section (a table of its own)
# or [kind], a list of that kind.  Any other name fails at load.
_SCHEMA = {
    "grid": {"d": int, "n": int, "box_length": float},
    "physics": {"m": float, "p": float},
    "data": {"kind": str, "params": dict},
    "solver": {"dt_init": float, "t_max": float, "dt_min": float, "cfl_safety": float,
               "adapt_theta": float | None, "blowup_threshold": float,
               "snapshot_stride": int, "nonlinearity": float},
    "output": {"directory": str},
    "audits": {
        "tensors": {"levels": int, "apex": [float]},
        "cones": {"top_time": float, "t_floor": float, "vertex": [float]},
        "blowup": {"k_fit": int},
        "profiles": {"j_max": int, "tol": float, "snapshots": [str],
                     "synthetic": {"n_members": int, "separation_base": float,
                                   "bubbles": [{"width": float, "amplitude": float}]}},
    },
    "seed": int,
}
# the names a section must hold when it is present (in a list's items: no index)
_REQUIRED = set("""grid grid.d grid.n grid.box_length physics physics.m physics.p data data.kind
    solver solver.dt_init solver.t_max audits.cones.top_time audits.profiles.synthetic.bubbles
    audits.profiles.synthetic.bubbles.width audits.profiles.synthetic.bubbles.amplitude""".split())
# the least value of a number
_LEAST = {"audits.tensors.levels": 1, "audits.blowup.k_fit": blowup_mod.MIN_K_FIT, "seed": 0,
          "audits.profiles.j_max": 1, "audits.profiles.synthetic.n_members": 1, "NLKG_WORKERS": 1}
# the audits section each command reads
_COMMAND_SECTION = {"cones": "cones", "decompose": "profiles"}


def _read(value, kind, where: str = "", required=_REQUIRED):
    """A converted copy of `value` read as `kind` (see _SCHEMA), or a
    DomainError naming `where`: an unknown name, a missing required name, a
    value not of its kind, or a number below its least value."""
    if kind == float | None:
        return None if value is None else _number(value, where)
    if kind in (int, float):
        number = _number(value, where, kind)
        if number < _LEAST.get(where, number):
            raise DomainError(f"config precondition violated: {where} = {number} "
                              f"must be >= {_LEAST[where]}")
        return number
    shape = type(kind) if isinstance(kind, (dict, list)) else kind
    if not isinstance(value, shape):
        what = {str: "a string", list: "a list", bool: "a boolean"}.get(shape, "a section")
        raise DomainError(f"config precondition violated: {where or 'top-level'} = {value!r} "
                          f"is not {what}")
    if isinstance(kind, list):
        return [_read(item, kind[0], f"{where}[{i}]", required) for i, item in enumerate(value)]
    if not isinstance(kind, dict):
        return value  # str, bool and dict: taken as given
    unknown = sorted(set(value) - set(kind))
    if unknown:
        raise DomainError(f"config precondition violated: unknown {where or 'top-level'} "
                          f"keys {unknown}")
    prefix = f"{where}." if where else ""
    read = {name: _read(item, kind[name], prefix + name, required) for name, item in value.items()}
    for name in kind:
        if name not in value and re.sub(r"\[\d+\]", "", prefix + name) in required:
            raise DomainError(f"config precondition violated: {prefix}{name} = (missing) "
                              "is required")
    return read


class ScenarioConfig:
    """Validated view of a scenario dictionary.

    Validation happens before any compute; failures raise DomainError
    naming the violated precondition.  `raw` is the dictionary as given.
    """

    def __init__(self, raw: dict):
        self.raw = raw
        cfg = _read(raw, _SCHEMA)
        self.grid = GridSpec(**cfg["grid"])
        self.m, self.p = cfg["physics"]["m"], cfg["physics"]["p"]
        if not (0.0 <= self.m <= 1.0):
            raise DomainError("config precondition violated: physics.m must lie in [0, 1]")
        try:
            critical_exponent(self.grid.d, self.p)  # the range check
        except DomainError as exc:
            raise DomainError(f"config precondition violated: physics.p: {exc}") from None
        self.solver = SolverConfig(**cfg["solver"])
        self.data_kind = cfg["data"]["kind"]
        params = cfg["data"].get("params", {})
        kinds = _check_data_params(self.data_kind, params, "data.params.")
        self.data_params = _read(params, kinds, "data.params")
        self.audits = cfg.get("audits", {})
        self.seed = cfg.get("seed", 0)
        self.out_dir = Path(cfg.get("output", {}).get("directory", "nlkg_out"))
        self._validate_audits()

    def _validate_audits(self) -> None:
        """What the audits need beyond the schema: one profiles input and a
        positive tol, points with d components, a cone that periodicity does
        not reach, and a series floor inside the cone."""
        prof = self.audits.get("profiles")
        if prof is not None and "synthetic" not in prof and "snapshots" not in prof:
            raise DomainError("config precondition violated: missing "
                              "audits.profiles.synthetic or audits.profiles.snapshots")
        if prof is not None and not prof.get("tol", 1.0) > 0.0:
            raise DomainError(f"config precondition violated: audits.profiles.tol = "
                              f"{prof['tol']} must be > 0")
        for section, key in (("cones", "vertex"), ("tensors", "apex")):
            point = self.audits.get(section, {}).get(key)
            if point is not None and len(point) != self.grid.d:
                raise DomainError(f"config precondition violated: audits.{section}.{key} = "
                                  f"{point} needs grid.d = {self.grid.d} components")
        cone_cfg = self.audits.get("cones")
        # periodicity must not reach an audited cone: box >= 4x the cone diameter
        if cone_cfg is not None and not 0.0 < 8.0 * cone_cfg["top_time"] <= self.grid.box_length:
            raise DomainError(f"config precondition violated: audits.cones.top_time = "
                              f"{cone_cfg['top_time']} must lie in (0, box_length / 8 = "
                              f"{self.grid.box_length / 8.0}] (box >= 4x the cone diameter)")
        if cone_cfg is not None and not 0.0 <= cone_cfg.get("t_floor", 0.0) < cone_cfg["top_time"]:
            raise DomainError(f"config precondition violated: audits.cones.t_floor = "
                              f"{cone_cfg['t_floor']} must lie in [0, audits.cones.top_time = "
                              f"{cone_cfg['top_time']})")

    def initial_state(self):
        return initial_data(self.grid, self.data_kind, self.m, self.p, **self.data_params)


def load_config(path) -> ScenarioConfig:
    with open(path) as fh:
        return ScenarioConfig(json.load(fh))


def _manifest(out: Path, status: str, extra: dict | None = None) -> None:
    snapshots.write_json(out / "MANIFEST.json", {"status": status, **(extra or {})})


def cmd_simulate(cfg: ScenarioConfig) -> dict:
    nl = cfg.solver.nonlinearity
    monitors = {
        "energy": lambda s: energy(s, nl),
        "l2_norm": lambda s: lebesgue_norm(s.u, 2.0),
    }
    with snapshots.TrajectoryWriter(cfg.out_dir / "trajectory") as store:
        traj = evolve(cfg.initial_state(), cfg.solver, monitors, on_record=store.add)
        for name in traj.scalar_series:
            t, v = traj.series(name)
            snapshots.write_series_csv(cfg.out_dir / f"{name}.csv", {"time": t, "value": v},
                                       sidecar={"series": name, "config": cfg.raw,
                                                "termination": traj.termination})
        store.commit(traj)
    return {"termination": traj.termination, "snapshots": store.count}


def _tensor_level(cfg: ScenarioConfig, scale: int, store: Path):
    """Evolve at (h, dt) refined by 2^scale into `store`; the run read back lazily."""
    grid = GridSpec(cfg.grid.d, cfg.grid.n * 2**scale, cfg.grid.box_length)
    state = initial_data(grid, cfg.data_kind, cfg.m, cfg.p, **cfg.data_params)
    refined = dataclasses.replace(cfg.solver, dt_init=cfg.solver.dt_init / 2**scale,
                                  adapt_theta=None,
                                  snapshot_stride=cfg.solver.snapshot_stride * 2**scale)
    with snapshots.TrajectoryWriter(store) as writer:
        writer.commit(evolve(state, refined, {}, on_record=writer.add))
    if writer.count < 3:
        raise DomainError(
            "config precondition violated: solver.t_max/snapshot_stride leaves "
            "fewer than 3 snapshots for the tensor window")
    return snapshots.read_trajectory(store)


def cmd_audit_tensors(cfg: ScenarioConfig) -> dict:
    audit_cfg = cfg.audits.get("tensors", {})
    levels = audit_cfg.get("levels", 2)
    apex = audit_cfg.get("apex", [0.5 * cfg.grid.box_length] * cfg.grid.d)
    params = critical_exponent(cfg.grid.d, cfg.p)
    tags = list(conslaws.TENSOR_TAGS)
    if params.alpha <= 0.0:
        tags.remove("combined")

    report, slab = [], []
    per_level: dict = {tag: [] for tag in tags}
    # each level's run goes to a store, read back a state at a time: no run is held in RAM
    with tempfile.TemporaryDirectory(dir=cfg.out_dir) as work:
        for scale in range(levels):
            traj = _tensor_level(cfg, scale, Path(work) / f"level{scale}")
            k = len(traj.snapshots) // 2
            window = tuple(traj.snapshots[k - 1:k + 2])
            for tag in tags:
                kind = conslaws.tensor_kind(tag, window[1])
                res = conslaws.divergence_residual(window, kind, apex, traj.nl_coeff)
                l2, linf = conslaws.residual_norms(res)
                per_level[tag].append((window[1].time, l2, linf))
            if scale == 0:
                t0, t1 = float(traj.times[0]), float(traj.times[-1])
                res = conslaws.charge_slab_identity(traj, t0, t1)
                slab.append({"t0": t0, "t1": t1, "lhs": res.lhs, "rhs": res.rhs, "gap": res.gap,
                             "avg_kinetic": res.avg_kinetic, "avg_potential": res.avg_potential})
    for tag in tags:
        times, l2s, linfs = (list(col) for col in zip(*per_level[tag]))
        orders = conslaws.refinement_orders(linfs) if len(linfs) > 1 else []
        report.append({"kind": tag, "times": times, "residual_l2": l2s,
                       "residual_linf": linfs, "refinement_orders": orders})
    snapshots.write_json(cfg.out_dir / "tensor_audit.json",
                         {"tensors": report, "slab_identities": slab, "config": cfg.raw})
    return {}


def cmd_cones(cfg: ScenarioConfig) -> dict:
    out = cfg.out_dir
    cone_cfg = cfg.audits["cones"]
    vertex = cone_cfg.get("vertex", [0.5 * cfg.grid.box_length] * cfg.grid.d)
    cone = cones_mod.ConeSpec(vertex=tuple(vertex), top_time=cone_cfg["top_time"])
    t_floor = cone_cfg.get("t_floor", 10.0 * cfg.solver.dt_init)
    which = "Z" if critical_exponent(cfg.grid.d, cfg.p).regime == "sub_conformal" else "L"
    audit = cones_mod.ConeAudit(cone, cfg.p, which, t_floor, cfg.solver.nonlinearity)
    traj = evolve(cfg.initial_state(), cfg.solver, on_record=audit.add)
    series, monitors, flux = audit.finish()
    for s in (series, *monitors.values()):
        snapshots.write_series_csv(out / f"{s.name}.csv", {"time": s.times, "value": s.values},
                                   sidecar={"series": s.name, "regime": s.regime,
                                            "metadata": s.metadata, "config": cfg.raw})
    snapshots.write_json(out / "flux_identity.json", {"flux": flux, "config": cfg.raw})
    return {"termination": traj.termination}


def _check_like_config(cfg: ScenarioConfig, what: str, g: GridSpec, p: float, m: float) -> None:
    """A DomainError unless `what` (read from disk) has the config's grid, p and m."""
    if g != cfg.grid or p != cfg.p or m != cfg.m:
        raise DomainError(f"config precondition violated: {what} holds (d, n, box_length) = "
                          f"({g.d}, {g.n}, {g.box_length}), p = {p} and m = {m}, the config "
                          f"({cfg.grid.d}, {cfg.grid.n}, {cfg.grid.box_length}), p = {cfg.p} "
                          f"and m = {cfg.m}")


def cmd_fit(cfg: ScenarioConfig, trajectory_dir=None) -> dict:
    out = cfg.out_dir
    if trajectory_dir is None:
        stream = blowup_mod.MassDiagnostics(cfg.solver.nonlinearity)
        traj = evolve(cfg.initial_state(), cfg.solver, on_record=stream.add)
        mass = stream.finish()
    else:  # folded with the stored run's own coefficient
        traj = snapshots.read_trajectory(trajectory_dir)
        _check_like_config(cfg, f"stored trajectory {trajectory_dir}", traj.grid, traj.exponent,
                           traj.mass_param)
        mass = blowup_mod.mass_diagnostics(traj)
    fit_cfg = cfg.audits.get("blowup", {})
    report = blowup_mod.detect_and_fit(traj, k_fit=fit_cfg.get("k_fit", 20))
    conc = blowup_mod.concavity_check(mass)
    payload = {
        "detected": report.detected,
        "t_star": report.t_star,
        "fit_residual": report.fit_residual,
        "rate_exponents": report.rate_exponents,
        "diagnostics": report.diagnostics,
        "concavity": dataclasses.asdict(conc),
        "config": cfg.raw,
    }
    snapshots.write_json(out / "blowup_report.json", payload)
    snapshots.write_series_csv(out / "mass_series.csv",
                               {"time": mass.times, "M": mass.M,
                                "M_prime": mass.M_prime, "M_dprime": mass.M_dprime},
                               sidecar={"config": cfg.raw})
    return {"detected": report.detected}


def _synthetic_family(cfg: ScenarioConfig, spec: dict) -> profiles.FunctionFamily:
    rng = np.random.default_rng(cfg.seed)
    g = cfg.grid
    n_members = spec.get("n_members", 4)
    bubbles = spec["bubbles"]  # list of {"width": cells, "amplitude": a}
    sep_base = spec.get("separation_base", 32)  # cells at member 0
    members = []
    for i in range(n_members):
        vals = np.zeros(g.shape)
        scale = 2.0**i
        anchor = rng.integers(0, g.n, size=g.d)
        for j, b in enumerate(bubbles):
            offset = anchor + np.round(j * sep_base * scale).astype(int)
            center = (offset % g.n) * g.spacing
            r = _transient_distance(g, center)
            vals += b["amplitude"] * np.exp(-(r**2) / (2.0 * (b["width"] * g.spacing) ** 2))
        members.append(Field(g, vals))
    return profiles.FunctionFamily(tuple(members))


def cmd_decompose(cfg: ScenarioConfig) -> dict:
    prof_cfg = cfg.audits["profiles"]
    params = critical_exponent(cfg.grid.d, cfg.p)
    if "synthetic" in prof_cfg:
        family = _synthetic_family(cfg, prof_cfg["synthetic"])
    else:
        fields = []
        for path in prof_cfg["snapshots"]:
            field, _, m, p = snapshots.read_field_snapshot(path)
            _check_like_config(cfg, f"snapshot {path}", field.grid, p, m)
            fields.append(field)
        family = profiles.FunctionFamily(tuple(fields))
    dec = profiles.bubble_decompose(family, params,
                                    j_max=prof_cfg.get("j_max", 8),
                                    tol=prof_cfg.get("tol", 1e-3))
    gaps = profiles.decoupling_audit(dec, family, params)
    arch = cfg.out_dir / "decomposition"
    arch.mkdir(parents=True, exist_ok=True)
    manifest = {"n_bubbles": dec.n_bubbles, "eps_history": dec.eps_history,
                "sobolev_history": dec.sobolev_history, "gaps": gaps, "centers": {}}
    for j, (profile, centers) in enumerate(dec.bubbles):
        snapshots.write_field_snapshot(arch / f"profile{j}.snap", profile,
                                       0.0, cfg.m, cfg.p)
        manifest["centers"][f"profile{j}"] = centers.tolist()
    snapshots.write_json(arch / "manifest.json", manifest)
    return {"n_bubbles": dec.n_bubbles}


COMMANDS = {
    "simulate": cmd_simulate,
    "audit-tensors": cmd_audit_tensors,
    "cones": cmd_cones,
    "fit": cmd_fit,
    "decompose": cmd_decompose,
}


def run(cfg: ScenarioConfig, command: str, **options) -> int:
    """Run one subcommand on a validated config.

    A command without the audits section it reads is a DomainError before
    any output.  Echoes the config and marks MANIFEST.json incomplete before
    any compute; once the command's outputs are written, the manifest is
    marked complete with the extras the command returns, or failed with
    the error if the command raises (the error propagates).
    """
    section = _COMMAND_SECTION.get(command)
    if section is not None and section not in cfg.audits:
        raise DomainError(f"config precondition violated: missing audits.{section}")
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    snapshots.write_json(out / "config.json", cfg.raw)
    _manifest(out, "incomplete")
    try:
        extras = COMMANDS[command](cfg, **options)
    except Exception as exc:
        _manifest(out, "failed", {"error": repr(exc)})
        raise
    _manifest(out, "complete", extras)
    return 0


def _failed(case: dict, code: int, exc: BaseException) -> dict:
    case.update(exit=code, error=repr(exc))
    print(f"sweep case{case['index']:03d} failed: {case['error']}", file=sys.stderr)
    return case


def _sweep_one(args) -> dict:
    """Simulate one sweep case into its record, a failure with exit 2 for a
    DomainError, else 1."""
    raw, case = args
    try:
        run(ScenarioConfig(raw), "simulate")
    except Exception as exc:
        return _failed(case, 2 if isinstance(exc, DomainError) else 1, exc)
    return case


def cmd_sweep(cfg_path) -> int:
    with open(cfg_path) as fh:
        raw = json.load(fh)
    # the base and each override may be partial; each merged case is read in full
    read = _read(raw, {**_SCHEMA, "sweep": [_SCHEMA]}, required=())
    if not read.get("sweep"):
        raise DomainError("config precondition violated: sweep requires a 'sweep' list")
    workers = _read(os.environ.get("NLKG_WORKERS", "2"), int, "NLKG_WORKERS")
    base = {k: v for k, v in raw.items() if k != "sweep"}
    jobs = []
    for i, override in enumerate(raw["sweep"]):
        merged = copy.deepcopy(base)
        for section, vals in override.items():
            merged[section] = ({**merged.get(section, {}), **vals} if isinstance(vals, dict)
                               else vals)
        base_dir = merged.get("output", {}).get("directory", "nlkg_out")
        merged["output"] = {"directory": str(Path(base_dir) / f"case{i:03d}")}
        cfg = ScenarioConfig(merged)  # validate before any compute
        jobs.append((merged, {"index": i, "exit": 0, "error": None,
                              "regime": critical_exponent(cfg.grid.d, cfg.p).regime}))
    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor  # deferred: sweep alone uses it
        from concurrent.futures.process import BrokenProcessPool
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_sweep_one, job) for job in jobs]
        cases = []
        for job, future in zip(jobs, futures):
            try:
                cases.append(future.result())
            except BrokenProcessPool as exc:  # a worker died and the pool lost this case
                cases.append(_failed(job[1], 1, exc))
    else:
        cases = [_sweep_one(j) for j in jobs]
    root = Path(read.get("output", {}).get("directory", "nlkg_out"))
    root.mkdir(parents=True, exist_ok=True)
    snapshots.write_json(root / "sweep_report.json", {"cases": cases})
    return max(case["exit"] for case in cases)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="nlkg",
                                     description="NLKG simulator and diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*COMMANDS, "sweep"):
        sp = sub.add_parser(name)
        sp.add_argument("config", help="path to a JSON scenario config")
        if name == "fit":
            sp.add_argument("--trajectory", default=None,
                            help="stored trajectory directory (defaults to a fresh run)")
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            return cmd_sweep(args.config)
        options = {"trajectory_dir": args.trajectory} if args.command == "fit" else {}
        return run(load_config(args.config), args.command, **options)
    except DomainError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
