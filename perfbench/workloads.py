"""Workload definitions: inputs drawn from the seed, the subcommands each
trial runs, and the correctness check on their outputs.

Pure Python (no numpy): the parent process imports this module, and the
child receives only the plan built here.

Every workload is a closed loop with one client: one child process runs
the workload's subcommands one after another, in-process, through
``nlkg.cli.main``.  Why each workload exists is recorded in BENCHMARK.json
and in ``perfbench/README.md``.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

NAMES = ("blowup3d", "cones2d", "refit2d", "decompose2d")

# The seed draws one of nine data variants: an amplitude step and a width
# step, each in {-1, 0, +1}.  Amplitude moves by STEP of its value (for
# negative-energy data, through the margin above the zero-energy
# amplitude) and width by STEP of its value, so the stated band is
# +-0.25%.  The band is narrow because blowup time moves about twice as
# much as the data, and the run length with it.  Nine discrete variants
# let every one carry a stored reference.
STEP = 0.0025
VARIANTS = tuple((ka, kw) for ka in (-1, 0, 1) for kw in (-1, 0, 1))

# Sizes.  "full" is what the benchmark measures; "smoke" only proves the
# plumbing (every metric emitted with its unit) in seconds.
SIZES = {
    "full": {
        "blowup3d": {"n": 32, "threshold": 6.0},
        "cones2d": {"n": 128, "t_max": 1.0, "stride": 3, "top_time": 1.0},
        "refit2d": {"n": 64, "threshold": 20.0, "stride": 10},
        "decompose2d": {"n": 512, "L": 16.0, "sep": 40, "families": 2},
    },
    "smoke": {
        "blowup3d": {"n": 16, "threshold": 5.0},
        "cones2d": {"n": 128, "t_max": 1.0, "stride": 5, "top_time": 1.0},
        "refit2d": {"n": 32, "threshold": 8.0, "stride": 10},
        "decompose2d": {"n": 256, "L": 8.0, "sep": 20, "families": 1},
    },
}

# Tolerances of the correctness checks.  Round-off drift from a changed
# kernel is accepted; a changed result is not.
TOL = {
    "final_time_rel": 1e-3,      # at most about one step of the adaptive dt
    "series_rel": 1e-6,          # per point, relative to the series' max |value|
    "flux_gap_rel": 1e-3,        # blowup3d: relative to the reference gap
    "flux_gap_max": 1e-3,        # cones2d: the C06 bound
    "t_star_rel": 1e-4,
    "decoupling_gap_max": 0.05,  # C10
}

BUBBLES = ((1.0, 2.5), (0.7, 2.0), (0.5, 1.5))  # (amplitude, width in cells), as C10


def variant(seed: int) -> tuple:
    return random.Random(seed).choice(VARIANTS)


def variant_key(seed: int) -> str:
    ka, kw = variant(seed)
    return f"a{ka:+d}w{kw:+d}"


def _cfg(d, n, L, p, data, solver, out, audits=None):
    cfg = {"grid": {"d": d, "n": n, "box_length": L}, "physics": {"m": 0.0, "p": p},
           "data": data, "solver": solver, "output": {"directory": out}, "seed": 0}
    if audits:
        cfg["audits"] = audits
    return cfg


def plan(name: str, seed: int, size: str, work: Path) -> dict:
    """Inputs and subcommands of one trial of workload `name`.

    Returns {"files": {path: json}, "families": [...], "commands": [argv...],
    "roundtrip": {...} | None, "expect": {...}}.  All paths live under `work`.
    """
    sz = SIZES[size][name]
    ka, kw = variant(seed)
    fa, fw = 1.0 + STEP * ka, 1.0 + STEP * kw
    work = Path(work)
    out = work / "out"
    files, families, commands, roundtrip = {}, [], [], None
    expect = {"variant": variant_key(seed)}

    if name == "blowup3d":
        # margin 0.1 +- STEP moves the amplitude by about +-STEP
        cfg = _cfg(3, sz["n"], 8.0, 1.8,
                   {"kind": "negative_energy",
                    "params": {"A": 1.0, "w": 0.8 * fw, "margin": 0.1 + STEP * ka}},
                   {"dt_init": 2e-3, "t_max": 8.0, "adapt_theta": 1.0, "dt_min": 1e-16,
                    "blowup_threshold": sz["threshold"], "snapshot_stride": 20},
                   str(out), {"cones": {"top_time": 0.5}})
        files["blowup3d.json"] = cfg
        commands.append(["cones", str(work / "blowup3d.json")])
        expect["top_time"] = 0.5
    elif name == "cones2d":
        cfg = _cfg(2, sz["n"], 8.0, 4.0,
                   {"kind": "gaussian", "params": {"A": 0.8 * fa, "w": 0.5 * fw}},
                   {"dt_init": 1e-3, "t_max": sz["t_max"], "adapt_theta": None,
                    "snapshot_stride": sz["stride"]},
                   str(out), {"cones": {"top_time": sz["top_time"]}})
        files["cones2d.json"] = cfg
        commands.append(["cones", str(work / "cones2d.json")])
    elif name == "refit2d":
        # the C07 scenario; negative_energy's default margin is 0.5
        cfg = _cfg(2, sz["n"], 8.0, 2.0,
                   {"kind": "negative_energy",
                    "params": {"A": 1.0, "w": 0.6 * fw, "margin": 0.5 + STEP * ka}},
                   {"dt_init": 1e-3, "t_max": 8.0, "adapt_theta": 0.5,
                    "blowup_threshold": sz["threshold"], "snapshot_stride": sz["stride"]},
                   str(out / "sim"))
        fit = dict(cfg, output={"directory": str(out / "fit")})
        files["simulate.json"] = cfg
        files["fit.json"] = fit
        commands.append(["simulate", str(work / "simulate.json")])
        commands.append(["fit", str(work / "fit.json"), "--trajectory", str(out / "sim" / "trajectory")])
        roundtrip = {"config": str(work / "simulate.json"), "trajectory": str(out / "sim" / "trajectory")}
    elif name == "decompose2d":
        rng = random.Random(seed)
        n = sz["n"]
        planted = []
        for f in range(sz["families"]):
            members, fam_centers = [], []
            for i in range(3):
                sep = sz["sep"] * 2**i
                anchor = (rng.randrange(n), rng.randrange(n))
                offsets = ((0, 0), (sep, 0), (0, sep))
                centers = [((anchor[0] + ox) % n, (anchor[1] + oy) % n) for ox, oy in offsets]
                path = work / f"family{f}_member{i}.snap"
                members.append({"path": str(path), "centers": centers})
                fam_centers.append(centers)
            families.append({"n": n, "L": sz["L"], "bubbles": BUBBLES, "members": members})
            cfg = _cfg(2, n, sz["L"], 4.0, {"kind": "gaussian", "params": {"A": 1.0, "w": 1.0}},
                       {"dt_init": 1e-3, "t_max": 1.0}, str(out / f"family{f}"),
                       {"profiles": {"snapshots": [m["path"] for m in members],
                                     "j_max": 4, "tol": 1e-2}})
            files[f"decompose{f}.json"] = cfg
            commands.append(["decompose", str(work / f"decompose{f}.json")])
            planted.append(fam_centers)
        expect["planted"] = planted
        expect["spacing"] = sz["L"] / n
        expect["L"] = sz["L"]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return {"files": files, "families": families, "commands": commands,
            "roundtrip": roundtrip, "expect": expect, "out": str(out)}


# ---------------------------------------------------------------- outputs

def _read_series(path: Path) -> tuple:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    ts = [float(r[0]) for r in rows[1:]]
    vs = [float(r[1]) for r in rows[1:]]
    return ts, vs


def _json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def observe(name: str, out: Path) -> dict:
    """Read the values the check compares from a trial's output files."""
    out = Path(out)
    if name == "blowup3d":
        ts, zs = _read_series(out / "Z_functional.csv")
        return {"termination": _json(out / "MANIFEST.json")["termination"],
                "final_time": ts[-1], "Z_times": ts, "Z": zs,
                "flux_gap": _json(out / "flux_identity.json")["flux"]["gap"]}
    if name == "cones2d":
        ts, ls = _read_series(out / "L_functional.csv")
        return {"termination": _json(out / "MANIFEST.json")["termination"],
                "L_times": ts, "L": ls,
                "flux_gap": _json(out / "flux_identity.json")["flux"]["gap"]}
    if name == "refit2d":
        rep = _json(out / "fit" / "blowup_report.json")
        return {"detected": rep["detected"], "t_star": rep["t_star"],
                "cs_violations": rep["concavity"]["cauchy_schwarz_violations"],
                "concavity_violations": rep["concavity"]["concavity_violations"]}
    if name == "decompose2d":
        fams = []
        for d in sorted(out.glob("family*"), key=lambda p: int(p.name[6:])):
            fams.append(_json(d / "decomposition" / "manifest.json"))
        return {"families": fams}
    raise ValueError(name)


def _series_mismatch(label, ts, vs, rts, rvs) -> list:
    if abs(len(ts) - len(rts)) > 1:
        return [f"{label}: {len(ts)} points, reference has {len(rts)}"]
    scale = max(abs(v) for v in rvs) if rvs else 0.0
    bad = []
    for t, v, rt, rv in zip(ts, vs, rts, rvs):
        if abs(t - rt) > 1e-9 * max(1.0, abs(rt)):
            break  # the step at which a threshold is crossed may move by one
        if abs(v - rv) > TOL["series_rel"] * scale:
            bad.append(f"{label}({t:.6g})={v:.12g}, reference {rv:.12g}")
    return bad[:3]


def check(name: str, obs: dict, expect: dict, ref: dict | None) -> list:
    """Failures of one trial's outputs; an empty list means correct."""
    fails = []
    if name in REFERENCED and ref is None:
        return [f"no stored reference for variant {expect['variant']}"]
    if name == "blowup3d":
        if obs["termination"] != "blowup_detected":
            fails.append(f"termination {obs['termination']}")
        if not obs["final_time"] < expect["top_time"]:
            fails.append("run ended outside the cone, so the Z series misses the final time")
        if abs(obs["final_time"] - ref["final_time"]) > TOL["final_time_rel"] * ref["final_time"]:
            fails.append(f"final time {obs['final_time']!r}, reference {ref['final_time']!r}")
        if abs(obs["flux_gap"] - ref["flux_gap"]) > TOL["flux_gap_rel"] * abs(ref["flux_gap"]):
            fails.append(f"flux gap {obs['flux_gap']!r}, reference {ref['flux_gap']!r}")
        fails += _series_mismatch("Z", obs["Z_times"], obs["Z"], ref["Z_times"], ref["Z"])
    elif name == "cones2d":
        if obs["termination"] != "reached_t_max":
            fails.append(f"termination {obs['termination']}")
        if not obs["flux_gap"] <= TOL["flux_gap_max"]:
            fails.append(f"flux gap {obs['flux_gap']!r} above {TOL['flux_gap_max']}")
        fails += _series_mismatch("L", obs["L_times"], obs["L"], ref["L_times"], ref["L"])
    elif name == "refit2d":
        if obs["detected"] is not True:
            fails.append("blowup not detected")
        if obs["cs_violations"] != 0 or obs["concavity_violations"] != 0:
            fails.append(f"{obs['cs_violations']} Cauchy-Schwarz and "
                         f"{obs['concavity_violations']} concavity violations")
        if not abs(obs["t_star"] - ref["t_star"]) <= TOL["t_star_rel"] * ref["t_star"]:
            fails.append(f"T* {obs['t_star']!r}, reference {ref['t_star']!r}")
    elif name == "decompose2d":
        h, L = expect["spacing"], expect["L"]
        if len(obs["families"]) != len(expect["planted"]):
            return [f"{len(obs['families'])} family outputs, expected {len(expect['planted'])}"]
        for f, (man, planted) in enumerate(zip(obs["families"], expect["planted"])):
            if man["n_bubbles"] != 3:
                fails.append(f"family {f}: {man['n_bubbles']} bubbles")
            for key in ("h1", "hsc", "p_plus_2"):
                if not man["gaps"][key] <= TOL["decoupling_gap_max"]:
                    fails.append(f"family {f}: {key} gap {man['gaps'][key]!r}")
            for prof, per_member in man["centers"].items():
                for i, c in enumerate(per_member):
                    best = min(_periodic_dist(c, [x * h for x in pc], L) for pc in planted[i])
                    if best > h + 1e-12:
                        fails.append(f"family {f} {prof} member {i}: centre {best / h:.2f} cells off")
    return fails


def _periodic_dist(a, b, L) -> float:
    s = 0.0
    for x, y in zip(a, b):
        dx = abs(x - y) % L
        s += min(dx, L - dx) ** 2
    return math.sqrt(s)


REFERENCE_KEYS = {"blowup3d": ("final_time", "Z_times", "Z", "flux_gap"),
                  "cones2d": ("L_times", "L", "flux_gap"),
                  "refit2d": ("t_star",)}
REFERENCED = tuple(REFERENCE_KEYS)


def reference_entry(name: str, obs: dict) -> dict:
    """The part of an observation stored as the reference."""
    return {k: obs[k] for k in REFERENCE_KEYS[name]}
