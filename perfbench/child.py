"""One trial of a workload, in a fresh process.

    python3 perfbench/child.py <plan.json>

Set-up (interpreter start, ``import nlkg``, writing the inputs) runs first;
then the timed section runs the plan's subcommands in-process through
``nlkg.cli.main``, one after another.  Outside the timed section a traced
trial may time single kernels, and the first refit2d trial checks that the
trajectory read back equals the one evolved, bit for bit.  The result goes
to the plan's result file; exit code 3 means nlkg could not be imported.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

IMPORT_FAILED = 3


def write_family(fam: dict) -> None:
    """Planted 3-bubble members as v0 .snap files (the layout the README
    documents), written with numpy alone so the input does not depend on
    the program's own writer."""
    import struct

    import numpy as np

    n, L = fam["n"], fam["L"]
    h = L / n
    x = np.arange(n) * h
    for member in fam["members"]:
        vals = np.zeros((n, n))
        for (amp, width), c in zip(fam["bubbles"], member["centers"]):
            dx = np.mod(x - c[0] * h + 0.5 * L, L) - 0.5 * L
            dy = np.mod(x - c[1] * h + 0.5 * L, L) - 0.5 * L
            r2 = dx[:, None] ** 2 + dy[None, :] ** 2
            vals += amp * np.exp(-r2 / (2.0 * (width * h) ** 2))
        with open(member["path"], "wb") as fh:
            fh.write(struct.pack("<QQdddd", 2, n, L, 0.0, 0.0, 4.0))
            fh.write(np.ascontiguousarray(vals, dtype="<f8").tobytes())


def roundtrip_failures(spec: dict) -> list:
    """The stored trajectory must equal a fresh evolution of the same config."""
    import numpy as np

    import nlkg.cli
    import nlkg.snapshots
    import nlkg.solver

    cfg = nlkg.cli.load_config(spec["config"])
    fresh = nlkg.solver.evolve(cfg.initial_state(), cfg.solver)
    back = nlkg.snapshots.read_trajectory(spec["trajectory"])
    if len(fresh.snapshots) != len(back.snapshots):
        return [f"read back {len(back.snapshots)} snapshots, evolved {len(fresh.snapshots)}"]
    fails = []
    if fresh.termination != back.termination:
        fails.append(f"termination {back.termination} read back, {fresh.termination} evolved")
    for i, (a, b) in enumerate(zip(fresh.snapshots, back.snapshots)):
        same = (a.time, a.mass_param, a.exponent) == (b.time, b.mass_param, b.exponent) \
            and a.u.values.tobytes() == b.u.values.tobytes() \
            and a.v.values.tobytes() == b.v.values.tobytes()
        if not same:
            fails.append(f"snapshot {i} differs after the round trip")
            break
    ts, vs = fresh.series("sup_norm")
    tb, vb = back.series("sup_norm")
    if not (np.array_equal(ts, tb) and np.array_equal(vs, vb)):
        fails.append("sup_norm series differs after the round trip")
    return fails


def main() -> int:
    with open(sys.argv[1]) as fh:
        plan = json.load(fh)
    root = Path(plan["root"])
    sys.path.insert(0, str(root / "src"))
    t0 = time.monotonic()
    try:
        import nlkg.cli
    except Exception:
        traceback.print_exc()
        return IMPORT_FAILED
    import_s = time.monotonic() - t0
    import numpy
    import scipy

    work = Path(plan["work"])
    for rel, cfg in plan["files"].items():
        with open(work / rel, "w") as fh:
            json.dump(cfg, fh)
    for fam in plan["families"]:
        write_family(fam)

    tracer = None
    if plan["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import probes

        tracer = probes.Tracer(plan["run_id"])
        tracer.install()

    failures = []
    t_first = time.monotonic()
    c0 = time.process_time()
    for argv in plan["commands"]:
        try:
            code = nlkg.cli.main(argv)
        except Exception:
            failures.append(f"nlkg {argv[0]} raised:\n{traceback.format_exc()}")
            break
        if code != 0:
            failures.append(f"nlkg {argv[0]} exited {code}")
            break
    wall = time.monotonic() - t_first
    cpu = time.process_time() - c0

    result = {"t_start": T_START, "t_first_call": t_first, "import_s": import_s,
              "wall_s": wall, "cpu_s": cpu,
              "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        with open(work / "spans.json", "w") as fh:
            json.dump(tracer.span_records(), fh)
        if plan["micro"] and not failures:
            result["micro"] = probes.micro(micro_state(tracer, plan))
    if plan["roundtrip"] and not failures:
        failures += roundtrip_failures(plan["roundtrip"])
    result["failures"] = failures
    with open(plan["result"], "w") as fh:
        json.dump(result, fh)
    return 0


def micro_state(tracer, plan):
    """A state of the workload: the middle snapshot of its trajectory, or
    (no solver) the first family member at t = 0.5 with zero velocity."""
    traj = tracer.last_trajectory
    if traj is not None:
        return traj.snapshots[len(traj.snapshots) // 2]
    import numpy as np

    from nlkg.grid import Field, State
    from nlkg.snapshots import read_field_snapshot

    u, _, m, p = read_field_snapshot(plan["families"][0]["members"][0]["path"])
    return State(u, Field(u.grid, np.zeros(u.grid.shape)), 0.5, m, p)


if __name__ == "__main__":
    sys.exit(main())
