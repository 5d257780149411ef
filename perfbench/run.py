"""nlkg benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload cones2d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke             # every workload, tiny sizes
    python3 perfbench/run.py --make-reference    # rewrite reference.json

A run is a sequence of trials, one at a time.  Each trial is a fresh child
process (perfbench/child.py) that sets up, runs the workload's nlkg
subcommands in-process, and exits; its outputs go to a temporary directory
that is deleted afterwards.  Trials start while the next one is expected
to end within --seconds (at least three, two when traced).

--trace 0 reports the end-to-end metrics (medians over trials); --trace 1
alternates untraced and traced trials and reports the per-layer metrics
plus trace.overhead_ratio.  The last line of stdout is one JSON object;
a results file with the run record and every raw sample is written to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probes  # noqa: E402
import workloads  # noqa: E402
from probes import median  # noqa: E402

DEFAULT_SEED = 1
WORK = ROOT / ".perfbench_work"
RESULTS = HERE / "results"
REFERENCE = HERE / "reference.json"
RUN_DEADLINE_S = 170.0

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "ok_ratio": "1"}
TIMINGS = ("wall_s", "cpu_s", "setup_s")


class SetupError(RuntimeError):
    """The program could not be set up at all; no result is printed."""


# ---------------------------------------------------------------- one trial

def wait_child(proc, deadline: float):
    """Reap the child with os.wait4, so ru_maxrss is its own peak."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage, False
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage, True
        time.sleep(0.01)


def trial(name, seed, size, index, traced, micro, roundtrip, deadline, reference):
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        p = workloads.plan(name, seed, size, work)
        child_plan = {"root": str(ROOT), "work": str(work), "files": p["files"],
                      "families": p["families"], "commands": p["commands"],
                      "trace": traced, "micro": micro,
                      "roundtrip": p["roundtrip"] if roundtrip else None,
                      "result": str(work / "result.json"),
                      "run_id": f"{name}-seed{seed}-trial{index}"}
        with open(work / "plan.json", "w") as fh:
            json.dump(child_plan, fh)
        with open(work / "child.log", "wb") as log:
            t_spawn = time.monotonic()
            proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(work / "plan.json")],
                                    stdout=log, stderr=subprocess.STDOUT, cwd=str(ROOT))
            usage, timed_out = wait_child(proc, deadline)
        log_text = (work / "child.log").read_text(errors="replace")
        if proc.returncode == 3:
            raise SetupError(f"nlkg could not be imported:\n{log_text}")
        rec = {"index": index, "traced": traced, "exit": proc.returncode,
               "peak_rss_mb": usage.ru_maxrss / 1024.0,
               "child_cpu_s": usage.ru_utime + usage.ru_stime}
        result_path = work / "result.json"
        if timed_out or proc.returncode != 0 or not result_path.exists():
            rec["failures"] = [f"child exited {proc.returncode}"
                               + (" after the run deadline" if timed_out else "")
                               + f":\n{log_text[-2000:]}"]
            return rec, None
        with open(result_path) as fh:
            res = json.load(fh)
        rec.update(setup_s=res["t_first_call"] - t_spawn, wall_s=res["wall_s"],
                   cpu_s=res["cpu_s"], import_s=res["import_s"],
                   failures=list(res["failures"]), versions=res["versions"])
        if not rec["failures"]:
            ref = reference.get(size, {}).get(name, {}).get(p["expect"]["variant"])
            try:
                obs = workloads.observe(name, p["out"])
                rec["failures"] = workloads.check(name, obs, p["expect"], ref)
            except (OSError, KeyError, ValueError, IndexError) as exc:
                obs = None
                rec["failures"] = [f"outputs unreadable: {exc!r}"]
            rec["observed"] = obs if name in workloads.REFERENCED else None
        rec["ok"] = not rec["failures"]
        if "layers" in res:
            rec["layers"] = res["layers"]
            with open(work / "spans.json") as fh:
                rec_spans = json.load(fh)
        else:
            rec_spans = None
        if "micro" in res:
            rec["micro"] = res["micro"]
        return rec, rec_spans
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_trials(name, seed, size, seconds, trace, reference, min_trials):
    deadline = time.monotonic() + RUN_DEADLINE_S
    trials, spans, measured, longest = [], [], 0.0, 0.0
    has_roundtrip = name == "refit2d"
    while True:
        traced = bool(trace) and len(trials) % 2 == 1
        micro = traced and not any(t["traced"] for t in trials)
        rec, rec_spans = trial(name, seed, size, len(trials), traced, micro,
                               has_roundtrip and not trials, deadline, reference)
        rec.setdefault("ok", False)
        trials.append(rec)
        if rec_spans:
            spans.extend(rec_spans)
        took = rec.get("setup_s", 0.0) + rec.get("wall_s", 0.0)
        measured += took
        longest = max(longest, took)
        if time.monotonic() > deadline - longest:
            break
        # the next trial is expected to take the mean so far; with the
        # longest instead, one slow trial would drop a run to fewer trials
        if len(trials) >= min_trials and measured * (1 + 1 / len(trials)) > seconds:
            break
    try:
        WORK.rmdir()
    except OSError:
        pass
    return trials, spans


# ---------------------------------------------------------------- metrics

def end_to_end(trials) -> dict:
    ok = [t for t in trials if t["ok"]]
    timed = ok or [t for t in trials if "wall_s" in t]
    out = {}
    for key in TIMINGS + ("peak_rss_mb",):
        vals = [t[key] for t in timed]
        out[key] = median(vals) if vals else float("nan")
    out["ok_ratio"] = len(ok) / len(trials)
    return out


def per_layer(trials) -> tuple:
    traced = [t for t in trials if t["traced"] and "layers" in t]
    plain = [t for t in trials if not t["traced"] and "wall_s" in t]
    out, notes = {}, {}
    if traced:
        for key in traced[0]["layers"]:
            out[key] = median([t["layers"][key] for t in traced])
    else:
        out.update({k: 0.0 for k in probes.SPAN_UNITS})
        notes["*"] = "no traced trial completed"
    micro = next((t["micro"] for t in traced if "micro" in t), None)
    for key in probes.MICRO_UNITS:
        out[key] = micro[key]["median"] if micro else 0.0
    if micro is None:
        notes["*_ms"] = "micro-timings did not run (the traced trial failed)"
    out["cli.import_s"] = median([t["import_s"] for t in trials if "import_s" in t])
    if traced and plain:
        out["trace.overhead_ratio"] = (median([t["wall_s"] for t in traced])
                                       / median([t["wall_s"] for t in plain]) - 1.0)
    else:
        out["trace.overhead_ratio"] = 0.0
        notes["trace.overhead_ratio"] = "needs one traced and one untraced trial"
    if out.get("solver.snapshots", 0) == 0:
        notes["grid.gradients_per_snapshot"] = "no solver snapshots on this workload"
    idle = [k for k in probes.SPAN_UNITS
            if out[k] == 0 and not k.endswith(".errors") and k not in notes]
    if traced and idle:
        notes["zero"] = "this workload makes no call that these measure: " + ", ".join(idle)
    return out, notes


def layer_units() -> dict:
    units = dict(probes.SPAN_UNITS)
    units.update(probes.MICRO_UNITS)
    units.update({"cli.import_s": "s", "trace.overhead_ratio": "1"})
    return units


def benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def declared(trace: int) -> dict:
    return {m["name"]: m["unit"] for m in benchmark_json()["per_layer" if trace else "end_to_end"]}


def emitted_mismatch(metrics: dict, trace: int) -> list:
    """Names or units that differ from BENCHMARK.json."""
    want = declared(trace)
    bad = [f"missing {k}" for k in want if k not in metrics]
    bad += [f"undeclared {k}" for k in metrics if k not in want]
    bad += [f"{k}: unit {metrics[k]['unit']} but BENCHMARK.json says {want[k]}"
            for k in metrics if k in want and metrics[k]["unit"] != want[k]]
    return bad


# ---------------------------------------------------------------- run record

def machine() -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": None, "caches": []}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        base = Path("/sys/devices/system/cpu/cpu0/cache")
        for idx in sorted(base.glob("index*")):
            info["caches"].append({k: (idx / k).read_text().strip()
                                   for k in ("level", "type", "size")})
    except OSError:
        pass
    return info


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def timing_summary(trials, key) -> dict:
    return probes.summarize([t[key] for t in trials if key in t and not t["traced"]])


def write_record(name, seed, seconds, trace, trials, spans, metrics, notes, size) -> Path:
    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = RESULTS / f"{name}-seed{seed}-trace{trace}-{size}-{stamp}-{os.getpid()}.json"
    record = {
        "workload": name, "seed": seed,
        "why": next(w["why"] for w in benchmark_json()["workloads"] if w["name"] == name),
        "variant": workloads.variant_key(seed), "seconds": seconds, "trace": trace,
        "size": size, "settings": workloads.SIZES[size][name],
        "commit": git_commit(), "claim": None, "machine": machine(),
        "versions": next((t["versions"] for t in trials if "versions" in t), None),
        "metrics": metrics, "notes": notes,
        "timings": {k: timing_summary(trials, k) for k in TIMINGS},
        "trials": [{k: v for k, v in t.items() if k != "observed"} for t in trials],
    }
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    if spans:
        with open(path.with_suffix(".spans.json"), "w") as fh:
            json.dump(spans, fh)
    return path


def print_table(name, metrics, trials, notes) -> None:
    print(f"workload {name}: {len(trials)} trials, {sum(t['ok'] for t in trials)} correct")
    for key, m in metrics.items():
        line = f"  {key:32s} {m['value']:>14.6g} {m['unit']}"
        if key in TIMINGS:
            s = timing_summary(trials, key)
            if s["pct"] is not None:
                line += f"  (p{s['pct']} {s['pct_value']:.6g}, n={s['n']})"
            else:
                line += f"  (median of n={s['n']}; no percentile has ten samples beyond it)"
        print(line)
    for t in trials:
        fails = t.get("failures", [])
        for f in fails[:5]:
            print(f"  trial {t['index']} failed: {f}")
        if len(fails) > 5:
            print(f"  trial {t['index']}: {len(fails) - 5} more failures in the results file")
    for key, why in notes.items():
        print(f"  note {key}: {why}")


# ---------------------------------------------------------------- modes

def load_reference() -> dict:
    if not REFERENCE.exists():
        return {}
    with open(REFERENCE) as fh:
        return json.load(fh)


def check_program() -> None:
    if not (ROOT / "src" / "nlkg" / "__init__.py").is_file():
        raise SetupError(f"no nlkg sources under {ROOT / 'src'}")


def measure(name, seed, seconds, trace, size="full", min_trials=None) -> dict:
    """At least three trials (two when traced), so setup_s is a median."""
    min_trials = min_trials or (2 if trace else 3)
    trials, spans = run_trials(name, seed, size, seconds, trace, load_reference(), min_trials)
    if trace:
        values, notes = per_layer(trials)
        units = layer_units()
    else:
        values, notes = end_to_end(trials), {}
        units = E2E_UNITS
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    record = write_record(name, seed, seconds, trace, trials, spans, metrics, notes, size)
    print_table(name, metrics, trials, notes)
    print(f"results file: {record.relative_to(ROOT)}")
    failed = sum(not t["ok"] for t in trials)
    return {"correct": failed == 0, "attempted": len(trials), "failed": failed,
            "metrics": metrics}


def smoke() -> int:
    """Every workload at tiny sizes, untraced and traced; every declared
    metric must be emitted with its declared unit."""
    problems = []
    for name in workloads.NAMES:
        for trace in (0, 1):
            out = measure(name, DEFAULT_SEED, 1, trace, size="smoke", min_trials=1 + trace)
            bad = emitted_mismatch(out["metrics"], trace)
            if not out["correct"]:
                bad.append("a trial failed its correctness check")
            problems += [f"{name} trace {trace}: {b}" for b in bad]
    for p in problems:
        print(f"SMOKE FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 0 if not problems else 1


def make_reference() -> int:
    """Run every data variant once and store the values the checks compare."""
    ref = {"note": "written by perfbench/run.py --make-reference", "commit": git_commit()}
    for size in ("full", "smoke"):
        ref[size] = {}
        for name in workloads.NAMES:
            if name not in workloads.REFERENCED:
                continue
            ref[size][name] = {}
            for key in {workloads.variant_key(s) for s in range(200)}:
                seed = next(s for s in range(200) if workloads.variant_key(s) == key)
                rec, _ = trial(name, seed, size, 0, False, False, False,
                               time.monotonic() + 600.0, {})
                if "observed" not in rec or rec["observed"] is None:
                    print(f"{size} {name} {key}: failed: {rec['failures']}")
                    return 1
                ref[size][name][key] = workloads.reference_entry(name, rec["observed"])
                print(f"{size} {name} {key}: stored")
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--make-reference", action="store_true")
    args = ap.parse_args(argv)
    try:
        check_program()
        if args.smoke:
            return smoke()
        if args.make_reference:
            return make_reference()
        if args.workload is None:
            ap.error("--workload is required")
        seconds = args.seconds
        if seconds is None:
            seconds = benchmark_json()["run_seconds"]
        out = measure(args.workload, args.seed, seconds, args.trace)
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    bad = emitted_mismatch(out["metrics"], args.trace)
    if bad:
        print("metrics do not match BENCHMARK.json: " + "; ".join(bad), file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
