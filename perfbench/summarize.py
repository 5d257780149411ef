"""Summarise results files across runs.

    python3 perfbench/summarize.py                      # every full-size results file
    python3 perfbench/summarize.py perfbench/results/cones2d-seed1*-trace0-*.json

For each workload and each end-to-end metric of BENCHMARK.json this prints
the median over runs, the quartiles, and the spread: the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound.  For the timings it also
pools every trial of those runs and gives the median, the highest
percentile with at least ten trials beyond it, and the trial count.
Traced runs and smoke-size runs are left out.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from probes import summarize  # noqa: E402
from run import RESULTS, TIMINGS, benchmark_json  # noqa: E402


def load(paths) -> dict:
    """Untraced full-size runs, grouped by workload, in file order."""
    runs = {}
    for path in paths:
        with open(path) as fh:
            rec = json.load(fh)
        if rec["trace"] == 0 and rec["size"] == "full":
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    paths = args or sorted(p for p in RESULTS.glob("*.json") if not p.name.endswith(".spans.json"))
    bench = benchmark_json()
    runs = load(paths)
    for name in (w["name"] for w in bench["workloads"]):
        recs = runs.get(name, [])
        if len(recs) < 2:
            print(f"{name}: {len(recs)} runs, need at least two")
            continue
        commits = sorted({r["commit"] for r in recs})
        print(f"{name}: {len(recs)} runs, seeds {[r['seed'] for r in recs]}, commit {', '.join(commits)}")
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in recs]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            sp = (q3 - q1) / statistics.median(vals)
            flag = "ok" if sp <= m["bound"] / 3 else ("within bound" if sp <= m["bound"] else "WIDE")
            line = (f"  {m['name']:12s} median {statistics.median(vals):10.5g} {m['unit']:4s}"
                    f" q1 {q1:.5g} q3 {q3:.5g} spread {sp:.4f} (bound {m['bound']}, {flag})")
            if m["name"] in TIMINGS:
                pooled = summarize([t[m["name"]] for r in recs for t in r["trials"] if m["name"] in t])
                line += f"; trials: median {pooled['median']:.5g}"
                if pooled["pct"] is not None:
                    line += f", p{pooled['pct']} {pooled['pct_value']:.5g}"
                line += f", n={pooled['n']}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
