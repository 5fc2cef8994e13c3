"""Summarise the run records in perfbench/out/ across seeds.

Usage (from the repository root)::

    python3 perfbench/collect.py                      # print the table
    python3 perfbench/collect.py --write perfbench/results/NAME.json

For every workload and end-to-end metric it prints the median over the
recorded runs, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (q3 - q1) / median, next to the metric's bound in BENCHMARK.json; a
spread above a third of the bound is flagged.  Traced runs contribute the
median of each per-layer metric.  ``--write`` saves the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", help="save the summary as JSON here")
    args = parser.parse_args()

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    records = [json.loads(p.read_text()) for p in sorted(OUT.glob("*-trace[01].json"))]
    values = defaultdict(lambda: defaultdict(list))
    runs = defaultdict(lambda: {"seeds": [], "attempted": 0, "failed": 0})
    meta = {}
    for rec in records:
        key = (rec["workload"], rec["trace"])
        runs[key]["seeds"].append(rec["seed"])
        runs[key]["attempted"] += rec["attempted"]
        runs[key]["failed"] += rec["failed"]
        for name, metric in rec["metrics"].items():
            values[key][name].append(metric["value"])
        meta = {k: rec[k] for k in ("python", "cpu_count", "git_revision", "seconds")}

    summary = {"meta": meta, "end_to_end": {}, "per_layer": {}, "runs": {}}
    for (workload, trace), by_metric in sorted(values.items()):
        section = "per_layer" if trace else "end_to_end"
        rows = {name: spread(vals) for name, vals in by_metric.items()}
        summary[section][workload] = rows
        info = runs[(workload, trace)]
        summary["runs"][f"{workload}/trace{trace}"] = {
            **info, "error_rate": info["failed"] / info["attempted"] if info["attempted"] else None,
        }
        print(f"{workload}  trace {trace}  runs {len(info['seeds'])}  "
              f"failed {info['failed']}/{info['attempted']}")
        for name, row in rows.items():
            if trace:
                print(f"  {name:<46} {row['median']:>14.6g}")
                continue
            bound = bounds[name]
            flag = "" if row["spread"] is not None and row["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"  {name:<22} median {row['median']:>12.6g}  q1 {row['q1']:>12.6g}  "
                  f"q3 {row['q3']:>12.6g}  spread {row['spread']:.4f}  bound {bound}{flag}")
    if args.write:
        with open(args.write, "w", encoding="ascii") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
