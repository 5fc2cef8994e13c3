"""Write perfbench/reference.json: seed-0 output hashes and the committed counts.

Usage (from the repository root)::

    python3 perfbench/make_reference.py

Runs every seed-0 call of every workload once as a child process and records
the sha256 of its stdout, after the call has passed every check in
``run.check_output`` other than the hash.  It also records the benchmark's own
count of evaluated points for each sweep at every seed offset (the seed
enters the sweeps only as ``seed % 11``).  Regenerate only when the canonical
output is meant to change, and say so in CHANGES.md; ``run.py`` never
rewrites this file.
"""

from __future__ import annotations

import json
import shutil

import run
from workloads import WORKLOADS


def main() -> int:
    env = run.child_env()
    work = run.OUT / "work-reference"
    work.mkdir(parents=True, exist_ok=True)
    hashes = {}
    failures = []
    try:
        for workload, make in WORKLOADS.items():
            for calls in make(0):
                for call in calls:
                    child = run.run_cli(call, None, work, env)
                    problems = run.check_output(call, child.code, child.out, None)
                    problems += run.check_files(call, work)
                    if problems:
                        failures.append((call.key, problems))
                    hashes[call.key] = run.sha256(child.out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if failures:
        for key, problems in failures:
            print(f"FAILED {key}: {'; '.join(problems)}")
        return 1
    points = {
        workload: {str(s): [call.points for call in make(s)[0]] for s in range(11)}
        for workload, make in WORKLOADS.items()
        if workload != "cli-single"
    }
    with open(run.REFERENCE, "w", encoding="ascii") as fh:
        json.dump({"sha256": hashes, "points": points}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(hashes)} hashes to {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
