"""Benchmark for the lensgenus CLI: sweep throughput, cold start and per-layer spans.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cable-grid --seed 0 --seconds 25 --trace 0

With ``--trace 0`` the benchmark runs the CLI as child processes, one at a
time, in rounds of one serial pass and one pass with ``--jobs 2`` on every
sweep, for ``--seconds`` (at least two rounds), and prints the end-to-end
metrics.  With ``--trace 1`` it runs each pass in this process
through ``lensgenus.cli.main`` with ``--jobs 1``, once plain and once with
every public library function wrapped by ``spans.Tracer``, and prints the
per-layer metrics.  Every output is checked (see ``check_output``); the last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  A fuller record, with the run's metadata, goes to
``perfbench/out/``.

Only the benchmark's own child processes are measured (``os.wait4``); no
machine-wide counter is read.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import LAYERS, Tracer, instrument
from workloads import WORKLOADS, Call

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

#: Set-up is repeated this many times per run and reported as the median.
SETUP_REPEATS = 11
#: Untraced runs make at least this many rounds, however short ``--seconds``.
MIN_ROUNDS = 2
#: Fresh interpreters started for ``cli.import_s`` and ``cli.interp_start_s``.
COLD_STARTS = 5
#: Shortest tail a reported percentile must leave beyond it.
TAIL_SAMPLES = 10

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "1/s",
    "points_per_s_jobs2": "1/s",
    "scaling_eff_jobs2": "ratio",
    "peak_rss_mb": "MB",
    "cli_latency_ms_p50": "ms",
    "cli_latency_ms_p75": "ms",
}

#: Per-layer metric -> span whose inclusive time per call it reports.
PER_CALL = {
    "norm.orbifold_euler_char.us_per_call": "norm.orbifold_euler_char",
    "cables.cable_side_summands.us_per_call": "cables.cable_side_summands",
    "complement.torus_fiber_summand.us_per_call": "complement.torus_fiber_summand",
    "exactarith.snf_5x4.us_per_call": "exactarith.snf_5x4",
    "complement.presentation_matrix.us_per_call": "complement.presentation_matrix",
    "complement.boundary_kernel.us_per_call": "complement.boundary_kernel",
    "exactarith.snf_5x5.us_per_call": "exactarith.snf_5x5",
    "twistfamily.build_twist_diagram.us_per_call": "twistfamily.build_twist_diagram",
    "stabilization.stab_norms.us_per_call": "stabilization.stab_norms",
    "complement.torus_knot_theta.us_per_call": "complement.torus_knot_theta",
    "order2.uniqueness_check.us_per_call": "order2.uniqueness_check",
    "lens.simple_knot_in_class.us_per_call": "lens.simple_knot_in_class",
}
#: Per-layer metric -> span whose self time per call it reports.
SELF_PER_CALL = {
    "norm.graph_norm.self_us": "norm.graph_norm",
    "norm.clamped_graph_norm.self_us": "norm.clamped_graph_norm",
    "cables.cable_verdict.self_us": "cables.cable_verdict",
    "exactarith.peripheral_kernel.self_us": "exactarith.peripheral_kernel",
    "exactarith.cokernel_invariants.self_us": "exactarith.cokernel_invariants",
    "twistfamily.h1_of_filling.self_us": "twistfamily.h1_of_filling",
    "twistfamily.unfilled_class.self_us": "twistfamily.unfilled_class",
    "stabilization.stab_verdict.self_us": "stabilization.stab_verdict",
    "cables.iterated_verdict.self_us": "cables.iterated_verdict",
}
PER_LAYER_UNITS = {
    **{name: "us" for name in PER_CALL},
    **{name: "us" for name in SELF_PER_CALL},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "norm.orbifold_euler_char.calls": "count",
    "exactarith.intmatrix.per_point": "count/point",
    "twistfamily.snf_per_point": "count/point",
    "cli.sweep.self_s": "s",
    "cli.candidates": "count",
    "cli.evaluated": "count",
    "cli.skipped": "count",
    "cli.pool.cpu_overhead_s": "s",
    "cli.serialise_s": "s",
    "cli.import_s": "s",
    "cli.interp_start_s": "s",
    "trace.overhead_frac": "ratio",
}

CLI_ENTRY = "import sys; from lensgenus.cli import main; sys.exit(main())"


# ---------------------------------------------------------------------------
# statistics


def percentile(samples: list[float], pct: float) -> float:
    """Percentile interpolated linearly between the two nearest ranks.

    With few samples this is steadier than the nearest rank, which jumps
    from one sample to the next as the sample count changes.
    """
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * pct / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``pct`` percentile."""
    return n - max(1, math.ceil(pct / 100 * n))


def tail_percentile(n: int) -> float | None:
    """Highest of p50, p75, p90, p95, p99 with at least TAIL_SAMPLES samples beyond it."""
    supported = [pct for pct in (50, 75, 90, 95, 99) if samples_beyond(n, pct) >= TAIL_SAMPLES]
    return supported[-1] if supported else None


# ---------------------------------------------------------------------------
# correctness


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_output(call: Call, code: int, out: bytes, reference: str | None) -> list[str]:
    """Everything wrong with one call's exit code and stdout; empty when correct.

    A call fails on a wrong exit code, a non-empty ``mismatches*`` list, a
    result that disagrees with the benchmark's own count or closed form, or
    stdout whose sha256 differs from ``reference`` (when one is given).
    """
    problems = []
    if code != call.exit_code:
        problems.append(f"exit code {code}, expected {call.exit_code}")
    if reference is not None and sha256(out) != reference:
        problems.append("stdout sha256 differs from the reference")
    try:
        results = json.loads(out)["results"]
    except (ValueError, KeyError, TypeError):
        return problems + ["stdout is not a JSON report"]
    for key, value in results.items():
        if key.startswith("mismatches") and value:
            problems.append(f"{key} has {len(value)} entries")
    for key, want in call.expect.items():
        if results.get(key) != want:
            problems.append(f"results.{key} = {results.get(key)!r}, expected {want!r}")
    return problems


def check_files(call: Call, work: Path) -> list[str]:
    """Compare and remove the files an export call wrote under ``work``."""
    problems = []
    for name, want in call.files.items():
        path = work / name
        try:
            text = path.read_text(encoding="ascii")
        except OSError as exc:
            problems.append(f"export {name} unreadable: {exc}")
            continue
        path.unlink()
        got = text if isinstance(want, str) else json.loads(text)
        if got != want:
            problems.append(f"export {name} has unexpected contents")
    return problems


@dataclass
class Checks:
    """Counts operations and failures across one run."""

    reference: dict[str, str]
    work: Path
    require_reference: bool
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    seen: dict[str, str] = field(default_factory=dict)

    def record(self, call: Call, code: int, out: bytes) -> None:
        self.attempted += 1
        problems = check_output(call, code, out, self.reference.get(call.key))
        problems += check_files(call, self.work)
        if self.require_reference and call.key not in self.reference:
            problems.append("no reference sha256 for this call")
        # Serial, --jobs 2, traced and untraced runs of one call must agree
        # byte for byte.
        digest = sha256(out)
        if self.seen.setdefault(call.key, digest) != digest:
            problems.append("stdout differs from an earlier run of the same call")
        if problems:
            self.failed += 1
            self.problems.append({"call": call.key, "problems": problems})

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


# ---------------------------------------------------------------------------
# child processes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Let the warm-up import cache bytecode, as an installed package has it;
    # otherwise every timed call would compile the sources again.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@dataclass
class ChildRun:
    wall_s: float
    code: int
    out: bytes
    cpu_s: float
    maxrss_kb: int


def run_child(argv: list[str], env: dict[str, str]) -> ChildRun:
    """Run one interpreter to completion; CPU and peak RSS include its workers."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
                            cwd=ROOT)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    # Already reaped by wait4: tell Popen, so it never waits for the pid again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(wall, proc.returncode, out, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def run_cli(call: Call, jobs: int | None, work: Path, env: dict[str, str]) -> ChildRun:
    return run_child([sys.executable, "-c", CLI_ENTRY, *call.command(str(work), jobs)], env)


# ---------------------------------------------------------------------------
# set-up


def load_reference() -> dict:
    with open(REFERENCE, encoding="ascii") as fh:
        return json.load(fh)


def set_up(workload: str, seed: int, env: dict[str, str]) -> tuple[list[list[Call]], dict]:
    """Generate the passes, load and cross-check the references, warm the import."""
    passes = WORKLOADS[workload](seed)
    reference = load_reference()
    committed = reference["points"].get(workload, {}).get(str(seed % 11))
    if committed is not None:
        counted = [call.points for call in passes[0]]
        if counted != committed:
            raise SystemExit(f"benchmark count {counted} != committed count {committed}")
    warm = run_child([sys.executable, "-c", "import lensgenus.cli"], env)
    if warm.code != 0:
        raise SystemExit("cannot import lensgenus.cli from src/")
    return passes, reference["sha256"]


# ---------------------------------------------------------------------------
# untraced measurement


@dataclass
class PassRun:
    wall_s: float
    points: int
    maxrss_kb: int
    #: Wall time of each call that ran without a worker pool.
    solo_walls: list[float]


def run_pass(calls: list[Call], jobs: int | None, checks: Checks, env) -> PassRun:
    wall = 0.0
    rss = 0
    solo = []
    for call in calls:
        child = run_cli(call, jobs, checks.work, env)
        checks.record(call, child.code, child.out)
        wall += child.wall_s
        rss = max(rss, child.maxrss_kb)
        if jobs is None or not call.is_sweep:
            solo.append(child.wall_s)
    return PassRun(wall, sum(c.points for c in calls), rss, solo)


def another_round(rounds: int, minimum: int, round_s: list[float], elapsed: float,
                  seconds: float) -> bool:
    """Whether to start another round of a run meant to last ``seconds``.

    A round is started only if, at the median round time so far, it would end
    less than half a round past ``seconds``; so a run lasts ``seconds`` on
    average instead of always running over.
    """
    if rounds < minimum:
        return True
    return elapsed + statistics.median(round_s) / 2 < seconds


def measure(passes: list[list[Call]], seconds: float, checks: Checks, env) -> tuple[dict, dict]:
    serial: list[PassRun] = []
    pooled: list[PassRun] = []
    round_s: list[float] = []
    start = time.perf_counter()
    rounds = 0
    while another_round(rounds, MIN_ROUNDS, round_s, time.perf_counter() - start, seconds):
        t0 = time.perf_counter()
        calls = passes[rounds % len(passes)]
        # Alternate which side goes first so neither always runs on a cold cache.
        for jobs in ((None, 2) if rounds % 2 == 0 else (2, None)):
            (serial if jobs is None else pooled).append(run_pass(calls, jobs, checks, env))
        round_s.append(time.perf_counter() - t0)
        rounds += 1
    rate = statistics.median(p.points / p.wall_s for p in serial)
    rate2 = statistics.median(p.points / p.wall_s for p in pooled)
    latencies = [w * 1000 for p in serial + pooled for w in p.solo_walls]
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in serial),
        "points_per_s": rate,
        "points_per_s_jobs2": rate2,
        "scaling_eff_jobs2": rate2 / (2 * rate),
        "peak_rss_mb": statistics.median(p.maxrss_kb for p in serial) / 1024,
        "cli_latency_ms_p50": percentile(latencies, 50),
        "cli_latency_ms_p75": percentile(latencies, 75),
    }
    extra = {
        "rounds": rounds,
        "serial_pass_walls_s": [p.wall_s for p in serial],
        "jobs2_pass_walls_s": [p.wall_s for p in pooled],
        "latency_samples": len(latencies),
        "latency_tail_percentile": tail_percentile(len(latencies)),
    }
    return metrics, extra


# ---------------------------------------------------------------------------
# traced measurement


def import_layers() -> dict:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return {layer: importlib.import_module(f"lensgenus.{layer}") for layer in LAYERS}


def run_inprocess(cli, call: Call, work: Path) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(call.command(str(work), 1))
    return code, buf.getvalue().encode("ascii")


def cold_starts(env) -> tuple[float, float]:
    """Median import time of lensgenus.cli, and of a bare interpreter start."""
    timer = "import time; t = time.perf_counter(); import lensgenus.cli; print(time.perf_counter() - t)"
    imports, bare = [], []
    for _ in range(COLD_STARTS):
        imports.append(float(run_child([sys.executable, "-c", timer], env).out))
        bare.append(run_child([sys.executable, "-c", "pass"], env).wall_s)
    return statistics.median(imports), statistics.median(bare)


def measure_traced(passes, seconds, checks: Checks, env, spans_path: Path) -> tuple[dict, dict]:
    layers = import_layers()
    cli = layers["cli"]
    tracer = Tracer()
    walls = {False: [], True: []}
    pool_cpu = []
    points = candidates = 0
    round_s: list[float] = []
    start = time.perf_counter()
    rounds = 0
    while another_round(rounds, 1, round_s, time.perf_counter() - start, seconds):
        t_round = time.perf_counter()
        calls = passes[rounds % len(passes)]
        for traced in ((False, True) if rounds % 2 == 0 else (True, False)):
            if traced:
                instrument(tracer, layers)
            try:
                t0 = time.perf_counter()
                outs = [run_inprocess(cli, call, checks.work) for call in calls]
                walls[traced].append(time.perf_counter() - t0)
            finally:
                tracer.restore()
            for call, (code, out) in zip(calls, outs):
                checks.record(call, code, out)
        cpu = 0.0
        for call in calls:
            if call.is_sweep:
                for jobs, sign in ((1, -1), (2, 1)):
                    child = run_cli(call, jobs, checks.work, env)
                    checks.record(call, child.code, child.out)
                    cpu += sign * child.cpu_s
        pool_cpu.append(cpu)
        points += sum(c.points for c in calls)
        candidates += sum(c.candidates for c in calls)
        round_s.append(time.perf_counter() - t_round)
        rounds += 1
    import_s, interp_s = cold_starts(env)

    summary = tracer.summary()
    tracer.write(str(spans_path))

    def row(name: str) -> dict:
        return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def per_call(name: str, key: str) -> float:
        r = row(name)
        return r[key] / r["calls"] * 1e6 if r["calls"] else 0.0

    metrics = {name: per_call(span, "total_s") for name, span in PER_CALL.items()}
    metrics.update({name: per_call(span, "self_s") for name, span in SELF_PER_CALL.items()})
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            r["self_s"] for n, r in summary.items() if n.startswith(layer + ".")
        ) / rounds
    diagrams = row("twistfamily.build_twist_diagram")["calls"]
    metrics.update({
        "norm.orbifold_euler_char.calls": row("norm.orbifold_euler_char")["calls"] / rounds,
        "exactarith.intmatrix.per_point": tracer.counts["exactarith.intmatrix"] / points,
        "twistfamily.snf_per_point": (
            tracer.count_under("exactarith.snf_", "twistfamily.") / diagrams if diagrams else 0.0
        ),
        "cli.sweep.self_s": row("cli.cmd_sweep")["self_s"] / rounds,
        "cli.candidates": candidates / rounds,
        "cli.evaluated": points / rounds,
        "cli.skipped": (candidates - points) / rounds,
        "cli.pool.cpu_overhead_s": statistics.median(pool_cpu),
        "cli.serialise_s": row("cli.print_report")["total_s"] / rounds,
        "cli.import_s": import_s,
        "cli.interp_start_s": interp_s,
        "trace.overhead_frac": statistics.median(walls[True]) / statistics.median(walls[False]) - 1,
    })
    extra = {"rounds": rounds, "spans": len(tracer.start), "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, extra


# ---------------------------------------------------------------------------
# entry point


def git_revision() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lensgenus" / "cli.py").is_file():
        print(f"error: no lensgenus sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        passes, reference = set_up(args.workload, args.seed, env)
        setup_times.append(time.perf_counter() - t0)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    checks = Checks(reference, work, require_reference=args.seed == 0)
    try:
        if args.trace:
            metrics, extra = measure_traced(passes, args.seconds, checks, env,
                                            OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")
            units = PER_LAYER_UNITS
        else:
            metrics, extra = measure(passes, args.seconds, checks, env)
            metrics["setup_s"] = statistics.median(setup_times)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "error_rate": checks.error_rate,
        "setup_samples_s": setup_times,
        **extra,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_revision": git_revision(),
        "problems": checks.problems[:20],
    }
    with open(OUT / f"{stem}.json", "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {record['python']}  cpus {record['cpu_count']}  rev {record['git_revision']}")
    for name, unit in units.items():
        print(f"  {name:<48} {metrics[name]:>14.6g} {unit}")
    print(f"  {'error_rate':<48} {checks.error_rate:>14.6g} ({checks.failed}/{checks.attempted})")
    for key in ("rounds", "latency_samples", "latency_tail_percentile", "spans"):
        if key in extra:
            print(f"  {key:<48} {extra[key]!s:>14}")
    for item in checks.problems[:5]:
        print(f"  FAILED {item['call']}: {'; '.join(item['problems'])}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
