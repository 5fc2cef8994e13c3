"""Command-line front end: one subcommand per certifying operation.

Every number in the output is an exact rational (``a/b`` in tables,
``{"num": a, "den": b}`` in JSON); nothing is ever rendered as a float.
Exit codes: 0 success, 1 invalid input (a ``DomainError``), 2 valid input
but the certification condition is not met, 3 internal failure (any other
exception: a cross-check disagreed, or a bug such as a zero divisor).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import partial, reduce
from itertools import islice, product
from math import prod
from typing import Any, BinaryIO, Callable, Iterable, Iterator, NamedTuple, NoReturn

from .errors import ConsistencyError, DomainError
from .lens import H1Class, LensSpace

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_UNCERTIFIED = 2
EXIT_INCONSISTENT = 3


# ---------------------------------------------------------------------------
# report plumbing


def rat(x: Fraction | int) -> dict[str, int]:
    return {"num": x.numerator, "den": x.denominator}


def canonical_json(obj: Any) -> str:
    """Canonical JSON text: sorted keys, two-space indent, no floats."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def envelope(
    command: str,
    inputs: dict[str, Any],
    results: dict[str, Any],
    certifications: dict[str, dict[str, Any]] | None = None,
    warnings: Iterable[str] = (),
) -> dict[str, Any]:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "certifications": certifications or {},
        "warnings": list(warnings),
    }


def _fmt(value: Any) -> str:
    if isinstance(value, dict) and set(value) == {"num", "den"}:
        f = Fraction(value["num"], value["den"])
        return str(f)
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, list):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def print_report(env: dict[str, Any], as_json: bool) -> None:
    if as_json:
        sys.stdout.write(canonical_json(env))
        return
    print(f"command: {env['command']}")
    print("inputs:")
    for k, v in env["inputs"].items():
        print(f"  {k} = {_fmt(v)}")
    print("results:")
    for k, v in env["results"].items():
        print(f"  {k} = {_fmt(v)}")
    if env["certifications"]:
        print("certifications:")
        for k, v in env["certifications"].items():
            mark = "CERTIFIED" if v["holds"] else "not certified"
            print(f"  {k}: {mark} ({v['criterion']})")
    if env["warnings"]:
        print("warnings:")
        for w in env["warnings"]:
            print(f"  - {w}")


# ---------------------------------------------------------------------------
# evaluators
#
# One evaluator per command.  It takes the command's flag values in table
# order, builds the family through its constructors (which raise
# DomainError outside the family's hypotheses) and returns the envelope and
# the exit code.  The verdicts report a disagreement between two routes as a
# certification that does not hold; the evaluator is the one place that turns
# it into EXIT_INCONSISTENT, so a sweep lists the point as a mismatch.  Each
# evaluator imports the family modules it calls, so a call loads only those;
# it calls through the module attribute, where tests and tracers patch.


def _simple_knot(p: int, q: int, c: int) -> tuple[dict, int]:
    import lensgenus.lens as lens

    space = LensSpace(p, q)
    a = lens.simple_knot_in_class(space, lens.H1Class(c, space))
    results = {"parameter_a": a, "is_unknot": a == 0}
    return envelope("simple-knot", {"p": p, "q": q, "class": c}, results), EXIT_OK


def _theta(p: int, q: int, c: int) -> tuple[dict, int]:
    import lensgenus.complement as complement

    space = LensSpace(p, q)
    H1Class(c, space)  # rejects a class outside [0, p-1]
    if c == 0:
        results = {"theta": rat(0), "chi_minus": rat(0), "label": "EXACT"}
        criterion = "class 0 is the unknot, which bounds a disk"
    elif space.p - space.q * c < 1:
        raise DomainError(
            f"no torus-knot route for class {c}: cone order p - qc = "
            f"{space.p - space.q * c} < 1"
        )
    else:
        # p - qc >= 1 gives qc < p + q, so the torus-knot criterion holds.
        report = complement.torus_knot_theta(space, c)
        results = {
            "theta": rat(report.theta),
            "chi_minus": rat(report.chi_minus),
            "mu_pairing": report.mu_pairing,
            "fibered": report.fibered,
            "label": "EXACT",
        }
        criterion = ("simple knot in this class is the (1,k)-torus knot "
                     "(holds iff k*q < p + q)")
    env = envelope(
        "theta", {"p": p, "q": q, "class": c}, results,
        {"exact": {"holds": True, "criterion": criterion}},
    )
    return env, EXIT_OK


def _norm_code(v: Any) -> int:
    """Exit code of a ``CableVerdict`` or ``IteratedVerdict``."""
    if v.threshold_met and not v.norms_equal:
        return EXIT_INCONSISTENT
    return EXIT_OK if v.certified_minimizer else EXIT_UNCERTIFIED


def _cable(p: int, q: int, m: int, n: int) -> tuple[dict, int]:
    import lensgenus.cables as cables

    v = cables.cable_verdict(cables.CableParams(LensSpace(p, q), m, n))
    env = envelope(
        "cable",
        {"p": p, "q": q, "m": m, "n": n},
        {
            "norm_torus_side": rat(v.norm_torus_side),
            "norm_cable_side": rat(v.norm_cable_side),
            "norms_equal": v.norms_equal,
            "homology_class": v.homology_class,
            "theta": rat(v.theta),
            "threshold_met": v.threshold_met,
        },
        {
            "minimizer": {
                "holds": v.certified_minimizer,
                "criterion": "p >= q*m^2*n; above this threshold the cable "
                "norm matches the simple-knot norm",
            },
            "nonsimple": {
                "holds": v.certified_nonsimple,
                "criterion": "threshold holds and q != m, so the cable complement "
                "keeps an essential torus; for q = m the verdict is unknown, "
                "never 'simple'",
            },
        },
        v.warnings,
    )
    return env, _norm_code(v)


def _iterated(p: int, q: int, *ms: int) -> tuple[dict, int]:
    import lensgenus.cables as cables

    v = cables.iterated_verdict(cables.IteratedCableParams(LensSpace(p, q), ms))
    env = envelope(
        "iterated",
        {"p": p, "q": q, "ms": list(ms)},
        {
            "norm_iterated": rat(v.norm_iterated),
            "norm_torus_side": rat(v.norm_torus_side),
            "norms_equal": v.norms_equal,
            "homology_class": v.homology_class,
            "theta": rat(v.theta),
            "threshold_met": v.threshold_met,
        },
        {
            "minimizer": {
                "holds": v.certified_minimizer,
                "criterion": "p >= q*m1^2*...*m_(k-1)^2*m_k and the iterated "
                "norm equals the torus-knot norm",
            }
        },
        v.warnings,
    )
    return env, _norm_code(v)


def _stab(p: int, q: int, k: int) -> tuple[dict, int]:
    import lensgenus.stabilization as stabilization

    fam = stabilization.StabFamily(LensSpace(p, q), k)
    v = stabilization.stab_verdict(fam)
    env = envelope(
        "stab",
        {"p": p, "q": q, "k": k},
        {
            "coefficients": list(stabilization.stab_coefficients(fam)),
            "chi_surface": v.norms.chi_Fk,
            "chi_capped": v.norms.chi_capped,
            "torus_knot_chi": rat(v.torus_chi),
            "homology_class": v.homology_class,
            "theta": rat(v.theta),
        },
        {
            "minimizer": {
                "holds": v.certified_minimizer,
                "criterion": "capped surface complexity equals the "
                "(1,k+4)-torus-knot norm, which a simple knot realizes",
            }
        },
    )
    # StabFamily enforces the hypothesis, so an uncertified point is a disagreement.
    return env, EXIT_OK if v.certified_minimizer else EXIT_INCONSISTENT


def _order2(k: int) -> tuple[dict, int]:
    import lensgenus.order2 as order2

    space = LensSpace(2 * k, 1)  # rejects k < 1
    rep = order2.uniqueness_check(space)
    env = envelope(
        "order2",
        {"k": k, "p": space.p, "q": 1},
        {
            "nonorientable_genus": rep.nonorientable_genus,
            "theta": rat(rep.theta),
            "order2_class": k,
        },
        {
            "unique_minimizer": {
                "holds": rep.unique_minimizer_guaranteed,
                "criterion": "minimal nonorientable genus at most 3; "
                + rep.criterion,
            }
        },
    )
    return env, EXIT_OK if rep.unique_minimizer_guaranteed else EXIT_UNCERTIFIED


def _twist(
    a: int, b: int, n: int, export: str | None = None, sidecar: str | None = None
) -> tuple[dict, int]:
    import lensgenus.twistfamily as twistfamily

    if sidecar is not None and export is None:
        raise DomainError("--sidecar requires --export")
    # realpath maps "" and "." alike to the working directory: compare nonempty paths.
    if sidecar and export and os.path.realpath(sidecar) == os.path.realpath(export):
        raise DomainError("--export and --sidecar name the same file")
    t = twistfamily.TwistParams(a, b, n)
    v = twistfamily.twist_verdict(t)
    line = twistfamily.filling_spec_export(t)
    env = envelope(
        "twist",
        {"a": a, "b": b, "n": n},
        {
            "k": t.k,
            "h1": str(v.h1),
            "h1_order": v.h1.order(),
            "gamma_class": v.gamma_class,
            "framings": ["inf" if c.framing is None else str(c.framing)
                         for c in v.diagram.components],
            "spec": line,
        },
        {
            "homology": {
                "holds": v.holds,
                "criterion": "filling the five framed components gives the "
                "lens space of order 2k with the unfilled knot in class k",
            }
        },
    )
    if not v.holds:
        return env, EXIT_INCONSISTENT
    if export is not None:
        try:
            twistfamily.export_filling_specs([v], export, sidecar)
        except OSError as exc:
            raise DomainError(f"cannot write {exc.filename!r}: {exc.strerror}") from exc
    return env, EXIT_OK


def _boundary_kernel(p: int, q: int, w: int, oracle: bool = True) -> tuple[dict, int]:
    import lensgenus.complement as complement
    import lensgenus.exactarith as exactarith

    # A sweep passes no options, so it always checks against the oracle.
    data = complement.WindingData(LensSpace(p, q), w)
    closed = complement.boundary_kernel(data)
    results: dict[str, Any] = {"mu_coeff": closed.mu_coeff, "lambda_coeff": closed.lambda_coeff}
    certs: dict[str, dict[str, Any]] = {}
    if oracle:
        mat = complement.presentation_matrix(data)
        found = exactarith.peripheral_kernel(mat, 0, 1)
        results["oracle_mu_coeff"], results["oracle_lambda_coeff"] = found
        results["presentation_rows"] = mat.to_lists()
        # The criterion text is part of the canonical output; the oracle is
        # the row (Hermite) half of the Smith reduction.
        certs["oracle_agreement"] = {
            "holds": found == (closed.mu_coeff, closed.lambda_coeff),
            "criterion": "closed form equals the Smith-normal-form kernel of "
            "the presentation matrix",
        }
    env = envelope("boundary-kernel", {"p": p, "q": q, "w": w}, results, certs)
    return env, EXIT_OK if all(c["holds"] for c in certs.values()) else EXIT_INCONSISTENT


# ---------------------------------------------------------------------------
# sweep summaries
#
# A summary consumes the records of the admissible points once, in grid
# order; after that ``mismatches`` holds the records whose evaluator
# returned EXIT_INCONSISTENT.  It returns the sweep's ``results``, whose
# every field is an int count or a mismatch list, so the results of two
# consecutive stretches of the grid add up field by field.


def _cable_summary(records: Iterator[dict], mismatches: list[dict]) -> dict:
    points = above = equal_below = 0
    for r in records:
        points += 1
        if r["threshold_met"]:
            above += 1
        else:
            equal_below += r["norms_equal"]
    # A cable point is a mismatch exactly when its norms differ above threshold.
    return {
        "points": points,
        "threshold_met": above,
        "norms_equal_above_threshold": above - len(mismatches),
        "below_threshold": points - above,
        "norms_equal_below_threshold": equal_below,
        "mismatches_above_threshold": mismatches,
    }


def _iterated_summary(records: Iterator[dict], mismatches: list[dict]) -> dict:
    results = _cable_summary(records, mismatches)
    del results["below_threshold"], results["norms_equal_below_threshold"]
    return results


def _passed_summary(passed: str, records: Iterator[dict], mismatches: list[dict]) -> dict:
    points = sum(1 for _ in records)
    return {"points": points, passed: points - len(mismatches), "mismatches": mismatches}


# ---------------------------------------------------------------------------
# the command table


class Command(NamedTuple):
    help: str
    #: Flags in evaluator order; a list flag passes one argument per entry.
    flags: tuple[str, ...]
    evaluate: Callable[..., tuple[dict, int]]
    #: Sweep summary, or None when the command has no ``sweep`` target.
    summary: Callable[[Iterator[dict], list[dict]], dict] | None = None


COMMANDS: dict[str, Command] = {
    "simple-knot": Command("simple knot in a homology class", ("p", "q", "class"), _simple_knot),
    "theta": Command("norm of a homology class via its torus knot", ("p", "q", "class"), _theta),
    "cable": Command("cable-knot minimizer verdict", ("p", "q", "m", "n"), _cable, _cable_summary),
    "iterated": Command(
        "iterated-cable minimizer verdict", ("p", "q", "ms"), _iterated, _iterated_summary
    ),
    "stab": Command(
        "stabilized-braid minimizer verdict", ("p", "q", "k"), _stab,
        partial(_passed_summary, "certified"),
    ),
    "order2": Command("order-2 class uniqueness verdict in L(2k,1)", ("k",), _order2),
    "twist": Command(
        "annulus-twist family diagram and export", ("a", "b", "n"), _twist,
        partial(_passed_summary, "homology_checks_passed"),
    ),
    "boundary-kernel": Command(
        "peripheral class that bounds", ("p", "q", "w"), _boundary_kernel,
        partial(_passed_summary, "agreements"),
    ),
}

#: Flags that take a comma-separated list of integers, with their help.
_LIST_FLAGS = {"ms": "comma-separated m1,m2,..."}

#: Options of single commands that are not grid coordinates; each is passed
#: to the evaluator by keyword.
_OPTIONS: dict[str, dict[str, dict[str, Any]]] = {
    "twist": {
        "export": {"help": "write the spec line here"},
        "sidecar": {"help": "write a JSON sidecar here"},
    },
    "boundary-kernel": {
        "oracle": {"action": "store_true", "help": "verify against the exact kernel oracle"},
    },
}


def _int_list(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers like 2,2,2, got {text!r}"
        ) from None


def _run_command(args: argparse.Namespace) -> tuple[dict, int]:
    """Evaluate one single command; a failed cross-check is an internal failure."""
    name = args.command
    cmd = COMMANDS[name]
    values: list[int] = []
    for flag in cmd.flags:
        value = getattr(args, flag)
        values += value if flag in _LIST_FLAGS else [value]
    options = {opt: getattr(args, opt) for opt in _OPTIONS.get(name, ())}
    env, code = cmd.evaluate(*values, **options)
    if code == EXIT_INCONSISTENT:
        failed = [k for k, c in env["certifications"].items() if not c["holds"]]
        raise ConsistencyError(
            f"{name} at {env['inputs']}: {', '.join(failed)} check failed; "
            f"results {env['results']}"
        )
    return env, code


# ---------------------------------------------------------------------------
# sweeps


#: Contiguous slabs per worker.  Worker i takes slabs i, i + workers, ...,
#: so every worker's share spreads over the whole grid and slabs of unequal
#: cost even out between workers.
SLABS_PER_WORKER = 8

#: Most candidate points a sweep takes, about 100x the acceptance suite's
#: largest grid (212,341 boundary-kernel points).  A larger grid is
#: rejected before any point runs; split it into several sweeps.
MAX_GRID_POINTS = 25_000_000


def _sweep_slab(target: str, axes: list[range], span: range) -> dict:
    """The summary ``results`` of the grid points with indices in ``span``.

    A point is skipped when its family rejects it (``DomainError``) and is a
    mismatch when its evaluator returns EXIT_INCONSISTENT; its record is
    ``params`` plus the evaluator's results.  Skipping to the slab's start
    walks ``product`` in C, far cheaper than evaluating the points skipped.
    """
    cmd = COMMANDS[target]
    mismatches: list[dict] = []

    def records() -> Iterator[dict]:
        for point in islice(product(*axes), span.start, span.stop):
            try:
                env, code = cmd.evaluate(*point)
            except DomainError:
                continue
            record = {"params": list(point), **env["results"]}
            if code == EXIT_INCONSISTENT:
                mismatches.append(record)
            yield record

    return cmd.summary(records(), mismatches)


def _share(
    worker: Callable[[range], dict], spans: list[range]
) -> tuple[list[dict], Exception | None]:
    """``worker`` over ``spans`` in order, up to the first that raises, and that exception."""
    done: list[dict] = []
    try:
        for span in spans:
            done.append(worker(span))
    except Exception as exc:
        return done, exc
    return done, None


def _run_slabs(worker: Callable[[range], dict], spans: list[range], workers: int) -> list[dict]:
    """``worker`` over every span, in span order, computed by ``workers`` processes.

    Process i takes spans i, i + workers, ...; the parent is process 0 and
    forks the other ``workers - 1`` first, so one worker forks nothing.  A
    child pickles its results, and the exception that stopped it if any,
    through a pipe, and leaves only through ``os._exit``.  Every child is
    reaped on every path.  The exception of the earliest failed span is
    raised, the one a single process would have raised.
    """
    children: list[tuple[int, BinaryIO]] = []
    try:
        for i in range(1, workers):
            import pickle  # only a run that forks pays for it

            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    # Else a write to a full pipe the parent gave up on would block.
                    os.close(read)
                    done, exc = _share(worker, spans[i::workers])
                    try:
                        pickle.loads(pickle.dumps(exc))
                    except Exception:  # send a stand-in that reports the same line
                        exc = ConsistencyError(f"{type(exc).__name__}: {exc}")
                    with open(write, "wb") as pipe:
                        pickle.dump((done, exc), pipe)
                    status = 0
                finally:
                    os._exit(status)
            # Closed before the next fork, so only this child holds the write end.
            os.close(write)
            children.append((pid, open(read, "rb")))
        shares = [_share(worker, spans[::workers])]
        blobs = [pipe.read() for _, pipe in children]
    finally:
        exits = []
        for pid, pipe in children:
            pipe.close()
            exits.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for (pid, _), blob, code in zip(children, blobs, exits):
        if code or not blob:
            raise RuntimeError(f"sweep worker {pid} exited with status {code} and no result")
        shares.append(pickle.loads(blob))
    failed = [(i + workers * len(done), exc) for i, (done, exc) in enumerate(shares)
              if exc is not None]
    if failed:
        raise min(failed)[1]
    return [shares[k % workers][0][k // workers] for k in range(len(spans))]


def _merge(a: dict, b: dict) -> dict:
    """Summary results of two consecutive slabs: counts add, mismatch lists concatenate."""
    return {key: a[key] + b[key] for key in a}


def _parse_range(text: str, flag: str) -> range:
    lo, _, hi = text.partition(":")
    try:
        axis = range(int(lo), int(hi) + 1)
    except ValueError:
        raise DomainError(f"--{flag} must be an integer range lo:hi like 8:60, got {text!r}") from None
    if not axis:
        raise DomainError(f"range --{flag} {text} is reversed (lo > hi)")
    return axis


def cmd_sweep(args: argparse.Namespace) -> tuple[dict, int]:
    if args.jobs < 1:
        raise DomainError(f"--jobs must be >= 1, got {args.jobs}")
    cmd = COMMANDS[args.target]
    inputs: dict[str, Any] = {"target": args.target}
    axes: list[range] = []
    for flag in cmd.flags:
        inputs[flag] = value = getattr(args, flag)
        # A range spans one axis; a list pins one single-valued axis per entry.
        axes += ([range(v, v + 1) for v in value] if flag in _LIST_FLAGS
                 else [_parse_range(value, flag)])
    # stop - start, since len() of a range beyond sys.maxsize overflows.
    size = prod(axis.stop - axis.start for axis in axes)
    if size > MAX_GRID_POINTS:
        raise DomainError(
            f"grid has {size:,} candidate points, above the ceiling of {MAX_GRID_POINTS:,}; "
            "split it into smaller sweeps"
        )
    # Grid order is product() order over ascending ranges.  Slabs are
    # contiguous index ranges in that order, so merging them in order keeps
    # mismatches in grid order, and only slab summaries cross a pipe.  The
    # workers are capped at the CPUs this process may run on; without fork,
    # the parent works alone.
    workers = (min(args.jobs, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
               if hasattr(os, "fork") else 1)
    slabs = workers * SLABS_PER_WORKER if workers > 1 else 1
    bounds = [size * i // slabs for i in range(slabs + 1)]
    spans = list(map(range, bounds, bounds[1:]))
    results = reduce(_merge, _run_slabs(partial(_sweep_slab, args.target, axes), spans, workers))
    if not results["points"]:
        # Nothing admissible: evaluate the first point uncaught so the
        # sweep fails with its reason.
        cmd.evaluate(*next(product(*axes)))
    # Every list in a summary is a mismatch list.
    failed = any(isinstance(v, list) and v for v in results.values())
    return envelope("sweep", inputs, results), EXIT_INCONSISTENT if failed else EXIT_OK


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """A usage error is invalid input (exit 1); argparse would exit 2, "not certified".

    Flags must be spelled in full: with prefix matching, ``--m`` would pass
    for ``--ms`` and ``--jo`` for ``--jobs``.
    """

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str) -> NoReturn:
        raise DomainError(f"{message}\n{self.format_usage().rstrip()}")


def _add_flags(p: argparse.ArgumentParser, flags: Iterable[str], kind: Callable,
               help: str | None = None) -> None:
    for flag in flags:
        listed = flag in _LIST_FLAGS
        p.add_argument(f"--{flag}", type=_int_list if listed else kind, required=True,
                       help=_LIST_FLAGS.get(flag, help))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lensgenus",
        description="Exact rational-genus certificates for knots in lens spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        _add_flags(p, cmd.flags, int)
        for opt, kwargs in _OPTIONS.get(name, {}).items():
            p.add_argument(f"--{opt}", **kwargs)
        p.add_argument("--json", action="store_true", help="emit a JSON report")
    sweep = sub.add_parser("sweep", help="grid runs with exact-equality summaries")
    targets = sweep.add_subparsers(dest="target", required=True)
    for name, cmd in COMMANDS.items():
        if cmd.summary is not None:
            p = targets.add_parser(name, help=cmd.help)
            _add_flags(p, cmd.flags, str, "range lo:hi")
            p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
            p.add_argument("--json", action="store_true", help="emit a JSON report")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        env, code = cmd_sweep(args) if args.command == "sweep" else _run_command(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:
        kind = "" if isinstance(exc, ConsistencyError) else f"{type(exc).__name__}: "
        print(f"internal consistency failure: {kind}{exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    print_report(env, args.json)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
