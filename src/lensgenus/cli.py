"""Command-line front end: one subcommand per certifying operation.

Parsing is table-driven: ``parse_args`` reads the grammar, the usage lines
and the help from ``COMMANDS``, ``_LIST_FLAGS`` and ``_OPTIONS``.

Report halves put the verdicts' own values in ``results``: a rational
stays a ``Fraction``, written as ``a/b`` in text and as ``{"num": a, "den": b}``
by the one JSON hook; a norm, which a verdict holds as an ``int``, is
reported as a ``Fraction`` too, so it prints as every norm always has.
Nothing is ever rendered as a float.
Exit codes: 0 success, 1 invalid input (a ``DomainError``), 2 valid input
but the certification condition is not met, 3 internal failure (any other
exception: a cross-check disagreed, or a bug such as a zero divisor).
"""

from __future__ import annotations

import os
import sys
from functools import partial, reduce
from itertools import groupby, islice, product
from math import prod
from operator import itemgetter
from typing import (
    TYPE_CHECKING, Any, BinaryIO, Callable, Iterable, Iterator, NamedTuple, NoReturn, Sequence,
)

from .errors import ConsistencyError, DomainError
from .lens import H1Class, LensSpace

if TYPE_CHECKING:
    from fractions import Fraction

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_UNCERTIFIED = 2
EXIT_INCONSISTENT = 3


# ---------------------------------------------------------------------------
# report plumbing


def _rational(value: Any) -> dict[str, int]:
    """The ``default=`` hook of ``canonical_json``: a ``Fraction`` as ``{"num": n, "den": d}``."""
    from fractions import Fraction  # already loaded wherever a Fraction exists

    if not isinstance(value, Fraction):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return {"num": value.numerator, "den": value.denominator}


def canonical_json(obj: Any) -> str:
    """Canonical JSON text: sorted keys, two-space indent, no floats."""
    import json  # only a call that prints JSON pays for it

    return json.dumps(obj, sort_keys=True, indent=2, default=_rational) + "\n"


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


def _fmt(value: Any, nested: bool = False) -> str:
    """A result value as text, a rational as ``a/b``; a record (a dict) reads as its repr would."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k!r}: {_fmt(v, True)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_fmt(v, nested) for v in value) + "]"
    if nested and isinstance(value, (bool, str)):
        return repr(value)
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def print_report(env: dict[str, Any], as_json: bool) -> str:
    """The envelope rendered as canonical JSON or as text; ``main`` writes it."""
    if as_json:
        return canonical_json(env)
    lines = [f"command: {env['command']}"]
    for section in ("inputs", "results"):
        lines.append(f"{section}:")
        lines += [f"  {k} = {_fmt(v)}" for k, v in env[section].items()]
    if env["certifications"]:
        lines.append("certifications:")
        for k, v in env["certifications"].items():
            mark = "CERTIFIED" if v["holds"] else "not certified"
            lines.append(f"  {k}: {mark} ({v['criterion']})")
    if env["warnings"]:
        lines.append("warnings:")
        lines += [f"  - {w}" for w in env["warnings"]]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# evaluators
#
# Every command has two halves.  The evaluator takes the flag values in table
# order, builds the family through its constructors (which raise DomainError
# outside the family's hypotheses) and returns the verdict and the exit code:
# it is the one place that makes a disagreement between two routes
# EXIT_INCONSISTENT.  The ``_*_report`` half turns a verdict into the sections
# of its envelope: its ``results``, and its ``certifications`` and
# ``warnings`` where it has them.  Neither half names its command or echoes
# its flags; ``_run_command`` builds the envelope from those.  Each half
# imports only the family modules it uses and calls through them, where tests
# and tracers patch.


def _norm(value: int) -> Fraction:
    """A verdict's ``int`` norm as the ``Fraction`` a report prints: ``{"num": 8, "den": 1}``."""
    from fractions import Fraction  # only a report half that prints a norm pays for it

    return Fraction(value)


def _simple_knot(p: int, q: int, c: int) -> tuple[int, int]:
    import lensgenus.lens as lens

    return lens.simple_knot_in_class(lens.H1Class(c, LensSpace(p, q))), EXIT_OK


def _simple_knot_report(a: int) -> dict:
    return {"results": {"parameter_a": a, "is_unknot": a == 0}}


def _theta(p: int, q: int, c: int) -> tuple[Any, int]:
    import lensgenus.complement as complement

    space = LensSpace(p, q)
    H1Class(c, space)  # rejects a class outside [0, p-1]
    if c == 0:
        return None, EXIT_OK
    # The route refuses a class outside its domain p - qc >= 1.
    return complement.torus_knot_theta(space, c), EXIT_OK


def _theta_report(r: Any) -> dict:
    """``r`` is the torus knot's ``GenusReport`` (``mu_pairing`` is its p), or None for class 0."""
    import lensgenus.complement as complement

    warnings: tuple[str, ...] = ()
    if r is None:
        # chi_minus is an int like every norm, and theta, the one rational,
        # is 0/1 here; both print as rationals.
        results = {"theta": _norm(0), "chi_minus": _norm(0), "label": "EXACT"}
        criterion = "class 0 is the unknot, which bounds a disk"
    else:
        warnings = complement.solid_torus_warnings(r.dropped)
        results = {
            "theta": r.theta,  # made here, where it is read
            "chi_minus": _norm(r.chi_minus),
            "mu_pairing": r.p,
            "fibered": r.fibered,
            "label": "EXACT",
        }
        criterion = ("simple knot in this class is the (1,k)-torus knot "
                     "(holds iff k*q < p + q)")
    return {"results": results,
            "certifications": {"exact": {"holds": True, "criterion": criterion}},
            "warnings": warnings}


def _iterated(p: int, q: int, ms: Sequence[int]) -> tuple[Any, int]:
    """The verdict and exit code of ``iterated``, and of ``cable`` as ms = (m, n)."""
    import lensgenus.cables as cables

    v = cables.iterated_verdict(cables.IteratedCableParams(LensSpace(p, q), ms))
    if v.threshold_met and not v.norms_equal:
        return v, EXIT_INCONSISTENT
    return v, EXIT_OK if v.certified_minimizer else EXIT_UNCERTIFIED


def _cable_report(v: Any) -> dict:
    return {
        "results": {
            "norm_torus_side": _norm(v.norm_torus_side),
            "norm_cable_side": _norm(v.norm_iterated),
            "norms_equal": v.norms_equal,
            "homology_class": v.homology_class,
            "theta": v.theta,
            "threshold_met": v.threshold_met,
        },
        "certifications": {
            "minimizer": {"holds": v.certified_minimizer,
                          "criterion": "p >= q*m^2*n; above this threshold the cable "
                          "norm matches the simple-knot norm"},
            "nonsimple": {"holds": v.certified_nonsimple,
                          "criterion": "threshold holds and q != m, so the cable complement "
                          "keeps an essential torus; for q = m the verdict is unknown, "
                          "never 'simple'"},
        },
        "warnings": v.warnings,
    }


def _iterated_report(v: Any) -> dict:
    return {
        "results": {
            "norm_iterated": _norm(v.norm_iterated),
            "norm_torus_side": _norm(v.norm_torus_side),
            "norms_equal": v.norms_equal,
            "homology_class": v.homology_class,
            "theta": v.theta,
            "threshold_met": v.threshold_met,
        },
        "certifications": {
            "minimizer": {"holds": v.certified_minimizer,
                          "criterion": "p >= q*m1^2*...*m_(k-1)^2*m_k and the iterated "
                          "norm equals the torus-knot norm"},
        },
        "warnings": v.warnings,
    }


def _stab(p: int, q: int, k: int) -> tuple[Any, int]:
    import lensgenus.stabilization as stabilization

    v = stabilization.stab_verdict(stabilization.StabFamily(LensSpace(p, q), k))
    # StabFamily enforces the hypothesis, so an uncertified point is a disagreement.
    return v, EXIT_OK if v.certified_minimizer else EXIT_INCONSISTENT


def _stab_report(v: Any) -> dict:
    import lensgenus.stabilization as stabilization

    return {
        "results": {
            "coefficients": list(stabilization.stab_coefficients(v.family)),
            "chi_surface": v.norms.chi_Fk,
            "chi_capped": v.norms.chi_capped,
            "torus_knot_chi": _norm(v.torus_chi),
            "homology_class": v.homology_class,
            "theta": v.theta,
        },
        "certifications": {
            "minimizer": {"holds": v.certified_minimizer,
                          "criterion": "capped surface complexity equals the "
                          "(1,k+4)-torus-knot norm, which a simple knot realizes"},
        },
    }


def _order2(k: int) -> tuple[Any, int]:
    import lensgenus.order2 as order2

    rep = order2.uniqueness_check(LensSpace(2 * k, 1))  # rejects k < 1
    return rep, EXIT_OK if rep.unique_minimizer_guaranteed else EXIT_UNCERTIFIED


def _order2_report(rep: Any) -> dict:
    space = rep.ambient
    return {
        # The one report half with inputs: the p = 2k and q = 1 that --k implies.
        "inputs": {"p": space.p, "q": space.q},
        "results": {
            "nonorientable_genus": rep.nonorientable_genus,
            "theta": rep.theta,
            "order2_class": space.p // 2,
        },
        "certifications": {
            "unique_minimizer": {"holds": rep.unique_minimizer_guaranteed,
                                 "criterion": "minimal nonorientable genus at most 3; "
                                 + rep.criterion},
        },
    }


def _twist(a: int, b: int, n: int) -> tuple[Any, int]:
    import lensgenus.twistfamily as twistfamily

    v = twistfamily.twist_verdict(twistfamily.TwistParams(a, b, n))
    return v, EXIT_OK if v.holds else EXIT_INCONSISTENT


def _twist_report(v: Any) -> dict:
    import lensgenus.twistfamily as twistfamily

    t = v.params
    return {
        "results": {
            "k": t.k,
            "h1": str(v.h1),
            "h1_order": v.h1.order(),
            "gamma_class": v.gamma_class,
            "framings": ["inf" if c.framing is None else str(c.framing)
                         for c in v.diagram.components],
            "spec": twistfamily.filling_spec_export(t),
        },
        "certifications": {
            "homology": {"holds": v.holds,
                         "criterion": "filling the five framed components gives the "
                         "lens space of order 2k with the unfilled knot in class k"},
        },
    }


def _boundary_kernel(p: int, q: int, w: int) -> tuple[tuple, int]:
    import lensgenus.complement as complement
    import lensgenus.exactarith as exactarith

    # The verdict is the closed form, the presentation and the oracle's kernel.
    data = complement.WindingData(LensSpace(p, q), w)
    closed = complement.boundary_kernel(data)
    rows = complement.presentation_matrix(data)
    found = exactarith.peripheral_kernel(rows, 0, 1)
    # A PeripheralClass is a tuple, so it compares with the oracle's pair as is.
    return (closed, rows, found), EXIT_OK if found == closed else EXIT_INCONSISTENT


def _boundary_kernel_report(verdict: tuple) -> dict:
    closed, rows, found = verdict
    results = {"mu_coeff": closed.mu_coeff, "lambda_coeff": closed.lambda_coeff,
               "oracle_mu_coeff": found[0], "oracle_lambda_coeff": found[1],
               "presentation_rows": [list(r) for r in rows]}
    # The criterion text is part of the canonical output, so it stays as it
    # is; the oracle cuts the presentation's row lattice with the (mu, lambda)
    # plane and runs no Smith form.
    agreement = {"holds": found == closed,
                 "criterion": "closed form equals the Smith-normal-form kernel of "
                 "the presentation matrix"}
    return {"results": results, "certifications": {"oracle_agreement": agreement}}


# ---------------------------------------------------------------------------
# sweep summaries
#
# A summary consumes the verdicts of the admissible points once, in grid
# order; after that ``mismatches`` holds the records of the points whose
# evaluator returned EXIT_INCONSISTENT.  It returns the sweep's ``results``,
# whose every field is an int count or a mismatch list, so the results of
# two consecutive stretches of the grid add up field by field.


def _cable_summary(verdicts: Iterator[Any], mismatches: list[dict]) -> dict:
    points = above = equal_below = 0
    for v in verdicts:
        points += 1
        if v.threshold_met:
            above += 1
        else:
            equal_below += v.norms_equal
    # A cable point is a mismatch exactly when its norms differ above threshold.
    return {
        "points": points,
        "threshold_met": above,
        "norms_equal_above_threshold": above - len(mismatches),
        "below_threshold": points - above,
        "norms_equal_below_threshold": equal_below,
        "mismatches_above_threshold": mismatches,
    }


def _iterated_summary(verdicts: Iterator[Any], mismatches: list[dict]) -> dict:
    results = _cable_summary(verdicts, mismatches)
    del results["below_threshold"], results["norms_equal_below_threshold"]
    return results


def _passed_summary(passed: str, verdicts: Iterator[Any], mismatches: list[dict]) -> dict:
    points = sum(1 for _ in verdicts)
    return {"points": points, passed: points - len(mismatches), "mismatches": mismatches}


# ---------------------------------------------------------------------------
# the command table


class Command(NamedTuple):
    help: str
    #: Flags in evaluator order; a list flag passes its whole list as one argument.
    flags: tuple[str, ...]
    evaluate: Callable[..., tuple[Any, int]]
    #: Report half: a verdict in, the sections of its envelope out; every
    #: command has one, and a sweep runs it only for a mismatch record.
    report: Callable[[Any], dict]
    #: Sweep summary, or None when the command has no ``sweep`` target.
    summary: Callable[[Iterator[Any], list[dict]], dict] | None = None


COMMANDS: dict[str, Command] = {
    "simple-knot": Command("simple knot in a homology class", ("p", "q", "class"), _simple_knot,
                           _simple_knot_report),
    "theta": Command("norm of a homology class via its torus knot", ("p", "q", "class"), _theta,
                     _theta_report),
    "cable": Command("cable-knot minimizer verdict", ("p", "q", "m", "n"),
                     lambda p, q, m, n: _iterated(p, q, (m, n)), _cable_report, _cable_summary),
    "iterated": Command("iterated-cable minimizer verdict", ("p", "q", "ms"), _iterated,
                        _iterated_report, _iterated_summary),
    "stab": Command("stabilized-braid minimizer verdict", ("p", "q", "k"), _stab,
                    _stab_report, partial(_passed_summary, "certified")),
    "order2": Command("order-2 class uniqueness verdict in L(2k,1)", ("k",), _order2,
                      _order2_report),
    "twist": Command("annulus-twist family diagram and export", ("a", "b", "n"), _twist,
                     _twist_report, partial(_passed_summary, "homology_checks_passed")),
    "boundary-kernel": Command("peripheral class that bounds", ("p", "q", "w"), _boundary_kernel,
                               _boundary_kernel_report, partial(_passed_summary, "agreements")),
}

#: Flags that take a comma-separated list of integers, with their metavar.
_LIST_FLAGS = {"ms": "M1,M2,..."}

#: Options of single commands that are not grid coordinates, by kind: a
#: ``str`` option takes a value and a ``bool`` one is a switch.  No evaluator
#: sees one: ``main`` reads twist's paths after the report renders, and
#: ``--oracle`` stays only so that existing command lines still parse; nothing
#: reads it, since the oracle always runs.
_OPTIONS: dict[str, dict[str, type]] = {
    "twist": {"export": str, "sidecar": str},
    "boundary-kernel": {"oracle": bool},
}


def _int_list(text: str) -> list[int]:
    return [int(s) for s in text.split(",")]


def _run_command(name: str, args: dict[str, Any]) -> tuple[dict, int]:
    """The envelope of one single command; a failed cross-check is an internal failure."""
    cmd = COMMANDS[name]
    inputs = {flag: args[flag] for flag in cmd.flags}
    verdict, code = cmd.evaluate(*inputs.values())
    sections = cmd.report(verdict)
    inputs.update(sections.pop("inputs", {}))
    env = envelope(name, inputs, **sections)
    if code == EXIT_INCONSISTENT:
        failed = [k for k, c in env["certifications"].items() if not c["holds"]]
        raise ConsistencyError(
            f"{name} at {env['inputs']}: {', '.join(failed)} check failed; "
            f"results {_fmt(env['results'])}"
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


def _admitted_blocks(points: Iterator[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
    """``points`` less those whose ``(p, q)``, the first two coordinates, ``LensSpace`` rejects.

    In grid order the points of one ``(p, q)`` form a block, so ``LensSpace``
    runs once per block, and ``groupby`` passes over a rejected one in C.
    """
    for (p, q), block in groupby(points, itemgetter(0, 1)):
        try:
            LensSpace(p, q)
        except DomainError:
            # The rejection each point's evaluator would raise.
            continue
        yield from block


def _params(flags: tuple[str, ...], point: tuple) -> list[int]:
    """A point's ``params`` record: its coordinates, a list flag's entries in line."""
    params: list[int] = []
    for flag, value in zip(flags, point):
        params += value if flag in _LIST_FLAGS else [value]
    return params


def _sweep_slab(target: str, axes: list[Sequence], span: range) -> dict:
    """The summary ``results`` of the grid points with indices in ``span``.

    A point is skipped when its family rejects it (``DomainError``).  For a
    command whose flags begin with ``p, q``, every evaluator builds
    ``LensSpace(p, q)`` before anything else, so a ``(p, q)`` that it
    rejects is skipped once for its whole block of points, and the
    evaluator never sees it; the output is the same.  A block of one point
    (``iterated``, whose one other axis is its list) is left to its
    evaluator, which makes the same check at no extra cost.  Only a mismatch
    (EXIT_INCONSISTENT) runs the report half: its record is ``params``, the
    point with a list's entries in line, plus the single command's results.
    Skipping to the slab's start walks ``product`` in C, far cheaper than
    evaluating the points skipped.
    """
    cmd = COMMANDS[target]
    mismatches: list[dict] = []
    points = islice(product(*axes), span.start, span.stop)
    if cmd.flags[:2] == ("p", "q") and any(len(axis) > 1 for axis in axes[2:]):
        points = _admitted_blocks(points)

    def verdicts() -> Iterator[Any]:
        for point in points:
            try:
                verdict, code = cmd.evaluate(*point)
            except DomainError:
                continue
            if code == EXIT_INCONSISTENT:
                mismatches.append({"params": _params(cmd.flags, point),
                                   **cmd.report(verdict)["results"]})
            yield verdict

    return cmd.summary(verdicts(), mismatches)


def _run_slabs(worker: Callable[[range], dict], spans: list[range], workers: int) -> list[dict]:
    """``worker`` over every span, in span order, computed by ``workers`` processes.

    Process i takes spans i, i + workers, ...; the parent is process 0 and
    forks the other ``workers - 1`` first, so one worker forks nothing.  A
    child sends the list of its results through a pipe and exits 0, or, if
    anything raises, sends nothing and exits 1; it leaves only through
    ``os._exit``.  If a fork, the parent's share or a read raises (a child
    that dies without its whole result leaves a pipe that does not unpickle),
    the parent kills every child at once and runs every span itself, so the
    sweep ends as a serial run does, with its results or its error.  An
    interrupt (any other ``BaseException``) kills them too and propagates,
    with no replay.  Every child is reaped on every path.
    """
    pids: list[int] = []
    pipes: list[BinaryIO] = []
    try:
        for i in range(1, workers):
            import pickle  # only a run that forks pays for it

            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            # Leaving the block closes the parent's write end before the next fork.
            with open(write, "wb") as sink:
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        # The parent is the only reader of every pipe, so a child
                        # never waits on a pipe a sibling holds open.
                        for pipe in pipes:
                            pipe.close()
                        pickle.dump([worker(span) for span in spans[i::workers]], sink)
                        sink.flush()
                        status = 0
                    finally:
                        os._exit(status)
            pids.append(pid)
        shares = [[worker(span) for span in spans[::workers]]]
        shares += [pickle.loads(pipe.read()) for pipe in pipes]
    except BaseException as exc:
        import signal  # only a failed run pays for it

        # An unreaped child keeps its pid, so each kill reaches that child.
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        if not isinstance(exc, Exception):
            raise
        shares = None
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)
    if shares is None:
        return [worker(span) for span in spans]
    return [shares[k % workers][k // workers] for k in range(len(spans))]


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


def cmd_sweep(target: str, args: dict[str, Any]) -> tuple[dict, int]:
    if args["jobs"] < 1:
        raise DomainError(f"--jobs must be >= 1, got {args['jobs']}")
    cmd = COMMANDS[target]
    inputs: dict[str, Any] = {"target": target}
    axes: list[Sequence] = []
    for flag in cmd.flags:
        value = args[flag]
        if flag in _LIST_FLAGS:
            # A list is the one value of its axis, so a point carries it whole.
            axes.append((tuple(value),))
        else:
            # A range spans one axis, and echoes as parsed, not as typed.
            axes.append(_parse_range(value, flag))
            value = f"{axes[-1].start}:{axes[-1].stop - 1}"
        inputs[flag] = value
    # stop - start, since len() of a range beyond sys.maxsize overflows; a
    # list's axis has one value.
    size = prod(axis.stop - axis.start for axis in axes if isinstance(axis, range))
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
    workers = (min(args["jobs"], len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
               if hasattr(os, "fork") else 1)
    slabs = workers * SLABS_PER_WORKER if workers > 1 else 1
    bounds = [size * i // slabs for i in range(slabs + 1)]
    spans = list(map(range, bounds, bounds[1:]))
    results = reduce(_merge, _run_slabs(partial(_sweep_slab, target, axes), spans, workers))
    if not results["points"]:
        # Nothing admissible: evaluate the first point uncaught so the
        # sweep fails with its reason.
        cmd.evaluate(*next(product(*axes)))
    # Every list in a summary is a mismatch list.
    failed = any(isinstance(v, list) and v for v in results.values())
    return envelope("sweep", inputs, results), EXIT_INCONSISTENT if failed else EXIT_OK


# ---------------------------------------------------------------------------
# the write stage: the one place that writes a file


def _write_all_or_none(files: list[tuple[str, str]]) -> None:
    """Write each ``(path, text)``, or leave every existing file as it was.

    Every text first goes to a temporary file beside its target, and the
    targets are replaced only once all of them are written, so a missing
    directory or a denied write changes no file.  An empty path or an
    existing directory, which would fail only at its rename, is refused
    before any temporary file is written.  An ``OSError`` names the target
    path, never the temporary one.
    """
    import errno
    from contextlib import suppress

    for target, _ in files:
        if not target or os.path.isdir(target):
            code = errno.EISDIR if target else errno.ENOENT
            raise OSError(code, os.strerror(code), target)
    temps: list[tuple[str, str]] = []
    try:
        for target, text in files:
            tmp = f"{target}.{os.getpid()}.tmp"
            with open(tmp, "x", encoding="ascii") as fh:
                temps.append((tmp, target))
                fh.write(text)
        for tmp, target in temps:
            os.replace(tmp, target)
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, target) from exc
    finally:
        for tmp, _ in temps:
            with suppress(FileNotFoundError):
                os.remove(tmp)


def _export_files(args: dict[str, Any], env: dict[str, Any]) -> list[tuple[str, str]]:
    """The ``(path, text)`` pairs that ``twist --export`` and ``--sidecar`` ask for.

    Both texts come from the rendered envelope: the export is the spec line
    and the sidecar its one record.  Any other command asks for none.
    """
    export, sidecar = args.get("export"), args.get("sidecar")
    if sidecar is not None and export is None:
        raise DomainError("--sidecar requires --export")
    if export is None:
        return []
    # realpath maps "" and "." alike to the working directory: compare nonempty paths.
    if sidecar and export and os.path.realpath(sidecar) == os.path.realpath(export):
        raise DomainError("--export and --sidecar name the same file")
    inputs, results = env["inputs"], env["results"]
    files = [(export, results["spec"] + "\n")]
    if sidecar is not None:
        record = {key: inputs[key] for key in ("a", "b", "n")}
        record.update({key: results[key] for key in ("k", "h1_order", "gamma_class", "spec")})
        files.append((sidecar, canonical_json([record])))
    return files


# ---------------------------------------------------------------------------
# parser


def _help(usage: str, about: str) -> NoReturn:
    sys.stdout.write(f"{usage}\n\n{about}\n")
    raise SystemExit(0)


def parse_args(argv: list[str]) -> tuple[str, bool, dict[str, Any]]:
    """``(command, is_sweep, values)`` from ``argv``; ``values`` holds every flag of the command.

    The first word names a command, or ``sweep`` and then a target.  The
    command's flags follow in any order, all required, then its options
    (``--jobs`` for a sweep) and ``--json``; an absent option takes its
    default.  A value follows its flag as the next word or after ``=``.  A
    next word that starts with ``-`` is a value only when it is an integer,
    so ``--n -5:5`` is refused where ``--n=-5:5`` is not.  Flags are spelled
    in full, a repeated flag keeps its last value, and ``-h``/``--help``
    prints the usage and exits 0.
    """
    words = iter(argv)
    prog, about = "lensgenus", "Exact rational-genus certificates for knots in lens spaces."
    choices = {name: cmd.help for name, cmd in COMMANDS.items()}
    choices["sweep"] = "grid runs with exact-equality summaries"
    for what in ("command", "target"):
        usage = f"usage: {prog} [-h] {{{','.join(choices)}}} ..."
        name = next(words, None)
        if name in ("-h", "--help"):
            width = max(map(len, choices)) + 2
            _help(usage, about + "\n" + "".join(f"\n  {c:{width}}{h}" for c, h in choices.items()))
        if name not in choices:
            raise DomainError((f"the following arguments are required: {what}" if name is None else
                               f"argument {what}: invalid choice: {name!r} (choose from "
                               f"{', '.join(choices)})") + f"\n{usage}")
        prog, about = f"{prog} {name}", choices[name]
        if name != "sweep":
            break
        choices = {target: choices[target] for target, cmd in COMMANDS.items() if cmd.summary}
    sweep, cmd = what == "target", COMMANDS[name]  # a sweep names its target second
    kinds = {flag: _int_list if flag in _LIST_FLAGS else str if sweep else int
             for flag in cmd.flags}
    kinds.update({"jobs": int} if sweep else _OPTIONS.get(name, {}), json=bool)
    values: dict[str, Any] = {flag: False if kind is bool else None for flag, kind in kinds.items()}
    if sweep:
        values["jobs"] = 1
    usage = f"usage: {prog} [-h] " + " ".join(
        f"--{flag} {_LIST_FLAGS.get(flag, 'LO:HI' if sweep else flag.upper())}" if flag in cmd.flags
        else f"[--{flag}]" if kind is bool else f"[--{flag} {flag.upper()}]"
        for flag, kind in kinds.items())
    extras: list[str] = []
    for word in words:
        if word in ("-h", "--help"):
            _help(usage, about)
        flag, eq, text = word.partition("=")
        kind = kinds.get(flag[2:]) if flag.startswith("--") else None
        if kind is None:
            extras.append(word)
            continue
        if kind is bool:
            if eq:
                raise DomainError(f"argument {flag}: ignored explicit argument {text!r}\n{usage}")
            values[flag[2:]] = True
            continue
        if not eq:
            text = next(words, "-")  # no word left reads as a flag: no value
            if text.startswith("-") and not text[1:].isdecimal():
                raise DomainError(f"argument {flag}: expected one argument\n{usage}")
        try:
            values[flag[2:]] = kind(text)
        except ValueError:
            expected = ("invalid int value:" if kind is int
                        else "expected comma-separated integers like 2,2,2, got")
            raise DomainError(f"argument {flag}: {expected} {text!r}\n{usage}") from None
    missing = [f"--{flag}" for flag in cmd.flags if values[flag] is None]
    if missing:
        raise DomainError(f"the following arguments are required: {', '.join(missing)}\n{usage}")
    if extras:
        raise DomainError(f"unrecognized arguments: {' '.join(extras)}\n{usage}")
    return name, sweep, values


def main(argv: list[str] | None = None) -> int:
    # Integers of any size print, so huge inputs keep their exit codes; Python
    # 3.10.6 and older have no limit to lift.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        name, sweep, args = parse_args(sys.argv[1:] if argv is None else argv)
        env, code = (cmd_sweep if sweep else _run_command)(name, args)
        # Rendered before anything is written: a report that fails to render
        # prints nothing and writes no file.
        text = print_report(env, args["json"])
        try:
            _write_all_or_none(_export_files(args, env))
        except OSError as exc:
            raise DomainError(f"cannot write {exc.filename!r}: {exc.strerror}") from exc
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:
        kind = "" if isinstance(exc, ConsistencyError) else f"{type(exc).__name__}: "
        print(f"internal consistency failure: {kind}{exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
