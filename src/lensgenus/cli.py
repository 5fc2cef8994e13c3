"""Command-line front end: one subcommand per certifying operation.

Every number in the output is an exact rational (``a/b`` in tables,
``{"num": a, "den": b}`` in JSON); nothing is ever rendered as a float.
Exit codes: 0 success, 1 invalid input, 2 valid input but the
certification condition is not met, 3 internal failure (a cross-check
disagreed, or a bug such as a zero divisor).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from functools import partial
from itertools import product
from typing import Any, Callable, Iterable

from . import cables, complement, order2, stabilization, twistfamily
from .errors import ConsistencyError, DomainError
from .exactarith import peripheral_kernel
from .lens import H1Class, LensSpace, simple_knot_in_class

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_UNCERTIFIED = 2
EXIT_INCONSISTENT = 3


# ---------------------------------------------------------------------------
# report plumbing


def rat(x: Fraction | int) -> dict[str, int]:
    f = Fraction(x)
    return {"num": f.numerator, "den": f.denominator}


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
# subcommands


def cmd_simple_knot(args: argparse.Namespace) -> tuple[dict, int]:
    space = LensSpace(args.p, args.q)
    knot = simple_knot_in_class(space, H1Class(args.h1_class, space))
    env = envelope(
        "simple-knot",
        {"p": args.p, "q": args.q, "class": args.h1_class},
        {
            "parameter_a": knot.a,
            "is_unknot": knot.a == 0,
        },
    )
    return env, EXIT_OK


def cmd_theta(args: argparse.Namespace) -> tuple[dict, int]:
    space = LensSpace(args.p, args.q)
    c = args.h1_class
    if not 0 <= c < space.p:
        raise ValueError(f"class {c} outside [0, {space.p - 1}]")
    inputs = {"p": args.p, "q": args.q, "class": c}
    if c == 0:
        env = envelope(
            "theta",
            inputs,
            {"theta": rat(0), "chi_minus": rat(0), "label": "EXACT"},
            {
                "exact": {
                    "holds": True,
                    "criterion": "class 0 is the unknot, which bounds a disk",
                }
            },
        )
        return env, EXIT_OK
    if space.p - space.q * c < 1:
        raise ValueError(
            f"no torus-knot route for class {c}: cone order p - qc = "
            f"{space.p - space.q * c} < 1"
        )
    # p - qc >= 1 gives qc < p + q, so the torus-knot criterion holds.
    report = complement.torus_knot_theta(space, c)
    env = envelope(
        "theta",
        inputs,
        {
            "theta": rat(report.theta),
            "chi_minus": rat(report.chi_minus),
            "mu_pairing": report.mu_pairing,
            "fibered": report.fibered,
            "label": "EXACT",
        },
        {
            "exact": {
                "holds": True,
                "criterion": "simple knot in this class is the (1,k)-torus knot "
                "(holds iff k*q < p + q)",
            }
        },
    )
    return env, EXIT_OK


def cmd_cable(args: argparse.Namespace) -> tuple[dict, int]:
    space = LensSpace(args.p, args.q)
    v = cables.cable_verdict(cables.CableParams(space, args.m, args.n))
    env = envelope(
        "cable",
        {"p": args.p, "q": args.q, "m": args.m, "n": args.n},
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
    return env, EXIT_OK if v.certified_minimizer else EXIT_UNCERTIFIED


def cmd_iterated(args: argparse.Namespace) -> tuple[dict, int]:
    space = LensSpace(args.p, args.q)
    ms = tuple(int(s) for s in args.ms.split(","))
    v = cables.iterated_verdict(cables.IteratedCableParams(space, ms))
    env = envelope(
        "iterated",
        {"p": args.p, "q": args.q, "ms": list(ms)},
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
    return env, EXIT_OK if v.certified_minimizer else EXIT_UNCERTIFIED


def cmd_stab(args: argparse.Namespace) -> tuple[dict, int]:
    space = LensSpace(args.p, args.q)
    fam = stabilization.StabFamily(space, args.k)
    norms = stabilization.stab_norms(fam)
    v = stabilization.stab_verdict(fam)
    env = envelope(
        "stab",
        {"p": args.p, "q": args.q, "k": args.k},
        {
            "coefficients": list(stabilization.stab_coefficients(fam)),
            "chi_surface": norms.chi_Fk,
            "chi_capped": norms.chi_capped,
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
    return env, EXIT_OK


def cmd_order2(args: argparse.Namespace) -> tuple[dict, int]:
    if args.k < 1:
        raise ValueError("k must be >= 1")
    space = LensSpace(2 * args.k, 1)
    rep = order2.uniqueness_check(space)
    env = envelope(
        "order2",
        {"k": args.k, "p": space.p, "q": 1},
        {
            "nonorientable_genus": rep.nonorientable_genus,
            "theta": rat(rep.theta),
            "order2_class": args.k,
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


def cmd_twist(args: argparse.Namespace) -> tuple[dict, int]:
    t = twistfamily.TwistParams(args.a, args.b, args.n)
    v = twistfamily.twist_verdict(t)
    if not v.holds:
        raise ConsistencyError(
            f"twist diagram homology check failed: H1 = {v.h1}, class {v.gamma_class}, "
            f"expected Z/{2 * t.k} with class +-{t.k}"
        )
    _, line = twistfamily.filling_spec_export(t)
    if args.sidecar and not args.export:
        raise ValueError("--sidecar requires --export")
    if args.export:
        twistfamily.export_filling_specs([t], args.export, args.sidecar)
    env = envelope(
        "twist",
        {"a": args.a, "b": args.b, "n": args.n},
        {
            "k": t.k,
            "h1": str(v.h1),
            "h1_order": v.h1.order(),
            "gamma_class": v.gamma_class,
            "framings": [
                "inf" if c.framing is None else _fmt(rat(c.framing))
                for c in v.diagram.components
            ],
            "spec": line,
        },
        {
            "homology": {
                "holds": True,
                "criterion": "filling the five framed components gives the "
                "lens space of order 2k with the unfilled knot in class k",
            }
        },
    )
    return env, EXIT_OK


def cmd_boundary_kernel(args: argparse.Namespace) -> tuple[dict, int]:
    space = LensSpace(args.p, args.q)
    data = complement.WindingData(space, args.w)
    closed = complement.boundary_kernel(data)
    results: dict[str, Any] = {
        "mu_coeff": closed.mu_coeff,
        "lambda_coeff": closed.lambda_coeff,
    }
    certs: dict[str, dict[str, Any]] = {}
    code = EXIT_OK
    if args.oracle:
        mat = complement.presentation_matrix(data)
        oracle = peripheral_kernel(mat, 0, 1)
        agree = oracle == (closed.mu_coeff, closed.lambda_coeff)
        results["oracle_mu_coeff"] = oracle[0]
        results["oracle_lambda_coeff"] = oracle[1]
        results["presentation_rows"] = mat.to_lists()
        certs["oracle_agreement"] = {
            "holds": agree,
            "criterion": "closed form equals the Smith-normal-form kernel of "
            "the presentation matrix",
        }
        if not agree:
            code = EXIT_INCONSISTENT
    env = envelope(
        "boundary-kernel",
        {"p": args.p, "q": args.q, "w": args.w},
        results,
        certs,
    )
    return env, code


# ---------------------------------------------------------------------------
# sweeps

# Each point evaluator builds its family through the constructors, which
# raise DomainError outside the family's hypotheses; the sweep skips
# exactly those points.  Evaluators return JSON-ready record fields so a
# grid can be evaluated in worker processes and merged deterministically.


def _cable_point(p: int, q: int, m: int, n: int) -> dict[str, Any]:
    v = cables.cable_verdict(cables.CableParams(LensSpace(p, q), m, n))
    return {
        "threshold_met": v.threshold_met,
        "norms_equal": v.norms_equal,
        "norm_torus_side": rat(v.norm_torus_side),
        "norm_cable_side": rat(v.norm_cable_side),
        "degenerate": bool(v.warnings),
    }


def _iterated_point(p: int, q: int, *ms: int) -> dict[str, Any]:
    v = cables.iterated_verdict(cables.IteratedCableParams(LensSpace(p, q), ms))
    return {"threshold_met": v.threshold_met, "norms_equal": v.norms_equal}


def _boundary_kernel_point(p: int, q: int, w: int) -> dict[str, Any]:
    data = complement.WindingData(LensSpace(p, q), w)
    closed = complement.boundary_kernel(data)
    oracle = peripheral_kernel(complement.presentation_matrix(data), 0, 1)
    return {"agree": oracle == (closed.mu_coeff, closed.lambda_coeff)}


def _stab_point(p: int, q: int, k: int) -> dict[str, Any]:
    v = stabilization.stab_verdict(stabilization.StabFamily(LensSpace(p, q), k))
    return {"certified": v.certified_minimizer}


def _twist_point(a: int, b: int, n: int) -> dict[str, Any]:
    v = twistfamily.twist_verdict(twistfamily.TwistParams(a, b, n))
    return {"h1_order": v.h1.order(), "gamma_class": v.gamma_class, "ok": v.holds}


# A summary turns the sorted records into ``results`` and the mismatches.


def _cable_summary(records: list[dict]) -> tuple[dict, list[dict]]:
    above = [r for r in records if r["threshold_met"]]
    below = [r for r in records if not r["threshold_met"]]
    mismatches = [r for r in above if not r["norms_equal"]]
    results = {
        "points": len(records),
        "threshold_met": len(above),
        "norms_equal_above_threshold": len(above) - len(mismatches),
        "below_threshold": len(below),
        "norms_equal_below_threshold": sum(r["norms_equal"] for r in below),
        "mismatches_above_threshold": mismatches,
    }
    return results, mismatches


def _iterated_summary(records: list[dict]) -> tuple[dict, list[dict]]:
    results, mismatches = _cable_summary(records)
    del results["below_threshold"], results["norms_equal_below_threshold"]
    return results, mismatches


def _flag_summary(flag: str, passed: str, records: list[dict]) -> tuple[dict, list[dict]]:
    """Count the records whose ``flag`` holds; the others are mismatches."""
    mismatches = [r for r in records if not r[flag]]
    results = {
        "points": len(records),
        passed: len(records) - len(mismatches),
        "mismatches": mismatches,
    }
    return results, mismatches


#: target -> (sweep flags in grid-coordinate order, point evaluator, summary)
_SWEEPS: dict[str, tuple[tuple[str, ...], Callable[..., dict], Callable]] = {
    "cable": (("p", "q", "m", "n"), _cable_point, _cable_summary),
    "iterated": (("p", "q", "ms"), _iterated_point, _iterated_summary),
    "boundary-kernel": (
        ("p", "q", "w"), _boundary_kernel_point, partial(_flag_summary, "agree", "agreements")
    ),
    "stab": (("p", "q", "k"), _stab_point, partial(_flag_summary, "certified", "certified")),
    "twist": (
        ("a", "b", "n"), _twist_point, partial(_flag_summary, "ok", "homology_checks_passed")
    ),
}


def _sweep_point(evaluate: Callable[..., dict], point: tuple[int, ...]) -> dict | None:
    """The record of one grid point, or None when its family rejects it."""
    try:
        fields = evaluate(*point)
    except DomainError:
        return None
    return {"params": list(point), **fields}


def _parse_range(text: str | None, flag: str) -> range:
    if text is None:
        raise ValueError(f"sweep requires a --{flag} range (lo:hi)")
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError(f"range must look like lo:hi, got {text!r}")
    if int(lo) > int(hi):
        raise ValueError(f"range --{flag} {text} is reversed (lo > hi)")
    return range(int(lo), int(hi) + 1)


def _grid_axes(args: argparse.Namespace, flag: str) -> tuple[Any, list[Iterable[int]]]:
    """The ``inputs`` entry of one sweep flag and the grid axes it spans.

    A range spans one axis; ``--ms`` pins one single-valued axis per level.
    """
    text = getattr(args, flag)
    if flag != "ms":
        return text, [_parse_range(text, flag)]
    if text is None:
        raise ValueError("sweep iterated requires --ms m1,m2,...")
    ms = [int(s) for s in text.split(",")]
    return ms, [(m,) for m in ms]


def cmd_sweep(args: argparse.Namespace) -> tuple[dict, int]:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    flags, evaluate, summarize = _SWEEPS[args.target]
    inputs: dict[str, Any] = {"target": args.target}
    axes: list[Iterable[int]] = []
    for flag in flags:
        inputs[flag], spans = _grid_axes(args, flag)
        axes += spans
    worker = partial(_sweep_point, evaluate)
    workers = min(args.jobs, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(worker, product(*axes), chunksize=256))
    else:
        raw = [worker(pt) for pt in product(*axes)]
    records = sorted((r for r in raw if r is not None), key=lambda r: r["params"])
    if not records:
        # Nothing admissible: evaluate the first point uncaught so the
        # sweep fails with its reason.
        evaluate(*next(product(*axes)))
    results, mismatches = summarize(records)
    return envelope("sweep", inputs, results), EXIT_INCONSISTENT if mismatches else EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lensgenus",
        description="Exact rational-genus certificates for knots in lens spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("simple-knot", help="simple knot in a homology class")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--class", dest="h1_class", type=int, required=True)
    add_json(p)
    p.set_defaults(func=cmd_simple_knot)

    p = sub.add_parser("theta", help="norm of a homology class via its torus knot")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--class", dest="h1_class", type=int, required=True)
    add_json(p)
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("cable", help="cable-knot minimizer verdict")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    add_json(p)
    p.set_defaults(func=cmd_cable)

    p = sub.add_parser("iterated", help="iterated-cable minimizer verdict")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--ms", type=str, required=True, help="comma-separated m1,m2,...")
    add_json(p)
    p.set_defaults(func=cmd_iterated)

    p = sub.add_parser("stab", help="stabilized-braid minimizer verdict")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    add_json(p)
    p.set_defaults(func=cmd_stab)

    p = sub.add_parser("order2", help="order-2 class uniqueness verdict in L(2k,1)")
    p.add_argument("--k", type=int, required=True)
    add_json(p)
    p.set_defaults(func=cmd_order2)

    p = sub.add_parser("twist", help="annulus-twist family diagram and export")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--export", type=str, default=None, help="write the spec line here")
    p.add_argument("--sidecar", type=str, default=None, help="write a JSON sidecar here")
    add_json(p)
    p.set_defaults(func=cmd_twist)

    p = sub.add_parser("boundary-kernel", help="peripheral class that bounds")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--oracle", action="store_true", help="verify against the SNF oracle")
    add_json(p)
    p.set_defaults(func=cmd_boundary_kernel)

    p = sub.add_parser("sweep", help="grid runs with exact-equality summaries")
    p.add_argument(
        "target",
        choices=["cable", "iterated", "boundary-kernel", "stab", "twist"],
    )
    p.add_argument("--p", type=str, help="range lo:hi")
    p.add_argument("--q", type=str, help="range lo:hi")
    p.add_argument("--m", type=str, help="range lo:hi")
    p.add_argument("--n", type=str, help="range lo:hi")
    p.add_argument("--w", type=str, help="range lo:hi")
    p.add_argument("--k", type=str, help="range lo:hi")
    p.add_argument("--a", type=str, help="range lo:hi")
    p.add_argument("--b", type=str, help="range lo:hi")
    p.add_argument("--ms", type=str, help="comma-separated m1,m2,... (iterated only)")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    add_json(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        env, code = args.func(args)
    except (ConsistencyError, ZeroDivisionError) as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    print_report(env, getattr(args, "json", False))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
