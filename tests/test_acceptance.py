"""Acceptance suite: every criterion at its stated tolerance (exact).

Each test prints one [PASS]/[FAIL] line; run with ``pytest -v -s`` to see
them as they go.  All equalities are exact rational equalities.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest

from lensgenus.cables import (
    IteratedCableParams,
    explicit_surface_check,
    iterated_summands,
    iterated_verdict,
)
from lensgenus.complement import (
    WindingData,
    boundary_kernel,
    presentation_matrix,
    torus_knot_theta,
)
from lensgenus.exactarith import AbelianGroup, IntMatrix, peripheral_kernel
from lensgenus.lens import LensSpace
from lensgenus.norm import PeripheralClass, graph_norm
from lensgenus.order2 import (
    nonorientable_genus,
    nonorientable_genus_to_theta,
    theta_to_nonorientable_genus,
    uniqueness_check,
)
from lensgenus.stabilization import StabFamily, stab_norms, stab_verdict
from lensgenus.twistfamily import (
    TwistParams,
    build_twist_diagram,
    filling_spec_export,
)

from _oracles import (
    cable_pieces_reference,
    cokernel_invariants,
    exact_det,
    filling_homology,
    graph_norm_reference,
    mat_mul,
    minors_invariant_factors,
    smith_normal_form,
)


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def iterated_norm(ic):
    """The iterated-cable side, from the one norm route (a mismatch is recorded, not raised)."""
    return graph_norm(iterated_summands(ic))[0]


def reference_cable_side(p, q, m, n):
    """The cable side from the plain-tuple reference, which shares no library code."""
    return graph_norm_reference(cable_pieces_reference(p, q, m, n))[0]


def cable_gap(p, q, m, n):
    """norm_cable_side - norm_torus_side in closed form.

    Below the threshold q*m^2*n only the cable piece's fiber pairing changes
    sign; p - qmn = 1 makes the torus piece a solid torus, which is clamped.
    """
    return 2 * (n - 1) * max(0, q * m * m * n - p) - (p - q * m * n == 1)


@pytest.fixture(scope="module")
def cable_grid():
    """Shared sweep for criteria 2 and 4: m,n in [2,5], q in [1,7], p <= 500."""
    stats = {
        "points": 0,
        "norm_mismatches": [],
        "reduction2_failures": [],
        "reduction1_failures": [],
        "below": [],
        "gap_failures": [],
    }
    for m in range(2, 6):
        for n in range(2, 6):
            for q in range(1, 8):
                lo = max(q * m * m * n, q + 1)
                for p in range(lo, 501):
                    if gcd(p, q) != 1 or p - q * m * n < 2:
                        continue
                    space = LensSpace(p, q)
                    n21 = torus_knot_theta(space, m * n).chi_minus
                    n22 = iterated_norm(IteratedCableParams(space, (m, n)))
                    stats["points"] += 1
                    if n21 != n22:
                        stats["norm_mismatches"].append((p, q, m, n))
                    if n22 - n21 != cable_gap(p, q, m, n):
                        stats["gap_failures"].append((p, q, m, n))
                    if n22 != reference_cable_side(p, q, m, n):
                        stats["reduction2_failures"].append((p, q, m, n))
                    if (
                        iterated_norm(IteratedCableParams(space, (m,)))
                        != torus_knot_theta(space, m).chi_minus
                    ):
                        stats["reduction1_failures"].append((p, q, m))
                # below-threshold instances: nondegenerate pieces, no
                # certification expected
                taken = 0
                for p in range(q * m * n + 2, q * m * m * n):
                    if taken >= 2 or gcd(p, q) != 1 or p <= q:
                        continue
                    if p - q * m < 2 or p - q * m * n < 2:
                        continue
                    v = iterated_verdict(IteratedCableParams(LensSpace(p, q), (m, n)))
                    gap = cable_gap(p, q, m, n)
                    if (v.norm_iterated - v.norm_torus_side != gap
                            or reference_cable_side(p, q, m, n) - v.norm_torus_side != gap):
                        stats["gap_failures"].append((p, q, m, n))
                    stats["below"].append(
                        {
                            "params": (p, q, m, n),
                            "norms_equal": v.norms_equal,
                            "certified": v.certified_minimizer,
                        }
                    )
                    taken += 1
    return stats


def test_criterion_1_base_cable_certification(tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "lensgenus.cli",
            "cable",
            "--p", "8", "--q", "1", "--m", "2", "--n", "2",
            "--json",
        ],
        capture_output=True,
        text=True,
    )
    payload = json.loads(proc.stdout)
    results = payload["results"]
    certs = payload["certifications"]
    ok = (
        proc.returncode == 0
        and results["norm_torus_side"] == {"num": 8, "den": 1}
        and results["norm_cable_side"] == {"num": 8, "den": 1}
        and results["theta"] == {"num": 1, "den": 1}
        and results["homology_class"] == 4
        and certs["minimizer"]["holds"]
        and certs["nonsimple"]["holds"]
    )
    report(
        1,
        "base cable in L(8,1): both norms 8, theta(4) = 1, minimizer and "
        "non-simplicity certified, exit 0",
        ok,
    )


def test_criterion_2_norm_equality_sweep(cable_grid):
    ok = (
        cable_grid["points"] > 0
        and not cable_grid["norm_mismatches"]
        and not cable_grid["gap_failures"]
        and len(cable_grid["below"]) >= 20
        and all(not rec["certified"] for rec in cable_grid["below"])
    )
    equal_below = sum(rec["norms_equal"] for rec in cable_grid["below"])
    report(
        2,
        "norm equality above threshold over m,n in [2,5], q in [1,7], p <= 500",
        ok,
        f"{cable_grid['points']} instances equal; {len(cable_grid['below'])} "
        f"below-threshold recorded, {equal_below} happened to agree, none certified; "
        f"{len(cable_grid['gap_failures'])} points off the closed-form gap",
    )


def test_criterion_3_surface_grid():
    failures = [
        (m, n)
        for m in range(2, 7)
        for n in range(2, 7)
        if not explicit_surface_check(m, n).all_hold
    ]
    report(
        3,
        "explicit-surface grid m,n in [2,6]: theta values and the "
        "2g-2+b identity",
        not failures,
        f"{25 - len(failures)}/25 parameter pairs",
    )


def test_criterion_4_iterated_cables(cable_grid):
    failures = []
    for p in range(32, 201):
        space = LensSpace(p, 1)
        value = iterated_norm(IteratedCableParams(space, (2, 2, 2)))
        expected = torus_knot_theta(space, 8).chi_minus
        if value != expected:
            failures.append(("grid", p))
        if p == 32 and value != 160:
            failures.append(("anchor", p))

    rng = random.Random(20240601)
    samples = 0
    while samples < 50:
        ms = tuple(rng.randint(2, 4) for _ in range(3))
        q = rng.randint(1, 5)
        bound = q * ms[0] ** 2 * ms[1] ** 2 * ms[2]
        p = rng.randint(bound, bound + 200)
        if gcd(p, q) != 1 or p <= q:
            continue
        samples += 1
        space = LensSpace(p, q)
        value = iterated_norm(IteratedCableParams(space, ms))
        expected = torus_knot_theta(space, ms[0] * ms[1] * ms[2]).chi_minus
        if value != expected:
            failures.append(("random", p, q, ms))

    ok = (
        not failures
        and not cable_grid["reduction1_failures"]
        and not cable_grid["reduction2_failures"]
    )
    report(
        4,
        "iterated cables: [2,2,2] grid p in [32,200], 50 random triples, "
        "and one/two-level reductions on the full sweep grid",
        ok,
        f"{len(failures)} direct failures, "
        f"{len(cable_grid['reduction1_failures'])} + "
        f"{len(cable_grid['reduction2_failures'])} reduction failures",
    )


def test_criterion_5_boundary_kernel_oracle():
    mismatches = 0
    checks = 0
    for p in range(2, 61):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            space = LensSpace(p, q)
            for w in range(0, 61):
                data = WindingData(space, w)
                closed = boundary_kernel(data)
                oracle = peripheral_kernel(presentation_matrix(data), 0, 1)
                checks += 1
                if oracle != (closed.mu_coeff, closed.lambda_coeff):
                    mismatches += 1
    report(
        5,
        "closed-form boundary kernel vs row-lattice kernel oracle, all coprime "
        "(p,q) with p <= 60 and w <= 60",
        mismatches == 0,
        f"{checks} checks, {mismatches} mismatches",
    )


def test_criterion_6_stabilization_sweep():
    failures = []
    count = 0
    for k in range(1, 11):
        for q in range(1, 4):
            for p in range(2 * q * (k + 4), 301):
                if p <= q or gcd(p, q) != 1:
                    continue
                count += 1
                fam = StabFamily(LensSpace(p, q), k)
                norms = stab_norms(fam)
                kp4 = k + 4
                if norms.chi_Fk != p * kp4 - q * kp4 * kp4:
                    failures.append(("chi", p, q, k))
                displayed = (
                    PeripheralClass(-k * p + q * kp4 * kp4, p),
                    PeripheralClass(-(p - q * k) * kp4, -q * kp4),
                    PeripheralClass(-(p - q * kp4), k * (p - q * kp4)),
                )
                got = (norms.boundary.on_K0, norms.boundary.on_L2, norms.boundary.on_gamma)
                if got != displayed:
                    failures.append(("boundary", p, q, k))
                verdict = stab_verdict(fam)
                if verdict.norms.chi_capped != verdict.torus_chi:
                    failures.append(("capped", p, q, k))
                if verdict.theta != Fraction(norms.chi_capped, p):
                    failures.append(("theta", p, q, k))
    spot = stab_verdict(StabFamily(LensSpace(10, 1), 1))
    if spot.norms.chi_capped != 15 or spot.theta != Fraction(3, 2):
        failures.append(("spot", 10, 1, 1))
    report(
        6,
        "stabilized braids k in [1,10], q in [1,3], p <= 300: surface "
        "complexity, boundary triple, capped norm, theta",
        not failures,
        f"{count} families, {len(failures)} failures",
    )


def test_criterion_7_twist_family_grid():
    failures = []
    for a in range(1, 6):
        for b in range(1, 6):
            for n in [-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]:
                t = TwistParams(a, b, n)
                fl = build_twist_diagram(t)
                k = t.k
                if filling_homology(fl)[0] != AbelianGroup(0, (2 * k,)):
                    failures.append(("h1", a, b, n))
                cls = filling_homology(fl, "gamma")[1]
                if cls % (2 * k) not in (k, (-k) % (2 * k)):
                    failures.append(("class", a, b, n))
                swapped = build_twist_diagram(TwistParams(b, a, n))
                if (filling_homology(swapped)[0] != filling_homology(fl)[0]
                        or filling_homology(swapped, "gamma")[1] != cls):
                    failures.append(("swap", a, b, n))
    line = filling_spec_export(TwistParams(1, 1, 1))
    if line != "M((-1,1),(-1,1),(6,1),(0,1),(2,1),inf)":
        failures.append(("export", line))
    report(
        7,
        "twist family a,b in [1,5], |n| in [1,5]: H1 = Z/2k, gamma class "
        "+-k, swap symmetry, canonical export line",
        not failures,
        f"{len(failures)} failures over 250 grid points",
    )


def test_criterion_8_order2_dictionary():
    failures = []
    for h in range(2, 101):
        if theta_to_nonorientable_genus(nonorientable_genus_to_theta(h)) != h:
            failures.append(("roundtrip", h))
    for k in range(2, 51):
        theta = torus_knot_theta(LensSpace(2 * k, 1), k).theta
        if nonorientable_genus(k) != k or 2 * theta + 2 != k:
            failures.append(("genus", k))
    verdicts = {
        4: uniqueness_check(LensSpace(4, 1)).unique_minimizer_guaranteed,
        6: uniqueness_check(LensSpace(6, 1)).unique_minimizer_guaranteed,
        8: uniqueness_check(LensSpace(8, 1)).unique_minimizer_guaranteed,
    }
    if verdicts != {4: True, 6: True, 8: False}:
        failures.append(("uniqueness", verdicts))
    report(
        8,
        "order-2 dictionary: h <-> theta roundtrip on [2,100], minimal "
        "genus k cross-check on [2,50], uniqueness verdicts for orders 4, 6, 8",
        not failures,
        f"{len(failures)} failures",
    )


def test_criterion_9_snf_property_suite():
    rng = random.Random(987654321)
    failures = 0
    oracle_checks = 0
    for _ in range(1000):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        a = IntMatrix.from_rows(rows)
        res = smith_normal_form(rows)
        d, u, v = ([list(r) for r in mat] for mat in (res.D, res.U, res.V))
        good = (
            mat_mul(mat_mul(u, rows), v) == d
            and all(x == 0 for i, row in enumerate(d) for j, x in enumerate(row) if i != j)
            and abs(exact_det(u)) == 1
            and abs(exact_det(v)) == 1
            and all(
                y % x == 0
                for x, y in zip(res.invariant_factors, res.invariant_factors[1:])
            )
        )
        if not good:
            failures += 1
            continue
        if m <= 3 and n <= 3:
            oracle_checks += 1
            factors = minors_invariant_factors(rows)
            expected = AbelianGroup(
                free_rank=n - len(factors),
                torsion=tuple(f for f in factors if f > 1),
            )
            if cokernel_invariants(a) != expected:
                failures += 1
    report(
        9,
        "SNF property suite: 1000 random matrices (UAV = D, unimodularity, "
        "divisibility chain) with brute-force cokernel oracle on small sizes",
        failures == 0,
        f"{oracle_checks} oracle comparisons, {failures} failures",
    )
