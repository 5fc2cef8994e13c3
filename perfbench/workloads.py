"""Seeded workloads for the lensgenus benchmark, with independent expectations.

Every CLI call the benchmark makes is a ``Call``: the argv it runs, the exit
code it must return, and the result values it must report.  The expected
values come from this file's own counting and closed forms, written apart
from ``src/`` so that a wrong answer in the library shows as a failed
operation rather than as a new baseline.

The seed picks the inputs and nothing else.  For the sweep workloads it
slides one outer window by ``seed % 11`` steps, keeping the window's size,
so every seed does nearly the same amount of work.  For ``cli-single`` it
draws the parameters and the order of each pass's calls.

The sweep grids are slices of the acceptance grids (criteria 2 and 5 and the
family sweeps), cut so that one serial pass takes about a second on a 2-CPU
machine: a run then times a dozen passes or more, and its medians stay
steady on a shared host.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, prod

#: Marker substituted with the run's work directory in export paths.
WORK = "{work}"


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what a correct program answers to it."""

    argv: tuple[str, ...]
    exit_code: int
    #: Values that must appear under ``results`` (JSON form).
    expect: dict
    #: Points this call evaluates (``results.points`` for a sweep, else 1).
    points: int
    #: Grid points the call enumerates; ``candidates - points`` are skipped.
    candidates: int
    #: Export files the call must write: relative name -> exact contents.
    files: dict = field(default_factory=dict)

    @property
    def is_sweep(self) -> bool:
        """Sweeps are the only commands that take ``--jobs``."""
        return self.argv[0] == "sweep"

    @property
    def key(self) -> str:
        """Stable identity, used to look up the seed-0 reference hash."""
        return " ".join(self.argv)

    def command(self, work: str, jobs: int | None) -> list[str]:
        """The argv to run, with export paths under ``work``."""
        argv = [a.replace(WORK, work) for a in self.argv]
        if jobs is not None and self.is_sweep:
            argv += ["--jobs", str(jobs)]
        return argv


def rat(x: Fraction | int) -> dict:
    f = Fraction(x)
    return {"num": f.numerator, "den": f.denominator}


def torus_chi(p: int, q: int, k: int) -> Fraction:
    """Norm of the (1,k)-torus knot's bounding class in L(p,q).

    One Seifert piece over a disk with cones k and r = p - qk, paired
    |k(kq - p)| times with the fiber; a piece with positive orbifold Euler
    characteristic is a solid torus and costs nothing.
    """
    r = p - q * k
    chi_orb = Fraction(1, k) + Fraction(1, r) - 1
    return abs(k * (k * q - p)) * max(Fraction(0), -chi_orb)


def _span(lo: int, hi: int) -> range:
    return range(lo, hi + 1)


def _coprime(p: int, q: int) -> bool:
    return p > q >= 1 and gcd(p, q) == 1


# ---------------------------------------------------------------------------
# sweeps: the benchmark's own count of admissible points


def sweep_cable(p: range, q: range, m: range, n: range) -> Call:
    evaluated = above = 0
    for pp in p:
        for qq in q:
            if not _coprime(pp, qq):
                continue
            for mm in m:
                for nn in n:
                    if pp - qq * mm * nn >= 1:
                        evaluated += 1
                        above += pp >= qq * mm * mm * nn
    argv = ("sweep", "cable", "--p", f"{p[0]}:{p[-1]}", "--q", f"{q[0]}:{q[-1]}",
            "--m", f"{m[0]}:{m[-1]}", "--n", f"{n[0]}:{n[-1]}", "--json")
    expect = {
        "points": evaluated,
        "threshold_met": above,
        "norms_equal_above_threshold": above,
        "below_threshold": evaluated - above,
    }
    return Call(argv, 0, expect, evaluated, len(p) * len(q) * len(m) * len(n))


def sweep_boundary_kernel(p: range, q: range, w: range) -> Call:
    pairs = sum(_coprime(pp, qq) for pp in p for qq in q)
    evaluated = pairs * len(w)
    argv = ("sweep", "boundary-kernel", "--p", f"{p[0]}:{p[-1]}", "--q", f"{q[0]}:{q[-1]}",
            "--w", f"{w[0]}:{w[-1]}", "--json")
    expect = {"points": evaluated, "agreements": evaluated}
    return Call(argv, 0, expect, evaluated, len(p) * len(q) * len(w))


def sweep_twist(a: range, b: range, n: range) -> Call:
    evaluated = len(a) * len(b) * sum(1 for nn in n if nn != 0)
    argv = ("sweep", "twist", "--a", f"{a[0]}:{a[-1]}", "--b", f"{b[0]}:{b[-1]}",
            f"--n={n[0]}:{n[-1]}", "--json")
    expect = {"points": evaluated, "homology_checks_passed": evaluated}
    return Call(argv, 0, expect, evaluated, len(a) * len(b) * len(n))


def sweep_stab(p: range, q: range, k: range) -> Call:
    evaluated = sum(
        1 for pp in p for qq in q for kk in k if _coprime(pp, qq) and pp >= 2 * qq * (kk + 4)
    )
    argv = ("sweep", "stab", "--p", f"{p[0]}:{p[-1]}", "--q", f"{q[0]}:{q[-1]}",
            "--k", f"{k[0]}:{k[-1]}", "--json")
    expect = {"points": evaluated, "certified": evaluated}
    return Call(argv, 0, expect, evaluated, len(p) * len(q) * len(k))


def sweep_iterated(p: range, q: range, ms: tuple[int, ...]) -> Call:
    w = prod(ms)
    bound = prod(m * m for m in ms[:-1]) * ms[-1]
    evaluated = above = 0
    for pp in p:
        for qq in q:
            if _coprime(pp, qq) and w < pp and pp - qq * w >= 1:
                evaluated += 1
                above += pp >= qq * bound
    argv = ("sweep", "iterated", "--p", f"{p[0]}:{p[-1]}", "--q", f"{q[0]}:{q[-1]}",
            "--ms", ",".join(map(str, ms)), "--json")
    expect = {"points": evaluated, "threshold_met": above, "norms_equal_above_threshold": above}
    return Call(argv, 0, expect, evaluated, len(p) * len(q))


# ---------------------------------------------------------------------------
# single commands: closed forms for what each one must print


def _lens(rng: random.Random, q_max: int, ratio: int, width: int) -> tuple[int, int]:
    """A coprime p > q with q <= q_max and p at most ``width`` above ratio*q."""
    while True:
        q = rng.randint(1, q_max)
        lo = max(ratio * q, q + 1)
        p = rng.randint(lo, lo + width)
        if _coprime(p, q):
            return p, q


def simple_knot(rng: random.Random) -> Call:
    p, q = _lens(rng, 50, 2, 200)
    c = rng.randint(0, p - 1)
    a = q * c % p
    argv = ("simple-knot", "--p", str(p), "--q", str(q), "--class", str(c), "--json")
    return Call(argv, 0, {"parameter_a": a, "is_unknot": a == 0}, 1, 1)


def theta(rng: random.Random) -> Call:
    c = rng.randint(1, 12)
    p, q = _lens(rng, 5, c + 1, 200)  # p >= qc + q > qc: the torus route exists
    chi = torus_chi(p, q, c)
    argv = ("theta", "--p", str(p), "--q", str(q), "--class", str(c), "--json")
    expect = {"theta": rat(chi / p), "chi_minus": rat(chi), "mu_pairing": p, "label": "EXACT"}
    return Call(argv, 0, expect, 1, 1)


def cable(rng: random.Random) -> Call:
    m, n = rng.randint(2, 4), rng.randint(2, 4)
    p, q = _lens(rng, 4, m * m * n, 300)  # at or above the threshold p >= q m^2 n
    chi = torus_chi(p, q, m * n)
    argv = ("cable", "--p", str(p), "--q", str(q), "--m", str(m), "--n", str(n), "--json")
    expect = {
        "norm_torus_side": rat(chi),
        "norm_cable_side": rat(chi),
        "norms_equal": True,
        "threshold_met": True,
        "homology_class": m * n % p,
        "theta": rat(chi / p),
    }
    return Call(argv, 0, expect, 1, 1)


def iterated(rng: random.Random) -> Call:
    ms = tuple(rng.randint(2, 3) for _ in range(rng.randint(2, 3)))
    w = prod(ms)
    p, q = _lens(rng, 3, prod(m * m for m in ms[:-1]) * ms[-1], 300)
    chi = torus_chi(p, q, w)
    argv = ("iterated", "--p", str(p), "--q", str(q), "--ms", ",".join(map(str, ms)), "--json")
    expect = {
        "norm_iterated": rat(chi),
        "norm_torus_side": rat(chi),
        "norms_equal": True,
        "threshold_met": True,
        "homology_class": w % p,
        "theta": rat(chi / p),
    }
    return Call(argv, 0, expect, 1, 1)


def stab(rng: random.Random) -> Call:
    k = rng.randint(1, 10)
    p, q = _lens(rng, 4, 2 * (k + 4), 300)
    chi = torus_chi(p, q, k + 4)
    argv = ("stab", "--p", str(p), "--q", str(q), "--k", str(k), "--json")
    expect = {
        "chi_capped": int(chi),
        "torus_knot_chi": rat(chi),
        "homology_class": k + 4,
        "theta": rat(chi / p),
    }
    return Call(argv, 0, expect, 1, 1)


def order2(rng: random.Random) -> Call:
    k = rng.randint(1, 8)
    expect = {
        "nonorientable_genus": k,
        "theta": rat(Fraction(k - 2, 2) if k >= 2 else 0),
        "order2_class": k,
    }
    # The minimizer is guaranteed unique only up to genus 3; beyond that the
    # command answers "not certified" with exit code 2.
    return Call(("order2", "--k", str(k), "--json"), 0 if k <= 3 else 2, expect, 1, 1)


def boundary_kernel(rng: random.Random) -> Call:
    p, q = _lens(rng, 100, 1, 300)
    w = rng.randint(0, 300)
    d = gcd(w, p)
    argv = ("boundary-kernel", "--p", str(p), "--q", str(q), "--w", str(w), "--oracle", "--json")
    expect = {
        "mu_coeff": w * w * q // d,
        "lambda_coeff": p // d,
        "oracle_mu_coeff": w * w * q // d,
        "oracle_lambda_coeff": p // d,
    }
    return Call(argv, 0, expect, 1, 1)


def _twist_params(rng: random.Random) -> tuple[int, int, int]:
    return rng.randint(1, 12), rng.randint(1, 12), rng.choice([n for n in range(-12, 13) if n])


def _twist_expect(a: int, b: int, n: int) -> tuple[dict, str]:
    k = a + b + 2
    spec = f"M((-1,{a}),(-1,{b}),({k + 2},1),({n - 1},{n}),({n + 1},{n}),inf)"
    # The class of gamma is +-k in Z/2k, and -k = k there.
    return {"k": k, "h1": f"Z/{2 * k}", "h1_order": 2 * k, "gamma_class": k, "spec": spec}, spec


def twist(rng: random.Random) -> Call:
    a, b, n = _twist_params(rng)
    expect, _ = _twist_expect(a, b, n)
    argv = ("twist", "--a", str(a), "--b", str(b), "--n", str(n), "--json")
    return Call(argv, 0, expect, 1, 1)


def twist_export(rng: random.Random) -> Call:
    a, b, n = _twist_params(rng)
    expect, spec = _twist_expect(a, b, n)
    record = {"a": a, "b": b, "n": n, "k": expect["k"], "h1_order": expect["h1_order"],
              "gamma_class": expect["gamma_class"], "spec": spec}
    argv = ("twist", "--a", str(a), "--b", str(b), "--n", str(n),
            "--export", f"{WORK}/spec.txt", "--sidecar", f"{WORK}/spec.json", "--json")
    files = {"spec.txt": spec + "\n", "spec.json": [record]}
    return Call(argv, 0, expect, 1, 1, files)


def small_twist_sweep(rng: random.Random) -> Call:
    a, b = rng.randint(1, 10), rng.randint(1, 10)
    return sweep_twist(_span(a, a + 2), _span(b, b + 2), _span(-3, 3))


SINGLE_KINDS = (simple_knot, theta, cable, iterated, stab, order2, boundary_kernel,
                twist, twist_export, small_twist_sweep)
#: Distinct passes drawn for ``cli-single``; a longer run cycles through them.
SINGLE_PASSES = 6


# ---------------------------------------------------------------------------
# workloads


def cable_grid(seed: int) -> list[list[Call]]:
    s = seed % 11
    return [[sweep_cable(_span(8 + s, 160 + s), _span(1, 7), _span(2, 5), _span(2, 5))]]


def kernel_oracle(seed: int) -> list[list[Call]]:
    # The seed slides the w window: sliding p would change the number of
    # coprime (p, q) pairs, and so the work, by about 3 % per step.
    s = seed % 11
    return [[sweep_boundary_kernel(_span(2, 60), _span(1, 59), _span(s, 7 + s))]]


def family_mix(seed: int) -> list[list[Call]]:
    s = seed % 11
    return [[
        sweep_twist(_span(1 + s, 3 + s), _span(1, 12), _span(-12, 12)),
        sweep_stab(_span(2 + s, 150 + s), _span(1, 3), _span(1, 10)),
        sweep_iterated(_span(8 + s, 500 + s), _span(1, 7), (2, 2, 2)),
    ]]


def cli_single(seed: int) -> list[list[Call]]:
    rng = random.Random(seed)
    passes = []
    for _ in range(SINGLE_PASSES):
        calls = [kind(rng) for kind in SINGLE_KINDS]
        rng.shuffle(calls)
        passes.append(calls)
    return passes


WORKLOADS = {
    "cable-grid": cable_grid,
    "kernel-oracle": kernel_oracle,
    "family-mix": family_mix,
    "cli-single": cli_single,
}
