import errno
import json
import os
import signal
import subprocess
import sys
from fractions import Fraction
from itertools import islice, product
from math import prod
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lensgenus import cables, cli, complement, exactarith, stabilization, twistfamily
from lensgenus.cables import IteratedCableParams
from lensgenus.cli import canonical_json, main
from lensgenus.complement import WindingData
from lensgenus.errors import ConsistencyError, DomainError
from lensgenus.lens import LensSpace
from lensgenus.stabilization import StabFamily
from lensgenus.twistfamily import TwistParams


def flat(point):
    """A sweep point's coordinates as its ``params`` record lists them: a list's entries in line."""
    return [v for x in point for v in (x if isinstance(x, tuple) else (x,))]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), out


@pytest.fixture
def slab_log(monkeypatch):
    """Log the sweep's forks and the slab summaries its runner returns; children are real."""
    log = SimpleNamespace(forks=[], slabs=[])
    real_fork, real_runner = os.fork, cli._run_slabs

    def fork():
        pid = real_fork()
        if pid:
            log.forks.append(pid)
        return pid

    def runner(worker, spans, workers):
        log.slabs = real_runner(worker, spans, workers)
        return log.slabs

    monkeypatch.setattr(cli.os, "fork", fork)
    monkeypatch.setattr(cli, "_run_slabs", runner)
    return log


def usable_cpus(monkeypatch, n):
    """Make the sweep see an affinity mask of ``n`` CPUs."""
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestExitCodes:
    def test_certified_cable(self, capsys):
        code, out, _ = run(capsys, "cable", "--p", "8", "--q", "1", "--m", "2", "--n", "2")
        assert code == 0
        assert "CERTIFIED" in out

    def test_below_threshold_cable(self, capsys):
        code, out, _ = run(capsys, "cable", "--p", "7", "--q", "1", "--m", "2", "--n", "2")
        assert code == 2

    def test_invalid_input(self, capsys):
        code, _, err = run(capsys, "cable", "--p", "4", "--q", "2", "--m", "2", "--n", "2")
        assert code == 1
        assert "coprime" in err

    def test_unknot_theta(self, capsys):
        code, out, _ = run(capsys, "theta", "--p", "8", "--q", "1", "--class", "0")
        assert code == 0
        assert "EXACT" in out

    def test_exact_label_whenever_computable(self, capsys):
        # p - qc >= 1 forces qc <= p - 1 < p + q, so every class the
        # torus-knot route can evaluate satisfies the torus criterion and
        # is labelled EXACT; classes beyond the route error out instead.
        code, out, _ = run(capsys, "theta", "--p", "23", "--q", "3", "--class", "7")
        assert code == 0
        assert "EXACT" in out

    def test_text_report_lists_warnings(self, capsys):
        code, out, _ = run(capsys, "cable", "--p", "9", "--q", "1", "--m", "2", "--n", "4")
        assert code == 2
        assert out.endswith("warnings:\n  - degenerate cone order 1: a decomposition piece "
                            "is a solid torus and contributes zero\n")

    def test_zero_division_is_internal_failure(self, capsys, monkeypatch):
        def divide_by_zero(*values):
            return 1 // 0

        cable = cli.COMMANDS["cable"]._replace(evaluate=divide_by_zero)
        monkeypatch.setitem(cli.COMMANDS, "cable", cable)
        code, _, err = run(capsys, "cable", "--p", "8", "--q", "1", "--m", "2", "--n", "2")
        assert code == 3
        assert "division" in err


def not_cyclic(mat, mu_col, lambda_col):
    """A ``peripheral_kernel`` whose own check fails: a library bug, not bad input."""
    raise ValueError("peripheral kernel is not cyclic of rank 1 (rank 2)")


class TestInternalFailureExits3:
    """``DomainError`` is the one exception that means bad input; any other exits 3."""

    def test_library_value_error(self, capsys, monkeypatch):
        monkeypatch.setattr(exactarith, "peripheral_kernel", not_cyclic)
        code, out, err = run(
            capsys, "boundary-kernel", "--p", "8", "--q", "1", "--w", "4", "--oracle", "--json"
        )
        assert (code, out) == (3, "")
        assert err == ("internal consistency failure: ValueError: "
                       "peripheral kernel is not cyclic of rank 1 (rank 2)\n")

    @pytest.mark.parametrize("kernel", [not_cyclic, lambda mat, mu, lam: (0, 0)],
                             ids=["raises", "disagrees"])
    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_plain_boundary_kernel_runs_its_oracle(self, capsys, monkeypatch, kernel, mode):
        # Without --oracle the oracle runs too, so a broken one exits 3.
        monkeypatch.setattr(exactarith, "peripheral_kernel", kernel)
        code, out, err = run(capsys, "boundary-kernel", "--p", "8", "--q", "1", "--w", "4", *mode)
        assert (code, out) == (3, "")
        assert err.startswith("internal consistency failure: ")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_library_value_error_in_sweep(self, capsys, monkeypatch, slab_log, jobs):
        monkeypatch.setattr(exactarith, "peripheral_kernel", not_cyclic)
        usable_cpus(monkeypatch, 2)
        code, out, err = run(capsys, "sweep", "boundary-kernel", "--p", "2:8", "--q", "1:3",
                             "--w", "0:2", "--jobs", jobs, "--json")
        assert (code, out) == (3, "")
        assert "ValueError: peripheral kernel is not cyclic" in err
        assert len(slab_log.forks) == int(jobs) - 1
        assert_no_child_left()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_twist_diagram_without_unimodular_block(self, capsys, monkeypatch, slab_log, jobs):
        # lk(Acircle, Bcircle) = 1 leaves a pivot of -2: the fold raises, with
        # no fallback route, and nothing reaches stdout.
        real = twistfamily.build_twist_diagram

        def relinked(t):
            fl = real(t)
            linking = [list(row) for row in fl.linking]
            linking[1][2] = linking[2][1] = 1
            return twistfamily.FramedLink(fl.components, tuple(map(tuple, linking)))

        monkeypatch.setattr(twistfamily, "build_twist_diagram", relinked)
        code, out, err = run(capsys, "twist", "--a", "1", "--b", "1", "--n", "1", "--json")
        assert (code, out) == (3, "")
        assert err.startswith("internal consistency failure: twist diagram pivot -2 ")
        usable_cpus(monkeypatch, 2)
        code, out, err = run(capsys, "sweep", "twist", "--a", "1:2", "--b", "1:2",
                             "--n=-2:2", "--jobs", jobs, "--json")
        assert (code, out) == (3, "")
        assert "twist diagram pivot" in err
        assert len(slab_log.forks) == int(jobs) - 1
        assert_no_child_left()

    def test_wrong_stab_catalogue_exits_3(self, capsys, monkeypatch, slab_log):
        # A catalogue whose F0 claims one unit of complexity too many.  F0
        # enters the surface from p = 11 on, so the sweep fails at its second
        # point, and with --jobs 2 the serial replay prints the same line.
        f0 = stabilization.BASE_SURFACES[0]
        monkeypatch.setattr(stabilization, "BASE_SURFACES",
                            (f0._replace(chi_minus=5),) + stabilization.BASE_SURFACES[1:])
        line = ("internal consistency failure: assembled chi 31 != closed form 30 "
                "at (p,q,k)=(11,1,1)\n")
        code, out, err = run(capsys, "stab", "--p", "11", "--q", "1", "--k", "1")
        assert (code, out, err) == (3, "", line)
        usable_cpus(monkeypatch, 2)
        for jobs in ("1", "2"):
            code, out, err = run(capsys, "sweep", "stab", "--p", "10:12", "--q", "1:1",
                                 "--k", "1:1", "--jobs", jobs)
            assert (code, out, err) == (3, "", line), jobs
        assert len(slab_log.forks) == 1
        assert_no_child_left()

    @pytest.mark.parametrize("exc, line", [
        (IndexError("list index out of range"), "IndexError: list index out of range"),
        (TypeError("unsupported operand"), "TypeError: unsupported operand"),
        (ConsistencyError("routes disagree"), "routes disagree"),
    ])
    def test_any_other_exception(self, capsys, monkeypatch, exc, line):
        def broken(space, k):
            raise exc

        monkeypatch.setattr(complement, "torus_knot_theta", broken)
        code, out, err = run(capsys, "theta", "--p", "8", "--q", "1", "--class", "3")
        assert (code, out) == (3, "")
        assert err == f"internal consistency failure: {line}\n"


class TestJsonOutput:
    def test_round_trip_byte_identical(self, capsys):
        code, payload, raw = run_json(
            capsys, "cable", "--p", "8", "--q", "1", "--m", "2", "--n", "2"
        )
        assert code == 0
        assert canonical_json(payload) == raw

    def test_rationals_are_exact_pairs(self, capsys):
        _, payload, raw = run_json(
            capsys, "stab", "--p", "10", "--q", "1", "--k", "1"
        )
        assert payload["results"]["theta"] == {"num": 3, "den": 2}
        assert "e-" not in raw and "0." not in raw

    def test_no_floats_anywhere(self, capsys):
        _, payload, _ = run_json(
            capsys, "cable", "--p", "17", "--q", "2", "--m", "2", "--n", "2"
        )

        def no_floats(obj):
            if isinstance(obj, float):
                return False
            if isinstance(obj, dict):
                return all(no_floats(v) for v in obj.values())
            if isinstance(obj, list):
                return all(no_floats(v) for v in obj)
            return True

        assert no_floats(payload)


class TestSubcommands:
    def test_simple_knot(self, capsys):
        code, payload, _ = run_json(
            capsys, "simple-knot", "--p", "8", "--q", "1", "--class", "4"
        )
        assert code == 0
        assert payload["results"]["parameter_a"] == 4

    def test_theta_values(self, capsys):
        _, payload, _ = run_json(capsys, "theta", "--p", "8", "--q", "1", "--class", "4")
        assert payload["results"]["theta"] == {"num": 1, "den": 1}
        assert payload["results"]["label"] == "EXACT"

    def test_iterated(self, capsys):
        code, payload, _ = run_json(
            capsys, "iterated", "--p", "32", "--q", "1", "--ms", "2,2,2"
        )
        assert code == 0
        assert payload["results"]["norm_iterated"] == {"num": 160, "den": 1}

    def test_order2(self, capsys):
        code, payload, _ = run_json(capsys, "order2", "--k", "3")
        assert code == 0
        assert payload["results"]["nonorientable_genus"] == 3
        code, payload, _ = run_json(capsys, "order2", "--k", "4")
        assert code == 2
        assert not payload["certifications"]["unique_minimizer"]["holds"]

    def test_twist_with_export(self, capsys, tmp_path):
        out = tmp_path / "specs.txt"
        sidecar = tmp_path / "specs.json"
        code, payload, _ = run_json(
            capsys,
            "twist",
            "--a", "1", "--b", "1", "--n", "1",
            "--export", str(out),
            "--sidecar", str(sidecar),
        )
        assert code == 0
        assert payload["results"]["gamma_class"] == 4
        assert out.read_text() == "M((-1,1),(-1,1),(6,1),(0,1),(2,1),inf)\n"
        assert json.loads(sidecar.read_text())[0]["h1_order"] == 8

    def test_twist_sidecar_builds_its_diagram_once(self, capsys, monkeypatch, tmp_path):
        calls = []
        real = twistfamily.build_twist_diagram
        monkeypatch.setattr(twistfamily, "build_twist_diagram",
                            lambda t: calls.append(t) or real(t))
        out, sidecar = tmp_path / "s.txt", tmp_path / "s.json"
        code, _, _ = run(capsys, "twist", "--a", "1", "--b", "1", "--n", "1",
                         "--export", str(out), "--sidecar", str(sidecar))
        assert code == 0
        assert len(calls) == 1
        spec = "M((-1,1),(-1,1),(6,1),(0,1),(2,1),inf)"
        assert out.read_bytes() == (spec + "\n").encode()
        assert sidecar.read_bytes() == (
            '[\n  {\n    "a": 1,\n    "b": 1,\n    "gamma_class": 4,\n    "h1_order": 8,\n'
            '    "k": 4,\n    "n": 1,\n    "spec": "' + spec + '"\n  }\n]\n'
        ).encode()

    def test_export_waits_for_the_report(self, capsys, monkeypatch, tmp_path):
        # main writes the export after the report renders: no report, no file.
        def unrenderable(env, as_json):
            raise ValueError("this report cannot be rendered")

        monkeypatch.setattr(cli, "print_report", unrenderable)
        code, out, err = run(capsys, "twist", "--a", "1", "--b", "1", "--n", "1",
                             "--export", str(tmp_path / "s.txt"),
                             "--sidecar", str(tmp_path / "s.json"))
        assert (code, out) == (3, "")
        assert err == "internal consistency failure: ValueError: this report cannot be rendered\n"
        assert list(tmp_path.iterdir()) == []

    def test_boundary_kernel_oracle(self, capsys):
        code, payload, _ = run_json(
            capsys, "boundary-kernel", "--p", "8", "--q", "1", "--w", "4", "--oracle"
        )
        assert code == 0
        assert payload["certifications"]["oracle_agreement"]["holds"]
        assert payload["results"]["mu_coeff"] == 4
        assert payload["results"]["oracle_mu_coeff"] == 4

    def test_stab_builds_its_surface_once(self, capsys, monkeypatch):
        calls = []
        real = stabilization.stab_norms
        monkeypatch.setattr(stabilization, "stab_norms", lambda s: calls.append(s) or real(s))
        code, payload, _ = run_json(capsys, "stab", "--p", "10", "--q", "1", "--k", "1")
        assert code == 0
        assert payload["results"]["chi_capped"] == 15
        assert len(calls) == 1

    def test_failed_oracle_is_internal_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(exactarith, "peripheral_kernel", lambda mat, mu, lam: (0, 0))
        code, out, err = run(
            capsys, "boundary-kernel", "--p", "8", "--q", "1", "--w", "4", "--oracle", "--json"
        )
        assert code == 3
        assert out == ""
        assert "oracle_agreement check failed" in err

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_oracle_flag_does_not_change_results(self, capsys, mode):
        # The oracle always runs; --oracle still parses and changes no byte.
        argv = ["boundary-kernel", "--p", "15", "--q", "4", "--w", "6", *mode]
        plain = run(capsys, *argv)
        assert plain == run(capsys, *argv, "--oracle")
        assert plain[0] == 0 and "oracle_agreement" in plain[1]


class TestSweep:
    def test_cable_sweep(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "sweep", "cable",
            "--p", "8:60", "--q", "1:2", "--m", "2:3", "--n", "2:3",
        )
        assert code == 0
        res = payload["results"]
        assert res["points"] > 0
        assert res["norms_equal_above_threshold"] == res["threshold_met"]
        assert res["mismatches_above_threshold"] == []

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("spelling", ["\u0668:9", "08:9", "+8:9", "8:+9", "8:0_9"])
    def test_ranges_echo_as_parsed(self, capsys, spelling, mode):
        # A range echoes as the integers it parsed to, as a single command's flags do.
        grid = ["--q", "1:1", "--m", "2:2", "--n", "2:2", *mode]
        canonical = run(capsys, "sweep", "cable", "--p", "8:9", *grid)
        assert canonical[0] == 0 and "8:9" in canonical[1]
        assert run(capsys, "sweep", "cable", "--p", spelling, *grid) == canonical

    def test_parallel_matches_serial(self, capsys):
        args = ["sweep", "boundary-kernel", "--p", "2:20", "--q", "1:19", "--w", "0:10"]
        code1, p1, raw1 = run_json(capsys, *args)
        code2, p2, raw2 = run_json(capsys, *args, "--jobs", "2")
        assert (code1, p1["results"]) == (code2, p2["results"])
        assert raw1 == raw2

    def test_twist_sweep_negative_range(self, capsys):
        code, payload, _ = run_json(
            capsys, "sweep", "twist", "--a", "1:2", "--b", "1:2", "--n=-2:2"
        )
        assert code == 0
        assert payload["results"]["points"] == 16  # n = 0 skipped
        assert payload["results"]["mismatches"] == []

    def test_stab_sweep(self, capsys):
        code, payload, _ = run_json(
            capsys, "sweep", "stab", "--p", "10:40", "--q", "1:2", "--k", "1:3"
        )
        assert code == 0
        assert payload["results"]["certified"] == payload["results"]["points"]

    def test_iterated_sweep(self, capsys):
        code, payload, _ = run_json(
            capsys, "sweep", "iterated", "--p", "32:80", "--q", "1:1", "--ms", "2,2,2"
        )
        assert code == 0
        assert payload["results"]["mismatches_above_threshold"] == []

    # Admissible (p, q): coprime p > q.  For (p, q) in 7:10 x 1:2 that is
    # p = 7..10 with q = 1 and p = 7, 9 with q = 2; in 2:6 x 1:3 it is
    # five pairs with q = 1 and two each with q = 2 and q = 3.
    @pytest.mark.parametrize(
        "argv, points",
        [
            # p - qmn >= 1: all 4 pairs with q = 1 for mn = 4 and 6, only
            # p = 9 with q = 2 and mn = 4.  m = 1 is no cable.
            (["cable", "--p", "7:10", "--q", "1:2", "--m", "1:3", "--n", "2:2"], 4 + 4 + 1),
            # W = 4 < p and p - 4q >= 1: p = 5..12 with q = 1, p = 9, 11 with q = 2.
            (["iterated", "--p", "5:12", "--q", "1:2", "--ms", "2,2"], 8 + 2),
            # p >= 2q(k+4): p = 10..20 for k = 1, p = 12..20 for k = 2 (q = 1);
            # q = 2 needs p >= 20 and odd.
            (["stab", "--p", "10:20", "--q", "1:2", "--k", "1:2"], 11 + 9),
            # Every winding number w >= 0 is admissible.
            (["boundary-kernel", "--p", "2:6", "--q", "1:3", "--w", "0:2"], 9 * 3),
            # n != 0.
            (["twist", "--a", "1:2", "--b", "1:1", "--n=-1:1"], 2 * 1 * 2),
        ],
    )
    def test_points_follow_family_hypotheses(self, capsys, argv, points):
        code, payload, _ = run_json(capsys, "sweep", *argv)
        assert code == 0
        assert payload["results"]["points"] == points

    @pytest.mark.parametrize(
        "build",
        [
            lambda: LensSpace(4, 2),
            lambda: IteratedCableParams(LensSpace(8, 1), (1, 2)),
            lambda: IteratedCableParams(LensSpace(8, 1), (2, 4)),
            lambda: WindingData(LensSpace(8, 1), -1),
            lambda: StabFamily(LensSpace(9, 1), 1),
            lambda: TwistParams(1, 1, 0),
            # p - qW < 1, a cable's W = mn included: the pieces' cone orders.
            lambda: IteratedCableParams(LensSpace(7, 2), (2, 2)),
            lambda: IteratedCableParams(LensSpace(5, 2), (3, 2)),
            lambda: IteratedCableParams(LensSpace(7, 3), (3, 2)),
        ],
    )
    def test_skip_rule_is_domain_error(self, build):
        # The sweep skips a point exactly when one of these constructors rejects it.
        with pytest.raises(DomainError):
            build()

    def test_cable_skips_m_equal_one(self, capsys):
        grid = ["--p", "8:40", "--q", "1:3", "--n", "2:3"]
        code, with_one, _ = run_json(capsys, "sweep", "cable", "--m", "1:3", *grid)
        assert code == 0
        _, without, _ = run_json(capsys, "sweep", "cable", "--m", "2:3", *grid)
        assert with_one["results"] == without["results"]

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["iterated", "--p", "32:40", "--q", "1:1", "--ms", "1,2"],
             "all cabling parameters must be >= 2"),
            (["stab", "--p", "2:9", "--q", "1:1", "--k", "1:1"], "p >= 2q(k+4) fails"),
            (["boundary-kernel", "--p", "4:4", "--q", "2:2", "--w", "0:3"], "coprime"),
            # Every (p, q) block is rejected whole: the reason is LensSpace's.
            (["boundary-kernel", "--p", "5:6", "--q", "6:7", "--w", "0:3"],
             "error: need p > q >= 1, got (p, q) = (5, 6)\n"),
            (["cable", "--p", "7:7", "--q", "2:2", "--m", "2:2", "--n", "2:2"],
             "hypothesis p - qW >= 1 fails: p - qW = -1"),
            (["iterated", "--p", "8:8", "--q", "1:1", "--ms", "3,3"],
             "hypothesis p - qW >= 1 fails: p - qW = -1"),
        ],
    )
    def test_no_admissible_point_exits_1(self, capsys, argv, reason):
        code, out, err = run(capsys, "sweep", *argv)
        assert code == 1
        assert out == ""
        assert reason in err

    def test_failed_cross_check_is_not_skipped(self, capsys, monkeypatch):
        real = exactarith.peripheral_kernel

        def rank_two_at_w2(rows, mu_col, lambda_col):
            if rows[0][0] == 2:  # the first row is (w, 0, 0, -1)
                raise ValueError("peripheral kernel is not cyclic of rank 1 (rank 2)")
            return real(rows, mu_col, lambda_col)

        monkeypatch.setattr(exactarith, "peripheral_kernel", rank_two_at_w2)
        code, _, err = run(
            capsys, "sweep", "boundary-kernel", "--p", "2:8", "--q", "1:3", "--w", "0:2"
        )
        assert code == 3
        assert "not cyclic" in err

    def test_boundary_kernel_sweep_builds_no_matrix(self, capsys, monkeypatch):
        # The oracle folds the presentation's row tuples as given: no point
        # builds or validates a matrix.
        matrices = []
        real_post_init = exactarith.IntMatrix.__post_init__
        monkeypatch.setattr(exactarith.IntMatrix, "__post_init__",
                            lambda m: matrices.append((m.rows, m.cols)) or real_post_init(m))
        code, payload, _ = run_json(
            capsys, "sweep", "boundary-kernel", "--p", "2:12", "--q", "1:11", "--w", "0:4"
        )
        assert code == 0
        assert payload["results"]["agreements"] == payload["results"]["points"] > 0
        assert matrices == []
        exactarith.IntMatrix(1, 1, (1,))  # the hook does count a matrix
        assert matrices == [(1, 1)]

    def test_iterated_point_carries_its_list_whole(self, capsys, monkeypatch):
        # The list is one value of one axis, not one axis per entry: every
        # point is (p, q, ms), whatever the depth.
        command, points = cli.COMMANDS["iterated"], []
        monkeypatch.setitem(cli.COMMANDS, "iterated", command._replace(
            evaluate=lambda *values: points.append(values) or command.evaluate(*values)))
        code, payload, _ = run_json(
            capsys, "sweep", "iterated", "--p", "9:40", "--q", "1:2", "--ms", "2,2,2"
        )
        assert code == 0
        assert payload["inputs"]["ms"] == [2, 2, 2]
        assert points == [(p, q, (2, 2, 2)) for p in range(9, 41) for q in (1, 2)]

    def test_iterated_mismatch_keeps_full_params(self, capsys, monkeypatch):
        real = cables.iterated_verdict
        monkeypatch.setattr(
            cables,
            "iterated_verdict",
            lambda ic: real(ic)._replace(norms_equal=False),
        )
        code, payload, _ = run_json(
            capsys, "sweep", "iterated", "--p", "32:33", "--q", "1:1", "--ms", "2,2,2"
        )
        assert code == 3
        mismatches = payload["results"]["mismatches_above_threshold"]
        assert [r["params"] for r in mismatches] == [[32, 1, 2, 2, 2], [33, 1, 2, 2, 2]]

    def test_failed_twist_homology_exits_3(self, capsys, monkeypatch):
        # Move gamma to class 1 on the one homology path the verdict reads.
        real = twistfamily.twist_homology
        monkeypatch.setattr(twistfamily, "twist_homology", lambda fl: (real(fl)[0], 1))
        code, payload, _ = run_json(
            capsys, "sweep", "twist", "--a", "1:1", "--b", "1:1", "--n", "1:2"
        )
        assert code == 3
        mismatches = payload["results"]["mismatches"]
        assert [r["params"] for r in mismatches] == [[1, 1, 1], [1, 1, 2]]
        code, _, err = run(capsys, "twist", "--a", "1", "--b", "1", "--n", "1")
        assert code == 3
        assert "homology check failed" in err

    @pytest.mark.parametrize("jobs, host, workers", [
        # An int or None is os.cpu_count() on a host without sched_getaffinity.
        (64, 3, 3), (2, 8, 2), (4, None, None),
        # The affinity mask caps the workers where it exists: under taskset -c 0,
        # --jobs 2 runs serial on a host of 8 CPUs.
        pytest.param(2, {"affinity": 1, "cpu_count": 8}, None, id="taskset-one-cpu"),
        pytest.param(64, {"affinity": 3, "cpu_count": 8}, 3, id="affinity-of-3"),
        pytest.param(4, {"affinity": 4, "cpu_count": 8, "fork": False}, None, id="no-fork"),
    ])
    def test_pool_is_capped_at_cpu_count(self, capsys, monkeypatch, slab_log, jobs, host,
                                         workers):
        host = host if isinstance(host, dict) else {"cpu_count": host}
        grid = ["sweep", "stab", "--p", "10:30", "--q", "1:2", "--k", "1:2"]
        _, _, serial = run_json(capsys, *grid)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: host["cpu_count"])
        if "affinity" in host:
            usable_cpus(monkeypatch, host["affinity"])
        else:
            monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        if not host.get("fork", True):
            monkeypatch.delattr(cli.os, "fork")
        code, _, pooled = run_json(capsys, *grid, "--jobs", str(jobs))
        assert code == 0
        assert pooled == serial
        # None is the serial path: one slab, and nothing forks.
        assert len(slab_log.forks) == (workers or 1) - 1
        assert len(slab_log.slabs) == (workers * cli.SLABS_PER_WORKER if workers else 1)

    @pytest.mark.parametrize("target, grid", [
        ("cable", ["--p", "7:40", "--q", "1:3", "--m", "2:3", "--n", "2:3"]),
        ("iterated", ["--p", "9:60", "--q", "1:3", "--ms", "2,2"]),
        ("stab", ["--p", "10:40", "--q", "1:3", "--k", "1:3"]),
        ("twist", ["--a", "1:3", "--b", "1:3", "--n=-3:3"]),
        ("boundary-kernel", ["--p", "2:12", "--q", "1:11", "--w", "0:4"]),
    ])
    def test_pooled_slabs_merge_to_serial(self, capsys, monkeypatch, slab_log, target, grid):
        command = cli.COMMANDS[target]

        def fails_on_every_third_sum(*values):
            verdict, code = command.evaluate(*values)
            return verdict, (3 if sum(flat(values)) % 3 == 0 else code)

        monkeypatch.setitem(cli.COMMANDS, target, command._replace(evaluate=fails_on_every_third_sum))
        code, payload, serial = run_json(capsys, "sweep", target, *grid)
        assert code == 3
        usable_cpus(monkeypatch, 2)
        code, _, pooled = run_json(capsys, "sweep", target, *grid, "--jobs", "2")
        assert code == 3
        assert pooled == serial
        assert len(slab_log.forks) == 1
        # Each slab returned only its summary, and mismatches came from several.
        slabs = slab_log.slabs
        assert len(slabs) == 2 * cli.SLABS_PER_WORKER
        key = "mismatches" if "mismatches" in slabs[0] else "mismatches_above_threshold"
        assert sum(1 for s in slabs if s[key]) > 2
        assert all(set(s) == set(payload["results"]) for s in slabs)
        params = [r["params"] for r in payload["results"][key]]
        assert params == sorted(params)  # grid order: product() of ascending ranges

    def test_runner_returns_spans_in_order_from_distinct_pids(self):
        spans = [range(k, k + 1) for k in range(10)]
        results = cli._run_slabs(lambda span: {"span": span, "pid": os.getpid()}, spans, 3)
        assert [r["span"] for r in results] == spans
        pids = [r["pid"] for r in results]
        assert len(set(pids)) == 3
        assert pids[0] == os.getpid()
        # Process i computed the interleaved spans i, i + 3, ...
        assert pids == [pids[k % 3] for k in range(10)]
        assert_no_child_left()

    # Each failing point has an admissible (p, q): the sweep never hands
    # the evaluator a (p, q) that LensSpace rejects.
    @pytest.mark.parametrize("indices, first", [
        ([2], 2),  # in the parent's share
        ([20], 20),  # in the child's share
        # Both fail: the earliest point's error is the one a serial run prints.
        ([20, 37], 20),
        ([2, 20], 2),
    ])
    def test_failing_point_exits_3_and_leaves_no_child(self, capsys, monkeypatch, slab_log,
                                                       indices, first):
        # 279 points in 16 slabs of 17 or 18: slabs 0 and 2 are the parent's, slab 1 the child's.
        points = [stab_grid_point(i) for i in indices]
        parent = os.getpid()

        def no_route(*values):
            side = "parent" if os.getpid() == parent else "child"
            raise ValueError(f"no route at {list(values)} in the {side}")

        fail_in_stab_sweep(monkeypatch, lambda values: list(values) in points, no_route)
        _, _, serial = run(capsys, "sweep", "stab", *STAB_GRID, "--jobs", "1")
        code, out, err = run(capsys, "sweep", "stab", *STAB_GRID, "--jobs", "2")
        assert (code, out) == (3, "")
        # A failed parallel sweep is replayed by the parent alone.
        assert err == serial == ("internal consistency failure: ValueError: no route at "
                                 f"{stab_grid_point(first)} in the parent\n")
        assert len(slab_log.forks) == 1
        assert_no_child_left()

    @pytest.mark.parametrize("cpus", [2, 4])
    def test_failed_fork_falls_back_to_serial(self, capsys, monkeypatch, cpus):
        _, _, serial = run_json(capsys, "sweep", "stab", *STAB_GRID)
        real_fork, forks = os.fork, []

        def fork():  # the last fork fails, after cpus - 2 real children
            forks.append(None)
            if len(forks) == cpus - 1:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            return real_fork()

        monkeypatch.setattr(cli.os, "fork", fork)
        usable_cpus(monkeypatch, cpus)
        code, _, pooled = run_json(capsys, "sweep", "stab", *STAB_GRID, "--jobs", str(cpus))
        assert (code, pooled) == (0, serial)
        assert len(forks) == cpus - 1
        assert_no_child_left()

    @pytest.mark.parametrize("workers, fail", [(3, "share"), (4, "fork")])
    def test_failed_run_with_full_pipes_returns(self, workers, fail):
        # Every child's share overfills its pipe.  Were a child to hold a
        # sibling's read end, the parent would wait on the child forever.
        run_failing_runner(workers, fail)

    def test_failed_run_stops_sleeping_children(self):
        # The parent's first slab raises while the child sleeps for ten
        # minutes in its share: the runner kills it instead of waiting.
        run_failing_runner(2, "sleep")

    def test_interrupted_run_stops_sleeping_children(self):
        # SIGINT reaches the parent alone (as kill -INT sends it) while the
        # child sleeps for ten minutes in its share: the runner kills the
        # child and re-raises at once, without replaying the spans.
        proc = subprocess.Popen([sys.executable, "-c", RUNNER_INTERRUPTED], env=source_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            ready = proc.stdout.readline()
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the script and every child it forked
            proc.communicate()
            pytest.fail("the runner waited for its children after an interrupt")
        assert ready == "ready\n", err
        assert (proc.returncode, out) == (0, "interrupted after 1 span, no child left\n"), err

    def test_unpicklable_child_exception_keeps_its_line(self, capsys, monkeypatch, slab_log):
        class LocalError(Exception):  # a local class does not pickle
            pass

        def raise_local(*values):
            raise LocalError(f"lost at {list(values)}")

        point = stab_grid_point(20)
        fail_in_stab_sweep(monkeypatch, lambda values: list(values) == point, raise_local)
        code, out, err = run(capsys, "sweep", "stab", *STAB_GRID, "--jobs", "2")
        assert (code, out) == (3, "")
        assert err == f"internal consistency failure: LocalError: lost at {point}\n"
        assert_no_child_left()

    def test_child_without_result_replays_serially(self, capsys, monkeypatch, slab_log):
        parent = os.getpid()
        fail_in_stab_sweep(monkeypatch, lambda values: os.getpid() != parent,
                           lambda *values: os._exit(7))
        _, _, serial = run_json(capsys, "sweep", "stab", *STAB_GRID, "--jobs", "1")
        code, _, pooled = run_json(capsys, "sweep", "stab", *STAB_GRID, "--jobs", "2")
        # The child's empty pipe does not unpickle, so the parent runs every slab.
        assert (code, pooled) == (0, serial)
        assert len(slab_log.forks) == 1
        assert_no_child_left()


STAB_GRID = ["--p", "10:40", "--q", "1:3", "--k", "1:3"]

#: ``_run_slabs`` over 2 spans per worker, each result 70,000 bytes, so a
#: child's share is more than a 64 KiB pipe holds.  Either the parent's
#: first slab raises once ("share"; with "sleep" each child also sleeps ten
#: minutes in its share) or the last fork fails; either way the runner
#: replays every span in the parent.
RUNNER_WITH_FULL_PIPES = """
import os
import time
from lensgenus import cli

WORKERS, FAIL = {workers}, {fail!r}
parent, real_fork, forks, calls = os.getpid(), os.fork, [], []

def fork():
    forks.append(None)
    if FAIL == "fork" and len(forks) == WORKERS - 1:
        raise BlockingIOError(11, "Resource temporarily unavailable")
    return real_fork()

def worker(span):
    calls.append(span)
    if FAIL in ("share", "sleep") and os.getpid() == parent and len(calls) == 1:
        raise ValueError("the parent's first slab")
    if FAIL == "sleep" and os.getpid() != parent:
        time.sleep(600)
    return "x" * 70_000

os.fork = fork
spans = [range(k, k + 1) for k in range(2 * WORKERS)]
assert cli._run_slabs(worker, spans, WORKERS) == ["x" * 70_000] * len(spans)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("returned, no child left")
"""


#: ``_run_slabs`` over 4 spans on 2 workers; every span sleeps ten minutes,
#: and the parent says "ready" in its first.  An interrupt there must end
#: the run with no child left and no span replayed.
RUNNER_INTERRUPTED = """
import os
import time
from lensgenus import cli

parent, calls = os.getpid(), []

def worker(span):
    calls.append(span)
    if os.getpid() == parent:
        print("ready", flush=True)
    time.sleep(600)

try:
    cli._run_slabs(worker, [range(k, k + 1) for k in range(4)], 2)
except KeyboardInterrupt:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print(f"interrupted after {len(calls)} span, no child left")
"""


def run_failing_runner(workers, fail):
    """Run ``RUNNER_WITH_FULL_PIPES`` in its own session; fail if it is not done in 30 s."""
    script = RUNNER_WITH_FULL_PIPES.format(workers=workers, fail=fail)
    proc = subprocess.Popen([sys.executable, "-c", script], env=source_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the script and every child it forked
        proc.communicate()
        pytest.fail(f"the runner hung after a failed {fail}")
    assert (proc.returncode, out) == (0, "returned, no child left\n"), err


def source_env():
    """The environment with this checkout's ``src`` first on ``PYTHONPATH``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def stab_grid_point(index):
    """The point at ``index`` in the grid order of ``STAB_GRID``."""
    return list(next(islice(product(range(10, 41), range(1, 4), range(1, 4)), index, None)))


def fail_in_stab_sweep(monkeypatch, where, fail):
    """Run ``fail`` instead of the stab evaluator at the points ``where`` holds, on 2 CPUs."""
    command = cli.COMMANDS["stab"]

    def evaluate(*values):
        return (fail if where(values) else command.evaluate)(*values)

    monkeypatch.setitem(cli.COMMANDS, "stab", command._replace(evaluate=evaluate))
    usable_cpus(monkeypatch, 2)


# One grid per sweep target, a point of it, and that point as a single command
# (boundary-kernel sweeps always run the oracle).  The cable and iterated
# grids start with a point below threshold, which exits 2 and is no mismatch.
# A point is the evaluator's arguments, so iterated's list is one coordinate.
TABLE_CASES = [
    ("cable", ["--p", "7:12", "--q", "1:1", "--m", "2:2", "--n", "2:2"], [9, 1, 2, 2],
     ["cable", "--p", "9", "--q", "1", "--m", "2", "--n", "2"]),
    ("iterated", ["--p", "31:34", "--q", "1:1", "--ms", "2,2,2"], [33, 1, (2, 2, 2)],
     ["iterated", "--p", "33", "--q", "1", "--ms", "2,2,2"]),
    ("stab", ["--p", "10:12", "--q", "1:1", "--k", "1:1"], [11, 1, 1],
     ["stab", "--p", "11", "--q", "1", "--k", "1"]),
    ("twist", ["--a", "1:2", "--b", "1:1", "--n", "1:1"], [2, 1, 1],
     ["twist", "--a", "2", "--b", "1", "--n", "1"]),
    ("boundary-kernel", ["--p", "7:8", "--q", "1:2", "--w", "0:1"], [7, 2, 1],
     ["boundary-kernel", "--p", "7", "--q", "2", "--w", "1", "--oracle"]),
]


def doubled_summands(real, point):
    """``iterated_summands`` with every piece counted twice in L(p, q), p = point[0]."""
    return lambda c: real(c) * (2 if c.ambient.p == point[0] else 1)


def doubled_torus_norm(real, point):
    """``torus_knot_theta`` with twice the norm in L(p, q), p = point[0]; theta follows it."""
    def route(space, k):
        r = real(space, k)
        if space.p != point[0]:
            return r
        return r._replace(chi_minus=2 * r.chi_minus)
    return route


def moved_gamma(real, point):
    """``twist_homology`` with gamma one class further on where a = point[0]."""
    def route(fl):
        group, cls = real(fl)
        # The Acircle component is framed -1/a.
        return group, cls + (fl.components[1].framing == Fraction(-1, point[0]))
    return route


def doubled_kernel(real, point):
    """``peripheral_kernel`` at the presentation of ``point``: twice its generator.

    Twice the generator still bounds, so the pair is valid but not the kernel's.
    """
    presentation = complement.presentation_matrix(WindingData(LensSpace(*point[:2]), point[2]))

    def route(rows, mu_col, lambda_col):
        x, y = real(rows, mu_col, lambda_col)
        return (2 * x, 2 * y) if rows == presentation else (x, y)
    return route


def cable_certifies(p, q, m, n):
    """Whether the library certifies the cable at (p, q, m, n) a minimizer or non-simple."""
    v = cables.iterated_verdict(IteratedCableParams(LensSpace(p, q), (m, n)))
    return v.certified_minimizer or v.certified_nonsimple


def iterated_certifies(p, q, ms):
    """Whether the library certifies the iterated cable at (p, q, ms) a minimizer."""
    return cables.iterated_verdict(IteratedCableParams(LensSpace(p, q), ms)).certified_minimizer


def bk_agrees(p, q, w):
    """Whether the boundary-kernel oracle finds the closed form at (p, q, w)."""
    data = WindingData(LensSpace(p, q), w)
    found = exactarith.peripheral_kernel(complement.presentation_matrix(data), 0, 1)
    return found == tuple(complement.boundary_kernel(data))


# One route of a verdict, by test id, perturbed at the point of that target's
# TABLE_CASES entry: the target, the module attribute the verdict reads, how
# to perturb it, the sweep counts (certified, out of), the certification that
# fails, and whether the library certifies a point.
PERTURBED_ROUTES = {
    "cable": ("cable", cables, "iterated_summands", doubled_summands,
              ("norms_equal_above_threshold", "threshold_met"), "minimizer",
              cable_certifies),
    "cable-torus-route": ("cable", cables, "torus_knot_theta", doubled_torus_norm,
                          ("norms_equal_above_threshold", "threshold_met"), "minimizer",
                          cable_certifies),
    "iterated": ("iterated", cables, "torus_knot_theta", doubled_torus_norm,
                 ("norms_equal_above_threshold", "threshold_met"), "minimizer",
                 iterated_certifies),
    "iterated-summand-route": ("iterated", cables, "iterated_summands", doubled_summands,
                               ("norms_equal_above_threshold", "threshold_met"), "minimizer",
                               iterated_certifies),
    "stab": ("stab", stabilization, "torus_knot_theta", doubled_torus_norm,
             ("certified", "points"), "minimizer",
             lambda p, q, k: stabilization.stab_verdict(
                 StabFamily(LensSpace(p, q), k)).certified_minimizer),
    "twist": ("twist", twistfamily, "twist_homology", moved_gamma,
              ("homology_checks_passed", "points"), "homology",
              lambda a, b, n: twistfamily.twist_verdict(TwistParams(a, b, n)).holds),
    "boundary-kernel": ("boundary-kernel", exactarith, "peripheral_kernel", doubled_kernel,
                        ("agreements", "points"), "oracle_agreement", bk_agrees),
}


class TestCommandTable:
    @pytest.mark.parametrize("target, grid, point, single", TABLE_CASES)
    def test_mismatch_is_evaluator_exit_3(self, capsys, monkeypatch, target, grid, point, single):
        code, expected, _ = run_json(capsys, *single)
        assert code == 0
        command = cli.COMMANDS[target]

        def fails_at_point(*values):
            verdict, code = command.evaluate(*values)
            return verdict, (3 if list(values) == point else code)

        monkeypatch.setitem(cli.COMMANDS, target, command._replace(evaluate=fails_at_point))
        code, payload, _ = run_json(capsys, "sweep", target, *grid)
        assert code == 3
        results = payload["results"]
        mismatches = results.get("mismatches", results.get("mismatches_above_threshold"))
        # Only that point, and its record is the single command's results.
        assert mismatches == [{"params": flat(point), **expected["results"]}]

    @pytest.mark.parametrize("target, grid, point, single", TABLE_CASES)
    def test_clean_sweep_reports_no_point(self, capsys, monkeypatch, target, grid, point,
                                          single):
        # A point's verdict is all its summary reads: without a mismatch no
        # point runs its report, and the one envelope is the sweep's.
        command, reports, envelopes = cli.COMMANDS[target], [], []
        monkeypatch.setitem(cli.COMMANDS, target, command._replace(
            report=lambda verdict: reports.append(verdict) or command.report(verdict)))
        real = cli.envelope
        monkeypatch.setattr(cli, "envelope", lambda *args: envelopes.append(args[0]) or real(*args))
        code, payload, _ = run_json(capsys, "sweep", target, *grid)
        assert code == 0
        assert payload["results"]["points"] > 1
        assert (reports, envelopes) == ([], ["sweep"])

    @pytest.mark.parametrize("target, module, route, perturb, counts, check, certifies",
                             list(PERTURBED_ROUTES.values()), ids=list(PERTURBED_ROUTES))
    def test_disagreeing_routes_are_a_mismatch(self, capsys, monkeypatch, slab_log,
                                               target, module, route, perturb, counts,
                                               check, certifies):
        _, grid, point, single = next(case for case in TABLE_CASES if case[0] == target)
        monkeypatch.setattr(module, route, perturb(getattr(module, route), point))
        # The library reports the disagreement instead of raising it.
        assert not certifies(*point)
        command = cli.COMMANDS[target]
        verdict, code = command.evaluate(*point)
        env = command.report(verdict)
        assert code == 3
        code, payload, serial = run_json(capsys, "sweep", target, *grid)
        assert code == 3
        results = payload["results"]
        mismatches = results.get("mismatches", results.get("mismatches_above_threshold"))
        # The report keeps rationals as Fractions; compare the JSON both print.
        assert canonical_json(mismatches) == canonical_json([{"params": flat(point),
                                                              **env["results"]}])
        certified, of = counts
        assert results[certified] == results[of] - 1
        usable_cpus(monkeypatch, 2)
        code, _, pooled = run_json(capsys, "sweep", target, *grid, "--jobs", "2")
        assert (code, pooled) == (3, serial)
        assert len(slab_log.forks) == 1
        assert_no_child_left()
        code, out, err = run(capsys, *single)
        assert (code, out) == (3, "")
        assert check in err

    @pytest.mark.parametrize("target, grid, point, single", TABLE_CASES)
    def test_sweep_takes_only_its_own_flags(self, capsys, target, grid, point, single):
        foreign = "--k" if target != "stab" else "--w"
        code, out, err = run(capsys, "sweep", target, *grid, foreign, "1:2")
        assert code == 1
        assert out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cable", "--p", "7", "--q", "1"], "required: --m, --n"),
            (["cable", "--p", "x", "--q", "1", "--m", "2", "--n", "2"], "invalid int value"),
            (["iterated", "--p", "32", "--q", "1", "--ms", "2,x"], "--ms"),
            (["sweep", "stab", "--p", "10:20", "--q", "1:2"], "required: --k"),
            (["sweep", "--jobs", "2", "stab", "--p", "10:20", "--q", "1:2", "--k", "1:2"],
             "invalid choice"),
            (["frobnicate"], "invalid choice"),
            # Flags are never abbreviated: --m is not --ms and --jo is not --jobs.
            (["sweep", "iterated", "--p", "32:40", "--q", "1:1", "--m", "2,2,2", "--jo", "2"],
             "required: --ms"),
            (["sweep", "iterated", "--p", "32:40", "--q", "1:1", "--ms", "2,2,2", "--jo", "2"],
             "unrecognized arguments: --jo 2"),
            (["iterated", "--p", "32", "--q", "1", "--ms", "2,,2"],
             "argument --ms: expected comma-separated integers like 2,2,2, got '2,,2'"),
            (["sweep", "cable", "--p", "8:", "--q", "1:1", "--m", "2:2", "--n", "2:2"],
             "--p must be an integer range lo:hi like 8:60, got '8:'"),
            (["sweep", "cable", "--p", "a:b", "--q", "1:1", "--m", "2:2", "--n", "2:2"],
             "--p must be an integer range lo:hi like 8:60, got 'a:b'"),
            (["theta", "--p", "8", "--q", "1", "--class", "8"], "class 8 outside [0, 7]"),
            (["theta", "--p", "8", "--q", "1", "--class=-1"], "class -1 outside [0, 7]"),
            # LensSpace(2k, 1) holds the rule k >= 1, since 2k > 1 exactly when k >= 1.
            (["order2", "--k", "0"], "need p > q >= 1, got (p, q) = (0, 1)"),
            (["order2", "--k=-2"], "need p > q >= 1, got (p, q) = (-4, 1)"),
        ],
    )
    def test_usage_error_exits_1(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("argv", [["--help"], ["cable", "--help"], ["sweep", "twist", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: lensgenus" in capsys.readouterr().out


#: Flag values after ``p, q`` for each command whose flags begin with them,
#: every one invalid on its own: a class out of range, m = 1, n = 0, an
#: ``ms`` entry below 2, k = 0, w = -1.
INVALID_REST = {
    "simple-knot": [(9,), (-1,)],
    "theta": [(9,), (-1,)],
    "cable": [(1, 2), (2, 0)],
    "iterated": [((1,),), ((2, 1),)],
    "stab": [(0,)],
    "boundary-kernel": [(-1,)],
}

#: Grids with rejected (p, q) blocks (q >= p, or gcd(p, q) > 1), as sweep
#: flags with their axes.
BLOCK_GRIDS = [
    ("boundary-kernel", ["--p", "2:12", "--q", "1:11", "--w", "0:4"],
     [range(2, 13), range(1, 12), range(0, 5)]),
    ("cable", ["--p", "7:20", "--q", "1:4", "--m", "2:3", "--n", "2:3"],
     [range(7, 21), range(1, 5), range(2, 4), range(2, 4)]),
]


def lens_rejects(p, q):
    try:
        LensSpace(p, q)
    except DomainError:
        return True
    return False


def mismatch_every_third(real):
    """``real`` that exits 3 where the point's sum is a multiple of 3."""
    def evaluate(*values):
        verdict, code = real(*values)
        return verdict, (3 if sum(values) % 3 == 0 else code)
    return evaluate


class TestLensBlocks:
    """A sweep skips a (p, q) that LensSpace rejects once for its whole block."""

    def test_every_pq_command_has_cases(self):
        pq = {name for name, cmd in cli.COMMANDS.items() if cmd.flags[:2] == ("p", "q")}
        assert pq == set(INVALID_REST)

    @pytest.mark.parametrize("name, rest", [(n, r) for n, rs in INVALID_REST.items() for r in rs])
    @pytest.mark.parametrize("p, q", [(6, 4), (5, 7), (1, 1)])
    def test_evaluator_rejects_pq_first(self, name, rest, p, q):
        # The invariant the block skip rests on: LensSpace's own error, first.
        with pytest.raises(DomainError) as lens:
            LensSpace(p, q)
        with pytest.raises(DomainError) as got:
            cli.COMMANDS[name].evaluate(p, q, *rest)
        assert str(got.value) == str(lens.value)

    @pytest.mark.parametrize("target, grid, axes", BLOCK_GRIDS)
    def test_skipping_blocks_changes_no_result(self, capsys, monkeypatch, target, grid, axes):
        command = cli.COMMANDS[target]
        marked = mismatch_every_third(command.evaluate)
        # The reference: every candidate through the real evaluator, in grid order.
        mismatches, verdicts = [], []
        for point in product(*axes):
            try:
                verdict, code = marked(*point)
            except DomainError:
                continue
            verdicts.append(verdict)
            if code == 3:
                mismatches.append({"params": list(point), **command.report(verdict)["results"]})
        expected = json.loads(canonical_json(command.summary(iter(verdicts), mismatches)))
        assert mismatches

        def evaluate(*values):
            if lens_rejects(*values[:2]):
                raise AssertionError(f"evaluator received {list(values)}")
            return marked(*values)

        monkeypatch.setitem(cli.COMMANDS, target, command._replace(evaluate=evaluate))
        spans, real_runner = [], cli._run_slabs

        def runner(worker, slab_spans, workers):
            spans.extend(slab_spans)
            return real_runner(worker, slab_spans, workers)

        monkeypatch.setattr(cli, "_run_slabs", runner)
        usable_cpus(monkeypatch, 3)
        outs = []
        for jobs in ("1", "2", "3"):
            code, out, err = run(capsys, "sweep", target, *grid, "--jobs", jobs, "--json")
            assert (code, err) == (3, "")
            assert json.loads(out)["results"] == expected
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]
        # Some slab starts inside a rejected block.
        block = prod(len(axis) for axis in axes[2:])
        pairs = list(product(*axes[:2]))
        assert any(s.start % block and lens_rejects(*pairs[s.start // block]) for s in spans)
        assert_no_child_left()


#: One call of each single command, as in the README.
SINGLE_COMMANDS = [
    ["simple-knot", "--p", "8", "--q", "1", "--class", "4"],
    ["theta", "--p", "8", "--q", "1", "--class", "4"],
    ["cable", "--p", "8", "--q", "1", "--m", "2", "--n", "2"],
    ["iterated", "--p", "32", "--q", "1", "--ms", "2,2,2"],
    ["stab", "--p", "10", "--q", "1", "--k", "1"],
    ["order2", "--k", "4"],
    ["twist", "--a", "1", "--b", "1", "--n", "1"],
    ["boundary-kernel", "--p", "8", "--q", "1", "--w", "4"],
]


class Unprintable:
    """A result value that renders neither as text nor as JSON."""

    def __str__(self):
        raise ValueError("this value cannot be rendered")


class TestOneReportShape:
    def test_report_half_runs_once_on_the_verdict(self, capsys, monkeypatch):
        # Every command: the evaluator's verdict goes to its report once,
        # and the one envelope is built from the command's name.
        assert sorted(argv[0] for argv in SINGLE_COMMANDS) == sorted(cli.COMMANDS)
        real = cli.envelope
        for name, *flags in SINGLE_COMMANDS:
            command, verdicts, reported, envelopes = cli.COMMANDS[name], [], [], []

            def evaluate(*values):
                verdicts.append(command.evaluate(*values))
                return verdicts[-1]

            def report(verdict):
                reported.append(verdict)
                return command.report(verdict)

            monkeypatch.setitem(cli.COMMANDS, name,
                                command._replace(evaluate=evaluate, report=report))
            monkeypatch.setattr(cli, "envelope", lambda *args, **kwargs:
                                envelopes.append(args[0]) or real(*args, **kwargs))
            code, out, err = run(capsys, name, *flags)
            assert code in (0, 2) and out.startswith(f"command: {name}\n"), err
            [(verdict, _)] = verdicts
            assert len(reported) == 1 and reported[0] is verdict, name
            assert envelopes == [name]

    def test_text_prints_results_in_row_order(self, capsys):
        # A command's rows are the one place its keys are written, and the
        # text form prints its results in their order.
        for name, *flags in SINGLE_COMMANDS:
            report = cli.COMMANDS[name].report
            if not isinstance(report, cli.Report):
                report = cli._THETA_TORUS  # theta's choice for a class past 0
            code, out, err = run(capsys, name, *flags)
            printed = out.split("results:\n")[1].split("\ncertifications:")[0].splitlines()
            assert [line.split(" = ")[0].strip() for line in printed] == \
                [key for key, _ in report.results], name

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_report_that_fails_to_render_prints_nothing(self, capsys, monkeypatch, mode):
        real = cables.iterated_verdict
        monkeypatch.setattr(cables, "iterated_verdict",
                            lambda c: real(c)._replace(homology_class=Unprintable()))
        code, out, err = run(capsys, "cable", "--p", "8", "--q", "1", "--m", "2", "--n", "2",
                             *mode)
        assert (code, out) == (3, "")
        assert err.startswith("internal consistency failure: ")


@pytest.fixture
def default_digit_limit():
    """Python's default limit of 4,300 digits on int-to-str conversion, for one test."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Python 3.10.6 and older: no limit
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


#: Every single command and sweep target with the integer X, and its exit code.
#: The cable with m = n = X is refused: p - qW < 1, a message with a huge number.
HUGE_INTEGER_CASES = [
    ("simple-knot --p X --q 1 --class 5", 0),
    ("theta --p X --q 1 --class 5", 0),
    ("cable --p X --q 1 --m 2 --n 2", 0),
    ("cable --p 5 --q 1 --m X --n X", 1),
    ("iterated --p X --q 1 --ms 2,2,2", 0),
    ("stab --p X --q 1 --k 1", 0),
    ("order2 --k X", 2),
    ("twist --a X --b 1 --n 1", 0),
    ("boundary-kernel --p X --q 1 --w 4 --oracle", 0),
    ("sweep cable --p X:X --q 1:1 --m 2:2 --n 2:2", 0),
    ("sweep iterated --p X:X --q 1:1 --ms 2,2,2", 0),
    ("sweep stab --p X:X --q 1:1 --k 1:1", 0),
    ("sweep twist --a X:X --b 1:1 --n 1:1", 0),
    ("sweep boundary-kernel --p X:X --q 1:1 --w 0:4", 0),
]


class TestIntegersOfAnySize:
    @pytest.mark.usefixtures("default_digit_limit")
    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("digits", [4299, 4301])
    @pytest.mark.parametrize("argv, expected", HUGE_INTEGER_CASES,
                             ids=[case[0] for case in HUGE_INTEGER_CASES])
    def test_exit_code_holds(self, capsys, argv, expected, digits, mode):
        x = "1" + "0" * (digits - 2) + "1"  # 10^(digits-1) + 1, spelled without str(int)
        code, out, err = run(capsys, *argv.replace("X", x).split(), *mode)
        assert code == expected, err[:200]
        assert "Traceback" not in err
        assert (out == "") if code == 1 else (x in out)

    @pytest.mark.usefixtures("default_digit_limit")
    @pytest.mark.parametrize("argv", [["iterated", "--p", "1" + "0" * 30, "--q", "1"],
                                      ["sweep", "iterated", "--p", "100:100", "--q", "1:1"]],
                             ids=["single", "sweep"])
    def test_long_ms_list_is_invalid_input(self, capsys, argv):
        # 20,000 levels of m = 2 give W >= 2^20000, far above p: the depth
        # alone refuses the point, and W is never multiplied out.
        code, out, err = run(capsys, *argv, "--ms", ",".join(["2"] * 20_000))
        assert (code, out) == (1, "")
        assert err == "error: hypothesis p - qW >= 1 fails: W >= 2^20000 > p\n"

    @pytest.mark.parametrize("argv, depth", [(["iterated", "--p", "9", "--q", "1"], 5),
                                             (["sweep", "iterated", "--p", "9:400", "--q", "1:1"],
                                              60_000)],
                             ids=["single", "sweep"])
    def test_deep_ms_list_is_refused_before_its_product(self, capsys, monkeypatch, argv, depth):
        # Five levels exceed the 4 bits of p = 9, and 60,000 those of any
        # p <= 400, so no point multiplies its levels out.
        def no_product(factors):
            raise AssertionError("W multiplied out")

        monkeypatch.setattr(cables, "prod", no_product)
        code, out, err = run(capsys, *argv, "--ms", ",".join(["2"] * depth))
        assert (code, out) == (1, "")
        assert err == f"error: hypothesis p - qW >= 1 fails: W >= 2^{depth} > p\n"


class TestThetaEdgeCases:
    def test_class_beyond_torus_route(self, capsys):
        # L(5,2), class 3: cone order 5 - 6 < 1, no formula applies.
        # The route refuses it, and the CLI reports the refusal as bad input.
        code, out, err = run(capsys, "theta", "--p", "5", "--q", "2", "--class", "3")
        assert (code, out) == (1, "")
        assert err == "error: no torus-knot route for class 3: cone order p - qc = -1 < 1\n"

    @pytest.mark.parametrize("p, q, c, warned", [
        (7, 3, 2, True),  # cone order p - qc = 1: the complement is a solid torus
        (8, 1, 1, True),  # cone order c = 1
        (8, 1, 4, False),
        (8, 1, 0, False),  # the unknot: no torus-knot route runs
    ])
    def test_solid_torus_warning(self, capsys, p, q, c, warned):
        # theta warns as cable does for the same piece, and still exits 0.
        code, payload, _ = run_json(capsys, "theta", "--p", str(p), "--q", str(q),
                                    "--class", str(c))
        assert code == 0
        solid = ["degenerate cone order 1: a decomposition piece is a solid torus "
                 "and contributes zero"]
        assert payload["warnings"] == (solid if warned else [])
        _, cable, _ = run_json(capsys, "cable", "--p", "17", "--q", "2", "--m", "2", "--n", "4")
        assert cable["warnings"] == solid

    def test_family_warns_as_its_class_theta(self):
        # A family verdict warns when its class's route dropped a solid torus.
        warned = 0
        for point in product(range(5, 40), range(1, 4), range(2, 4), range(2, 4)):
            try:
                verdict, _ = cli.COMMANDS["cable"].evaluate(*point)
            except DomainError:
                continue
            genus, _ = cli.COMMANDS["theta"].evaluate(*point[:2], verdict.homology_class)
            if cli.COMMANDS["theta"].report(genus)["warnings"]:
                assert verdict.warnings, point
                warned += 1
        assert warned

    @pytest.mark.parametrize("command, axes", [
        ("cable", [range(5, 60), range(1, 4), range(2, 4), range(2, 4)]),
        # ms = 2,2,2 has threshold 32q, so most of its points lie below it.
        ("iterated", [range(5, 60), range(1, 4), [(2, 2, 2), (3, 2, 2)]]),
        ("iterated", [range(5, 60), range(1, 4), [(2, 2)]]),
        ("stab", [range(10, 60), range(1, 4), range(1, 4)]),
    ])
    def test_family_theta_is_the_class_theta(self, command, axes):
        # Each command's evaluator against the theta command's, point by point.
        below = 0
        for point in product(*axes):
            try:
                verdict, _ = cli.COMMANDS[command].evaluate(*point)
            except DomainError:  # outside the family
                continue
            results = cli.COMMANDS[command].report(verdict)["results"]
            below += not results.get("threshold_met", True)
            genus, _ = cli.COMMANDS["theta"].evaluate(*point[:2], results["homology_class"])
            theta = cli.COMMANDS["theta"].report(genus)
            assert results["theta"] == theta["results"]["theta"], point
        assert below or command == "stab"

    def test_stab_mismatch_keeps_the_class_theta(self, capsys, monkeypatch):
        # A wrong capped surface at (11, 1, 1) is a mismatch; its theta still
        # comes from the torus-knot route, so it is class 5's.
        real = stabilization.stab_norms

        def doubled_at_11(s):
            norms = real(s)
            return norms._replace(chi_capped=2 * norms.chi_capped) if s.ambient.p == 11 else norms

        monkeypatch.setattr(stabilization, "stab_norms", doubled_at_11)
        code, payload, _ = run_json(capsys, "sweep", "stab", "--p", "10:12", "--q", "1:1",
                                    "--k", "1:1")
        assert code == 3
        [record] = payload["results"]["mismatches"]
        assert record["params"] == [11, 1, 1]
        _, theta, _ = run_json(capsys, "theta", "--p", "11", "--q", "1", "--class", "5")
        assert record["theta"] == theta["results"]["theta"]

    def test_text_records_print_rationals_as_fractions(self, capsys, monkeypatch):
        # A text mismatch record and the exit-3 line spell a rational a/b, as
        # a report line does; only JSON spells it {"num": a, "den": b}.
        real = stabilization.stab_norms

        def doubled_at_11(s):
            norms = real(s)
            return norms._replace(chi_capped=2 * norms.chi_capped) if s.ambient.p == 11 else norms

        monkeypatch.setattr(stabilization, "stab_norms", doubled_at_11)
        record = "'chi_capped': 38, 'torus_knot_chi': 19, 'homology_class': 5, 'theta': 19/11}"
        code, out, _ = run(capsys, "sweep", "stab", "--p", "10:12", "--q", "1:1", "--k", "1:1")
        assert code == 3
        assert f"{record}]\n" in out
        code, out, err = run(capsys, "stab", "--p", "11", "--q", "1", "--k", "1")
        assert (code, out) == (3, "")
        assert err.endswith(f"minimizer check failed; results {{'coefficients': [1, 6, 5], "
                            f"'chi_surface': 30, {record}\n")


class TestCableIsATwoLevelIteratedCable:
    def test_same_results_and_warnings(self):
        # cable (m, n) and iterated --ms m,n are one knot: cable's flags
        # (p, q, m, n) reach iterated's evaluator as ms = (m, n), so the two
        # evaluators give one verdict and exit code, and the two report
        # halves agree on every result field both report and on the
        # warnings, also where p - qmn = 1 makes the torus-knot complement a
        # solid torus.
        cable, iterated = cli.COMMANDS["cable"], cli.COMMANDS["iterated"]
        solid_torus = 0
        for point in product(range(5, 80), range(1, 4), range(2, 4), range(2, 5)):
            try:
                verdict, code = cable.evaluate(*point)
            except DomainError as exc:  # outside the family
                with pytest.raises(DomainError) as same:
                    iterated.evaluate(*point[:2], point[2:])
                assert str(same.value) == str(exc)
                continue
            assert iterated.evaluate(*point[:2], point[2:]) == (verdict, code), point
            one, two = cable.report(verdict), iterated.report(verdict)
            shared = one["results"].keys() & two["results"].keys()
            assert shared == {"norm_torus_side", "norms_equal", "homology_class", "theta",
                              "threshold_met"}
            assert {k: one["results"][k] for k in shared} == {
                k: two["results"][k] for k in shared}, point
            assert one["warnings"] == two["warnings"], point
            p, q, m, n = point
            solid_torus += p - q * m * n == 1
        assert solid_torus


# Unwritable export and sidecar paths, relative to the test's directory ("" is
# the empty path), with the path the error names and its text.  D is a directory.
ENOENT, EISDIR = "No such file or directory", "Is a directory"
UNWRITABLE = {
    "export": ("missing/x", "s.json", "missing/x", ENOENT),
    "sidecar": ("s.txt", "missing/x", "missing/x", ENOENT),
    "empty-export": ("", "s.json", "", ENOENT),
    "empty-sidecar": ("s.txt", "", "", ENOENT),
    "directory-export": ("D", "s.json", "D", EISDIR),
    "directory-sidecar": ("s.txt", "D", "D", EISDIR),
    # realpath maps "." and "" alike to the working directory, yet neither
    # pair names one file.
    "dot-export-empty-sidecar": (".", "", ".", EISDIR),
    "both-empty": ("", "", "", ENOENT),
}


class TestArgumentValidation:
    def test_missing_sweep_range(self, capsys):
        code, _, err = run(capsys, "sweep", "cable", "--p", "8:20")
        assert code == 1
        assert "--q" in err

    def test_missing_sweep_ms(self, capsys):
        code, _, err = run(capsys, "sweep", "iterated", "--p", "32:40", "--q", "1:1")
        assert code == 1
        assert "--ms" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--p", "50:10"], "reversed"),
            (["--p", "8:20", "--jobs", "0"], "--jobs must be >= 1"),
            (["--p", "8:20", "--jobs", "-2"], "--jobs must be >= 1"),
        ],
    )
    def test_hostile_sweep_arguments(self, capsys, argv, message):
        grid = ["--q", "1:2", "--m", "2:3", "--n", "2:2"]
        code, out, err = run(capsys, "sweep", "cable", *grid, *argv)
        assert code == 1
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("export, sidecar, named, strerror", list(UNWRITABLE.values()),
                             ids=list(UNWRITABLE))
    def test_unwritable_export_is_invalid_input(
        self, capsys, monkeypatch, tmp_path, export, sidecar, named, strerror
    ):
        (tmp_path / "D").mkdir()
        monkeypatch.chdir(tmp_path)
        # "" and "." pass as given; every other name is absolute, under tmp_path.
        where = {name: name if name in ("", ".") else str(tmp_path / name)
                 for name in (export, sidecar, named)}
        code, out, err = run(
            capsys,
            "twist", "--a", "1", "--b", "1", "--n", "1",
            "--export", where[export], "--sidecar", where[sidecar],
        )
        assert code == 1
        assert out == ""
        assert err == f"error: cannot write {where[named]!r}: {strerror}\n"
        # Neither target is written unless both can be: no export, sidecar or temporary file.
        assert [p.name for p in tmp_path.iterdir()] == ["D"]

    @pytest.mark.parametrize("sidecar", ["s.txt", "./s.txt"])
    def test_export_and_sidecar_same_file(self, capsys, monkeypatch, tmp_path, sidecar):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "twist", "--a", "1", "--b", "1", "--n", "1",
                             "--export", "s.txt", "--sidecar", sidecar)
        assert (code, out) == (1, "")
        assert err == "error: --export and --sidecar name the same file\n"
        assert list(tmp_path.iterdir()) == []  # no export and no temporary file

    @pytest.mark.parametrize("hi, size", [
        ("1000000000000", "999,999,999,999"),
        ("100000000000000000000", "99,999,999,999,999,999,999"),  # len() would overflow
    ])
    def test_grid_above_ceiling_is_rejected(self, capsys, hi, size):
        code, out, err = run(capsys, "sweep", "boundary-kernel",
                             "--p", f"2:{hi}", "--q", "1:1", "--w", "0:0")
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: grid has {size} candidate points, above the ceiling "
                              f"of {cli.MAX_GRID_POINTS:,};")
        assert cli.MAX_GRID_POINTS >= 100 * 59 * 59 * 61  # the criterion-5 grid

    def test_grid_at_ceiling_runs(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 12)
        grid = ["sweep", "iterated", "--q", "1:1", "--ms", "2,2,2"]
        code, payload, _ = run_json(capsys, *grid, "--p", "31:42")
        assert (code, payload["results"]["points"]) == (0, 12)
        code, out, err = run(capsys, *grid, "--p", "31:43", "--jobs", "2")
        assert (code, out) == (1, "")
        assert "grid has 13 candidate points, above the ceiling of 12" in err

    def test_sidecar_requires_export(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "twist", "--a", "1", "--b", "1", "--n", "1",
            "--sidecar", str(tmp_path / "s.json"),
        )
        assert code == 1
        assert "requires --export" in err

    def test_point_error_comes_before_option_errors(self, capsys, tmp_path):
        # The export options are read after the point is evaluated.
        code, out, err = run(capsys, "twist", "--a", "0", "--b", "1", "--n", "1",
                             "--sidecar", str(tmp_path / "s.json"))
        assert (code, out) == (1, "")
        assert err == "error: band counts a, b must be >= 1\n"
        assert list(tmp_path.iterdir()) == []


def flag_pairs(words):
    """``[flag, value]`` for each flag of a valid argv, value None for a switch."""
    pairs = []
    for word in words:
        if word.startswith("--"):
            flag, eq, value = word.partition("=")
            pairs.append([flag, value if eq else None])
        else:
            pairs[-1][1] = word
    return pairs


#: Every single command and sweep target, as its command words and its flags;
#: the twist sweep has a negative bound.
PARSE_CASES = [(single[:1], flag_pairs([*single[1:], "--json"])) for single in SINGLE_COMMANDS] + [
    (["sweep", target], flag_pairs([*grid, "--jobs", "1", "--json"]))
    for target, grid, _, _ in TABLE_CASES if target != "twist"
]
PARSE_CASES.append(
    (["sweep", "twist"], flag_pairs(["--a", "1:2", "--b", "1:1", "--n=-2:2", "--jobs", "1", "--json"])))

PARSE_IDS = [" ".join(command) for command, _ in PARSE_CASES]


def spelled(data, pairs):
    """``pairs`` in a drawn order, each as ``--flag value`` or ``--flag=value``, as word groups.

    A negative integer is always a word of its own; a value that starts with
    ``-`` and is no integer always follows ``=``.
    """
    groups = []
    for flag, value in data.draw(st.permutations(pairs)):
        if value is None:
            groups.append([flag])
        elif value.startswith("-"):
            groups.append([flag, value] if value[1:].isdecimal() else [f"{flag}={value}"])
        else:
            groups.append([flag, value] if data.draw(st.booleans()) else [f"{flag}={value}"])
    return groups


class TestParser:
    """Any spelling argparse took means what its canonical argv means."""

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    @pytest.mark.parametrize("command, pairs", PARSE_CASES, ids=PARSE_IDS)
    def test_any_spelling_prints_the_canonical_bytes(self, capsys, command, pairs, data):
        pairs = [list(pair) for pair in pairs]
        valued = [pair for pair in pairs if pair[1] is not None]
        if command[0] != "sweep" and data.draw(st.booleans()):
            # A single command's integer made negative: its family may refuse it.
            pair = data.draw(st.sampled_from([p for p in valued if p[1].isdecimal()]))
            pair[1] = str(data.draw(st.integers(max_value=-1)))
        canonical = [*command,
                     *(flag if value is None else f"{flag}={value}" for flag, value in pairs)]
        groups = spelled(data, pairs)
        # An earlier value of one flag, which the last one overrides.
        flag, value = data.draw(st.sampled_from(valued))
        earlier = ("5,7" if "," in value else "9:3" if ":" in value
                   else str(data.draw(st.integers())))
        last = next(i for i, group in enumerate(groups) if group[0].partition("=")[0] == flag)
        [overridden] = spelled(data, [[flag, earlier]])
        groups.insert(data.draw(st.integers(0, last)), overridden)
        words = [word for group in groups for word in group]
        assert run(capsys, *command, *words) == run(capsys, *canonical)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    @pytest.mark.parametrize("command, pairs", PARSE_CASES, ids=PARSE_IDS)
    def test_usage_error_anywhere(self, capsys, command, pairs, data):
        groups = spelled(data, pairs)
        flag = data.draw(st.sampled_from([flag for flag, value in pairs if value is not None]))
        dashed = data.draw(st.sampled_from(["-5:5", "-x", "-", "-1.5", "-2,3", "--json"]))
        bad, message = data.draw(st.sampled_from([
            (["--json=x"], "argument --json: ignored explicit argument 'x'"),
            # Before another flag, or at the end of argv.
            ([flag], f"argument {flag}: expected one argument"),
            ([flag, dashed], f"argument {flag}: expected one argument"),
        ]))
        groups.insert(data.draw(st.integers(0, len(groups))), bad)
        code, out, err = run(capsys, *command, *(word for group in groups for word in group))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}\nusage: lensgenus {' '.join(command)} [-h] ")
        assert err.count("\n") == 2

    @pytest.mark.parametrize("argv", [[], ["sweep"]])
    def test_help_lists_the_table(self, capsys, argv):
        with pytest.raises(SystemExit):
            main([*argv, "--help"])
        out = capsys.readouterr().out
        for name, cmd in cli.COMMANDS.items():
            assert (f"  {name} " in out and cmd.help in out) == (not argv or bool(cmd.summary))

    @pytest.mark.parametrize("name, argv", [
        ("cable", ["cable", "-h"]),
        ("iterated", ["sweep", "iterated", "--p", "1:2", "--help"]),
    ])
    def test_command_help_names_its_flags(self, capsys, name, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr().out
        assert exc.value.code == 0
        assert cli.COMMANDS[name].help in out
        assert all(f"--{flag} " in out for flag in cli.COMMANDS[name].flags)
