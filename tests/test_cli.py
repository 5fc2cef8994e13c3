import json
import os
from itertools import islice, product
from types import SimpleNamespace

import pytest

from lensgenus import cables, cli, complement, exactarith, stabilization, twistfamily
from lensgenus.cables import (
    CableParams,
    IteratedCableParams,
    cable_side_summands,
    iterated_summands,
)
from lensgenus.cli import canonical_json, main
from lensgenus.complement import WindingData, torus_fiber_summand
from lensgenus.errors import ConsistencyError, DomainError
from lensgenus.lens import LensSpace
from lensgenus.stabilization import StabFamily
from lensgenus.twistfamily import TwistParams


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

    def test_oracle_flag_does_not_change_results(self, capsys):
        _, plain, _ = run_json(capsys, "boundary-kernel", "--p", "15", "--q", "4", "--w", "6")
        _, oracled, _ = run_json(
            capsys, "boundary-kernel", "--p", "15", "--q", "4", "--w", "6", "--oracle"
        )
        for key in ("mu_coeff", "lambda_coeff"):
            assert plain["results"][key] == oracled["results"][key]


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
            lambda: CableParams(LensSpace(8, 1), 1, 2),
            lambda: IteratedCableParams(LensSpace(8, 1), (2, 4)),
            lambda: WindingData(LensSpace(8, 1), -1),
            lambda: StabFamily(LensSpace(9, 1), 1),
            lambda: TwistParams(1, 1, 0),
            lambda: cable_side_summands(CableParams(LensSpace(5, 2), 3, 2)),
            lambda: iterated_summands(IteratedCableParams(LensSpace(7, 3), (3, 2))),
            lambda: torus_fiber_summand(LensSpace(7, 2), 4),
        ],
    )
    def test_skip_rule_is_domain_error(self, build):
        # The sweep skips a point exactly when one of these guards rejects it.
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
        ],
    )
    def test_no_admissible_point_exits_1(self, capsys, argv, reason):
        code, out, err = run(capsys, "sweep", *argv)
        assert code == 1
        assert out == ""
        assert reason in err

    def test_failed_cross_check_is_not_skipped(self, capsys, monkeypatch):
        real = exactarith.peripheral_kernel

        def rank_two_at_w2(mat, mu_col, lambda_col):
            if mat.at(0, 0) == 2:  # the first row is [w, 0, 0, -1]
                raise ValueError("peripheral kernel is not cyclic of rank 1 (rank 2)")
            return real(mat, mu_col, lambda_col)

        monkeypatch.setattr(exactarith, "peripheral_kernel", rank_two_at_w2)
        code, _, err = run(
            capsys, "sweep", "boundary-kernel", "--p", "2:8", "--q", "1:3", "--w", "0:2"
        )
        assert code == 3
        assert "not cyclic" in err

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
        real = twistfamily._filling_homology
        monkeypatch.setattr(twistfamily, "_filling_homology",
                            lambda fl, label: (real(fl, label)[0], 1))
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
            env, code = command.evaluate(*values)
            return env, (3 if sum(values) % 3 == 0 else code)

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

    @pytest.mark.parametrize("indices, first, where", [
        ([5], 5, "parent"),
        ([20], 20, "child"),
        # Both fail: the earliest slab's error wins, the one a serial run raises.
        ([20, 40], 20, "child"),
        ([5, 20], 5, "parent"),
    ])
    def test_failing_point_exits_3_and_leaves_no_child(self, capsys, monkeypatch, slab_log,
                                                       indices, first, where):
        # 279 points in 16 slabs of 17 or 18: slabs 0 and 2 are the parent's, slab 1 the child's.
        points = [stab_grid_point(i) for i in indices]
        parent = os.getpid()

        def no_route(*values):
            side = "parent" if os.getpid() == parent else "child"
            raise ValueError(f"no route at {list(values)} in the {side}")

        fail_in_stab_sweep(monkeypatch, lambda values: list(values) in points, no_route)
        code, out, err = run(capsys, "sweep", "stab", *STAB_GRID, "--jobs", "2")
        assert (code, out) == (3, "")
        assert err == ("internal consistency failure: ValueError: no route at "
                       f"{stab_grid_point(first)} in the {where}\n")
        assert len(slab_log.forks) == 1
        assert_no_child_left()

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

    def test_child_without_result_exits_3(self, capsys, monkeypatch, slab_log):
        parent = os.getpid()
        fail_in_stab_sweep(monkeypatch, lambda values: os.getpid() != parent,
                           lambda *values: os._exit(7))
        code, out, err = run(capsys, "sweep", "stab", *STAB_GRID, "--jobs", "2")
        assert (code, out) == (3, "")
        [pid] = slab_log.forks
        assert err == ("internal consistency failure: RuntimeError: sweep worker "
                       f"{pid} exited with status 7 and no result\n")
        assert_no_child_left()


STAB_GRID = ["--p", "10:40", "--q", "1:3", "--k", "1:3"]


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
TABLE_CASES = [
    ("cable", ["--p", "7:12", "--q", "1:1", "--m", "2:2", "--n", "2:2"], [9, 1, 2, 2],
     ["cable", "--p", "9", "--q", "1", "--m", "2", "--n", "2"]),
    ("iterated", ["--p", "31:34", "--q", "1:1", "--ms", "2,2,2"], [33, 1, 2, 2, 2],
     ["iterated", "--p", "33", "--q", "1", "--ms", "2,2,2"]),
    ("stab", ["--p", "10:12", "--q", "1:1", "--k", "1:1"], [11, 1, 1],
     ["stab", "--p", "11", "--q", "1", "--k", "1"]),
    ("twist", ["--a", "1:2", "--b", "1:1", "--n", "1:1"], [2, 1, 1],
     ["twist", "--a", "2", "--b", "1", "--n", "1"]),
    ("boundary-kernel", ["--p", "7:8", "--q", "1:2", "--w", "0:1"], [7, 2, 1],
     ["boundary-kernel", "--p", "7", "--q", "2", "--w", "1", "--oracle"]),
]


def doubled_summands(real, p):
    """``cable_side_summands`` with every piece counted twice in L(p, q)."""
    return lambda c: real(c) * (2 if c.ambient.p == p else 1)


def doubled_torus_norm(real, p):
    """``torus_knot_theta`` with twice the norm in L(p, q)."""
    def route(space, k):
        r = real(space, k)
        if space.p != p:
            return r
        return r._replace(chi_minus=2 * r.chi_minus, theta=2 * r.theta)
    return route


# One route of a verdict, perturbed at the point of that target's TABLE_CASES
# entry: the module attribute the verdict reads, how to perturb it, the
# sweep counts (certified, out of), and the library verdict at a point.
PERTURBED_ROUTES = [
    ("cable", cables, "cable_side_summands", doubled_summands,
     ("norms_equal_above_threshold", "threshold_met"),
     lambda p, q, m, n: cables.cable_verdict(CableParams(LensSpace(p, q), m, n))),
    ("iterated", cables, "torus_knot_theta", doubled_torus_norm,
     ("norms_equal_above_threshold", "threshold_met"),
     lambda p, q, *ms: cables.iterated_verdict(IteratedCableParams(LensSpace(p, q), ms))),
    ("stab", stabilization, "torus_knot_theta", doubled_torus_norm, ("certified", "points"),
     lambda p, q, k: stabilization.stab_verdict(StabFamily(LensSpace(p, q), k))),
]


class TestCommandTable:
    @pytest.mark.parametrize("target, grid, point, single", TABLE_CASES)
    def test_mismatch_is_evaluator_exit_3(self, capsys, monkeypatch, target, grid, point, single):
        code, expected, _ = run_json(capsys, *single)
        assert code == 0
        command = cli.COMMANDS[target]

        def fails_at_point(*values):
            env, code = command.evaluate(*values)
            return env, (3 if list(values) == point else code)

        monkeypatch.setitem(cli.COMMANDS, target, command._replace(evaluate=fails_at_point))
        code, payload, _ = run_json(capsys, "sweep", target, *grid)
        assert code == 3
        results = payload["results"]
        mismatches = results.get("mismatches", results.get("mismatches_above_threshold"))
        # Only that point, and its record is the single command's results.
        assert mismatches == [{"params": point, **expected["results"]}]

    @pytest.mark.parametrize("target, module, route, perturb, counts, verdict",
                             PERTURBED_ROUTES, ids=[r[0] for r in PERTURBED_ROUTES])
    def test_disagreeing_routes_are_a_mismatch(self, capsys, monkeypatch, slab_log,
                                               target, module, route, perturb, counts,
                                               verdict):
        _, grid, point, single = next(case for case in TABLE_CASES if case[0] == target)
        monkeypatch.setattr(module, route, perturb(getattr(module, route), point[0]))
        # The library reports the disagreement instead of raising it.
        v = verdict(*point)
        assert not v.certified_minimizer
        assert not getattr(v, "certified_nonsimple", False)
        env, code = cli.COMMANDS[target].evaluate(*point)
        assert code == 3
        code, payload, serial = run_json(capsys, "sweep", target, *grid)
        assert code == 3
        results = payload["results"]
        mismatches = results.get("mismatches", results.get("mismatches_above_threshold"))
        assert mismatches == [{"params": point, **env["results"]}]
        certified, of = counts
        assert results[certified] == results[of] - 1
        usable_cpus(monkeypatch, 2)
        code, _, pooled = run_json(capsys, "sweep", target, *grid, "--jobs", "2")
        assert (code, pooled) == (3, serial)
        assert len(slab_log.forks) == 1
        assert_no_child_left()
        code, out, err = run(capsys, *single)
        assert (code, out) == (3, "")
        assert "minimizer" in err

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


class TestThetaEdgeCases:
    def test_class_beyond_torus_route(self, capsys):
        # L(5,2), class 3: cone order 5 - 6 < 1, no formula applies.
        code, _, err = run(capsys, "theta", "--p", "5", "--q", "2", "--class", "3")
        assert code == 1
        assert "no torus-knot route" in err


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
