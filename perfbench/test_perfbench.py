"""Tests of the benchmark's own arithmetic and checks.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import pytest

import run
from spans import LAYERS, Tracer, instrument
from workloads import WORKLOADS, Call


def _spans(tracer: Tracer, rows) -> None:
    for name, start, end, parent in rows:
        tracer.name.append(tracer._id(name))
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)


class TestSpans:
    def test_self_time_subtracts_direct_children_only(self):
        t = Tracer()
        _spans(t, [
            ("cli.main", 0.0, 10.0, -1),
            ("norm.a", 1.0, 4.0, 0),
            ("norm.b", 5.0, 9.0, 0),
            ("exactarith.c", 6.0, 7.0, 2),
        ])
        assert t.self_times() == [3.0, 3.0, 3.0, 1.0]
        summary = t.summary()
        assert summary["norm.b"] == {"calls": 1, "total_s": 4.0, "self_s": 3.0}
        assert sum(row["self_s"] for row in summary.values()) == 10.0

    def test_summary_aggregates_repeated_names(self):
        t = Tracer()
        _spans(t, [("norm.a", 0.0, 2.0, -1), ("norm.a", 3.0, 4.0, -1)])
        assert t.summary()["norm.a"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}

    def test_count_under_walks_all_ancestors(self):
        t = Tracer()
        _spans(t, [
            ("twistfamily.h1", 0.0, 5.0, -1),
            ("exactarith.cokernel", 1.0, 4.0, 0),
            ("exactarith.snf_5x5", 2.0, 3.0, 1),
            ("exactarith.snf_5x4", 6.0, 7.0, -1),
        ])
        assert t.count_under("exactarith.snf_", "twistfamily.") == 1

    def test_wrap_records_parent_links_and_restores(self):
        import types

        mod = types.SimpleNamespace()
        mod.inner = lambda x: x + 1
        mod.outer = lambda x: mod.inner(x) * 2
        originals = (mod.inner, mod.outer)
        t = Tracer()
        t.patch(mod, "inner", t.wrap(mod.inner, "m.inner"))
        t.patch(mod, "outer", t.wrap(mod.outer, "m.outer"))
        assert mod.outer(1) == 4
        t.restore()
        assert (mod.inner, mod.outer) == originals
        assert [t.names[i] for i in t.name] == ["m.outer", "m.inner"]
        assert list(t.parent) == [-1, 0]
        assert t.end[0] >= t.end[1] >= t.start[1] >= t.start[0]


class TestInstrument:
    def test_traced_output_is_identical_and_attributes_restored(self, tmp_path):
        layers = run.import_layers()
        before = {name: dict(vars(m)) for name, m in layers.items()}
        post_init = layers["exactarith"].IntMatrix.__post_init__
        call = WORKLOADS["family-mix"](0)[0][0]  # the twist sweep, SNF-heavy
        call = replace(call, argv=("sweep", "twist", "--a", "1:2", "--b", "1:2", "--n=-2:2", "--json"))
        plain = run.run_inprocess(layers["cli"], call, tmp_path)
        tracer = Tracer()
        instrument(tracer, layers)
        try:
            traced = run.run_inprocess(layers["cli"], call, tmp_path)
        finally:
            tracer.restore()
        assert traced == plain
        assert {name: dict(vars(m)) for name, m in layers.items()} == before
        assert layers["exactarith"].IntMatrix.__post_init__ is post_init
        summary = tracer.summary()
        assert summary["exactarith.snf_5x5"]["calls"] == 3 * 16
        assert tracer.count_under("exactarith.snf_", "twistfamily.") == 3 * 16
        assert tracer.counts["exactarith.intmatrix"] > 0
        assert set(n.split(".")[0] for n in summary) <= set(LAYERS)


class TestPercentiles:
    def test_interpolates_between_ranks(self):
        xs = list(range(1, 41))
        assert run.percentile(xs, 50) == 20.5
        assert run.percentile(xs, 75) == 30.25
        assert run.percentile([5.0], 75) == 5.0
        assert run.percentile([3, 1, 2], 50) == 2
        assert run.percentile([4.0, 2.0], 75) == 3.5

    def test_tail_needs_ten_samples_beyond(self):
        assert run.samples_beyond(40, 75) == 10
        assert run.tail_percentile(40) == 75
        assert run.tail_percentile(39) == 50
        assert run.tail_percentile(100) == 90
        assert run.tail_percentile(19) is None


def _call(**kw) -> Call:
    base = dict(argv=("sweep", "stab", "--json"), exit_code=0,
                expect={"points": 3, "certified": 3}, points=3, candidates=5)
    base.update(kw)
    return Call(**base)


def _report(**results) -> bytes:
    return json.dumps({"results": results}, sort_keys=True).encode()


class TestFailureCounting:
    good = _report(points=3, certified=3, mismatches=[])

    def test_correct_output_passes(self):
        assert run.check_output(_call(), 0, self.good, run.sha256(self.good)) == []

    @pytest.mark.parametrize("code, out, ref", [
        (3, good, None),                                        # wrong exit code
        (0, _report(points=3, certified=3, mismatches=[[1, 2, 3]]), None),
        (0, _report(points=4, certified=4, mismatches=[]), None),  # count disagrees
        (0, good, "0" * 64),                                    # wrong reference
        (0, b"", None),                                         # no report
    ])
    def test_each_failure_is_reported(self, code, out, ref):
        assert run.check_output(_call(), code, out, ref)

    def test_checks_count_failed_operations(self, tmp_path):
        checks = run.Checks({}, tmp_path, require_reference=False)
        checks.record(_call(), 0, self.good)
        checks.record(_call(), 0, _report(points=3, certified=3, mismatches=[]) + b" ")
        assert (checks.attempted, checks.failed) == (2, 1)  # bytes changed between runs
        assert checks.error_rate == 0.5

    def test_wrong_reference_makes_error_rate_nonzero(self, tmp_path):
        call = next(c for c in WORKLOADS["cli-single"](0)[0] if c.argv[0] == "simple-knot")
        reference = run.load_reference()["sha256"]
        env = run.child_env()
        good = run.Checks(reference, tmp_path, require_reference=True)
        run.run_pass([call], None, good, env)
        assert (good.attempted, good.failed, good.error_rate) == (1, 0, 0.0)
        wrong = run.Checks({call.key: "0" * 64}, tmp_path, require_reference=True)
        run.run_pass([call], None, wrong, env)
        assert wrong.error_rate == 1.0
        assert "reference" in wrong.problems[0]["problems"][0]


class TestDefinitions:
    def test_benchmark_json_matches_the_metric_tables(self):
        with open(run.ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
        assert spec["command"] == ["python3", "perfbench/run.py"]

    def test_counts_match_the_committed_table(self):
        points = run.load_reference()["points"]
        for workload, by_offset in points.items():
            for offset, counts in by_offset.items():
                assert [c.points for c in WORKLOADS[workload](int(offset))[0]] == counts

    def test_seed_only_changes_inputs(self):
        for make in WORKLOADS.values():
            assert make(7) == make(7)
            assert make(3) != make(4)

    def test_missing_sources_fail_without_a_result(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(run, "SRC", tmp_path / "src")
        assert run.main(["--workload", "cli-single", "--seed", "0", "--seconds", "1"]) != 0
        assert capsys.readouterr().out == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
