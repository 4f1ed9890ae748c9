"""Golden-corpus tests for the data plane + the exec_sim bench.

The load-bearing guarantee: the chunk length changes wall time and
nothing else.  A multi-job PigMix-style workflow must reproduce the
DFS contents, ``WorkflowStats``/``JobStats`` counters, DFS byte
counters and rewrite/elimination decision log that the legacy
text-at-every-edge plane recorded into the golden corpus.
"""

import pytest
from golden_corpus import STREAMS, run_stream

from repro.bench.exec_sim import (
    build_queries,
    check_exec_sim_gates,
    generate_event_rows,
    run_exec_scale,
    run_exec_stream,
)
from repro.bench.golden import digests, load_golden
from repro.execution.interpreter import JobInterpreter
from repro.session import ReStoreSession


class TestDifferentialPigMix:
    @pytest.mark.parametrize(
        "chunk_rows",
        [JobInterpreter.CHUNK_ROWS, 1, 3],
        ids=["batched", "per-row", "batch-3"],
    )
    def test_fast_tiers_match_the_legacy_plane(self, monkeypatch, chunk_rows):
        monkeypatch.setattr(JobInterpreter, "CHUNK_ROWS", chunk_rows)
        record, _ = run_stream(*STREAMS["pigmix_l2_l3_l5_l3"])
        assert record == load_golden()["streams"]["pigmix_l2_l3_l5_l3"]


#: a golden corpus holding one exec_sim record, and a scale matching it
GOLDEN = {"seed": 13, "exec_sim": {"1000": {"dfs": {}, "decisions": ["d"]}}}


def _green_scale(n_rows=1000):
    """A payload scale every gate accepts."""
    return {
        "n_rows": n_rows,
        "copy_rewrites": 2,
        "payload_clones": 2,
        "digests": digests(GOLDEN["exec_sim"]["1000"]),
    }


class TestExecSimBench:
    def test_scale_run_reports_identical(self):
        golden = load_golden()
        scale = run_exec_scale(2000, seed=golden["seed"], reps=1)
        assert scale["digests"] == digests(golden["exec_sim"]["2000"])
        assert scale["n_queries"] == len(build_queries())
        assert scale["input_records"] > 0
        assert scale["jobs_run"] > 0
        assert scale["rows_per_sec"] > 0
        # reuse actually happened: consumers were rewritten, identical
        # drill queries degraded to copy jobs, and every copy store
        # cloned its producer's payload
        assert scale["rewrites"] > 0
        assert scale["copy_rewrites"] > 0
        assert scale["payload_clones"] >= scale["copy_rewrites"]
        payload = {"seed": golden["seed"], "scales": [scale]}
        assert check_exec_sim_gates(payload, golden) == []

    def test_mode_result_shape(self):
        rows = generate_event_rows(120, seed=5)
        queries = build_queries()[:3]
        result = run_exec_stream(rows, queries)
        assert result.jobs_run >= len(queries)
        assert len(result.record["dfs"]) > 0
        assert result.record["dfs_counters"][1] > 0  # bytes_written moved

    def test_gates_green_on_identical_fast_payload(self):
        payload = {"seed": 13, "scales": [_green_scale()]}
        assert check_exec_sim_gates(payload, GOLDEN) == []
        assert check_exec_sim_gates(None) == []

    def test_gates_trip_on_golden_divergence(self):
        divergent = _green_scale()
        divergent["digests"]["decisions"] = "0" * 64
        failures = check_exec_sim_gates({"seed": 13, "scales": [divergent]}, GOLDEN)
        assert failures == ["exec_sim N=1000: decisions differ from the golden"]

    def test_golden_gate_is_skipped_not_passed_without_a_record(self):
        for payload, golden in (
            ({"seed": 13, "scales": [_green_scale(n_rows=5000)]}, GOLDEN),
            ({"seed": 99, "scales": [_green_scale()]}, GOLDEN),
            ({"seed": 13, "scales": [_green_scale()]}, None),
        ):
            skipped = {}
            assert check_exec_sim_gates(payload, golden, skipped) == []
            assert list(skipped.values()) == ["no golden record"]

    def test_gates_trip_on_reserialized_copy_stores(self):
        scale = _green_scale()
        scale["payload_clones"] = 0
        failures = check_exec_sim_gates({"seed": 13, "scales": [scale]}, GOLDEN)
        assert len(failures) == 1
        assert "re-serialized" in failures[0]

    def test_gates_trip_when_no_copy_rewrites_happen(self):
        scale = _green_scale()
        scale["copy_rewrites"] = 0
        scale["payload_clones"] = 0
        failures = check_exec_sim_gates({"seed": 13, "scales": [scale]}, GOLDEN)
        assert len(failures) == 1
        assert "copy" in failures[0]


class TestOutputsAreCallerOwned:
    def test_mutating_an_output_bag_does_not_corrupt_the_cache(self):
        with ReStoreSession(datanodes=2) as session:
            session.write_file("d", "a\t1\na\t2\nb\t3\n")
            source = (
                "A = load 'd' as (k, v:int); B = group A by k; "
                "store B into 'o';"
            )
            first = session.run(source)
            bag = first.outputs["o"][0][1]
            bag.append(("poison", 99))  # legacy semantics: caller-owned
            second = session.run(source)
            assert all(
                ("poison", 99) not in list(row[1]) for row in second.outputs["o"]
            )


class TestSubjobEnumBench:
    def test_enumeration_counts_and_gate(self):
        from repro.bench.subjob_enum import (
            check_subjob_enum_gates,
            run_subjob_enum_scale,
        )

        scale = run_subjob_enum_scale(40)
        assert scale["n_jobs"] == 10
        assert scale["n_anchors"] == 40
        assert scale["candidates"] == scale["expected_candidates"] == 30
        assert scale["candidates_per_sec"] > 0
        assert check_subjob_enum_gates({"scales": [scale]}) == []
        assert check_subjob_enum_gates(None) == []
        broken = dict(scale, candidates=scale["candidates"] - 1)
        failures = check_subjob_enum_gates({"scales": [broken]})
        assert failures and "expected" in failures[0]
