"""Golden-corpus tests for the data plane + the exec_sim stream.

The load-bearing guarantee: the chunk length changes wall time and
nothing else.  A multi-job PigMix-style workflow must reproduce the
DFS contents, ``WorkflowStats``/``JobStats`` counters, DFS byte
counters and rewrite/elimination decision log that the legacy
text-at-every-edge plane recorded into the golden corpus.
"""

import pytest
from golden_corpus import (
    SEED,
    STREAMS,
    build_queries,
    generate_event_rows,
    load_golden,
    run_exec_stream,
    run_stream,
)

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
        record, _ = run_stream(STREAMS["pigmix_l2_l3_l5_l3"])
        assert record == load_golden()["streams"]["pigmix_l2_l3_l5_l3"]


class TestExecSimBench:
    def test_scale_run_reports_identical(self):
        record, copy_rewrites, payload_clones = run_exec_stream(
            generate_event_rows(2000, SEED), build_queries()
        )
        assert record == load_golden()["exec_sim"]["2000"]
        # reuse actually happened: consumers were rewritten, identical
        # drill queries degraded to copy jobs, and every copy store
        # cloned its producer's payload instead of re-serializing
        assert any(d.startswith("RewriteApplied") for d in record["decisions"])
        assert copy_rewrites > 0
        assert payload_clones >= copy_rewrites

    def test_mode_result_shape(self):
        rows = generate_event_rows(120, seed=5)
        queries = build_queries()[:3]
        record, _, _ = run_exec_stream(rows, queries)
        assert len(record["counters"]) >= len(queries)
        assert len(record["dfs"]) > 0
        assert record["dfs_counters"][1] > 0  # bytes_written moved


class TestOutputsAreCallerOwned:
    def test_mutating_an_output_bag_does_not_corrupt_the_cache(self):
        with ReStoreSession() as session:
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
