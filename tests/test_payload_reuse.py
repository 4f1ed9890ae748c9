"""Serialized-payload reuse for copy-style stores.

``write_rows(source=...)`` lets a store whose input rows provably came
from an existing file skip re-serialization: a pure pass-through
clones the producer's (possibly still lazy) payload.  These tests pin
the reuse preconditions (identity, generation, exact serialization),
the counter parity with a re-serializing twin, and the end-to-end
behaviour of whole-job copy rewrites.
"""

from repro.dfs.filesystem import DistributedFileSystem
from repro.relational.schema import Schema
from repro.relational.types import DataType
from repro.session import ReStoreSession

SCHEMA = Schema.of(
    ("u", DataType.CHARARRAY), ("a", DataType.INT), ("r", DataType.DOUBLE)
)
ROWS = [
    ("alice", 1, 0.5),
    ("bob", 2, 4.5),
    (None, 3, None),
    ("carol", 44, 8.25),
]


def _twin_write(rows, schema):
    """Bytes + counters of a fresh DFS writing *rows* the normal way."""
    dfs = DistributedFileSystem()
    dfs.write_rows("twin", rows, schema)
    return (
        dfs.read_file("twin"),
        dfs.bytes_written,
        dfs.file_size("twin"),
    )


class TestPayloadClone:
    def test_clone_shares_the_producers_payload(self):
        dfs = DistributedFileSystem()
        dfs.write_rows("src", ROWS, SCHEMA)
        rows = dfs.read_rows("src", SCHEMA)
        dfs.write_rows("dst", list(rows), SCHEMA, source="src")
        assert dfs.payload_clones == 1
        src_inode = dfs.namenode.lookup("src")
        dst_inode = dfs.namenode.lookup("dst")
        assert dst_inode.segments[0] is src_inode.segments[0]  # one shared buffer
        # materializing both files renders the text exactly once
        assert dfs.serializations == 0
        assert dfs.read_file("dst") == dfs.read_file("src")
        assert dfs.serializations == 1

    def test_clone_counters_match_a_reserializing_twin(self):
        dfs = DistributedFileSystem()
        dfs.write_rows("src", ROWS, SCHEMA)
        baseline_written = dfs.bytes_written
        rows = dfs.read_rows("src", SCHEMA)
        status = dfs.write_rows("dst", list(rows), SCHEMA, source="src")
        twin_bytes, twin_written, twin_size = _twin_write(ROWS, SCHEMA)
        assert status.size == twin_size
        assert dfs.bytes_written - baseline_written == twin_written
        assert dfs.read_file("dst") == twin_bytes

    def test_generation_bump_invalidates_reuse(self):
        dfs = DistributedFileSystem()
        dfs.write_rows("src", ROWS, SCHEMA)
        rows = list(dfs.read_rows("src", SCHEMA))
        dfs.append("src", "dave\t5\t1.5\n")  # bumps the generation
        dfs.write_rows("dst", rows, SCHEMA, source="src")
        assert dfs.payload_clones == 0
        assert dfs.read_file("dst")  # written via the normal path

    def test_non_identical_rows_do_not_clone(self):
        dfs = DistributedFileSystem()
        dfs.write_rows("src", ROWS, SCHEMA)
        fresh = [tuple(row) for row in dfs.read_rows("src", SCHEMA)]
        # equal values, different objects for one row: full-clone
        # identity fails (built via tuple() so the literal is not constant-folded
        # into the very object the module already shares)
        fresh[0] = tuple(["alice", 1, 0.5])
        dfs.write_rows("dst", fresh, SCHEMA, source="src")
        assert dfs.payload_clones == 0
        assert dfs.read_file("dst") == dfs.read_file("src")

    def test_parse_filled_datasets_are_not_exact_sources(self):
        dfs = DistributedFileSystem()
        # "03" parses to 3 which re-renders as "3": cloning the text
        # would diverge from what serializing the rows produces
        dfs.write_file("src", "alice\t03\t0.5\n")
        rows = dfs.read_rows("src", SCHEMA)
        dfs.write_rows("dst", list(rows), SCHEMA, source="src")
        assert dfs.payload_clones == 0
        assert dfs.read_file("dst") == b"alice\t3\t0.5\n"

    def test_missing_or_unpinned_source_falls_back(self):
        dfs = DistributedFileSystem()
        dfs.write_rows("dst", ROWS, SCHEMA, source="nowhere")
        assert dfs.payload_clones == 0
        assert dfs.file_size("dst") > 0

    def test_filtered_subset_writes_identically_to_twin(self):
        dfs = DistributedFileSystem()
        dfs.write_rows("src", ROWS, SCHEMA)
        rows = dfs.read_rows("src", SCHEMA)
        subset = [row for row in rows if row[1] > 1]
        status = dfs.write_rows("sub", subset, SCHEMA, source="src")
        twin_bytes, _, twin_size = _twin_write(subset, SCHEMA)
        assert dfs.payload_clones == 0
        assert status.size == twin_size
        assert dfs.read_file("sub") == twin_bytes
        # the rows are pinned and stay cache-served
        inode = dfs.namenode.lookup("sub")
        assert inode.datasets[SCHEMA.fingerprint()].exact
        assert dfs.read_rows("sub", SCHEMA) == tuple(subset)


class TestEndToEndCopyRewrites:
    SCRIPT = (
        "A = load 'data/ev' as (u:chararray, a:int, r:double);\n"
        "B = filter A by a > 1;\n"
        "C = group B by u;\n"
        "D = foreach C generate group, COUNT(B);\n"
    )

    def _run(self):
        with ReStoreSession() as session:
            session.write_file(
                "data/ev", "u1\t5\t1.5\nu2\t2\t0.5\nu1\t9\t2.25\nu3\t7\t0.75\n"
            )
            session.run(self.SCRIPT + "store D into 'out/first';", name="first")
            result = session.run(
                self.SCRIPT + "store D into 'out/second';", name="second"
            )
            snapshot = {
                path: session.dfs.read_file(path)
                for path in session.dfs.list_paths()
            }
            return session.dfs.payload_clones, snapshot, result

    def test_whole_job_copy_rewrite_never_reserializes(self):
        reuses, snapshot, result = self._run()
        assert reuses == 1
        assert any(
            "whole_job=True" in repr(e) or getattr(e, "whole_job", False)
            for e in result.events
        )
        assert snapshot["out/second"] == snapshot["out/first"]
