"""A stored result is read back as the rows that were written.

Tuple columns (a multi-key GROUP's key) live on the pinned plane like
scalars and bags: typed by their inner schema when parsed, pinned when
written, rendered only for a byte reader.  These tests pin

* the bug that motivated it — a job rewritten to load a stored
  multi-key GROUP result saw ``("u2", "3")`` where the no-reuse run had
  ``("u2", 3)`` — on the pinned plane, after a recovery (the stored
  bytes really are parsed) and across the worker pipe;
* the element semantics of a tuple column read from text;
* a *no text between jobs* gate: reuse passes over an L6-shaped result
  render nothing and parse nothing (counted, so it cannot pass
  vacuously);
* an append extends the pinned rows: only the appended bytes are parsed.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.dfs import filesystem
from repro.dfs.dataset import canonical_ascii_size, rows_are_canonical
from repro.dfs.filesystem import DistributedFileSystem
from repro.events import JobEliminated, RewriteApplied
from repro.exceptions import SchemaError
from repro.persistence.durability import PersistenceConfig
from repro.relational.schema import FieldSchema, Schema
from repro.relational.tuples import Bag, deserialize_rows, serialize_rows
from repro.relational.types import DataType
from repro.service import JobService
from repro.session import ReStoreSession

DATA = "u1\t1\t10.5\nu2\t3\t100.0\nu2\t3\t3.5\nu1\t2\t1.0\nu3\t10\t2.0\nu3\t5\t2.0\n"
LOAD = "A = load 'in' as (user, action:int, v:double);"
GROUPED = LOAD + " G = group A by (user, action);"
#: stores the GROUP sub-job's result: (group: tuple(user, action), s)
STORING = GROUPED + " R = foreach G generate group, SUM(A.v) as s; store R into 'o0';"
#: arithmetic over an element of the stored key: 3 * 2 is 6, "3" * 2 is "33"
VARIANT = (
    GROUPED
    + " R = foreach G generate FLATTEN(group), SUM(A.v) as s;"
    + " F = foreach R generate $0, $1 * 2, s; store F into '{out}';"
)
#: a second job sorts by the re-read key: 5 < 10, but "10" < "5"
ORDERED = (
    GROUPED
    + " R = foreach G generate group, SUM(A.v) as s;"
    + " O = order R by group; store O into '{out}';"
)
REUSED = (RewriteApplied, JobEliminated)
#: (query, the event that proves it loaded the stored result)
STREAM = [
    (VARIANT.format(out="v1"), RewriteApplied),
    (VARIANT.format(out="v2"), RewriteApplied),
    (ORDERED.format(out="ord"), JobEliminated),
]


@lru_cache(maxsize=None)
def _oracle() -> dict:
    """Output bytes of the stream on a session that never reuses."""
    with ReStoreSession(restore_enabled=False) as session:
        session.write_file("in", DATA)
        session.run(STORING)
        for source, _ in STREAM:
            session.run(source)
        return {out: session.dfs.read_file(out) for out in ("v1", "v2", "ord")}


def _assert_reused_and_equal(run, dfs) -> None:
    """Every query of the stream loaded the stored result (non-vacuity)
    and stored the oracle's bytes."""
    for source, reused in STREAM:
        assert any(isinstance(e, reused) for e in run(source).events), source
    assert {out: dfs.read_file(out) for out in ("v1", "v2", "ord")} == _oracle()


class TestReuseOverMultiKeyGroup:
    def test_oracle_is_the_in_memory_answer(self):
        outputs = _oracle()
        assert b"u2\t6\t103.5\n" in outputs["v1"]
        keys = [line.split(b"\t")[0] for line in outputs["ord"].splitlines()]
        want = sorted({(r[0], int(r[1])) for r in map(str.split, DATA.splitlines())})
        assert keys == [f"({user},{action})".encode() for user, action in want]

    def test_pinned_plane(self):
        with ReStoreSession() as session:
            session.write_file("in", DATA)
            session.run(STORING)
            _assert_reused_and_equal(session.run, session.dfs)

    def test_after_recovery_the_stored_bytes_are_parsed(self, tmp_path):
        config = PersistenceConfig(
            snapshot_path=str(tmp_path / "repo.snapshot"),
            journal_path=str(tmp_path / "repo.journal"),
            backend="local",
        )
        with ReStoreSession(persistence=config) as session:
            session.write_file("in", DATA)
            session.run(STORING)
        with ReStoreSession(persistence=config) as recovered:  # a fresh filesystem
            recovered.write_file("in", DATA)
            _assert_reused_and_equal(recovered.run, recovered.dfs)

    def test_across_the_worker_pipe(self):
        with JobService(executor="processes", max_workers=1) as service:
            service.dfs.write_file("in", DATA)
            tenant = service.open_session("t")
            tenant.run(STORING)
            _assert_reused_and_equal(tenant.run, service.dfs)


KEY = FieldSchema(
    "group",
    DataType.TUPLE,
    Schema.of(("user", DataType.CHARARRAY), ("action", DataType.INT)),
)
KEYED = Schema((KEY, FieldSchema("s", DataType.DOUBLE)))


class TestTupleColumnSemantics:
    def test_elements_are_typed_by_the_inner_schema(self):
        text = "(u2,3)\t1.5\n(u1,3.0)\t2.5\n(,7)\t\n\t0.5\n"
        assert deserialize_rows(text, KEYED) == [
            (("u2", 3), 1.5),
            (("u1", 3), 2.5),
            ((None, 7), None),
            (None, 0.5),
        ]

    def test_tuples_are_squared_to_the_inner_width(self):
        text = "(a)\t1.0\n()\t1.0\n(a,1,zzz)\t1.0\n"
        assert deserialize_rows(text, KEYED) == [
            (("a", None), 1.0),
            ((None, None), 1.0),
            (("a", 1), 1.0),
        ]

    def test_malformed_element_names_path_line_and_field(self):
        dfs = DistributedFileSystem()
        dfs.write_file("in/k", "(a,1)\t1.0\n(x,notanint)\t2.0\n")
        with pytest.raises(SchemaError) as raised:
            dfs.read_rows("in/k", KEYED)
        message = str(raised.value)
        assert message.startswith("in/k line 2 field group (tuple)")
        assert "(x,notanint)" in message

    def test_untyped_and_doubly_nested_tuples_stay_raw_and_unpinned(self):
        untyped = Schema((FieldSchema("t", DataType.TUPLE),))
        nested_inner = Schema.of(("a", DataType.INT), ("t", DataType.TUPLE))
        doubly = Schema((FieldSchema("t", DataType.TUPLE, nested_inner),))
        for schema in (untyped, doubly):
            assert deserialize_rows("(1,(2,3))\n", schema) == [(("1", ("2", "3")),)]
            assert not rows_are_canonical([((1, (2, 3)),)], schema)
            assert not rows_are_canonical([(("1", ("2", "3")),)], schema)
            assert rows_are_canonical([(None,)], schema)  # only nulls are

    @pytest.mark.parametrize("n_rows", [3, 70])  # per-row closures, column passes
    def test_checker_tells_exact_types_apart(self, n_rows):
        assert canonical_ascii_size([(("u", 1), 1.0)] * n_rows, KEYED) == 10 * n_rows
        for action in (1.0, True, "1", None):
            rows = [(("u", 1), 1.0)] * (n_rows - 1) + [(("u", action), 1.0)]
            canonical = action is None
            assert rows_are_canonical(rows, KEYED) is canonical
            assert (canonical_ascii_size(rows, KEYED) is not None) is canonical

    def test_one_field_bag_row_holding_a_null_round_trips(self):
        inner = Schema.of(("name", DataType.CHARARRAY))
        schema = Schema((FieldSchema("b", DataType.BAG, inner),))
        rows = [(Bag([(None,), ("x",)]),)]
        text = serialize_rows(rows)
        assert text == "{(),(x)}\n"
        assert rows_are_canonical(rows, schema)
        assert canonical_ascii_size(rows, schema) == len(text)
        assert deserialize_rows(text, schema) == rows


PV = "user, action:int, timestamp:int, est_revenue:double"


def _page_views(instance: int) -> str:
    rows = ((n % 7, n % 3, n, (n * (instance + 3)) % 11 + 0.5) for n in range(90))
    return "".join(f"u{user}\t{action}\t{t}\t{rev}\n" for user, action, t, rev in rows)


def _l6(instance: int, out: str) -> str:
    return (
        f"A = load 'i{instance}/page_views' as ({PV});"
        " B = foreach A generate user, action, timestamp, est_revenue;"
        " C = group B by (user, action);"
        " D = foreach C generate group, SUM(B.est_revenue);"
        f" store D into '{out}';"
    )


@pytest.fixture
def parsed(monkeypatch):
    """The length of every text ``read_rows`` hands to the parser."""
    lengths = []
    parse = filesystem.deserialize_rows

    def counted(text, schema):
        lengths.append(len(text))
        return parse(text, schema)

    monkeypatch.setattr(filesystem, "deserialize_rows", counted)
    return lengths


class TestNoTextBetweenJobs:
    def test_reuse_passes_render_and_parse_nothing(self, parsed):
        sessions = ReStoreSession(), ReStoreSession(restore_enabled=False)
        for session in sessions:
            for instance in (0, 1):
                session.write_file(f"i{instance}/page_views", _page_views(instance))
                session.run(_l6(instance, f"first/i{instance}"))
        restore, twin = sessions
        parsed.clear()
        renders = restore.dfs.serializations
        outs = []
        for n_pass in (1, 2):
            for instance in (0, 1):
                out = f"pass{n_pass}/i{instance}"
                result = restore.run(_l6(instance, out))
                assert any(isinstance(e, REUSED) for e in result.events), out
                assert len(result.outputs[out]) == 21
                outs.append((instance, out))
        assert restore.dfs.serializations == renders  # nothing rendered,
        assert parsed == []  # nothing parsed: rows went from job to job
        for instance, out in outs:
            want = twin.dfs.read_file(f"first/i{instance}")
            assert restore.dfs.read_file(out) == want
        # forcing the bytes renders each distinct payload once
        assert restore.dfs.serializations - renders <= 2

    def test_an_append_parses_only_the_appended_bytes(self, parsed):
        schema = Schema.of(("k", DataType.CHARARRAY), ("n", DataType.INT))
        dfs = DistributedFileSystem()
        rows = tuple((f"k{n}", n) for n in range(2000))
        dfs.write_rows("part", rows, schema)
        appended = 0
        for step in range(10):
            tail = "".join(f"a{step}\t{n}\n" for n in range(100))
            appended += len(tail)
            dfs.append("part", tail)
            rows += tuple((f"a{step}", n) for n in range(100))
            assert dfs.read_rows("part", schema) == rows
            assert dfs.read_rows("part", schema) is dfs.read_rows("part", schema)
        assert 0 < sum(parsed) <= 1.1 * appended  # the parent: 10 x the file
        cold = DistributedFileSystem()
        cold.write_file("part", dfs.read_file("part"))
        assert cold.read_rows("part", schema) == rows  # one cold parse agrees
