"""No Python frame per row between the input bytes and the reduce groups.

The data plane's rule is that per-row work runs inside C-level passes
(``map``, ``zip``, ``itemgetter``, ``str.split``, ``int`` / ``float``)
and Python frames are spent per chunk, per column and per distinct
key.  Wall-clock cannot gate that in a test; a frame count can, and
repeats exactly: ``sys.setprofile`` reports a ``call`` event for every
Python frame entered (C calls are ``c_call`` events and not counted).
Each check also asserts the rows and groups it expects, so a run that
did nothing cannot pass.
"""

import gc
import sys
from collections import Counter, namedtuple

from repro import ReStoreSession
from repro.execution.interpreter import (
    JobInterpreter,
    _is_null_key,
    _may_hold_null_key,
)
from repro.relational.compiled import (
    compile_key,
    compile_projection,
    compile_projection_list,
)
from repro.relational.expressions import BinaryOp, Column, Const
from repro.relational import tuples
from repro.relational.schema import Schema
from repro.relational.tuples import Bag, serialize_row, serialized_rows_size

COLUMNS = (
    "user:chararray, n:int, action:int, revenue:double, "
    "query:chararray, page:chararray"
)
SCHEMA = Schema.parse(COLUMNS)
DISTINCT_USERS = 200


def page_views(n_rows: int) -> str:
    return "".join(
        f"user{i % DISTINCT_USERS}\t{i}\t{i % 7}\t{i * 0.5}\tq{i % 13}\tpage{i}\n"
        for i in range(n_rows)
    )


def python_calls(fn):
    """(fn(), Counter of Python frames entered, by function name).

    The cyclic collector is drained first and paused while *fn* runs: a
    collection that falls inside *fn* would run the finalizers of
    earlier tests' garbage, and their frames are not *fn*'s."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1

    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    return result, calls


def count_by_user(session, path: str, out: str):
    return session.run(
        f"A = load '{path}' as ({COLUMNS});"
        "B = foreach A generate user, action;"
        "C = group B by user;"
        "D = foreach C generate group, COUNT(B);"
        f"store D into '{out}';"
    )


def test_cold_read_costs_frames_per_column_not_per_value():
    with ReStoreSession(restore_enabled=False) as session:
        session.write_file("in/pv", page_views(4000))
        rows, calls = python_calls(lambda: session.dfs.read_rows("in/pv", SCHEMA))
    assert len(rows) == 4000
    assert rows[-1] == ("user199", 3999, 2, 1999.5, "q8", "page3999")
    # 24 000 values; the per-value parser entered > 50 000 frames here
    assert sum(calls.values()) <= 300, calls.most_common(5)


def test_frames_do_not_grow_with_rows():
    """load -> foreach (two bare columns) -> group -> COUNT over the
    same 200 keys, cold, on 4 000 and on 16 000 rows: what the larger
    run may add is per *chunk*, never per row."""
    small, big = 4000, 16000
    with ReStoreSession(restore_enabled=False) as session:
        session.write_file("in/warm", page_views(50))
        count_by_user(session, "in/warm", "out/warm")  # caches, imports
        runs = {}
        for n_rows in (small, big):
            session.write_file(f"in/pv{n_rows}", page_views(n_rows))
            result, calls = python_calls(
                lambda: count_by_user(session, f"in/pv{n_rows}", f"out/{n_rows}")
            )
            counts = dict(result.outputs[f"out/{n_rows}"])
            assert len(counts) == DISTINCT_USERS
            assert set(counts.values()) == {n_rows // DISTINCT_USERS}
            runs[n_rows] = sum(calls.values())
    chunk = JobInterpreter.CHUNK_ROWS
    extra_chunks = -(-big // chunk) - -(-small // chunk)
    assert extra_chunks == 12
    # 12 000 more rows: at one frame per row and operator this gap was
    # > 300 000; the parser's share of it is a constant per column
    allowance = 60 * extra_chunks + 10 * len(SCHEMA)
    assert runs[big] - runs[small] <= allowance, runs


def test_cold_numeric_sizing_enters_no_frame_per_distinct_value():
    """The text-length memo renders its misses in C-level passes: a
    cold float column of 4 000 distinct values and one of 16 000 enter
    the same Python frames."""
    frames = {}
    for n_rows in (4000, 16000):
        tuples._FLOAT_TEXT_LENS.clear()
        rows = [(i * 0.37 + 0.5,) for i in range(n_rows)]
        size, calls = python_calls(lambda: serialized_rows_size(rows))
        assert len(rows) == n_rows
        assert size == sum(len(repr(row[0])) for row in rows)
        frames[n_rows] = sum(calls.values())
    assert frames[4000] == frames[16000], frames


def test_load_filter_group_enters_no_frame_per_row():
    """Rows that reach a rearrange as the load's own objects (through
    a filter here) are sized a column at a time like any other chunk,
    on the first run already: no function is entered once per row, and
    the shuffle's byte counter is the summed width of the rows it
    received."""
    query = (
        f"A = load 'in/pv' as ({COLUMNS});"
        "B = filter A by action > 2;"
        "C = group B by user;"
        "D = foreach C generate group, COUNT(B);"
        "store D into '{out}';"
    )
    n_rows = 2100  # 1 200 reach the shuffle, in 200 groups
    with ReStoreSession(restore_enabled=False) as session:
        session.write_file("in/warm", page_views(50))
        count_by_user(session, "in/warm", "out/warm")  # caches, imports
        session.write_file("in/pv", page_views(n_rows))
        first, calls = python_calls(lambda: session.run(query.format(out="o1")))
        kept = [row for row in session.dfs.read_rows("in/pv", SCHEMA) if row[2] > 2]
    per_row = {name: n for name, n in calls.items() if n >= len(kept)}
    assert not per_row, per_row
    (stats,) = first.stats.job_stats.values()
    assert stats.input_records == n_rows
    assert stats.shuffle_records == len(kept) == 1200
    assert stats.shuffle_bytes == sum(
        len(serialize_row(row)) + len(repr(row[0])) + 2 for row in kept
    )


class TestChunkHandlersMatchTheirPerRowForms:
    """The C-level map-side passes against the per-row code they stand
    in for."""

    ROWS = [
        ("alice", 3, 1.5, [("x", 1), ("y", 2)]),
        ("bob", None, 2.5, []),
        (None, 7, None, [("z", 3)]),
    ]

    def test_bare_column_projection_is_the_per_row_closure(self):
        shapes = [
            [Column(0)],  # one column still yields 1-tuples
            [Column(2), Column(0)],
            [Column(1), Column(1), Column(0)],
            [Column(0), Column(3)],  # a list-valued column: wrapped into a Bag
            [Column(3)],
            [Column(0), BinaryOp("+", Column(1), Const(1))],  # not bare
            [],
        ]
        for exprs in shapes:
            flattens = [False] * len(exprs)
            per_row = compile_projection(exprs, flattens)
            got = compile_projection_list(exprs, flattens)(self.ROWS)
            assert got == [per_row(row) for row in self.ROWS], exprs
            assert all(type(row) is tuple for row in got)
        wrap = compile_projection_list([Column(0), Column(3)], [False, False])
        assert all(type(row[1]) is Bag for row in wrap(self.ROWS))
        # a chunk without lists takes the itemgetter pass and shares values
        pick = compile_projection_list([Column(2), Column(0)], [False, False])
        assert pick(self.ROWS)[0][1] is self.ROWS[0][0]
        assert compile_projection_list([Column(0)], [True]) is None

    def test_bare_column_key_is_make_key(self):
        for exprs in (
            [Column(1)],
            [Column(0), Column(2)],
            [Column(2), Column(0), Column(1)],
            [Column(0), BinaryOp("+", Column(1), Const(1))],
            [],
        ):
            key_of = compile_key(exprs)
            for row in self.ROWS:
                values = tuple(e.eval(row) for e in exprs)
                assert key_of(row) == (values[0] if len(exprs) == 1 else values), exprs

    def test_null_key_scan_never_misses_a_null(self):
        pair = namedtuple("pair", "a b")
        chunks = {
            "scalars": (["a", 1, 2.5], False),
            "scalar-null": (["a", None], True),
            "tuples": ([("a", 1), ("b", 2)], False),
            "tuple-null-component": ([("a", 1), ("b", None)], True),
            # falsy is not null
            "falsy-scalars": ([0, "", 0.0, False], False),
            "falsy-tuples": ([(0, ""), (False, 0.0)], False),
            # a chunk mixing tuple and scalar keys asks row by row
            "mixed-tuple-and-scalar": ([("a", 1), "b"], True),
            "tuple-subclass": ([pair("a", 1)], True),
            "tuple-subclass-null": ([pair("a", None)], True),
            "nested-null-is-not-a-null-key": ([("a", (None,))], False),
            "empty": ([], False),
        }
        for label, (keys, may) in chunks.items():
            assert _may_hold_null_key(keys) is may, label
            if not may:
                assert not any(map(_is_null_key, keys)), label
