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
from itertools import product
from operator import itemgetter

import pytest

from repro import ReStoreSession
from repro.execution.interpreter import (
    JobInterpreter,
    _as_flatten_items,
    _is_null_key,
    _may_hold_null_key,
)
from repro.relational.compiled import (
    compile_key,
    compile_projection,
    compile_projection_list,
)
from repro.relational.expressions import BinaryOp, Column, Const
from repro.mapreduce.shuffle import ShuffleBuffer
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


def test_add_batch_over_warm_keys_enters_no_frame_per_record():
    """A chunk of 1 000 and one of 8 000 records over keys the buffer
    already holds enter the same frames, on both key tables: raw
    ``str`` keys, raw ``(str, int)`` keys, and keys mixed with nulls
    (the (type, repr) table)."""
    shapes = {
        "raw-str": lambda i: f"u{i % 50}",
        "raw-pairs": lambda i: (f"u{i % 50}", i % 3),
        "typed": lambda i: f"u{i % 50}" if i % 7 else None,
    }
    for label, key_of in shapes.items():
        frames = {}
        for n_records in (1000, 8000):
            keys = list(map(key_of, range(n_records)))
            rows = [(f"r{i}", i) for i in range(n_records)]
            buf = ShuffleBuffer(4)
            buf.add_batch(0, keys, rows)  # every key warm
            _, calls = python_calls(lambda: buf.add_batch(0, keys, rows))
            groups = list(buf.all_groups())
            assert buf.records == 2 * n_records, label
            assert len(groups) == len(set(keys)), label
            assert sum(len(bags[0]) for _, bags in groups) == 2 * n_records
            frames[n_records] = sum(calls.values())
        assert frames[1000] == frames[8000], (label, frames)
        assert (len(buf._raw[0]) > 0) is label.startswith("raw"), label


def test_join_enters_frames_per_package_row_not_per_output_row():
    """An inner JOIN of 20 keys with 10 and with 50 rows per key on
    each side: 2 000 against 50 000 output rows from the same 20
    package rows, through the same frames."""

    def join(session, m):
        return session.run(
            f"A = load 'in/a{m}' as (k, v:int);"
            f"B = load 'in/b{m}' as (k, w:int);"
            "C = join A by k, B by k;"
            f"store C into 'out/{m}';"
        )

    frames = {}
    with ReStoreSession(restore_enabled=False) as session:
        for m in (1, 10, 50):  # the first run warms caches and imports
            for side in "ab":
                text = "".join(f"k{i % 20}\t{i}\n" for i in range(20 * m))
                session.write_file(f"in/{side}{m}", text)
            result, calls = python_calls(lambda: join(session, m))
            rows = result.outputs[f"out/{m}"]
            assert len(rows) == 20 * m * m
            assert len({row[0] for row in rows}) == 20
            (stats,) = result.stats.job_stats.values()
            assert stats.reduce_groups == 20
            frames[m] = sum(calls.values())
    assert frames[10] == frames[50], frames


def test_group_count_frames_per_group_are_a_constant():
    """GROUP -> COUNT over 200 and over 800 keys, 4 rows per key: the
    larger run adds at most 5 frames per extra group (measured: the
    foreach's projection closure, its aggregate closure, the bag-star
    closure and the bag's ``__len__`` / ``__iter__``), plus a few per
    extra map chunk.  Package rows themselves cost none: no generator
    resumes and no ``Bag.__init__`` per group."""

    def views(n_users):
        return "".join(
            f"user{i % n_users}\t{i}\t{i % 7}\t{i * 0.5}\tq{i % 13}\tpage{i}\n"
            for i in range(4 * n_users)
        )

    runs = {}
    with ReStoreSession(restore_enabled=False) as session:
        session.write_file("in/warm", page_views(50))
        count_by_user(session, "in/warm", "out/warm")  # caches, imports
        for n_users in (200, 800):
            session.write_file(f"in/g{n_users}", views(n_users))
            result, calls = python_calls(
                lambda: count_by_user(session, f"in/g{n_users}", f"out/{n_users}")
            )
            counts = dict(result.outputs[f"out/{n_users}"])
            assert len(counts) == n_users and set(counts.values()) == {4}
            (stats,) = result.stats.job_stats.values()
            assert stats.reduce_groups == n_users
            runs[n_users] = calls
    assert "_package_rows" not in runs[800]
    assert runs[800]["__init__"] == runs[200]["__init__"]
    extra_groups = 600
    extra_chunks = -(-3200 // JobInterpreter.CHUNK_ROWS) - 1
    grown = sum(runs[800].values()) - sum(runs[200].values())
    assert grown <= 5 * extra_groups + 20 * extra_chunks, grown


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


def tagged_foreach_rows(exprs, flattens, row):
    """The FLATTEN evaluator :meth:`JobInterpreter._foreach_rows`
    replaced: each field tagged flat or scalar, output rows built per
    combination in Python."""

    def flatten_items(value):
        if value is None:
            return []
        if isinstance(value, Bag):
            return [tuple(r) for r in value]
        if isinstance(value, list):
            return [v if isinstance(v, tuple) else (v,) for v in value]
        if isinstance(value, tuple):
            return [value]
        return [(value,)]

    scalar_or_items = []
    for expr, flatten in zip(exprs, flattens):
        value = expr(row)
        if flatten:
            items = flatten_items(value)
            if not items:
                return
            scalar_or_items.append(("flat", items))
        else:
            if isinstance(value, list):
                value = Bag(v if isinstance(v, tuple) else (v,) for v in value)
            scalar_or_items.append(("scalar", value))
    flat_groups = [items for tag, items in scalar_or_items if tag == "flat"]
    if not flat_groups:
        yield tuple(value for _, value in scalar_or_items)
        return
    for combo in product(*flat_groups):
        out = []
        flat_index = 0
        for tag, value in scalar_or_items:
            if tag == "flat":
                out.extend(combo[flat_index])
                flat_index += 1
            else:
                out.append(value)
        yield tuple(out)


class TestFlattenMatchesTheTaggedGenerator:
    """One FLATTEN evaluator: every output row, and its order, as the
    tagged generator produced them."""

    pair = namedtuple("pair", "a b")
    VALUES = [
        7,
        "s",
        None,
        (1, "t"),
        (),
        [1, (2, 3), "x"],
        [],
        Bag([]),
        Bag([("a", 1), ("b", 2)]),
        Bag([("a",), ("b", 2, 3.5), ()]),  # ragged
        Bag([["l", 1], ("t", 2)]),  # a list row
        Bag(["xy", ("t",)]),  # a str row
        Bag([pair("n", 1), ("t", 2)]),  # a tuple subclass row
        Bag([(None, None)]),
    ]

    def test_every_shape_and_mix_of_fields(self):
        checked = 0
        for width in (1, 2, 3):
            exprs = [itemgetter(i) for i in range(width)]
            for flattens in product((True, False), repeat=width):
                for row in product(self.VALUES, repeat=width):
                    got = list(JobInterpreter._foreach_rows(exprs, flattens, row))
                    want = list(tagged_foreach_rows(exprs, flattens, row))
                    assert got == want, (flattens, row)
                    assert all(type(out) is tuple for out in got)
                    checked += len(got)
        assert checked > 30_000

    def test_non_iterable_bag_rows_fail_alike(self):
        row = (Bag([1, 2]), "k")
        for evaluate in (JobInterpreter._foreach_rows, tagged_foreach_rows):
            with pytest.raises(TypeError):
                list(evaluate([itemgetter(0), itemgetter(1)], (True, False), row))

    def test_tuple_rows_are_flattened_without_a_copy(self):
        bag = Bag([("a", 1), ("b", 2)])
        assert _as_flatten_items(bag) is bag.rows
        rows = [("a", 1), ("b",)]
        assert _as_flatten_items(rows) is rows
        ragged = Bag([("a", 1), ["b"]])
        assert _as_flatten_items(ragged) == [("a", 1), ("b",)]
