"""The numeric text-length memo under ``COLUMN_SIZE`` is exact.

``COLUMN_SIZE[int]`` / ``[float]`` size a column as the summed length
of ``str`` / ``repr`` of its values through one process-wide memo
(value -> text length).  Equal values of one exact type render alike,
with one exception the memo must never store: ``0.0 == -0.0`` (they
share a dict key) but render as 3 and 4 characters.  These tests hold
the memo to the unmemoised sum on cold and warm memos, across the
clear at its cap and under concurrent use.
"""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dfs.dataset import canonical_ascii_size
from repro.relational import tuples
from repro.relational.schema import Schema
from repro.relational.tuples import COLUMN_SIZE, serialize_rows, serialized_rows_size

CAP = tuples._TEXT_LENS_CAP
NAN = float("nan")
RENDER = {int: str, float: repr}


def reference(column) -> int:
    return sum(map(len, map(RENDER[type(column[0])], column)))


def cold() -> None:
    tuples._INT_TEXT_LENS.clear()
    tuples._FLOAT_TEXT_LENS.clear()


@pytest.fixture(autouse=True)
def cold_memo():
    cold()
    yield
    cold()


def size(column) -> int:
    return COLUMN_SIZE[type(column[0])](column)


class TestExactness:
    def test_float_zeros_in_either_order(self):
        for column in (
            [0.0],
            [-0.0],
            [0.0, -0.0],
            [-0.0, 0.0],
            [-0.0, 1.5, 0.0, -0.0],
            [0.0],
            [-0.0],
        ):
            assert size(column) == reference(column), column
        cold()
        for column in ([-0.0], [0.0], [-0.0, -0.0], [0.0, 0.0]):
            assert size(column) == reference(column), column
        assert 0.0 not in tuples._FLOAT_TEXT_LENS

    def test_the_same_nan_object_twice(self):
        for column in ([NAN, NAN], [NAN], [NAN, float("nan"), 2.5]):
            assert size(column) == reference(column), column
        assert tuples._FLOAT_TEXT_LENS[NAN] == 3

    def test_wide_and_negative_ints(self):
        columns = [
            [2**64, -(2**64), 2**64 + 1, -1, 0],
            [2**200, -(2**200), -5, 5, 0, 2**64],
            [-1, -1, 0, 10**30],
        ]
        for column in columns + columns:
            assert size(column) == reference(column), column

    def test_a_run_across_the_clear_at_the_cap(self):
        chunk = CAP // 3
        columns = [
            [(start + i) * 0.125 for i in range(chunk)]
            for start in range(0, 5 * chunk, chunk)
        ]
        for column in columns + columns[:2]:
            assert size(column) == reference(column)
            assert len(tuples._FLOAT_TEXT_LENS) <= CAP + len(column)
        # the clear ran: the first column was evicted, then re-rendered
        assert len(tuples._FLOAT_TEXT_LENS) < 5 * chunk

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.lists(
                    st.one_of(
                        st.integers(),
                        st.integers(min_value=-(2**80), max_value=2**80),
                        st.sampled_from([0, -1, 7, 2**64, -(2**64) - 1]),
                    ),
                    min_size=1,
                    max_size=30,
                ),
                st.lists(
                    st.one_of(
                        st.floats(),
                        st.sampled_from([0.0, -0.0, NAN, 1.5, 0.1, 1e300, -2.5e-8]),
                    ),
                    min_size=1,
                    max_size=30,
                ),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_a_sequence_of_columns_on_one_warm_memo(self, columns):
        for column in columns + columns:
            assert size(column) == reference(column), column
        # non-vacuity: the second pass met the values the first stored
        stored = {**tuples._INT_TEXT_LENS, **tuples._FLOAT_TEXT_LENS}
        assert stored or all(not v for column in columns for v in column)


class TestByteCountsMatchTheText:
    SCHEMA = Schema.parse("k:chararray, n:long, x:double")
    ROWS = [
        ("a", 0, 0.0),
        ("bb", -7, -0.0),
        ("c", 2**70, 1.5),
        ("d", -(2**70), -0.0),
        ("e", 12, 0.0),
        ("f", 0, 1e-300),
    ] * 3

    def test_cold_and_warm(self):
        want = len(serialize_rows(self.ROWS).encode())
        for _ in range(3):  # cold, then warm twice
            assert canonical_ascii_size(self.ROWS, self.SCHEMA) == want
            # the wire counts no newline per row
            assert serialized_rows_size(self.ROWS) == want - len(self.ROWS)
        # non-vacuity: the warm passes found the numbers memoised
        assert set(tuples._INT_TEXT_LENS) == {row[1] for row in self.ROWS}
        assert set(tuples._FLOAT_TEXT_LENS) == {1.5, 1e-300}
        cold()
        assert serialized_rows_size(self.ROWS) == want - len(self.ROWS)


class TestBoundAndThreads:
    def test_the_memo_never_outgrows_cap_plus_one_column(self):
        width = 5000
        total = 0
        for start in range(0, 3 * CAP + 2 * width, width):
            column = [start + i for i in range(width)]
            total += size(column)
            assert len(tuples._INT_TEXT_LENS) <= CAP + width
        assert total == sum(len(str(v)) for v in range(start + width))

    def test_eight_threads_share_one_memo_exactly(self):
        errors = []

        def worker(tid):
            for r in range(24):
                start = (tid * 7 + r) * 1000
                column = [k * 0.25 for k in range(start, start + 1500)]
                column += [0.0, -0.0, -0.0] if r % 2 else [-0.0, 0.0]
                got, want = size(column), reference(column)
                if got != want:
                    errors.append((tid, r, got, want))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert tuples._FLOAT_TEXT_LENS
