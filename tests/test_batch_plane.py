"""Chunk-length invariance of the data plane.

The contract under test: :attr:`JobInterpreter.CHUNK_ROWS` changes
wall time and nothing else.  Whole PigMix-style streams run at several
chunk lengths including pathological ones, and every observable must
match the golden corpus byte for byte: the full DFS snapshot, all
``JobStats`` counters, the DFS byte counters, and the typed decision
log.  A Hypothesis differential drives the same invariance over
generated tables (nulls, skew, empty relations included) and holds the
outputs to a no-reuse session and to a plain-Python oracle.
"""

from collections import defaultdict

import pytest
from golden_corpus import (
    CHUNK_LENGTHS,
    EVENTS,
    GROUPED,
    NAMES,
    static_stream,
    assert_stream_matches_golden,
    run_stream,
)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.execution.interpreter import JobInterpreter
from repro.relational.compiled import (
    compile_expression,
    compile_filter_list,
    compile_key,
    compile_projection,
)
from repro.relational.expressions import (
    AggCall,
    BagField,
    BagStar,
    BinaryOp,
    Column,
    Const,
    FuncCall,
    RowSample,
    UnaryOp,
)
from repro.relational.tuples import Bag
from repro.session import ReStoreSession


class TestDeterministicDifferentials:
    def test_filter_group_aggregate_chain_with_reuse(self, monkeypatch):
        assert_stream_matches_golden(
            "filter_group_aggregate_chain_with_reuse", monkeypatch
        )

    def test_left_outer_join_isolating_null_keys(self, monkeypatch):
        assert_stream_matches_golden("left_outer_join_isolating_null_keys", monkeypatch)

    def test_full_outer_self_join_falls_back_to_per_row(self, monkeypatch):
        # two isolating rearranges fed from one load: the plane must
        # detect the null-numbering hazard and run one-row chunks,
        # whatever CHUNK_ROWS says
        assert_stream_matches_golden("full_outer_self_join", monkeypatch)

    def test_order_by_with_limit(self, monkeypatch):
        assert_stream_matches_golden("order_by_with_limit", monkeypatch)

    def test_union_distinct_and_split_stores(self, monkeypatch):
        assert_stream_matches_golden("union_distinct_and_split_stores", monkeypatch)

    def test_replicated_join(self, monkeypatch):
        assert_stream_matches_golden("replicated_join", monkeypatch)

    def test_empty_input_relation(self, monkeypatch):
        assert_stream_matches_golden("empty_input_relation", monkeypatch)


def _rows_to_text(rows):
    lines = []
    for u, a, r in rows:
        lines.append(
            "\t".join(
                [
                    "" if u is None else u,
                    "" if a is None else str(a),
                    "" if r is None else repr(float(r)),
                ]
            )
        )
    return "".join(line + "\n" for line in lines)


@st.composite
def event_tables(draw):
    rows = draw(
        st.lists(
            st.tuples(
                st.one_of(
                    st.none(),
                    st.sampled_from(["u1", "u2", "u3", "long_user_name"]),
                ),
                st.one_of(st.none(), st.integers(-5, 30)),
                st.one_of(
                    st.none(),
                    st.floats(
                        min_value=-10,
                        max_value=10,
                        allow_nan=False,
                        allow_infinity=False,
                    ),
                ),
            ),
            max_size=30,
        )
    )
    threshold = draw(st.integers(-2, 20))
    return rows, threshold


def _plain_python_aggregate(rows, threshold):
    """filter a > threshold / group by u / COUNT, SUM(r) over the
    generated rows, sharing no code with ``repro``: COUNT counts
    tuples, SUM skips nulls and is null when nothing is left."""
    groups = defaultdict(list)
    for u, a, r in rows:
        if a is not None and a > threshold:
            groups[u].append(r)
    out = {}
    for u, values in groups.items():
        kept = [float(v) for v in values if v is not None]
        out[u] = (len(values), sum(kept) if kept else None)
    return out


class TestHypothesisDifferential:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(event_tables())
    def test_pigmix_style_chain_is_tier_invariant(self, monkeypatch, table):
        rows, threshold = table
        prefix = GROUPED.replace("a > 3", f"a > {threshold}")
        stream = static_stream(
            {"data/ev": _rows_to_text(rows)},
            [
                prefix + "D = foreach C generate group, COUNT(B), SUM(B.r);\n"
                "store D into 'out/agg';",
                prefix + "D = foreach C generate group;\nstore D into 'out/d0';",
                prefix + "D = foreach C generate group;\nstore D into 'out/d1';",
            ],
        )
        runs = []
        for chunk_rows in CHUNK_LENGTHS:
            monkeypatch.setattr(JobInterpreter, "CHUNK_ROWS", chunk_rows)
            runs.append(run_stream(stream))
        assert runs[1:] == runs[:-1]  # every observable, every chunk length
        outputs = runs[0][1]
        no_reuse = run_stream(stream, rewrite_enabled=False, inject_enabled=False)
        assert outputs == no_reuse[1]
        want = _plain_python_aggregate(rows, threshold)
        got = {u: (n, total) for u, n, total in outputs[0]["out/agg"]}
        assert got.keys() == want.keys()
        for u, (n, total) in want.items():
            assert got[u][0] == n
            assert got[u][1] == pytest.approx(total)
        assert sorted(outputs[1]["out/d0"], key=repr) == sorted(
            ((u,) for u in want), key=repr
        )


ROWS = [
    ("alice", 3, 1.5, Bag([("x", 1), ("y", 2)])),
    (None, -7, 0.25, Bag([])),
    ("bob", 0, None, None),
    ("carol", 12, float(10**6), Bag([(None, 5)])),
]

EXPRESSIONS = [
    Column(0),
    Const(42),
    Const(None),
    BinaryOp(">", Column(1), Const(2)),
    BinaryOp("==", Column(0), Const("alice")),
    BinaryOp("<", Column(1), Column(2)),
    BinaryOp("+", Column(1), Const(1)),
    BinaryOp("/", Column(2), Const(0)),
    BinaryOp("and", BinaryOp(">", Column(1), Const(0)), Column(0)),
    BinaryOp("or", Column(2), Const(False)),
    UnaryOp("not", Column(1)),
    UnaryOp("neg", Column(2)),
    UnaryOp("isnull", Column(0)),
    UnaryOp("notnull", Column(2)),
    FuncCall("UPPER", (Column(0),)),
    FuncCall("CONCAT", (Column(0), Const("!"))),
    BagField(3, 1),
    BagStar(3),
    AggCall("COUNT", BagStar(3)),
    AggCall("SUM", BagField(3, 1)),
    RowSample(0.5),
]


class TestCompiledExpressions:
    @pytest.mark.parametrize("expr", EXPRESSIONS, ids=lambda e: repr(e)[:50])
    def test_compiled_matches_eval(self, expr):
        compiled = compile_expression(expr)
        for row in ROWS:
            assert compiled(row) == expr.eval(row), (expr, row)

    def test_compiled_key_matches_make_key_shapes(self):
        single = compile_key([Column(1)])
        multi = compile_key([Column(0), Column(1)])
        for row in ROWS:
            assert single(row) == row[1]
            assert multi(row) == (row[0], row[1])

    def test_compile_filter_list_matches_eval_truthiness(self):
        predicates = [
            BinaryOp(">", Column(1), Const(2)),  # codegen shape
            BinaryOp("==", Column(0), Const("alice")),  # codegen shape
            BinaryOp("and", BinaryOp(">", Column(1), Const(0)), Column(0)),
            UnaryOp("notnull", Column(2)),
        ]
        for predicate in predicates:
            filter_rows = compile_filter_list(predicate)
            want = [row for row in ROWS if bool(predicate.eval(row))]
            assert filter_rows(ROWS) == want, predicate

    def test_compile_projection_matches_foreach_semantics(self):
        project = compile_projection([Column(0), BagField(3, 0)], [False, False])
        out = project(ROWS[0])
        assert out[0] == "alice"
        assert isinstance(out[1], Bag)
        assert list(out[1]) == [("x",), ("y",)]
        # FLATTEN stays on the interpreted path
        assert compile_projection([Column(0)], [True]) is None


class TestBatchSafety:
    def _chunk_rows_chosen(self, join):
        with ReStoreSession() as session:
            session.write_file("d", EVENTS)
            session.write_file("n", NAMES)
            workflow = session.server.compile(
                "A = load 'd' as (u:chararray, a:int, r:double);\n"
                f"{join}\n"
                "store C into 'o';"
            )
            job = next(j for j in workflow.topo_order() if j.has_shuffle)
            interp = JobInterpreter(job, session.dfs)
            interp.run()
            return interp.chunk_rows

    def test_two_isolating_rearranges_disable_batching(self):
        chosen = self._chunk_rows_chosen(
            "B = load 'd' as (u:chararray, a:int, r:double);\n"
            "C = join A by u full outer, B by u;"
        )
        assert chosen == 1

    def test_single_isolating_rearrange_keeps_batching(self):
        chosen = self._chunk_rows_chosen(
            "B = load 'n' as (u:chararray, n:chararray);\n"
            "C = join A by u left outer, B by u;"
        )
        assert chosen == JobInterpreter.CHUNK_ROWS
