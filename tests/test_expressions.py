"""Unit tests for repro.relational.expressions."""

import pytest

from repro.exceptions import ExpressionError
from repro.relational.compiled import compile_expression
from repro.relational.expressions import (
    AggCall,
    BagField,
    BagStar,
    BinaryOp,
    Column,
    Const,
    FuncCall,
    UnaryOp,
    expression_from_dict,
)
from repro.relational.tuples import Bag


class TestColumnAndConst:
    def test_column_eval(self):
        assert Column(1).eval(("a", "b")) == "b"

    def test_const_eval(self):
        assert Const(42).eval(()) == 42

    def test_column_fingerprint_ignores_name(self):
        assert Column(0, "x").fingerprint() == Column(0, "y").fingerprint()

    def test_references(self):
        assert Column(2).references() == frozenset((2,))
        assert Const(1).references() == frozenset()


class TestBinaryOp:
    def test_arithmetic(self):
        expr = BinaryOp("+", Column(0), Const(10))
        assert expr.eval((5,)) == 15

    def test_comparison(self):
        expr = BinaryOp(">", Column(0), Const(3))
        assert expr.eval((5,)) is True
        assert expr.eval((1,)) is False

    def test_division_by_zero_is_null(self):
        expr = BinaryOp("/", Const(1), Const(0))
        assert expr.eval(()) is None

    def test_null_propagation(self):
        expr = BinaryOp("+", Column(0), Const(1))
        assert expr.eval((None,)) is None

    def test_and_or(self):
        t, f = Const(True), Const(False)
        assert BinaryOp("and", t, f).eval(()) is False
        assert BinaryOp("or", t, f).eval(()) is True

    def test_unknown_op_rejected(self):
        with pytest.raises(ExpressionError):
            BinaryOp("**", Const(1), Const(2))

    def test_references_union(self):
        expr = BinaryOp("+", Column(0), Column(3))
        assert expr.references() == frozenset((0, 3))


class TestUnaryOp:
    def test_not(self):
        assert UnaryOp("not", Const(True)).eval(()) is False

    def test_neg(self):
        assert UnaryOp("neg", Const(5)).eval(()) == -5

    def test_isnull(self):
        assert UnaryOp("isnull", Column(0)).eval((None,)) is True
        assert UnaryOp("isnull", Column(0)).eval((1,)) is False

    def test_notnull(self):
        assert UnaryOp("notnull", Column(0)).eval((None,)) is False

    def test_not_of_null_is_null(self):
        assert UnaryOp("not", Column(0)).eval((None,)) is None


class TestFuncCall:
    def test_concat(self):
        expr = FuncCall("CONCAT", (Column(0), Const("!")))
        assert expr.eval(("hi",)) == "hi!"

    def test_upper_lower(self):
        assert FuncCall("UPPER", (Const("ab"),)).eval(()) == "AB"
        assert FuncCall("LOWER", (Const("AB"),)).eval(()) == "ab"

    def test_size(self):
        assert FuncCall("SIZE", (Const("abc"),)).eval(()) == 3

    def test_null_safe(self):
        assert FuncCall("UPPER", (Const(None),)).eval(()) is None

    def test_unknown_function_rejected(self):
        with pytest.raises(ExpressionError):
            FuncCall("NOPE", ())

    def test_round(self):
        assert FuncCall("ROUND", (Const(2.6),)).eval(()) == 3


class TestAggregates:
    def _row(self):
        return ("key", Bag([("a", 1.0), ("b", 3.0), ("c", None)]))

    def test_sum_skips_nulls(self):
        expr = AggCall("SUM", BagField(1, 1))
        assert expr.eval(self._row()) == 4.0

    def test_count_skips_nulls(self):
        expr = AggCall("COUNT", BagField(1, 1))
        assert expr.eval(self._row()) == 2

    def test_count_star(self):
        expr = AggCall("COUNT_STAR", BagStar(1))
        assert expr.eval(self._row()) == 3

    def test_avg(self):
        expr = AggCall("AVG", BagField(1, 1))
        assert expr.eval(self._row()) == 2.0

    def test_min_max(self):
        assert AggCall("MIN", BagField(1, 1)).eval(self._row()) == 1.0
        assert AggCall("MAX", BagField(1, 1)).eval(self._row()) == 3.0

    def test_sum_of_empty_bag_is_null(self):
        row = ("key", Bag())
        assert AggCall("SUM", BagField(1, 0)).eval(row) is None

    def test_count_of_empty_bag_is_zero(self):
        row = ("key", Bag())
        assert AggCall("COUNT", BagField(1, 0)).eval(row) == 0

    def test_bagfield_eval_on_none(self):
        assert BagField(1, 0).eval(("k", None)) == []

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(ExpressionError):
            AggCall("MEDIAN", BagStar(1))


def _reference_aggregate(name, values):
    """The aggregates as a filtered copy, summed in bag order."""
    kept = [v for v in values if v is not None]
    if name == "COUNT":
        return len(kept)
    if not kept:
        return None
    if name == "AVG":
        return sum(kept) / len(kept)
    return {"SUM": sum, "MIN": min, "MAX": max}[name](kept)


class TestAggregateParity:
    """The null-skipping aggregates agree, value and type, with a
    filtered copy summed in order — on both evaluators, for a Bag and
    for a plain list of rows, with and without nulls."""

    COLUMNS = {
        "ints": [3, -7, 12, 0, 5],
        # float addition is not associative: the sum depends on bag order
        "floats": [1e16, 1.0, -1e16, 0.5, 0.25],
        "ints_with_nulls": [None, 4, None, -2, 9, None],
        "floats_with_nulls": [2.5, None, 1e16, 1.0, -1e16, None],
        "only_nulls": [None, None],
        "empty": [],
    }

    @pytest.mark.parametrize("name", ["SUM", "AVG", "MIN", "MAX", "COUNT"])
    @pytest.mark.parametrize("column", sorted(COLUMNS))
    @pytest.mark.parametrize("container", [Bag, list])
    def test_matches_a_filtered_copy(self, name, column, container):
        values = self.COLUMNS[column]
        row = ("key", container([("x", v) for v in values]))
        expr = AggCall(name, BagField(1, 1))
        expected = _reference_aggregate(name, values)
        for got in (expr.eval(row), compile_expression(expr)(row)):
            assert (type(got), got) == (type(expected), expected)


class TestSerialization:
    @pytest.mark.parametrize(
        "expr",
        [
            Column(3, "x"),
            Const("hello"),
            Const(2.5),
            BinaryOp("<=", Column(0), Const(5)),
            UnaryOp("isnull", Column(1)),
            FuncCall("CONCAT", (Column(0), Const("a"))),
            AggCall("SUM", BagField(1, 2)),
            AggCall("COUNT_STAR", BagStar(1)),
        ],
    )
    def test_round_trip(self, expr):
        restored = expression_from_dict(expr.to_dict())
        assert restored.fingerprint() == expr.fingerprint()

    def test_equality_by_fingerprint(self):
        a = BinaryOp("+", Column(0), Const(1))
        b = BinaryOp("+", Column(0, "other_name"), Const(1))
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality(self):
        assert BinaryOp("+", Column(0), Const(1)) != BinaryOp(
            "+", Column(0), Const(2)
        )
