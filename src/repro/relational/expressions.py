"""Expression trees evaluated over rows.

Expressions are built by the logical-plan builder with all field
references *resolved to positions*, so evaluation never consults a
schema and — crucially for ReStore — two queries that compute the same
thing over the same inputs produce identical expression fingerprints
even when their Pig aliases differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from repro.exceptions import ExpressionError
from repro.relational.tuples import Bag, Row


class Expression:
    """Base class: something evaluable against one row."""

    def eval(self, row: Row) -> Any:
        raise NotImplementedError

    def fingerprint(self) -> tuple:
        """A hashable canonical form used for operator equivalence."""
        raise NotImplementedError

    def references(self) -> frozenset:
        """Indexes of the input fields this expression reads."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Expression)
            and self.fingerprint() == other.fingerprint()
        )

    def __hash__(self) -> int:
        return hash(self.fingerprint())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.fingerprint()!r})"


@dataclass(frozen=True, eq=False)
class Column(Expression):
    """A positional reference to one input field.

    ``name`` is carried for readable plan rendering only; it does not
    participate in equivalence (aliases differ across queries).
    """

    index: int
    name: str = ""

    def eval(self, row: Row) -> Any:
        return row[self.index]

    def fingerprint(self) -> tuple:
        return ("col", self.index)

    def references(self) -> frozenset:
        return frozenset((self.index,))

    def to_dict(self) -> dict:
        return {"kind": "col", "index": self.index, "name": self.name}


@dataclass(frozen=True, eq=False)
class Const(Expression):
    value: Any = None

    def eval(self, row: Row) -> Any:
        return self.value

    def fingerprint(self) -> tuple:
        return ("const", type(self.value).__name__, self.value)

    def references(self) -> frozenset:
        return frozenset()

    def to_dict(self) -> dict:
        return {"kind": "const", "value": self.value}


_BINOPS: Dict[str, Callable] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b if b not in (0, 0.0) else None,
    "%": lambda a, b: a % b if b not in (0, 0.0) else None,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True, eq=False)
class BinaryOp(Expression):
    op: str
    left: Expression = None
    right: Expression = None

    def __post_init__(self):
        if self.op not in _BINOPS and self.op not in ("and", "or"):
            raise ExpressionError(f"unknown binary operator {self.op!r}")

    def eval(self, row: Row) -> Any:
        if self.op == "and":
            return bool(self.left.eval(row)) and bool(self.right.eval(row))
        if self.op == "or":
            return bool(self.left.eval(row)) or bool(self.right.eval(row))
        a = self.left.eval(row)
        b = self.right.eval(row)
        if a is None or b is None:
            return None
        return _BINOPS[self.op](a, b)

    def fingerprint(self) -> tuple:
        return ("bin", self.op, self.left.fingerprint(), self.right.fingerprint())

    def references(self) -> frozenset:
        return self.left.references() | self.right.references()

    def to_dict(self) -> dict:
        return {
            "kind": "bin",
            "op": self.op,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }


@dataclass(frozen=True, eq=False)
class UnaryOp(Expression):
    op: str
    operand: Expression = None

    def eval(self, row: Row) -> Any:
        value = self.operand.eval(row)
        if self.op == "not":
            return None if value is None else not bool(value)
        if self.op == "neg":
            return None if value is None else -value
        if self.op == "isnull":
            return value is None
        if self.op == "notnull":
            return value is not None
        raise ExpressionError(f"unknown unary operator {self.op!r}")

    def fingerprint(self) -> tuple:
        return ("un", self.op, self.operand.fingerprint())

    def references(self) -> frozenset:
        return self.operand.references()

    def to_dict(self) -> dict:
        return {"kind": "un", "op": self.op, "operand": self.operand.to_dict()}


# -- scalar functions ----------------------------------------------------------

def _null_safe(fn: Callable) -> Callable:
    def wrapper(*args):
        if any(a is None for a in args):
            return None
        return fn(*args)

    return wrapper


SCALAR_FUNCTIONS: Dict[str, Callable] = {
    "CONCAT": _null_safe(lambda a, b: str(a) + str(b)),
    "UPPER": _null_safe(lambda a: str(a).upper()),
    "LOWER": _null_safe(lambda a: str(a).lower()),
    "SUBSTRING": _null_safe(lambda s, i, j: str(s)[int(i):int(j)]),
    "STRSPLIT": _null_safe(lambda s, sep: tuple(str(s).split(str(sep)))),
    "SIZE": lambda a: None if a is None else len(a),
    "ABS": _null_safe(abs),
    "ROUND": _null_safe(lambda a: int(round(a))),
    "FLOOR": _null_safe(math.floor),
    "CEIL": _null_safe(math.ceil),
    "LOG": _null_safe(lambda a: math.log(a) if a > 0 else None),
}


def register_udf(name: str, fn: Callable, null_safe: bool = True) -> None:
    """Register a Python scalar UDF usable from Pig Latin.

    The function is called positionally with the evaluated arguments.
    With ``null_safe`` (the default, matching most Pig builtins) any
    None argument short-circuits to None.  UDFs must be deterministic:
    their results may be materialized in the ReStore repository and
    reused by later queries.
    """
    key = name.upper()
    if key in AGGREGATE_FUNCTIONS:
        raise ExpressionError(f"{name!r} collides with an aggregate builtin")
    SCALAR_FUNCTIONS[key] = _null_safe(fn) if null_safe else fn


def unregister_udf(name: str) -> None:
    """Remove a previously registered UDF (no-op for builtins' sake is
    not attempted: removing a builtin is allowed but discouraged)."""
    SCALAR_FUNCTIONS.pop(name.upper(), None)


@dataclass(frozen=True, eq=False)
class FuncCall(Expression):
    """A scalar builtin applied to argument expressions."""

    name: str
    args: Tuple[Expression, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        if self.name.upper() not in SCALAR_FUNCTIONS:
            raise ExpressionError(f"unknown scalar function {self.name!r}")

    def eval(self, row: Row) -> Any:
        fn = SCALAR_FUNCTIONS[self.name.upper()]
        return fn(*(a.eval(row) for a in self.args))

    def fingerprint(self) -> tuple:
        return ("func", self.name.upper()) + tuple(a.fingerprint() for a in self.args)

    def references(self) -> frozenset:
        out: frozenset = frozenset()
        for a in self.args:
            out = out | a.references()
        return out

    def to_dict(self) -> dict:
        return {
            "kind": "func",
            "name": self.name.upper(),
            "args": [a.to_dict() for a in self.args],
        }


# -- aggregates over bags -------------------------------------------------------

def _non_null(values):
    """*values* without its nulls, in order: the sequence itself when it
    holds none (a C-level scan), a filtered copy only when it does."""
    if isinstance(values, (list, tuple)) and None not in values:
        return values
    return [v for v in values if v is not None]


def _agg_sum(values):
    values = _non_null(values)
    return sum(values) if values else None


def _agg_avg(values):
    values = _non_null(values)
    return sum(values) / len(values) if values else None


def _agg_min(values):
    values = _non_null(values)
    return min(values) if values else None


def _agg_max(values):
    values = _non_null(values)
    return max(values) if values else None


def _agg_count(values):
    if isinstance(values, (list, tuple)):
        return len(values) - values.count(None)
    return sum(1 for v in values if v is not None)


AGGREGATE_FUNCTIONS: Dict[str, Callable] = {
    "SUM": _agg_sum,
    "AVG": _agg_avg,
    "MIN": _agg_min,
    "MAX": _agg_max,
    "COUNT": _agg_count,
    "COUNT_STAR": len,
}


@dataclass(frozen=True, eq=False)
class BagField(Expression):
    """``C.est_revenue`` — one field of every tuple in a grouped bag.

    Evaluates to the list of field values; only meaningful as the
    argument of an :class:`AggCall` or FLATTEN.
    """

    bag_index: int
    field_index: int
    name: str = ""

    def eval(self, row: Row):
        bag = row[self.bag_index]
        if bag is None:
            return []
        return bag.project(self.field_index) if isinstance(bag, Bag) else [
            r[self.field_index] for r in bag
        ]

    def fingerprint(self) -> tuple:
        return ("bagfield", self.bag_index, self.field_index)

    def references(self) -> frozenset:
        return frozenset((self.bag_index,))

    def to_dict(self) -> dict:
        return {
            "kind": "bagfield",
            "bag_index": self.bag_index,
            "field_index": self.field_index,
        }


@dataclass(frozen=True, eq=False)
class BagStar(Expression):
    """``C`` or ``C.*`` — all tuples of a grouped bag (for COUNT)."""

    bag_index: int

    def eval(self, row: Row):
        bag = row[self.bag_index]
        if bag is None:
            return []
        return list(bag)

    def fingerprint(self) -> tuple:
        return ("bagstar", self.bag_index)

    def references(self) -> frozenset:
        return frozenset((self.bag_index,))

    def to_dict(self) -> dict:
        return {"kind": "bagstar", "bag_index": self.bag_index}


@dataclass(frozen=True, eq=False)
class AggCall(Expression):
    """An aggregate (SUM/AVG/MIN/MAX/COUNT) over a bag expression."""

    name: str
    arg: Expression = None

    def __post_init__(self):
        if self.name.upper() not in AGGREGATE_FUNCTIONS:
            raise ExpressionError(f"unknown aggregate function {self.name!r}")

    def eval(self, row: Row) -> Any:
        values = self.arg.eval(row)
        return AGGREGATE_FUNCTIONS[self.name.upper()](values)

    def fingerprint(self) -> tuple:
        return ("agg", self.name.upper(), self.arg.fingerprint())

    def references(self) -> frozenset:
        return self.arg.references()

    def to_dict(self) -> dict:
        return {"kind": "agg", "name": self.name.upper(), "arg": self.arg.to_dict()}


@dataclass(frozen=True, eq=False)
class RowSample(Expression):
    """Deterministic row sampling predicate (Pig's SAMPLE).

    Keeps a row when a content-stable hash of the whole row falls under
    the fraction — deterministic across runs, so sampled sub-jobs are
    reusable like any other stored result.
    """

    fraction: float = 0.1

    def eval(self, row: Row) -> bool:
        import zlib

        bucket = zlib.crc32(repr(row).encode()) % 1_000_000
        return bucket < self.fraction * 1_000_000

    def fingerprint(self) -> tuple:
        return ("rowsample", round(self.fraction, 9))

    def references(self) -> frozenset:
        return frozenset()

    def to_dict(self) -> dict:
        return {"kind": "rowsample", "fraction": self.fraction}


# -- serialization --------------------------------------------------------------

def expression_from_dict(data: dict) -> Expression:
    """Inverse of ``Expression.to_dict`` for repository persistence."""
    kind = data["kind"]
    if kind == "col":
        return Column(data["index"], data.get("name", ""))
    if kind == "const":
        return Const(data["value"])
    if kind == "bin":
        return BinaryOp(
            data["op"],
            expression_from_dict(data["left"]),
            expression_from_dict(data["right"]),
        )
    if kind == "un":
        return UnaryOp(data["op"], expression_from_dict(data["operand"]))
    if kind == "func":
        return FuncCall(
            data["name"], tuple(expression_from_dict(a) for a in data["args"])
        )
    if kind == "bagfield":
        return BagField(data["bag_index"], data["field_index"])
    if kind == "bagstar":
        return BagStar(data["bag_index"])
    if kind == "agg":
        return AggCall(data["name"], expression_from_dict(data["arg"]))
    if kind == "rowsample":
        return RowSample(data["fraction"])
    raise ExpressionError(f"unknown expression kind {kind!r}")
