"""Expression compilation: closures that evaluate like ``expr.eval``.

The batched data plane processes chunks of rows with one Python call
per operator per chunk; what remains per-row is the expression work
itself.  Walking an :class:`~repro.relational.expressions.Expression`
tree costs one method call plus attribute chasing per node per row —
``compile_expression`` pays that walk once, at operator-compile time,
and returns a closure graph with every child pre-bound, so evaluating
a predicate or projection is a single call into straight-line code.

The contract is strict value-identity: for every expression *e* and
row *r*, ``compile_expression(e)(r) == e.eval(r)`` (including ``None``
propagation, short-circuit semantics, and live ``SCALAR_FUNCTIONS``
lookup so UDF re-registration behaves exactly as interpreted
evaluation does).  These closures are the one evaluator at run time —
filters, projections, FLATTEN expansion, shuffle and join keys all
compile here once per handler — and ``Expression.eval`` is the
reference the parity tests hold them to: nothing under ``src/`` calls
it, except that an unknown :class:`Expression` subclass simply falls
back to its bound ``eval``.
"""

from __future__ import annotations

import zlib
from itertools import chain
from operator import itemgetter
from typing import Any, Callable

from repro.relational.expressions import (
    _BINOPS,
    AGGREGATE_FUNCTIONS,
    SCALAR_FUNCTIONS,
    AggCall,
    BagField,
    BagStar,
    BinaryOp,
    Column,
    Const,
    Expression,
    FuncCall,
    RowSample,
    UnaryOp,
)
from repro.relational.tuples import Bag, Row

#: a compiled expression: row -> value, semantics of Expression.eval
CompiledExpr = Callable[[Row], Any]


def compile_expression(expr: Expression) -> CompiledExpr:
    """A closure computing exactly ``expr.eval`` (see module docs)."""
    if type(expr) is Column:
        return itemgetter(expr.index)
    if type(expr) is Const:
        value = expr.value
        return lambda row: value
    if type(expr) is BinaryOp:
        return _compile_binary(expr)
    if type(expr) is UnaryOp:
        return _compile_unary(expr)
    if type(expr) is FuncCall:
        # the function is looked up per call, like FuncCall.eval, so
        # register_udf/unregister_udf between compile and eval behave
        # identically on both planes
        args = tuple(compile_expression(a) for a in expr.args)
        name = expr.name.upper()

        def run_func(row, _args=args, _name=name):
            return SCALAR_FUNCTIONS[_name](*(a(row) for a in _args))

        return run_func
    if type(expr) is AggCall:
        # aggregates are a closed builtin set (register_udf refuses
        # collisions), so the function binds at compile time
        fn = AGGREGATE_FUNCTIONS[expr.name.upper()]
        arg = compile_expression(expr.arg)

        def run_agg(row, _fn=fn, _arg=arg):
            return _fn(_arg(row))

        return run_agg
    if type(expr) is BagField:
        return _compile_bagfield(expr)
    if type(expr) is BagStar:
        index = expr.bag_index

        def run_bagstar(row, _i=index):
            bag = row[_i]
            if bag is None:
                return []
            return list(bag)

        return run_bagstar
    if type(expr) is RowSample:
        threshold = expr.fraction * 1_000_000
        crc32 = zlib.crc32

        def run_sample(row, _t=threshold, _crc=crc32):
            return _crc(repr(row).encode()) % 1_000_000 < _t

        return run_sample
    # unknown subclass (user extension): interpreted evaluation
    return expr.eval


def _compile_binary(expr: BinaryOp) -> CompiledExpr:
    op = expr.op
    if op not in ("and", "or"):
        # the dominant predicate shapes — column vs constant and
        # column vs column — skip the child closures entirely
        fn = _BINOPS[op]
        if (
            type(expr.left) is Column
            and type(expr.right) is Const
            and expr.right.value is not None
        ):

            def run_col_const(
                row, _i=expr.left.index, _c=expr.right.value, _fn=fn
            ):
                a = row[_i]
                if a is None:
                    return None
                return _fn(a, _c)

            return run_col_const
        if type(expr.left) is Column and type(expr.right) is Column:

            def run_col_col(row, _i=expr.left.index, _j=expr.right.index, _fn=fn):
                a = row[_i]
                b = row[_j]
                if a is None or b is None:
                    return None
                return _fn(a, b)

            return run_col_col
    left = compile_expression(expr.left)
    right = compile_expression(expr.right)
    if op == "and":

        def run_and(row, _l=left, _r=right):
            return bool(_l(row)) and bool(_r(row))

        return run_and
    if op == "or":

        def run_or(row, _l=left, _r=right):
            return bool(_l(row)) or bool(_r(row))

        return run_or
    fn = _BINOPS[op]

    def run_bin(row, _l=left, _r=right, _fn=fn):
        a = _l(row)
        if a is None:
            # match eval: both operands are always evaluated
            _r(row)
            return None
        b = _r(row)
        if b is None:
            return None
        return _fn(a, b)

    return run_bin


def _compile_unary(expr: UnaryOp) -> CompiledExpr:
    operand = compile_expression(expr.operand)
    op = expr.op
    if op == "not":

        def run_not(row, _o=operand):
            value = _o(row)
            return None if value is None else not bool(value)

        return run_not
    if op == "neg":

        def run_neg(row, _o=operand):
            value = _o(row)
            return None if value is None else -value

        return run_neg
    if op == "isnull":
        return lambda row, _o=operand: _o(row) is None
    if op == "notnull":
        return lambda row, _o=operand: _o(row) is not None
    # unreachable for well-formed trees; keep eval's error behaviour
    return expr.eval


def _compile_bagfield(expr: BagField) -> CompiledExpr:
    bag_index = expr.bag_index
    field_index = expr.field_index

    def run_bagfield(row, _b=bag_index, _f=field_index):
        bag = row[_b]
        if bag is None:
            return []
        if isinstance(bag, Bag):
            return bag.project(_f)
        return [r[_f] for r in bag]

    return run_bagfield


#: comparison operators whose results are plain bools, eligible for
#: inline filter code generation (each is its own Python source)
_CMP_SOURCE = ("==", "!=", "<", "<=", ">", ">=")


def compile_filter_list(predicate: Expression):
    """A chunk filter ``rows -> [row for row in rows if <pred>]``.

    The dominant predicate shape — ``column <cmp> constant`` — is
    generated as an *inline* comprehension condition, removing even
    the one compiled-closure call per row.  Truthiness matches
    ``bool(predicate.eval(row))`` exactly: a null column makes eval
    return None (falsy) and the generated ``is not None and ...``
    conjunction False.  Every other shape filters through the compiled
    closure.
    """
    if (
        type(predicate) is BinaryOp
        and predicate.op in _CMP_SOURCE
        and type(predicate.left) is Column
        and type(predicate.right) is Const
        and predicate.right.value is not None
    ):
        index = predicate.left.index
        source = (
            "lambda _c: lambda rows: [row for row in rows "
            f"if row[{index}] is not None and row[{index}] "
            f"{predicate.op} _c]"
        )
        return eval(source)(predicate.right.value)  # noqa: S307 - static source
    compiled = compile_expression(predicate)

    def filter_rows(rows, _pred=compiled):
        return [row for row in rows if _pred(row)]

    return filter_rows


def compile_projection(exprs, flattens) -> CompiledExpr | None:
    """A closure mapping one row to one FOREACH output row.

    Only the non-FLATTEN case compiles (one input row, exactly one
    output row); FLATTEN expands cross products, row by row, in the
    interpreter's ``_foreach_rows``, whose scalar branch this mirrors:
    a bare ``list`` result (a projected bag field) is wrapped into a
    :class:`Bag` of tuples.
    """
    if any(flattens):
        return None
    compiled = tuple(compile_expression(e) for e in exprs)

    def project(row, _exprs=compiled):
        out = []
        for expr in _exprs:
            value = expr(row)
            if isinstance(value, list):
                value = Bag(v if isinstance(v, tuple) else (v,) for v in value)
            out.append(value)
        return tuple(out)

    return project


def compile_projection_list(exprs, flattens):
    """A chunk projector ``rows -> [output row per row]``, or None
    where :func:`compile_projection` does not compile (FLATTEN).

    A projection of bare columns — the map-side shape — is one
    ``itemgetter`` pass over the chunk; whether any picked value is a
    ``list`` to wrap is read once per chunk from the values' type set,
    and only such a chunk pays the per-row closure that every other
    expression list maps over its rows.
    """
    project = compile_projection(exprs, flattens)
    if project is None:
        return None
    if not exprs or any(type(e) is not Column for e in exprs):
        return lambda rows: list(map(project, rows))
    single = len(exprs) == 1
    pick = itemgetter(*(e.index for e in exprs))

    def pick_columns(rows):
        out = list(map(pick, rows))
        kinds = set(map(type, out if single else chain.from_iterable(out)))
        if any(issubclass(kind, list) for kind in kinds):
            return list(map(project, rows))
        return list(zip(out)) if single else out

    return pick_columns


def compile_key(key_exprs) -> CompiledExpr:
    """A shuffle or join key of a row: the one expression's value, or
    the tuple of several; over bare columns a single ``itemgetter``."""
    if len(key_exprs) == 1:
        return compile_expression(key_exprs[0])
    if key_exprs and all(type(e) is Column for e in key_exprs):
        return itemgetter(*(e.index for e in key_exprs))
    compiled = tuple(compile_expression(e) for e in key_exprs)

    def make_key(row, _exprs=compiled):
        return tuple(e(row) for e in _exprs)

    return make_key
