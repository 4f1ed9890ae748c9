"""Logical operators: the DAG produced from a parsed Pig Latin script.

Logical nodes carry resolved expressions (positions, not names) and a
computed output schema.  The MapReduce compiler walks this DAG to emit
physical plans cut into jobs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.relational.expressions import Expression
from repro.relational.schema import Schema

_LO_COUNTER = itertools.count(1)


class LogicalOperator:
    """Base logical node; ``inputs`` are upstream nodes (ordered)."""

    kind = "abstract"

    def __init__(self, inputs: Sequence["LogicalOperator"], alias: str, schema: Schema):
        self.op_id = next(_LO_COUNTER)
        self.inputs: List[LogicalOperator] = list(inputs)
        self.alias = alias
        self.schema = schema

    def describe(self) -> str:
        return self.kind

    def __repr__(self) -> str:
        return f"<{type(self).__name__} #{self.op_id} {self.alias!r}>"


class LOLoad(LogicalOperator):
    kind = "load"

    def __init__(
        self, alias: str, path: str, schema: Schema, loader: str = "PigStorage"
    ):
        super().__init__([], alias, schema)
        self.path = path
        self.loader = loader

    def describe(self) -> str:
        return f"load {self.path!r}"


class LOFilter(LogicalOperator):
    kind = "filter"

    def __init__(self, alias: str, input_node: LogicalOperator, predicate: Expression):
        super().__init__([input_node], alias, input_node.schema)
        self.predicate = predicate


@dataclass(frozen=True)
class ResolvedGenItem:
    """A FOREACH output field with its resolved expression."""

    expr: Expression
    name: str
    flatten: bool = False


class LOForEach(LogicalOperator):
    kind = "foreach"

    def __init__(
        self,
        alias: str,
        input_node: LogicalOperator,
        items: Sequence[ResolvedGenItem],
        schema: Schema,
    ):
        super().__init__([input_node], alias, schema)
        self.items: Tuple[ResolvedGenItem, ...] = tuple(items)


class LOJoin(LogicalOperator):
    kind = "join"

    def __init__(
        self,
        alias: str,
        input_nodes: Sequence[LogicalOperator],
        key_exprs: Sequence[Sequence[Expression]],
        outer_flags: Sequence[bool],
        schema: Schema,
        strategy: str = "shuffle",
    ):
        super().__init__(input_nodes, alias, schema)
        self.key_exprs: Tuple[Tuple[Expression, ...], ...] = tuple(
            tuple(k) for k in key_exprs
        )
        self.outer_flags: Tuple[bool, ...] = tuple(outer_flags)
        self.strategy = strategy


class LOCogroup(LogicalOperator):
    """GROUP (one input) / COGROUP (several inputs)."""

    kind = "cogroup"

    def __init__(
        self,
        alias: str,
        input_nodes: Sequence[LogicalOperator],
        key_exprs: Sequence[Sequence[Expression]],
        schema: Schema,
        group_all: bool = False,
    ):
        super().__init__(input_nodes, alias, schema)
        self.key_exprs: Tuple[Tuple[Expression, ...], ...] = tuple(
            tuple(k) for k in key_exprs
        )
        self.group_all = group_all

    @property
    def is_group(self) -> bool:
        return len(self.inputs) == 1


class LODistinct(LogicalOperator):
    kind = "distinct"

    def __init__(self, alias: str, input_node: LogicalOperator):
        super().__init__([input_node], alias, input_node.schema)


class LOUnion(LogicalOperator):
    kind = "union"

    def __init__(self, alias: str, input_nodes: Sequence[LogicalOperator]):
        super().__init__(input_nodes, alias, input_nodes[0].schema)


class LOSort(LogicalOperator):
    kind = "sort"

    def __init__(
        self,
        alias: str,
        input_node: LogicalOperator,
        sort_items: Sequence[Tuple[Expression, bool]],
    ):
        super().__init__([input_node], alias, input_node.schema)
        self.sort_items: Tuple[Tuple[Expression, bool], ...] = tuple(sort_items)


class LOLimit(LogicalOperator):
    kind = "limit"

    def __init__(self, alias: str, input_node: LogicalOperator, n: int):
        super().__init__([input_node], alias, input_node.schema)
        self.n = n


class LOStore(LogicalOperator):
    kind = "store"

    def __init__(
        self, input_node: LogicalOperator, path: str, storer: str = "PigStorage"
    ):
        super().__init__([input_node], f"store:{path}", input_node.schema)
        self.path = path
        self.storer = storer

    def describe(self) -> str:
        return f"store {self.path!r}"


class LogicalPlan:
    """The DAG for one script: reachable from its store sinks."""

    def __init__(self, stores: Sequence[LOStore]):
        self.stores: List[LOStore] = list(stores)

    def nodes(self) -> List[LogicalOperator]:
        """All reachable nodes, deduplicated, in reverse-DFS order."""
        seen: set = set()
        order: List[LogicalOperator] = []
        for store in self.stores:
            _visit_upstream(store, seen, order)
        return order

    def parents(self) -> dict:
        """Map node id -> list of (consumer node, input position)."""
        out: dict = {}
        for node in self.nodes():
            for position, upstream in enumerate(node.inputs):
                out.setdefault(upstream.op_id, []).append((node, position))
        return out

    def describe(self) -> str:
        lines = []
        for node in self.nodes():
            ins = ",".join(str(i.op_id) for i in node.inputs)
            lines.append(
                f"#{node.op_id} {node.kind} {node.alias!r}"
                + (f" <- [{ins}]" if ins else "")
            )
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.nodes())


def _visit_upstream(
    node: LogicalOperator, seen: set, order: List[LogicalOperator]
) -> None:
    """Append *node*'s unseen upstream, then *node*, to *order*.  A
    module function, not a recursive closure: a closure that calls
    itself is a reference cycle left for the cyclic collector."""
    if node.op_id in seen:
        return
    seen.add(node.op_id)
    for upstream in node.inputs:
        _visit_upstream(upstream, seen, order)
    order.append(node)
