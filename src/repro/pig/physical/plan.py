"""Physical plan DAGs.

A :class:`PhysicalPlan` is the unit ReStore stores, matches and
rewrites: a DAG of :class:`PhysicalOperator` nodes from ``POLoad``
sources to ``POStore`` sinks, with ordered edges (input order matters
for join/cogroup branch numbering).

Operators are values — nothing writes to one after its constructor —
so plans share them.  A plan owns its structure (operator order, edge
lists and each operator's *rank*, the order it was added in) but not
its operators: :meth:`PhysicalPlan.restamped`, how every submission
gets its copy of a memoised template, shares every operator it does not
re-path, and mutating the copy never touches the template; so does
:meth:`PhysicalPlan.subplan_upto`, which cuts the repository's plans
from the jobs that ran.  Because op ids are shared,
:meth:`~PhysicalPlan.topo_order` breaks ties by rank, never by op id.

Plans carry Merkle-style structural fingerprints: each operator's
fingerprint is a digest of its own :meth:`signature` hash plus the
ordered fingerprints of its inputs, and the plan fingerprint combines
the sink fingerprints.  A ``POSplit`` tee computes nothing, so it takes
its one input's fingerprint.  Two operators with one fingerprint are
the paper's §3 equivalent operators: the same function over equivalent
inputs, in the same input order.

Every fact a plan derives from its structure — topological order,
loads, stores, validity, fingerprints, and the JSON encoding
(:meth:`~PhysicalPlan.to_json`, what persistence stores) — is cached
until the DAG mutates; every mutator drops them all.  Repeated lookups
cost an attribute read instead of a walk, a stored plan is encoded once
however many log records carry it, and a re-stamped copy inherits its
template's facts (its fingerprints only while no load moved, a load's
path being in its signature) instead of recomputing them.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

from repro.exceptions import PlanError
from repro.pig.physical.operators import (
    PhysicalOperator,
    POGlobalRearrange,
    POLoad,
    POSplit,
    POStore,
)

#: what :meth:`PhysicalPlan.match_keys` returns
MatchKeys = Tuple[str, Optional[str], Tuple[str, ...]]


class PhysicalPlan:
    """A DAG of physical operators with ordered edges."""

    def __init__(self):
        self._ops: Dict[int, PhysicalOperator] = {}
        self._succs: Dict[int, List[int]] = {}
        self._preds: Dict[int, List[int]] = {}
        #: op id -> rank, handed out as operators are added: what
        #: :meth:`topo_order` breaks ties by (op ids are shared with a
        #: template, so they are not in this plan's order)
        self._seq: Dict[int, int] = {}
        self._next_seq = 0
        # plan facts, fingerprints and encoding, dropped on any
        # structural mutation
        self._order: Optional[List[PhysicalOperator]] = None
        self._loads: Optional[List[POLoad]] = None
        self._stores: Optional[List[POStore]] = None
        self._valid = False
        self._fp_by_op: Dict[int, str] = {}
        self._fp_plan: Optional[str] = None
        self._fp_ops: Optional[Dict[str, PhysicalOperator]] = None
        self._keys: Optional[MatchKeys] = None
        self._json: Optional[bytes] = None

    # -- construction ---------------------------------------------------------------

    def _mutated(self) -> None:
        """Drop every cached fact, fingerprint and the cached encoding
        (structure changed)."""
        self._order = None
        self._loads = None
        self._stores = None
        self._valid = False
        self._fp_by_op = {}
        self._fp_plan = None
        self._fp_ops = None
        self._keys = None
        self._json = None

    def _ranked(self, op: PhysicalOperator) -> None:
        """Give *op* the next tie-break rank: later than any operator
        already in the plan, as a fresh op id would be."""
        self._seq[op.op_id] = self._next_seq
        self._next_seq += 1

    def add(
        self, op: PhysicalOperator, before: Optional[PhysicalOperator] = None
    ) -> PhysicalOperator:
        """Add *op* last in the operator order, or just ahead of
        *before*: the interpreter streams loads in this order."""
        if op.op_id in self._ops:
            return op
        if before is None:
            self._ops[op.op_id] = op
        else:
            ops = list(self._ops.items())
            ops.insert(list(self._ops).index(before.op_id), (op.op_id, op))
            self._ops = dict(ops)
        self._ranked(op)
        self._succs[op.op_id] = []
        self._preds[op.op_id] = []
        self._mutated()
        return op

    def connect(self, src: PhysicalOperator, dst: PhysicalOperator) -> None:
        if src.op_id not in self._ops or dst.op_id not in self._ops:
            raise PlanError("connect: both operators must be added to the plan")
        self._succs[src.op_id].append(dst.op_id)
        self._preds[dst.op_id].append(src.op_id)
        self._mutated()

    def disconnect(self, src: PhysicalOperator, dst: PhysicalOperator) -> None:
        try:
            self._succs[src.op_id].remove(dst.op_id)
            self._preds[dst.op_id].remove(src.op_id)
        except (KeyError, ValueError):
            raise PlanError(
                f"disconnect: no edge {src.op_id} -> {dst.op_id}"
            ) from None
        self._mutated()

    def remove(self, op: PhysicalOperator) -> None:
        """Remove *op* and all its edges."""
        if op.op_id not in self._ops:
            return
        for succ_id in list(self._succs[op.op_id]):
            self._preds[succ_id].remove(op.op_id)
        for pred_id in list(self._preds[op.op_id]):
            self._succs[pred_id].remove(op.op_id)
        del self._ops[op.op_id]
        del self._succs[op.op_id]
        del self._preds[op.op_id]
        del self._seq[op.op_id]
        self._mutated()

    def insert_between(
        self,
        src: PhysicalOperator,
        dst: PhysicalOperator,
        op: PhysicalOperator,
    ) -> PhysicalOperator:
        """Splice *op* onto the edge src→dst, preserving edge order."""
        self.add(op)
        position = self._succs[src.op_id].index(dst.op_id)
        self._succs[src.op_id][position] = op.op_id
        self._preds[op.op_id].append(src.op_id)
        position = self._preds[dst.op_id].index(src.op_id)
        self._preds[dst.op_id][position] = op.op_id
        self._succs[op.op_id].append(dst.op_id)
        self._mutated()
        return op

    def move_edge(
        self, src: PhysicalOperator, dst: PhysicalOperator, new_src: PhysicalOperator
    ) -> None:
        """Re-point the edge src→dst to leave *new_src*, in the place it
        held among *dst*'s inputs (a UNION's input order is
        fingerprinted); it becomes *new_src*'s last output."""
        try:
            self._succs[src.op_id].remove(dst.op_id)
            position = self._preds[dst.op_id].index(src.op_id)
        except (KeyError, ValueError):
            raise PlanError(f"move_edge: no edge {src.op_id} -> {dst.op_id}") from None
        self._preds[dst.op_id][position] = new_src.op_id
        self._succs[new_src.op_id].append(dst.op_id)
        self._mutated()

    def replace(self, old: PhysicalOperator, new: PhysicalOperator) -> None:
        """Swap *new* in for *old*: same place in the operator order,
        same position on every edge; *new* ranks last, like an added
        operator."""

        def renamed(op_id: int) -> int:
            return new.op_id if op_id == old.op_id else op_id

        def renamed_edges(edges: Dict[int, List[int]]) -> Dict[int, List[int]]:
            return {
                renamed(op_id): list(map(renamed, ends))
                for op_id, ends in edges.items()
            }

        self._ops = {
            renamed(op_id): new if op is old else op for op_id, op in self._ops.items()
        }
        self._succs = renamed_edges(self._succs)
        self._preds = renamed_edges(self._preds)
        del self._seq[old.op_id]
        self._ranked(new)
        self._mutated()

    # -- inspection --------------------------------------------------------------------

    def __contains__(self, op: PhysicalOperator) -> bool:
        return op.op_id in self._ops

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[PhysicalOperator]:
        return iter(list(self._ops.values()))

    @property
    def operators(self) -> List[PhysicalOperator]:
        return list(self._ops.values())

    def successors(self, op: PhysicalOperator) -> List[PhysicalOperator]:
        return [self._ops[i] for i in self._succs[op.op_id]]

    def predecessors(self, op: PhysicalOperator) -> List[PhysicalOperator]:
        return [self._ops[i] for i in self._preds[op.op_id]]

    def sources(self) -> List[PhysicalOperator]:
        """Operators with no predecessors (normally POLoads)."""
        return [op for op in self._ops.values() if not self._preds[op.op_id]]

    def sinks(self) -> List[PhysicalOperator]:
        """Operators with no successors (normally POStores)."""
        return [op for op in self._ops.values() if not self._succs[op.op_id]]

    def loads(self) -> List[POLoad]:
        """The loads, in operator order (cached)."""
        if self._loads is None:
            self._loads = [op for op in self._ops.values() if isinstance(op, POLoad)]
        return list(self._loads)

    def stores(self) -> List[POStore]:
        """The stores, in operator order (cached)."""
        if self._stores is None:
            self._stores = [op for op in self._ops.values() if isinstance(op, POStore)]
        return list(self._stores)

    def primary_store(self) -> Optional[POStore]:
        for op in self.stores():
            if not op.side:
                return op
        return None

    def side_stores(self) -> List[POStore]:
        return [op for op in self.stores() if op.side]

    def global_rearrange(self) -> Optional[POGlobalRearrange]:
        for op in self._ops.values():
            if isinstance(op, POGlobalRearrange):
                return op
        return None

    def topo_order(self) -> List[PhysicalOperator]:
        """Kahn topological order, ties broken by rank (the order the
        operators were added in); cached, raises on cycles."""
        if self._order is None:
            seq = self._seq
            in_deg = {i: len(p) for i, p in self._preds.items()}
            frontier = [(seq[i], i) for i, d in in_deg.items() if d == 0]
            heapq.heapify(frontier)
            order: List[PhysicalOperator] = []
            while frontier:
                node = heapq.heappop(frontier)[1]
                order.append(self._ops[node])
                for succ in self._succs[node]:
                    in_deg[succ] -= 1
                    if in_deg[succ] == 0:
                        heapq.heappush(frontier, (seq[succ], succ))
            if len(order) != len(self._ops):
                raise PlanError("physical plan contains a cycle")
            self._order = order
        return list(self._order)

    def upstream_closure(self, op: PhysicalOperator) -> Set[int]:
        """Ids of *op* and everything reachable backwards from it."""
        seen: Set[int] = set()
        stack = [op.op_id]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._preds[node])
        return seen

    def downstream_closure(self, op: PhysicalOperator) -> Set[int]:
        seen: Set[int] = set()
        stack = [op.op_id]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._succs[node])
        return seen

    # -- validation -----------------------------------------------------------------------

    def validate(self) -> None:
        """Check the structural invariants the executor relies on; a
        plan that passed is not checked again until it mutates."""
        if self._valid:
            return
        self.topo_order()  # raises on cycles
        gr_count = 0
        for op in self._ops.values():
            succs = self._succs[op.op_id]
            if len(succs) > 1 and not isinstance(op, POSplit):
                raise PlanError(
                    f"only POSplit may have multiple successors, found {op!r}"
                )
            if isinstance(op, POGlobalRearrange):
                gr_count += 1
            if isinstance(op, POStore) and succs:
                raise PlanError(f"store must be a sink: {op!r}")
            if isinstance(op, POLoad) and self._preds[op.op_id]:
                raise PlanError(f"load must be a source: {op!r}")
        if gr_count > 1:
            raise PlanError("a job plan may contain at most one shuffle")
        for op in self.sources():
            if not isinstance(op, POLoad):
                raise PlanError(f"plan source is not a load: {op!r}")
        for op in self.sinks():
            if not isinstance(op, POStore):
                raise PlanError(f"plan sink is not a store: {op!r}")
        self._valid = True

    # -- cloning / extraction ---------------------------------------------------------------

    def restamped(self, paths: Mapping[int, str]) -> "PhysicalPlan":
        """A plan computing what this one does, whose loads and stores
        named in *paths* (op id -> path) read and write there instead.

        The copy shares every operator it does not re-path (operators
        are values); each re-pathed load or store gets a new twin in its
        place.  Its operator order, edge lists and ranks are its own, so
        mutating the copy never touches this plan, and it fingerprints
        and breaks topological ties like a compile of the same
        statements.  It inherits this plan's facts, mapped onto the
        twins: topological order, loads, stores, validity and, when no
        load moves, fingerprints (a store's path is not in its
        signature).  Only facts already cached here carry over; this
        plan is only read.
        """
        out = PhysicalPlan()
        twins: Dict[int, PhysicalOperator] = {}
        for op_id, op in self._ops.items():
            path = paths.get(op_id)
            if path is not None:
                if isinstance(op, POLoad):
                    op = POLoad(path, op.schema, op.loader)
                else:
                    op = POStore(path, op.schema, op.side)
                twins[op_id] = op
            out._ops[op.op_id] = op
        ids = {op_id: twin.op_id for op_id, twin in twins.items()}
        image = ids.get
        for op_id, ends in self._succs.items():
            out._succs[image(op_id, op_id)] = [image(end, end) for end in ends]
        for op_id, ends in self._preds.items():
            out._preds[image(op_id, op_id)] = [image(end, end) for end in ends]
        out._seq = {image(op_id, op_id): rank for op_id, rank in self._seq.items()}
        out._next_seq = self._next_seq

        def mapped(ops):
            return None if ops is None else [twins.get(op.op_id, op) for op in ops]

        out._order = mapped(self._order)
        out._loads = mapped(self._loads)
        out._stores = mapped(self._stores)
        out._valid = self._valid
        moved_load = any(isinstance(twin, POLoad) for twin in twins.values())
        if not moved_load and self._fp_plan is not None:
            out._fp_by_op = {image(i, i): fp for i, fp in self._fp_by_op.items()}
            out._fp_plan = self._fp_plan
        return out

    def subplan_upto(self, op: PhysicalOperator) -> "PhysicalPlan":
        """Everything upstream of *op* (inclusive), as a plan of its own
        that shares this plan's operators (they are values).

        This is the physical plan of the sub-job that ends at *op*
        (paper §4: the candidate sub-job ``J_P``); callers append a
        Store to complete it.  A Split tee that branches to at most one
        kept operator contracts away, so a cut from an instrumented
        plan carries none of its instrumentation.
        """
        closure = self.upstream_closure(op)
        # in this plan's operator order, not the id set's
        keep = [
            op_id
            for op_id in self._ops
            if op_id in closure and not self._passes_through(op_id, closure)
        ]
        out = PhysicalPlan()
        for op_id in keep:
            out.add(self._ops[op_id])
        # each operator's inputs connect in its own input order, which is
        # fingerprinted (a UNION's rows follow it): a Split tee injected
        # on one input edge sits late in the operator order
        for op_id in keep:
            for pred_id in self._preds[op_id]:
                while self._passes_through(pred_id, closure):
                    pred_id = self._preds[pred_id][0]
                out.connect(self._ops[pred_id], self._ops[op_id])
        return out

    def _passes_through(self, op_id: int, closure: Set[int]) -> bool:
        """A Split tee that branches to at most one kept operator: the
        extraction contracts it away."""
        return (
            isinstance(self._ops[op_id], POSplit)
            and len(self._preds[op_id]) == 1
            and sum(succ in closure for succ in self._succs[op_id]) <= 1
        )

    # -- fingerprints / serialization ----------------------------------------------------------

    def _ensure_fingerprints(self) -> None:
        if self._fp_plan is not None:
            return
        by_op: Dict[int, str] = {}
        for op in self.topo_order():
            preds = self._preds[op.op_id]
            if isinstance(op, POSplit) and len(preds) == 1:
                by_op[op.op_id] = by_op[preds[0]]
                continue
            payload = op.signature_hash() + "".join(by_op[p] for p in preds)
            by_op[op.op_id] = hashlib.blake2b(
                payload.encode("ascii"), digest_size=12
            ).hexdigest()
        self._fp_by_op = by_op
        self._fp_plan = "|".join(sorted(by_op[s.op_id] for s in self.sinks()))

    def op_fingerprint(self, op: PhysicalOperator) -> str:
        """Merkle fingerprint of *op*: digest of its signature hash
        plus the ordered fingerprints of its inputs (a Split's is its
        input's)."""
        self._ensure_fingerprints()
        return self._fp_by_op[op.op_id]

    def fingerprint(self) -> str:
        """Canonical fingerprint of the whole DAG (sink-anchored).

        Equal fingerprints ⇔ structurally equivalent computations:
        the same operator signatures wired the same way (store paths,
        operator ids and Split tees excluded).  Cached; invalidated on
        mutation.
        """
        self._ensure_fingerprints()
        return self._fp_plan  # type: ignore[return-value]

    def operator_fingerprints(self) -> Mapping[str, PhysicalOperator]:
        """Fingerprint -> the lowest-ranked operator computing it, over
        every operator but Splits and Stores: what a stored plan's
        frontier can be equivalent to (``repro.core.matcher``)."""
        if self._fp_ops is None:
            self._ensure_fingerprints()
            ops: Dict[str, PhysicalOperator] = {}
            for op_id in sorted(self._ops, key=self._seq.__getitem__):
                op = self._ops[op_id]
                if not isinstance(op, (POSplit, POStore)):
                    ops.setdefault(self._fp_by_op[op_id], op)
            self._fp_ops = ops
        return self._fp_ops

    def frontier(self) -> Optional[PhysicalOperator]:
        """The operator feeding the primary Store (the first Store when
        every Store is a side store): what a stored plan computes."""
        store = self.primary_store()
        if store is None:
            stores = self.stores()
            if not stores:
                raise PlanError("plan has no store")
            store = stores[0]
        preds = self.predecessors(store)
        return preds[0] if len(preds) == 1 else None

    def frontier_fingerprint(self) -> Optional[str]:
        """:meth:`op_fingerprint` of :meth:`frontier` (None without one)."""
        frontier = self.frontier()
        return None if frontier is None else self.op_fingerprint(frontier)

    def match_keys(self) -> MatchKeys:
        """(:meth:`fingerprint`, :meth:`frontier_fingerprint`, the sorted
        keys of :meth:`operator_fingerprints`): what a repository indexes
        a stored plan by, cached like the fingerprints."""
        if self._keys is None:
            self._keys = (
                self.fingerprint(),
                self.frontier_fingerprint(),
                tuple(sorted(self.operator_fingerprints())),
            )
        return self._keys

    def to_dict(self) -> dict:
        ids = {op.op_id: idx for idx, op in enumerate(self._ops.values())}
        return {
            "ops": [op.to_dict() for op in self._ops.values()],
            "edges": [
                [ids[src], ids[dst]]
                for src in self._ops
                for dst in self._succs[src]
            ],
        }

    def to_json(self) -> bytes:
        """:meth:`to_dict` as compact JSON bytes, encoded on first call
        and cached until the DAG mutates: the bytes a snapshot's cold
        blob and an entry's journal record hold."""
        if self._json is None:
            self._json = json.dumps(self.to_dict(), separators=(",", ":")).encode()
        return self._json

    @classmethod
    def from_dict(cls, data: dict) -> "PhysicalPlan":
        plan = cls()
        ops = [PhysicalOperator.from_dict(d) for d in data["ops"]]
        for op in ops:
            plan.add(op)
        for src_idx, dst_idx in data["edges"]:
            plan.connect(ops[src_idx], ops[dst_idx])
        return plan

    # -- rendering --------------------------------------------------------------------------------

    def to_dot(self, name: str = "plan") -> str:
        """GraphViz rendering for docs and debugging."""
        lines = [f"digraph {name} {{", "  rankdir=LR;"]
        for op in self._ops.values():
            label = op.describe().replace('"', "'")
            lines.append(f'  n{op.op_id} [label="{label}"];')
        for src, dsts in self._succs.items():
            for dst in dsts:
                lines.append(f"  n{src} -> n{dst};")
        lines.append("}")
        return "\n".join(lines)

    def describe(self) -> str:
        """One-line-per-op textual rendering in topological order."""
        parts = []
        for op in self.topo_order():
            preds = ",".join(str(p.op_id) for p in self.predecessors(op))
            parts.append(
                f"#{op.op_id} {op.describe()}" + (f" <- [{preds}]" if preds else "")
            )
        return "\n".join(parts)

    def __repr__(self) -> str:
        return f"PhysicalPlan(ops={len(self._ops)})"


def linear_plan(*ops: PhysicalOperator) -> PhysicalPlan:
    """Convenience: chain operators into a straight-line plan."""
    plan = PhysicalPlan()
    prev: Optional[PhysicalOperator] = None
    for op in ops:
        plan.add(op)
        if prev is not None:
            plan.connect(prev, op)
        prev = op
    return plan
