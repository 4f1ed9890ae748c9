"""Physical plan DAGs.

A :class:`PhysicalPlan` is the unit ReStore stores, matches and
rewrites: a DAG of :class:`PhysicalOperator` nodes from ``POLoad``
sources to ``POStore`` sinks, with ordered edges (input order matters
for join/cogroup branch numbering).

Plans carry Merkle-style structural fingerprints: each operator's
fingerprint is a digest of its own :meth:`signature` hash plus the
ordered fingerprints of its inputs, and the plan fingerprint combines
the sink fingerprints.  All of it is cached until the DAG mutates —
operators are values, so every change is a structural one — and
repeated repository lookups cost a dict probe instead of a recursive
hash.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

from repro.exceptions import PlanError
from repro.pig.physical.operators import (
    PhysicalOperator,
    POGlobalRearrange,
    POLoad,
    POSplit,
    POStore,
)


class PhysicalPlan:
    """A DAG of physical operators with ordered edges."""

    def __init__(self):
        self._ops: Dict[int, PhysicalOperator] = {}
        self._succs: Dict[int, List[int]] = {}
        self._preds: Dict[int, List[int]] = {}
        # fingerprint caches, dropped on any structural mutation
        self._fp_by_op: Dict[int, str] = {}
        self._fp_plan: Optional[str] = None
        self._fp_load_sigs: Optional[frozenset] = None
        self._fp_sig_counts: Optional[Dict[str, int]] = None

    # -- construction ---------------------------------------------------------------

    def _mutated(self) -> None:
        """Invalidate every cached fingerprint (structure changed)."""
        self._fp_by_op = {}
        self._fp_plan = None
        self._fp_load_sigs = None
        self._fp_sig_counts = None

    def add(self, op: PhysicalOperator) -> PhysicalOperator:
        if op.op_id in self._ops:
            return op
        self._ops[op.op_id] = op
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

    def replace(self, old: PhysicalOperator, new: PhysicalOperator) -> None:
        """Swap *new* in for *old*: same place in the operator order,
        same position on every edge."""

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

    def op_by_id(self, op_id: int) -> PhysicalOperator:
        return self._ops[op_id]

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
        return [op for op in self._ops.values() if isinstance(op, POLoad)]

    def stores(self) -> List[POStore]:
        return [op for op in self._ops.values() if isinstance(op, POStore)]

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
        """Kahn topological order; raises on cycles."""
        in_deg = {i: len(p) for i, p in self._preds.items()}
        frontier = [i for i, d in in_deg.items() if d == 0]
        order: List[int] = []
        while frontier:
            # pop smallest id for determinism
            frontier.sort()
            node = frontier.pop(0)
            order.append(node)
            for succ in self._succs[node]:
                in_deg[succ] -= 1
                if in_deg[succ] == 0:
                    frontier.append(succ)
        if len(order) != len(self._ops):
            raise PlanError("physical plan contains a cycle")
        return [self._ops[i] for i in order]

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
        """Check the structural invariants the executor relies on."""
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

    # -- cloning / extraction ---------------------------------------------------------------

    def clone(self) -> Tuple["PhysicalPlan", Dict[int, PhysicalOperator]]:
        """Deep-copy the DAG; returns (plan, old_id -> new_op mapping)."""
        out = PhysicalPlan()
        mapping: Dict[int, PhysicalOperator] = {}
        for op in self._ops.values():
            twin = op.copy()
            mapping[op.op_id] = twin
            out.add(twin)
        for src_id, succ_ids in self._succs.items():
            for dst_id in succ_ids:
                out.connect(mapping[src_id], mapping[dst_id])
        return out, mapping

    def subplan_upto(self, op: PhysicalOperator) -> "PhysicalPlan":
        """Clone of everything upstream of *op* (inclusive).

        This is the physical plan of the sub-job that ends at *op*
        (paper §4: the candidate sub-job ``J_P``); callers append a
        Store to complete it.
        """
        return self.subplan_upto_mapped(op)[0]

    def subplan_upto_mapped(
        self, op: PhysicalOperator
    ) -> Tuple["PhysicalPlan", Dict[int, PhysicalOperator]]:
        """:meth:`subplan_upto` plus the old-id -> clone mapping.

        The mapping is how callers locate a specific operator's twin
        inside the extracted plan — matching clones by signature is
        ambiguous the moment two operators compute the same thing
        (two sinks with equal signatures would pick an arbitrary one).
        A contracted pass-through split maps to the operator that
        absorbed its edge.
        """
        closure = self.upstream_closure(op)
        # in this plan's operator order, not the id set's: edges connect
        # in it, and the order of an operator's inputs is fingerprinted
        keep = [op_id for op_id in self._ops if op_id in closure]
        out = PhysicalPlan()
        mapping: Dict[int, PhysicalOperator] = {}
        for op_id in keep:
            twin = self._ops[op_id].copy()
            mapping[op_id] = twin
            out.add(twin)
        for src_id in keep:
            for dst_id in self._succs[src_id]:
                if dst_id in closure:
                    out.connect(mapping[src_id], mapping[dst_id])
        # Drop dangling POSplit tees copied along the way: a split whose
        # only purpose was branching to ops outside the kept set becomes
        # a pass-through; contract splits with a single successor.
        for op_id in keep:
            twin = mapping[op_id]
            if isinstance(twin, POSplit):
                succs = out.successors(twin)
                preds = out.predecessors(twin)
                if len(succs) <= 1 and len(preds) == 1:
                    pred = preds[0]
                    out.remove(twin)
                    if succs:
                        out.connect(pred, succs[0])
                    mapping[op_id] = pred
        return out, mapping

    # -- fingerprints / serialization ----------------------------------------------------------

    def _ensure_fingerprints(self) -> None:
        if self._fp_plan is not None:
            return
        by_op: Dict[int, str] = {}
        for op in self.topo_order():
            payload = op.signature_hash() + "".join(
                by_op[p.op_id] for p in self.predecessors(op)
            )
            by_op[op.op_id] = hashlib.blake2b(
                payload.encode("ascii"), digest_size=12
            ).hexdigest()
        self._fp_by_op = by_op
        self._fp_plan = "|".join(
            sorted(by_op[s.op_id] for s in self.sinks())
        )
        self._fp_load_sigs = frozenset(
            op.signature_hash() for op in self.loads()
        )
        counts: Counter = Counter(
            op.signature_hash()
            for op in self._ops.values()
            if not isinstance(op, (POStore, POSplit))
        )
        self._fp_sig_counts = dict(counts)

    def op_fingerprint(self, op: PhysicalOperator) -> str:
        """Merkle fingerprint of *op*: digest of its signature hash
        plus the ordered fingerprints of its inputs."""
        self._ensure_fingerprints()
        return self._fp_by_op[op.op_id]

    def fingerprint(self) -> str:
        """Canonical fingerprint of the whole DAG (sink-anchored).

        Equal fingerprints ⇔ structurally equivalent computations:
        the same operator signatures wired the same way (store paths
        and operator ids excluded).  Cached; invalidated on mutation.
        """
        self._ensure_fingerprints()
        return self._fp_plan  # type: ignore[return-value]

    def load_signature_set(self) -> frozenset:
        """Signature hashes of this plan's Load operators — the keys
        the repository's inverted index prunes candidates with."""
        self._ensure_fingerprints()
        return self._fp_load_sigs  # type: ignore[return-value]

    def signature_counts(self) -> Mapping[str, int]:
        """Multiset of operator signature hashes (Stores and Splits
        excluded — the matcher looks through the former's paths and
        the latter's tees).  A repository plan can only be contained
        in an input plan when its multiset is a sub-multiset of the
        input's, which makes this the index's pruning predicate."""
        self._ensure_fingerprints()
        return self._fp_sig_counts  # type: ignore[return-value]

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
