"""Sub-job enumeration and Store injection (paper §4, Figure 8).

For every physical operator the heuristic selects, the enumerator
splices a ``POSplit`` tee after it and hangs a side ``POStore`` off the
tee, so the operator's output is materialized while the original
pipeline continues unchanged.  Each injected store corresponds to a
*candidate sub-job*: a standalone plan from the job's Loads up to the
anchored operator plus a Store, registered in the repository after the
job executes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.heuristics import Heuristic, classify_operator
from repro.mapreduce.job import MapReduceJob
from repro.pig.physical.operators import (
    PhysicalOperator,
    POSplit,
    POStore,
)
from repro.pig.physical.plan import PhysicalPlan
from repro.relational.schema import Schema


@dataclass
class CandidateSubJob:
    """One enumerated sub-job: its standalone plan and output location."""

    #: complete, independent job plan (Loads ... anchor ... Store) —
    #: "indistinguishable from other jobs in the repository" (§4)
    plan: PhysicalPlan
    store_path: str
    anchor_kind: str
    output_schema: Schema
    #: op id of the injected side store in the *running* job's plan
    injected_store_id: Optional[int] = None


class SubJobEnumerator:
    """Enumerates candidates and injects their Stores into a job."""

    def __init__(
        self,
        heuristic: Heuristic,
        id_allocator: Callable[[], int],
        path_prefix: str = "restore/subjob",
    ):
        self.heuristic = heuristic
        self.path_prefix = path_prefix.rstrip("/")
        #: hands out sub-job numbers.  The manager passes the DFS's
        #: allocator so paths are scoped to the shared filesystem —
        #: deterministic per fresh DFS (serial and service runs of the
        #: same stream produce identical store paths) yet collision-
        #: free between managers sharing one DFS.
        self._next_id = id_allocator

    def _new_path(self) -> str:
        return f"{self.path_prefix}/sj{self._next_id():06d}"

    def enumerate_and_inject(self, job: MapReduceJob) -> List[CandidateSubJob]:
        """Instrument *job* in place; returns the injected candidates."""
        plan = job.plan
        candidates: List[CandidateSubJob] = []
        # Topological snapshot first: injection mutates the DAG.
        anchors = [
            op
            for op in plan.topo_order()
            if self.heuristic.should_materialize(op, plan)
        ]
        for anchor in anchors:
            candidate = self._inject_for(plan, anchor)
            if candidate is not None:
                candidates.append(candidate)
        if candidates:
            plan.validate()
        return candidates

    def _inject_for(
        self, plan: PhysicalPlan, anchor: PhysicalOperator
    ) -> Optional[CandidateSubJob]:
        if anchor.schema is None:
            return None
        successors = plan.successors(anchor)
        # If the output is already stored (anchor feeds a Store), the
        # whole-job candidate covers it; injecting would double-store.
        if any(isinstance(s, POStore) for s in successors):
            return None

        # The candidate's standalone plan is extracted *before* the tee
        # is spliced in, so it stays clean of instrumentation.  The
        # anchor's clone comes from the extraction's op-id mapping —
        # scanning sinks for a matching signature would pick an
        # arbitrary twin whenever two sinks compute the same thing.
        sub_plan, twins = plan.subplan_upto_mapped(anchor)
        store_path = self._new_path()
        sub_store = POStore(store_path, schema=anchor.schema)
        sub_anchor = twins[anchor.op_id]
        sub_plan.add(sub_store)
        sub_plan.connect(sub_anchor, sub_store)

        side_store = POStore(store_path, schema=anchor.schema, side=True)
        tee = self._tee_after(plan, anchor)
        plan.add(side_store)
        plan.connect(tee, side_store)

        return CandidateSubJob(
            plan=sub_plan,
            store_path=store_path,
            anchor_kind=classify_operator(anchor, plan),
            output_schema=anchor.schema,
            injected_store_id=side_store.op_id,
        )

    def _tee_after(self, plan: PhysicalPlan, anchor: PhysicalOperator) -> POSplit:
        """Reuse an existing tee after *anchor* or splice in a new one."""
        successors = plan.successors(anchor)
        for succ in successors:
            if isinstance(succ, POSplit):
                return succ
        tee = POSplit(anchor.schema)
        plan.add(tee)
        for succ in list(plan.successors(anchor)):
            plan.disconnect(anchor, succ)
            plan.connect(tee, succ)
        plan.connect(anchor, tee)
        return tee
