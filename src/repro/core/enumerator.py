"""Sub-job enumeration and Store injection (paper §4, Figure 8).

For every physical operator whose :func:`classify_operator` category
the active heuristic names, the enumerator splices a ``POSplit`` tee
after it and hangs a side ``POStore`` under :data:`SUBJOB_DIR` off the
tee, so the operator's output is materialized while the original
pipeline continues unchanged.  Each such store stands for a *candidate
sub-job*: the plan from the job's Loads up to the anchored operator
plus a Store.  The instrumented plan is the one record of it: after the
job runs, the manager offers each such store for registration, and
:func:`repro.core.selector.sub_job_plan` cuts the candidate from the
plan that ran (the tees it passes through contract away).

An anchor gets no side store when registration would refuse its output
on the plan alone (:func:`repro.core.selector.registrable`): the store
would be written, charged and deleted unread.  Two kinds of job are
left uninstrumented that way.  After a delta rewrite every anchor
downstream of the UNION that reads the appended tail reads delta
scratch, which dies when the refresh lands.  A job that stores over one
of its own loads registers nothing at all.  Sub-job paths
(``restore/subjob/sjNNNNNN``) are numbered per injected store: an
anchor that gets none takes no number.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, List, Optional

from repro.core.heuristics import classify_operator
from repro.core.selector import registrable
from repro.mapreduce.job import MapReduceJob
from repro.pig.physical.operators import (
    PhysicalOperator,
    POSplit,
    POStore,
)
from repro.pig.physical.plan import PhysicalPlan

#: where injected side stores land: the manager offers the side stores
#: here as sub-jobs, and recovery sweeps the files here that no
#: recovered entry or kept path claims
SUBJOB_DIR = "restore/subjob"


class SubJobEnumerator:
    """Injects a side Store after every anchor of a job."""

    def __init__(self, categories: FrozenSet[str], id_allocator: Callable[[], int]):
        #: operator categories to materialize (a ``HEURISTICS`` value)
        self.categories = categories
        #: hands out sub-job numbers.  The manager passes the DFS's
        #: allocator so paths are scoped to the shared filesystem —
        #: deterministic per fresh DFS (serial and service runs of the
        #: same stream produce identical store paths) yet collision-
        #: free between managers sharing one DFS.
        self._next_id = id_allocator

    def _new_path(self) -> str:
        return f"{SUBJOB_DIR}/sj{self._next_id():06d}"

    def enumerate_and_inject(self, job: MapReduceJob) -> List[POStore]:
        """Instrument *job* in place; returns the side stores injected."""
        if not self.categories:
            return []  # the "never" heuristic
        plan = job.plan
        stores: List[POStore] = []
        # Topological snapshot first: injection mutates the DAG.
        anchors = [
            op
            for op in plan.topo_order()
            if classify_operator(op, plan) in self.categories
            and registrable(plan, op)
        ]
        for anchor in anchors:
            store = self._inject_for(plan, anchor)
            if store is not None:
                stores.append(store)
        if stores:
            plan.validate()
        return stores

    def _inject_for(
        self, plan: PhysicalPlan, anchor: PhysicalOperator
    ) -> Optional[POStore]:
        if anchor.schema is None:
            return None
        # If the output is already stored (anchor feeds a Store), the
        # whole-job candidate covers it; injecting would double-store.
        if any(isinstance(s, POStore) for s in plan.successors(anchor)):
            return None
        side_store = POStore(self._new_path(), schema=anchor.schema, side=True)
        tee = self._tee_after(plan, anchor)
        plan.add(side_store)
        plan.connect(tee, side_store)
        return side_store

    def _tee_after(self, plan: PhysicalPlan, anchor: PhysicalOperator) -> POSplit:
        """Reuse an existing tee after *anchor* or splice in a new one."""
        successors = plan.successors(anchor)
        for succ in successors:
            if isinstance(succ, POSplit):
                return succ
        tee = POSplit(anchor.schema)
        if successors:
            # in place on the edge: the consumer's input order (a
            # UNION's, fingerprinted) must not move
            return plan.insert_between(anchor, successors[0], tee)
        plan.add(tee)
        plan.connect(anchor, tee)
        return tee
