"""Plan rewriting: replace matched sub-plans with Loads of stored outputs.

Paper §3: "The matched part of the input physical plan is replaced
with a Load operator that reads the output of the repository plan from
the distributed file system."
"""

from __future__ import annotations

from typing import List

from repro.core.matcher import MatchResult
from repro.exceptions import PlanError
from repro.mapreduce.job import MapReduceJob
from repro.pig.physical.operators import (
    POLoad,
    POSplit,
    POStore,
    POUnion,
)
from repro.pig.physical.plan import PhysicalPlan
from repro.relational.schema import Schema


class PlanRewriter:
    """Applies matches to job plans."""

    def rewrite_partial(
        self,
        plan: PhysicalPlan,
        match: MatchResult,
        output_path: str,
        output_schema: Schema,
    ) -> POLoad:
        """Replace the matched sub-plan with a Load of the stored output.

        The frontier's consumers are re-pointed at the new Load, each in
        the input position the frontier held there; matched operators
        that no longer reach any store are garbage-collected.  The new
        Load streams where the first Load it replaces did (the
        interpreter streams loads in plan order, and a map-side UNION
        emits rows in arrival order).  Returns the inserted Load.
        """
        frontier = match.frontier
        if frontier is None or frontier not in plan:
            raise PlanError("match frontier is not part of the plan")

        upstream = plan.upstream_closure(frontier)
        first = next((op for op in plan.loads() if op.op_id in upstream), None)
        load = POLoad(output_path, output_schema)
        plan.add(load, before=first)
        for succ in list(plan.successors(frontier)):
            plan.move_edge(frontier, succ, load)

        self._garbage_collect(plan)
        if load not in plan:
            raise PlanError("rewrite removed its own load (no live consumers)")
        return load

    def rewrite_delta(
        self,
        plan: PhysicalPlan,
        match: MatchResult,
        chain: List,
        stored_path: str,
        stored_schema: Schema,
        tail_path: str,
        tail_schema: Schema,
        delta_path: str,
    ) -> POUnion:
        """Splice a delta recomputation in place of the matched sub-plan.

        The matched entry's input grew by an append and its sub-plan is
        an identity-preserving *chain* (``freshness.delta_chain``), so
        ``f(old ++ tail) == f(old) ++ f(tail)``: instead of rerunning
        the chain over the whole input, the frontier's consumers read

            UNION(Load(stored output), chain-clone(Load(appended tail)))

        with a Split tee side-storing the tail branch into *delta_path*
        — the manager appends those delta bytes onto the entry's stored
        output after the job, advancing the entry's recorded extents.

        The stored-output Load is added *before* the tail Load: the
        interpreter streams loads in plan insertion order and store
        rows accumulate in arrival order, so the merged stream (and any
        downstream store) is stored-prefix ++ tail-suffix — byte-
        identical to a full rerun.  Returns the inserted Union.
        """
        frontier = match.frontier
        if frontier is None or frontier not in plan:
            raise PlanError("match frontier is not part of the plan")

        stored_load = POLoad(stored_path, stored_schema)
        plan.add(stored_load)
        tail_load = POLoad(tail_path, tail_schema)
        plan.add(tail_load)

        prev = tail_load
        for op in chain:
            clone = op.copy()
            plan.add(clone)
            plan.connect(prev, clone)
            prev = clone

        tee = POSplit(schema=stored_schema)
        plan.add(tee)
        plan.connect(prev, tee)
        delta_store = POStore(delta_path, schema=stored_schema, side=True)
        plan.add(delta_store)
        plan.connect(tee, delta_store)

        union = POUnion(2, schema=stored_schema)
        plan.add(union)
        plan.connect(stored_load, union)
        plan.connect(tee, union)

        for succ in list(plan.successors(frontier)):
            plan.move_edge(frontier, succ, union)

        self._garbage_collect(plan)
        if union not in plan:
            raise PlanError("delta rewrite removed its own union (no live consumers)")
        return union

    def rewrite_as_copy_job(
        self,
        job: MapReduceJob,
        output_path: str,
        output_schema: Schema,
    ) -> None:
        """Whole-plan match on a *final* job: degrade to Load -> Store.

        The result already exists in the repository; the job only has
        to place a copy at the path the user asked for.
        """
        store = job.plan.primary_store()
        if store is None:
            raise PlanError("copy-job rewrite needs a primary store")
        final_path = store.path
        new_plan = PhysicalPlan()
        load = POLoad(output_path, output_schema)
        new_store = POStore(final_path, schema=output_schema)
        new_plan.add(load)
        new_plan.add(new_store)
        new_plan.connect(load, new_store)
        job.plan = new_plan

    def redirect_loads(
        self, jobs: List[MapReduceJob], old_path: str, new_path: str
    ) -> int:
        """Point every Load of *old_path* in *jobs* at *new_path*.

        Used when a whole job is eliminated: its consumers must read
        the repository copy instead (paper §3, whole-job case).
        """
        redirected = 0
        for job in jobs:
            for load in job.plan.loads():
                if load.path == old_path:
                    job.plan.replace(load, POLoad(new_path, load.schema, load.loader))
                    redirected += 1
        return redirected

    # -- internals -----------------------------------------------------------------

    @staticmethod
    def _garbage_collect(plan: PhysicalPlan) -> None:
        """Drop operators that can no longer reach a Store.

        After splicing in the Load, the matched chain dangles unless one
        of its operators still feeds an unmatched consumer (possible
        with Split tees); iteratively removing store-less sinks keeps
        exactly the live part.
        """
        changed = True
        while changed:
            changed = False
            for op in list(plan.operators):
                if isinstance(op, POStore):
                    continue
                if not plan.successors(op):
                    plan.remove(op)
                    changed = True
        # Contract pass-through splits left with a single successor; the
        # successor keeps the input position the split held.
        for op in list(plan.operators):
            if isinstance(op, POSplit):
                succs = plan.successors(op)
                preds = plan.predecessors(op)
                if len(succs) == 1 and len(preds) == 1:
                    plan.move_edge(op, succs[0], preds[0])
                    plan.remove(op)
