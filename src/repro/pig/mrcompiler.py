"""Logical plan -> workflow of MapReduce jobs.

Implements Pig's job-cutting rule: physical operators are grouped into
mapper and reducer stages, and **each blocking (shuffle) operator —
Join, Group, CoGroup, Distinct, Order — starts its own MapReduce job**
(paper §2: "when more than one of these physical operators exist in a
query execution plan, each one of them has to be embedded in a
separate MapReduce job").  Jobs exchange data through temporary DFS
files, which are precisely the intermediate results ReStore keeps.

Aliases consumed by several downstream statements are recompiled per
consumer (recomputation).  This matches the workflow shapes ReStore
sees from Pig and deliberately *creates* the duplicated sub-plans that
result reuse then collapses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import CompilationError
from repro.mapreduce.job import JobConf, MapReduceJob, Workflow
from repro.pig.logical.operators import (
    LOCogroup,
    LODistinct,
    LOFilter,
    LOForEach,
    LOJoin,
    LOLimit,
    LOLoad,
    LOSort,
    LOStore,
    LOUnion,
    LogicalOperator,
    LogicalPlan,
)
from repro.pig.physical.operators import (
    PhysicalOperator,
    POFilter,
    POForEach,
    POGlobalRearrange,
    POLimit,
    POLoad,
    POLocalRearrange,
    POPackage,
    POStore,
    POUnion,
)
from repro.pig.physical.plan import PhysicalPlan
from repro.relational.expressions import BagStar, Column, Expression, UnaryOp
from repro.relational.schema import FieldSchema, Schema
from repro.relational.types import DataType


@dataclass
class Cursor:
    """Where a compiled logical node's rows are available."""

    job: MapReduceJob
    op: PhysicalOperator
    phase: str  # "map" | "reduce"


class MRCompiler:
    """Compiles one logical plan into a :class:`Workflow`."""

    def __init__(self, temp_prefix: str = "tmp/run", *, job_prefix: str):
        self.temp_prefix = temp_prefix.rstrip("/")
        #: jobs get deterministic ids ``job_<prefix>_<n>``, never one
        #: from the process-global counter (a re-stamped copy of a
        #: template keeps its job's number)
        self.job_prefix = job_prefix
        #: op id -> ("temp", i) for the store and loads of temp path
        #: ``t<i>``, ("store", k) for the store of the plan's k-th STORE:
        #: the operators whose path a re-stamped copy of the workflow
        #: points elsewhere
        self.slots: Dict[int, Tuple[str, int]] = {}
        self._jobs: List[MapReduceJob] = []
        self._tmp_counter = 0
        self._job_counter = 0

    # -- public -------------------------------------------------------------------

    def compile(self, plan: LogicalPlan, name: str = "workflow") -> Workflow:
        self.slots = {}
        self._jobs = []
        self._tmp_counter = 0
        self._job_counter = 0
        for ordinal, store in enumerate(plan.stores):
            self._compile_store(store, ordinal)
        workflow = Workflow(jobs=list(self._jobs), name=name)
        for job in workflow.jobs:
            job.validate()
        return workflow

    # -- helpers ---------------------------------------------------------------------

    def _new_tmp_path(self) -> str:
        self._tmp_counter += 1
        return f"{self.temp_prefix}/t{self._tmp_counter}"

    def _new_job(self, name: str) -> MapReduceJob:
        self._job_counter += 1
        job = MapReduceJob(
            PhysicalPlan(),
            JobConf(name=name),
            job_id=f"job_{self.job_prefix}_{self._job_counter}",
        )
        self._jobs.append(job)
        return job

    def _absorb(self, target: MapReduceJob, source: MapReduceJob) -> None:
        """Move all of *source*'s plan into *target* and drop *source*."""
        for op in source.plan.operators:
            target.plan.add(op)
        for op in source.plan.operators:
            for succ in source.plan.successors(op):
                target.plan.connect(op, succ)
        self._jobs.remove(source)

    def _close_job(self, cursor: Cursor, schema: Schema) -> str:
        """End *cursor*'s job with a temporary store; return its path."""
        tmp_path = self._new_tmp_path()
        store = POStore(tmp_path, schema=schema)
        self.slots[store.op_id] = ("temp", self._tmp_counter)
        cursor.job.plan.add(store)
        cursor.job.plan.connect(cursor.op, store)
        cursor.job.temporary = True
        return tmp_path

    def _merge_into(
        self, job: MapReduceJob, cursor: Cursor, schema: Schema
    ) -> PhysicalOperator:
        """Make *cursor*'s rows available inside *job*'s map phase.

        Pure map segments are absorbed; anything already past a shuffle
        is closed with a temp store and re-loaded (a new job boundary —
        the paper's Figure 1 arrows).
        """
        if cursor.job is job:
            return cursor.op
        mergeable = (
            cursor.phase == "map"
            and cursor.job.plan.global_rearrange() is None
            and not cursor.job.plan.stores()
        )
        if mergeable:
            self._absorb(job, cursor.job)
            return cursor.op
        tmp_path = self._close_job(cursor, schema)
        load = POLoad(tmp_path, schema)
        self.slots[load.op_id] = ("temp", self._tmp_counter)
        job.plan.add(load)
        return load

    # -- node compilation ----------------------------------------------------------------

    def _compile_store(self, store: LOStore, ordinal: int) -> MapReduceJob:
        cursor = self._compile_node(store.inputs[0])
        po_store = POStore(store.path, schema=store.inputs[0].schema)
        self.slots[po_store.op_id] = ("store", ordinal)
        cursor.job.plan.add(po_store)
        cursor.job.plan.connect(cursor.op, po_store)
        return cursor.job

    def _compile_node(self, node: LogicalOperator) -> Cursor:
        if isinstance(node, LOLoad):
            job = self._new_job(node.alias)
            load = POLoad(node.path, node.schema, node.loader)
            job.plan.add(load)
            return Cursor(job, load, "map")
        if isinstance(node, LOFilter):
            return self._append_pipelined(
                node, POFilter(node.predicate, schema=node.schema)
            )
        if isinstance(node, LOForEach):
            op = POForEach(
                [item.expr for item in node.items],
                [item.flatten for item in node.items],
                [item.name for item in node.items],
                schema=node.schema,
            )
            return self._append_pipelined(node, op)
        if isinstance(node, LOLimit):
            return self._append_pipelined(node, POLimit(node.n, schema=node.schema))
        if isinstance(node, LOJoin):
            return self._compile_join(node)
        if isinstance(node, LOCogroup):
            return self._compile_cogroup(node)
        if isinstance(node, LODistinct):
            return self._compile_distinct(node)
        if isinstance(node, LOSort):
            return self._compile_sort(node)
        if isinstance(node, LOUnion):
            return self._compile_union(node)
        raise CompilationError(f"cannot compile logical node {node!r}")

    def _append_pipelined(
        self, node: LogicalOperator, op: PhysicalOperator
    ) -> Cursor:
        cursor = self._compile_node(node.inputs[0])
        cursor.job.plan.add(op)
        cursor.job.plan.connect(cursor.op, op)
        return Cursor(cursor.job, op, cursor.phase)

    # -- shuffle nodes ----------------------------------------------------------------------

    def _start_shuffle(
        self,
        node: LogicalOperator,
        key_exprs_per_input: Sequence[Sequence[Expression]],
        mode: str,
        package_schema: Schema,
        outer_flags: Optional[Sequence[bool]] = None,
    ) -> Tuple[MapReduceJob, POPackage]:
        job = self._new_job(node.alias)
        branch_ops: List[PhysicalOperator] = []
        for input_node in node.inputs:
            cursor = self._compile_node(input_node)
            branch_ops.append(self._merge_into(job, cursor, input_node.schema))

        n = len(node.inputs)
        gr = POGlobalRearrange(n)
        job.plan.add(gr)
        for branch, (branch_op, keys) in enumerate(
            zip(branch_ops, key_exprs_per_input)
        ):
            lr = POLocalRearrange(
                list(keys), branch=branch, schema=node.inputs[branch].schema
            )
            job.plan.add(lr)
            job.plan.connect(branch_op, lr)
            job.plan.connect(lr, gr)
        package = POPackage(mode, n, outer_flags, schema=package_schema)
        job.plan.add(package)
        job.plan.connect(gr, package)
        return job, package

    def _compile_cogroup(self, node: LOCogroup) -> Cursor:
        mode = "group" if node.is_group else "cogroup"
        job, package = self._start_shuffle(
            node, node.key_exprs, mode, node.schema
        )
        return Cursor(job, package, "reduce")

    def _compile_join(self, node: LOJoin) -> Cursor:
        if node.strategy == "replicated":
            return self._compile_fr_join(node)
        # The package sees (key, bag per input); the inner schemas let
        # the interpreter pad outer-join nulls.
        package_fields = [FieldSchema("group", DataType.BYTEARRAY)]
        for i, input_node in enumerate(node.inputs):
            package_fields.append(
                FieldSchema(f"bag_{i}", DataType.BAG, input_node.schema)
            )
        package_schema = Schema(tuple(package_fields))
        job, package = self._start_shuffle(
            node, node.key_exprs, "join", package_schema, node.outer_flags
        )
        # Flatten every bag: the cross product materializes join rows.
        n = len(node.inputs)
        flatten = POForEach(
            [BagStar(i + 1) for i in range(n)],
            [True] * n,
            [f"bag_{i}" for i in range(n)],
            schema=node.schema,
        )
        job.plan.add(flatten)
        job.plan.connect(package, flatten)
        return Cursor(job, flatten, "reduce")

    def _compile_fr_join(self, node: LOJoin) -> Cursor:
        """Fragment-replicate join: map-side, no shuffle (Pig's
        ``USING 'replicated'``).  The second input is the replicated
        (in-memory) side; the job stays map-only, so a following
        GROUP/COGROUP can absorb it into its own map phase."""
        from repro.pig.physical.operators import POFRJoin

        job = self._new_job(node.alias)
        branch_ops = []
        for input_node in node.inputs:
            cursor = self._compile_node(input_node)
            branch_ops.append(self._merge_into(job, cursor, input_node.schema))
        frjoin = POFRJoin(node.key_exprs, schema=node.schema)
        job.plan.add(frjoin)
        for branch_op in branch_ops:
            job.plan.connect(branch_op, frjoin)
        return Cursor(job, frjoin, "map")

    def _compile_distinct(self, node: LODistinct) -> Cursor:
        schema = node.schema
        keys = [Column(i, f.name) for i, f in enumerate(schema)]
        job, package = self._start_shuffle(node, [keys], "distinct", schema)
        return Cursor(job, package, "reduce")

    def _compile_sort(self, node: LOSort) -> Cursor:
        keys: List[Expression] = []
        for expr, ascending in node.sort_items:
            if ascending:
                keys.append(expr)
            else:
                # Descending: negate numeric keys at rearrange time.
                keys.append(UnaryOp("neg", expr))
        job, package = self._start_shuffle(node, [keys], "sort", node.schema)
        return Cursor(job, package, "reduce")

    def _compile_union(self, node: LOUnion) -> Cursor:
        job = self._new_job(node.alias)
        branch_ops = []
        for input_node in node.inputs:
            cursor = self._compile_node(input_node)
            branch_ops.append(self._merge_into(job, cursor, input_node.schema))
        union = POUnion(len(node.inputs), schema=node.schema)
        job.plan.add(union)
        for branch_op in branch_ops:
            job.plan.connect(branch_op, union)
        return Cursor(job, union, "map")

