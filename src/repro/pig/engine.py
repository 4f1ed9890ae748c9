"""PigServer: the end-to-end dataflow system facade.

Runs the whole pipeline the paper describes in §6.1: parse -> logical
plan -> logical optimizer -> MapReduce compiler -> (ReStore hooks) ->
Hadoop execution, then cleans up intermediate outputs *except* the
ones ReStore decided to keep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.costmodel.model import CostModel
from repro.dfs.filesystem import DistributedFileSystem
from repro.events import ReStoreEvent
from repro.mapreduce.cluster import ClusterConfig
from repro.mapreduce.job import Workflow
from repro.mapreduce.runner import HadoopSimulator, JobListener
from repro.mapreduce.stats import WorkflowStats
from repro.pig.logical.builder import build_logical_plan
from repro.pig.logical.optimizer import LogicalOptimizer
from repro.pig.mrcompiler import MRCompiler
from repro.pig.parser import parse
from repro.relational.schema import Schema
from repro.relational.tuples import Row, snapshot_rows


@dataclass
class PigRunResult:
    """Everything produced by one script execution."""

    workflow: Workflow
    stats: WorkflowStats
    #: final output path -> parsed rows
    outputs: Dict[str, List[Row]] = field(default_factory=dict)
    #: typed ReStore events drained from the manager for this run
    events: List[ReStoreEvent] = field(default_factory=list)

    @property
    def sim_seconds(self) -> float:
        return self.stats.sim_seconds

    @property
    def sim_minutes(self) -> float:
        return self.stats.sim_seconds / 60.0

    def single_output(self) -> List[Row]:
        if len(self.outputs) != 1:
            raise ValueError(
                f"expected one output, script stored {len(self.outputs)}"
            )
        return next(iter(self.outputs.values()))


class PigServer:
    """Compiles and runs Pig Latin scripts on the simulated stack."""

    def __init__(
        self,
        dfs: DistributedFileSystem,
        cluster: Optional[ClusterConfig] = None,
        cost_model: Optional[CostModel] = None,
        restore: Optional[JobListener] = None,
        optimize: bool = True,
        default_parallel: int = 28,
    ):
        self.dfs = dfs
        self.cluster = cluster or ClusterConfig()
        self.cost_model = cost_model or CostModel(cluster=self.cluster)
        self.runner = HadoopSimulator(dfs, self.cluster, self.cost_model)
        self.restore = restore
        self.optimize = optimize
        self.default_parallel = default_parallel

    # -- compilation ------------------------------------------------------------

    def compile(
        self, source: str, name: str = "", script_id: Optional[int] = None
    ) -> Workflow:
        """Parse + analyze + optimize + cut into a MapReduce workflow.

        Script ids (and thus ``tmp/s<id>`` temp prefixes) are allocated
        by the DFS, not a process-global counter: numbering restarts
        with every fresh filesystem (deterministic tests/sessions) but
        can never collide between servers sharing one DFS, which would
        overwrite temp outputs the ReStore repository kept alive.
        ``script_id=`` overrides the allocation — the multi-process
        service passes the coordinator-allocated id so worker-side
        compilation names temps exactly as a serial run would.
        """
        if script_id is None:
            script_id = self.dfs.next_script_id()
        script = parse(source)
        plan = build_logical_plan(script)
        if self.optimize:
            plan = LogicalOptimizer().optimize(plan)
        compiler = MRCompiler(
            temp_prefix=f"tmp/s{script_id}",
            default_parallel=self.default_parallel,
            job_prefix=f"s{script_id}",
        )
        return compiler.compile(plan, name=name or f"script_{script_id}")

    def explain(self, source: str) -> str:
        """Render the compiled workflow like Pig's EXPLAIN: jobs, their
        dependencies, and each job's physical plan."""
        workflow = self.compile(source, name="explain")
        deps = workflow.dependency_ids()
        lines = [f"workflow: {len(workflow.jobs)} MapReduce job(s)"]
        for job in workflow.topo_order():
            kind = "map-reduce" if job.has_shuffle else "map-only"
            upstream = ", ".join(deps[job.job_id]) or "none"
            temp = " (temporary output)" if job.temporary else ""
            lines.append("")
            lines.append(
                f"{job.job_id} [{kind}] -> {job.output_path}{temp}"
            )
            lines.append(f"  depends on: {upstream}")
            for plan_line in job.plan.describe().splitlines():
                lines.append(f"  {plan_line}")
        return "\n".join(lines)

    # -- execution ----------------------------------------------------------------

    def run(self, source: str, name: str = "") -> PigRunResult:
        """Compile and execute a script; returns outputs + statistics."""
        workflow = self.compile(source, name=name)
        return self.run_workflow(workflow)

    def run_workflow(self, workflow: Workflow) -> PigRunResult:
        stats = self.runner.run_workflow(workflow, listener=self.restore)
        result = PigRunResult(workflow=workflow, stats=stats)

        # Collect final outputs (skip temps and ReStore side stores).
        for job in workflow.jobs:
            if job.temporary:
                continue
            store = job.plan.primary_store()
            if store is None:
                continue
            path = store.path
            if self.dfs.exists(path):
                schema = store.schema or Schema()
                # served straight from the typed-dataset cache the
                # store just pinned — no re-parse of final outputs.
                # Bags are defensively copied: outputs are caller-
                # owned, and a caller mutating a cache-pinned Bag
                # would corrupt every later read of this path
                result.outputs[path] = list(
                    snapshot_rows(self.dfs.read_rows(path, schema))
                )

        # Stock Pig deletes intermediate outputs when the workflow ends;
        # ReStore keeps the ones registered in its repository (§1).
        kept = self.restore.protected_paths() if self.restore else set()
        self.runner.cleanup_temporaries(workflow, keep=kept)

        if self.restore is not None:
            result.events = list(self.restore.drain())
        return result
