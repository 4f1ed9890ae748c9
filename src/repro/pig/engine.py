"""PigServer: the end-to-end dataflow system facade.

Runs the whole pipeline the paper describes in §6.1: parse -> logical
plan -> logical optimizer -> MapReduce compiler -> (ReStore hooks) ->
Hadoop execution, then cleans up intermediate outputs *except* the
ones ReStore decided to keep.  The stages between the parse and the
hooks run once per script shape: each submission gets a re-stamped copy
of a memoised workflow template, sharing the template's operators and
inheriting its plans' order and validity.  A submission runs with CPython's
cyclic collector paused (:func:`_pause_collector`).
"""

from __future__ import annotations

import gc
import threading
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.costmodel.model import CostModel
from repro.dfs.filesystem import DistributedFileSystem
from repro.events import DECISION_EVENTS, ReStoreEvent, render_events
from repro.exceptions import CompilationError, PlanError
from repro.mapreduce.cluster import ClusterConfig
from repro.mapreduce.job import MapReduceJob, Workflow
from repro.mapreduce.runner import HadoopSimulator, JobListener
from repro.mapreduce.stats import WorkflowStats
from repro.pig.ast import AstStatement, Script, StoreStmt
from repro.pig.logical.builder import build_logical_plan
from repro.pig.logical.optimizer import LogicalOptimizer
from repro.pig.mrcompiler import MRCompiler
from repro.pig.parser import parse
from repro.relational.schema import Schema
from repro.relational.tuples import Row, snapshot_rows

#: workflow templates the compile memo holds: one per script shape
#: (statements without their store paths)
_MEMO_TEMPLATES = 256

#: the collector pause every submission in the process shares: how many
#: submissions are inside it, and whether the collector was enabled when
#: the first of them entered
_pause_lock = threading.Lock()
_pause_depth = 0
_pause_found_enabled = False


@dataclass
class PigRunResult:
    """Everything produced by one script execution, run directly or
    submitted through a :class:`~repro.service.JobService`."""

    workflow: Workflow
    stats: WorkflowStats
    #: final output path -> parsed rows
    outputs: Dict[str, List[Row]] = field(default_factory=dict)
    #: typed ReStore events drained from the manager for this run
    events: List[ReStoreEvent] = field(default_factory=list)
    #: 1 + the job re-runs this submission needed after a worker
    #: crashed or hung (process-mode service)
    attempts: int = 1

    @property
    def decisions(self) -> Tuple[str, ...]:
        """The byte-comparable reuse decisions of this run."""
        return tuple(render_events(self.events, DECISION_EVENTS))

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
    ):
        self.dfs = dfs
        self.cluster = cluster or ClusterConfig()
        self.cost_model = cost_model or CostModel(cluster=self.cluster)
        self.runner = HadoopSimulator(dfs, self.cluster, self.cost_model)
        self.restore = restore

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
        ``script_id=`` overrides the allocation; only tests pass it.

        Everything below the parse is memoised on the statements with
        their store paths left out (:func:`_template`); the workflow
        handed out is always a re-stamped copy (:func:`_restamp`).
        """
        if script_id is None:
            script_id = self.dfs.next_script_id()
        statements = parse(source).statements
        store_paths = [s.path for s in statements if isinstance(s, StoreStmt)]
        shape = tuple(
            StoreStmt(s.input_alias, "", s.storer) if isinstance(s, StoreStmt) else s
            for s in statements
        )
        template = _template(shape)
        return _restamp(template, script_id, store_paths, name)

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
        """Execute *workflow* with the cyclic collector paused: what it
        allocates (the shuffle's rows above all) is live until the run
        ends and nothing on this path forms a reference cycle, so the
        collector would re-scan it for nothing.  The collection that fell
        due meanwhile runs before this returns."""
        found_enabled = _pause_collector()
        try:
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

            # Stock Pig deletes intermediate outputs when the workflow
            # ends; ReStore keeps the ones registered in its repository (§1).
            kept = self.restore.protected_paths() if self.restore else set()
            self.runner.cleanup_temporaries(workflow, keep=kept)

            if self.restore is not None:
                result.events = list(self.restore.drain())
            return result
        finally:
            _resume_collector(found_enabled)


def _pause_collector() -> bool:
    """Enter the process-wide collector pause; returns whether the
    collector was enabled outside it.

    The first submission in disables the collector if it was enabled;
    later ones, overlapping on other threads, find it as the first one
    did.  A caller's own ``gc.disable()`` is left alone."""
    global _pause_depth, _pause_found_enabled
    with _pause_lock:
        if _pause_depth == 0:
            _pause_found_enabled = gc.isenabled()
            gc.disable()
        _pause_depth += 1
        return _pause_found_enabled


def _resume_collector(found_enabled: bool) -> None:
    """Leave the pause: the last submission out restores the state the
    first one found, and every one that found the collector enabled runs
    the collection the collector itself would run now.

    CPython collects generation *g* once ``count[0]`` passes its
    threshold, *g* being the oldest generation whose count passed its
    own.  Generation 2 also waits for long-lived objects to grow by a
    quarter, which :mod:`gc` does not expose; so this collects at most
    generation 1 and leaves generation 2 to the collector's own
    trigger."""
    global _pause_depth
    with _pause_lock:
        _pause_depth -= 1
        if _pause_depth == 0 and _pause_found_enabled:
            gc.enable()
    if found_enabled:
        counts, thresholds = gc.get_count(), gc.get_threshold()
        if thresholds[0] and counts[0] > thresholds[0]:
            gc.collect(1 if counts[1] > thresholds[1] else 0)


@dataclass(frozen=True)
class _Template:
    """A compiled workflow no submission runs: the jobs every re-stamped
    copy is made from, and which operators' paths a copy changes."""

    jobs: Tuple[MapReduceJob, ...]
    #: op id -> ("temp", i) | ("store", k), as :class:`MRCompiler` cut them
    slots: Mapping[int, Tuple[str, int]]


@lru_cache(maxsize=_MEMO_TEMPLATES)
def _template(statements: Tuple[AstStatement, ...]) -> _Template:
    """Logical plan, optimizer and MR compiler for *statements*, whose
    store paths are blank, memoised process-wide: a script repeated with
    other outputs costs a lookup.  Each job's plan is validated and its
    facts computed here, once — topological order, loads, stores,
    fingerprints — so every re-stamped copy inherits them and nothing
    writes to the template after it is cached (its operators are shared
    with every copy); a script that fails to build raises and is not
    kept."""
    plan = LogicalOptimizer().optimize(build_logical_plan(Script(list(statements))))
    compiler = MRCompiler(temp_prefix="tmp/template", job_prefix="template")
    workflow = compiler.compile(plan)
    for job in workflow.jobs:
        job.validate()
        job.plan.loads()
        job.plan.stores()
        job.plan.fingerprint()
    return _Template(tuple(workflow.jobs), dict(compiler.slots))


def _restamp(
    template: _Template, script_id: int, store_paths: Sequence[str], name: str
) -> Workflow:
    """A fresh workflow from *template* for one submission: temp paths
    under ``tmp/s<script_id>``, the script's store paths and job ids
    ``job_s<script_id>_<n>`` (``n`` the template job's own number).
    Each job's plan shares the template's operators but the re-pathed
    loads and stores, and inherits its order and validity
    (:meth:`~repro.pig.physical.plan.PhysicalPlan.restamped`); what is
    checked here is the workflow, because a path cycle exists only once
    the real paths are in."""
    temp_prefix = f"tmp/s{script_id}"
    paths = {
        op_id: f"{temp_prefix}/t{n}" if kind == "temp" else store_paths[n]
        for op_id, (kind, n) in template.slots.items()
    }
    jobs = [
        MapReduceJob(
            job.plan.restamped(paths),
            replace(job.conf),
            temporary=job.temporary,
            job_id=f"job_s{script_id}_{job.job_id.rsplit('_', 1)[1]}",
        )
        for job in template.jobs
    ]
    workflow = Workflow(jobs=jobs, name=name or f"script_{script_id}")
    try:
        workflow.topo_order()
    except PlanError as error:
        raise CompilationError(f"script stores what it loads: {error}") from None
    return workflow
