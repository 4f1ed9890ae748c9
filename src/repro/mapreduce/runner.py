"""The Hadoop simulator: executes jobs and workflows.

``HadoopSimulator.run_workflow`` walks the job DAG in dependency
order, invoking an optional :class:`JobListener` before and after each
job — the integration point ReStore uses, mirroring how the paper
extends Pig's ``JobControlCompiler`` (§6.2): plans are matched and
rewritten right before submission, statistics harvested right after
completion.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional

from repro.dfs.filesystem import DistributedFileSystem
from repro.execution.interpreter import JobInterpreter
from repro.mapreduce.cluster import ClusterConfig
from repro.mapreduce.job import MapReduceJob, Workflow
from repro.mapreduce.stats import JobStats, WorkflowStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.costmodel.model import CostModel


class JobListener:
    """Hooks around job execution (ReStore implements these).

    This is the formal contract between the engine and any reuse
    manager: besides the three execution hooks, the engine asks the
    listener which paths to spare during temp cleanup
    (:meth:`protected_paths`) and collects the structured events it
    accumulated (:meth:`drain`) — no duck-typed ``getattr`` probing.
    """

    def on_workflow_start(self, workflow: Workflow) -> None:
        """Called once before any job of the workflow runs."""

    def on_workflow_end(self, workflow: Workflow) -> None:
        """Called once after the workflow finishes (even on failure).

        ReStore releases per-workflow state here — e.g. the pins that
        protect repository outputs referenced by this workflow's
        rewritten plans from concurrent eviction.
        """

    def before_job(self, job: MapReduceJob, workflow: Workflow) -> bool:
        """Called before submission; return False to skip the job
        (e.g. its entire output was answered from the repository)."""
        return True

    def after_job(self, job: MapReduceJob, stats: JobStats, workflow: Workflow) -> None:
        """Called after successful execution with fresh statistics."""

    def protected_paths(self) -> set:
        """DFS paths the engine must not delete during temp cleanup."""
        return set()

    def drain(self) -> list:
        """Return (and clear) structured events accumulated since the
        last drain — :class:`repro.events.ReStoreEvent` instances."""
        return []


class HadoopSimulator:
    """Runs MapReduce jobs over the simulated DFS and times them."""

    def __init__(
        self,
        dfs: DistributedFileSystem,
        cluster: Optional[ClusterConfig] = None,
        cost_model: Optional["CostModel"] = None,
    ):
        # Imported here to break the mapreduce <-> costmodel cycle:
        # the model consumes this package's ClusterConfig and stats.
        from repro.costmodel.model import CostModel

        self.dfs = dfs
        self.cluster = cluster or ClusterConfig()
        self.cost_model = cost_model or CostModel(cluster=self.cluster)

    def run_job(self, job: MapReduceJob) -> JobStats:
        interpreter = JobInterpreter(
            job,
            self.dfs,
            n_reduce_tasks=self.cluster.n_reduce_tasks(job.conf.n_reducers),
        )
        stats = interpreter.run()
        stats.sim = self.cost_model.job_time(stats, job.conf.n_reducers)
        return stats

    def run_workflow(
        self,
        workflow: Workflow,
        listener: Optional[JobListener] = None,
    ) -> WorkflowStats:
        started = time.perf_counter()
        result = WorkflowStats(name=workflow.name)
        if listener is not None:
            listener.on_workflow_start(workflow)

        try:
            for job in workflow.topo_order():
                run_it = True
                if listener is not None:
                    run_it = listener.before_job(job, workflow)
                if not run_it or job.eliminated_by is not None:
                    result.eliminated_jobs.append(job.job_id)
                    continue
                stats = self.run_job(job)
                result.job_stats[job.job_id] = stats
                if listener is not None:
                    listener.after_job(job, stats, workflow)
        finally:
            if listener is not None:
                listener.on_workflow_end(workflow)

        deps = workflow.dependency_ids()
        job_times = {
            job_id: stats.sim_seconds
            for job_id, stats in result.job_stats.items()
        }
        result.sim_seconds = self.cost_model.workflow_time(job_times, deps)
        result.wall_seconds = time.perf_counter() - started
        return result

    def cleanup_temporaries(
        self, workflow: Workflow, keep: Optional[set] = None
    ) -> int:
        """Delete temp outputs (stock Pig behaviour the paper changes).

        ReStore passes ``keep`` with the paths it decided to retain in
        its repository.  Returns the number of files deleted.
        """
        keep = keep or set()
        deleted = 0
        for job in workflow.jobs:
            if job.temporary and job.output_path not in keep:
                if self.dfs.delete_if_exists(job.output_path):
                    deleted += 1
        return deleted
