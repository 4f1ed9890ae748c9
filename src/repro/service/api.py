"""The typed job-submission API.

Every way of running work through the service layer converges on one
pair of types: a :class:`JobRequest` (what to run — a Pig Latin source
or a pre-compiled workflow, for which tenant, under what name) and a
:class:`JobOutcome` (what happened — the executed workflow, statistics,
parsed outputs, and the typed ReStore events whose rendered
rewrite/elimination lines form the byte-comparable decision log).
``JobService.submit``, ``ServiceSession.submit`` / ``submit_workflow``
/ ``run`` and ``ReStoreSession.run`` / ``run_workflow`` are all thin
wrappers that build a request and execute it through this surface.

:class:`ServiceConfig` selects where a job executes: ``"threads"`` (the
default — on the pool thread that runs the submission) or
``"processes"`` (on a spawned worker process, which bypasses the GIL;
see the README architecture section for the wire contract).  Either
way a request never leaves the coordinator: only single jobs cross to
a worker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.events import DECISION_EVENTS, ReStoreEvent, render_events
from repro.mapreduce.job import Workflow
from repro.mapreduce.stats import WorkflowStats
from repro.pig.engine import PigRunResult
from repro.relational.tuples import Row

#: valid ``ServiceConfig.executor`` values
EXECUTORS = ("threads", "processes")


@dataclass(frozen=True)
class ServiceConfig:
    """Execution knobs of a :class:`~repro.service.JobService` pool.

    ``executor`` picks where jobs execute: ``"threads"`` in the
    coordinator's address space (no serialization, but the GIL caps
    aggregate throughput); ``"processes"`` on spawned worker processes,
    one exchange per job, while every submission still compiles,
    matches and registers on the coordinator.
    """

    executor: str = "threads"
    max_workers: int = 4
    #: process mode: how many times a job is run again on a fresh
    #: worker after its worker process dies mid-job (0 = fail fast)
    retries: int = 1
    #: process mode: seconds the coordinator waits for a worker's reply
    #: to a job before declaring the worker hung, killing it, and
    #: running the job again within the retry budget (None = block
    #: forever)
    exchange_timeout: Optional[float] = 30.0
    #: keep a journal-tailing StandbyReplica warm and promote it
    #: automatically when the heartbeat channel goes silent
    #: (requires persistence=)
    standby: bool = False

    def validate(self) -> "ServiceConfig":
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}; "
                f"pick one of {', '.join(EXECUTORS)}"
            )
        if self.max_workers < 1:
            raise ValueError("need at least one worker")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.exchange_timeout is not None and self.exchange_timeout <= 0:
            raise ValueError(
                "exchange_timeout must be positive seconds (or None to "
                "block forever)"
            )
        return self


@dataclass(frozen=True)
class JobRequest:
    """One unit of submittable work, carrying exactly one of
    ``source`` (a Pig Latin script, compiled on the coordinator) or
    ``workflow`` (a pre-compiled job DAG, the benchmark/driver path).

    Requests are immutable.
    """

    session_id: str = ""
    name: str = ""
    source: Optional[str] = None
    workflow: Optional[Workflow] = None

    def __post_init__(self):
        if (self.source is None) == (self.workflow is None):
            raise ValueError(
                "a JobRequest carries exactly one of source= or workflow="
            )

    @classmethod
    def from_source(
        cls, source: str, *, session_id: str = "", name: str = ""
    ) -> "JobRequest":
        return cls(session_id=session_id, name=name, source=source)

    @classmethod
    def from_workflow(
        cls, workflow: Workflow, *, session_id: str = "", name: str = ""
    ) -> "JobRequest":
        return cls(
            session_id=session_id,
            name=name or workflow.name,
            workflow=workflow,
        )


@dataclass
class JobOutcome:
    """Everything one executed submission produced.

    The result surface mirrors :class:`~repro.pig.engine.PigRunResult`
    (``workflow`` / ``stats`` / ``outputs`` / ``events``) plus
    service-level provenance: which executor ran it, how many attempts
    it took (job re-runs after worker crashes), and the rendered
    decision log the differential gates compare byte for byte.
    """

    workflow: Workflow
    stats: WorkflowStats
    #: final output path -> parsed rows
    outputs: Dict[str, List[Row]] = field(default_factory=dict)
    #: typed ReStore events drained from the manager for this run
    events: List[ReStoreEvent] = field(default_factory=list)
    session_id: str = ""
    executor: str = "threads"
    #: 1 + the job re-runs this submission needed after a worker
    #: crashed or hung (process mode)
    attempts: int = 1
    #: the engine-level result this outcome wraps, when it was produced
    #: in-process (``to_result`` then returns the original object)
    _result: Optional[PigRunResult] = field(
        default=None, repr=False, compare=False
    )

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
                f"expected one output, job stored {len(self.outputs)}"
            )
        return next(iter(self.outputs.values()))

    def to_result(self) -> PigRunResult:
        """The engine-level view of this outcome (the original
        :class:`PigRunResult` when the run happened in-process)."""
        if self._result is not None:
            return self._result
        return PigRunResult(
            workflow=self.workflow,
            stats=self.stats,
            outputs=dict(self.outputs),
            events=list(self.events),
        )

    @classmethod
    def from_result(cls, result: PigRunResult, *, session_id: str = "") -> "JobOutcome":
        return cls(
            workflow=result.workflow,
            stats=result.stats,
            outputs=result.outputs,
            events=result.events,
            session_id=session_id,
            _result=result,
        )


__all__ = [
    "EXECUTORS",
    "JobOutcome",
    "JobRequest",
    "ServiceConfig",
]
