"""The typed, serializable job-submission API.

Every way of running work through the service layer converges on one
pair of types: a :class:`JobRequest` (what to run — a Pig Latin source
or a pre-compiled workflow, for which tenant, under what name) and a
:class:`JobOutcome` (what happened — the executed workflow, statistics,
parsed outputs, and the typed ReStore events whose rendered
rewrite/elimination lines form the byte-comparable decision log).
``JobService.submit`` / ``submit_workflow`` / ``run`` and
``ReStoreSession.run`` / ``run_workflow`` are all thin wrappers that
build a request and execute it through this surface.

The pair is *serializable*: ``JobRequest.to_wire()`` /
``JobRequest.from_wire()`` round-trip through plain dicts (plans via
the snapshot codec's plan-JSON encoding, which preserves fingerprints),
which is what lets the ``executor="processes"`` worker pool ship a
submission across a ``multiprocessing`` pipe and execute it in another
process while matching, registration, and eviction stay with the
coordinator.

:class:`ServiceConfig` selects the execution substrate: ``"threads"``
(the default — one shared address space, best for matching-heavy
streams where the repository scan dominates) or ``"processes"``
(spawned worker processes that bypass the GIL, best for
execution-heavy streams; see the README architecture section for the
wire contract).
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

    ``executor`` picks the substrate: ``"threads"`` shares one address
    space (no serialization, but the GIL caps aggregate throughput);
    ``"processes"`` spawns worker processes that compile and execute
    plans while the coordinator keeps the DFS, repository, and manager
    — near-linear jobs/sec scaling for execution-heavy streams.
    """

    executor: str = "threads"
    max_workers: int = 4
    #: process mode: how many times a submission is retried on a fresh
    #: worker after its worker process dies mid-job (0 = fail fast)
    retries: int = 1
    optimize: bool = True
    default_parallel: int = 28
    #: process mode: seconds the coordinator waits for any single
    #: worker reply before declaring the worker hung, killing it, and
    #: re-dispatching within the retry budget (None = block forever)
    exchange_timeout: Optional[float] = 30.0
    #: crash/timeout retry backoff: attempt k sleeps
    #: ``min(backoff_base_s * 2**(k-1), backoff_cap_s)`` plus a
    #: deterministic jitter seeded from (session, attempt) — retries
    #: de-synchronize across tenants yet replay identically
    backoff_base_s: float = 0.02
    backoff_cap_s: float = 1.0
    #: standby watchdog: consecutive missed coordinator heartbeats
    #: before the warm replica is promoted into a fresh manager
    heartbeat_misses: int = 3
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
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff seconds must be >= 0")
        if self.heartbeat_misses < 1:
            raise ValueError("heartbeat_misses must be >= 1")
        return self


@dataclass(frozen=True)
class JobRequest:
    """One unit of submittable work, carrying exactly one of
    ``source`` (a Pig Latin script, compiled where it executes) or
    ``workflow`` (a pre-compiled job DAG, the benchmark/driver path).

    Requests are immutable and wire-serializable; the same request
    object is safe to retry on a fresh worker after a crash.
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

    def to_wire(self) -> dict:
        """Plain-dict form for the coordinator→worker pipe (plans via
        the snapshot codec's plan-JSON encoding)."""
        data: dict = {"session_id": self.session_id, "name": self.name}
        if self.source is not None:
            data["source"] = self.source
        else:
            data["workflow"] = self.workflow.to_dict()
        return data

    @classmethod
    def from_wire(cls, data: dict) -> "JobRequest":
        workflow = data.get("workflow")
        return cls(
            session_id=data.get("session_id", ""),
            name=data.get("name", ""),
            source=data.get("source"),
            workflow=Workflow.from_dict(workflow) if workflow is not None else None,
        )


@dataclass
class JobOutcome:
    """Everything one executed submission produced.

    The result surface mirrors :class:`~repro.pig.engine.PigRunResult`
    (``workflow`` / ``stats`` / ``outputs`` / ``events``) plus
    service-level provenance: which executor ran it, how many attempts
    it took (worker-crash retries), and the rendered decision log the
    differential gates compare byte for byte.
    """

    workflow: Workflow
    stats: WorkflowStats
    #: final output path -> parsed rows
    outputs: Dict[str, List[Row]] = field(default_factory=dict)
    #: typed ReStore events drained from the manager for this run
    events: List[ReStoreEvent] = field(default_factory=list)
    session_id: str = ""
    executor: str = "threads"
    #: 1 + worker-crash retries this submission needed (process mode)
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
    def from_result(
        cls,
        result: PigRunResult,
        *,
        session_id: str = "",
        executor: str = "threads",
        attempts: int = 1,
    ) -> "JobOutcome":
        return cls(
            workflow=result.workflow,
            stats=result.stats,
            outputs=result.outputs,
            events=result.events,
            session_id=session_id,
            executor=executor,
            attempts=attempts,
            _result=result,
        )


__all__ = [
    "EXECUTORS",
    "JobOutcome",
    "JobRequest",
    "ServiceConfig",
]
