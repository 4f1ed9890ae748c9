"""WorkloadDriver: push a job stream through a JobService and measure.

The driver is the load harness for the shared-service deployment: it
opens ``n_sessions`` tenant sessions, deals a workload across them
round-robin (tenant i gets jobs i, i+n, i+2n, ...), submits everything
up front, and waits for the futures in submission order.  Besides
throughput (jobs/sec wall-clock over the whole stream) it records a
**decision log** — the legacy-rendered ``RewriteApplied`` /
``JobEliminated`` lines of every job, in submission order — which is
the byte-comparable artifact the differential tests and the
``service_throughput`` benchmark gate use: a 1-worker service run must
produce exactly the serial log.

``run_serial`` provides that baseline: the same round-robin stream
executed synchronously on one :class:`~repro.session.ReStoreSession`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.events import DECISION_EVENTS, render_events
from repro.mapreduce.job import Workflow
from repro.pig.engine import PigRunResult
from repro.service.jobservice import JobService
from repro.session import ReStoreSession

#: a workload item: a Pig Latin source string, or a zero-arg builder
#: returning a fresh Workflow (plans mutate on rewrite, so repeated
#: runs need repeated builds)
WorkloadItem = Union[str, Callable[[], Workflow]]


@dataclass
class DriverResult:
    """What one driven run of a workload stream produced."""

    jobs: int = 0
    elapsed_s: float = 0.0
    workers: int = 1
    #: session id -> jobs completed for that tenant
    per_session: Dict[str, int] = field(default_factory=dict)
    #: per job (submission order): rendered rewrite/elimination lines
    decisions: List[Tuple[str, ...]] = field(default_factory=list)
    #: JobOutcome per driven job (PigRunResult from ``run_serial``)
    results: List = field(default_factory=list)

    @property
    def jobs_per_sec(self) -> float:
        if self.elapsed_s <= 0.0:
            return 0.0
        return self.jobs / self.elapsed_s

    @property
    def jobs_per_sec_per_worker(self) -> float:
        return self.jobs_per_sec / max(1, self.workers)

    def to_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "workers": self.workers,
            "elapsed_s": round(self.elapsed_s, 4),
            "jobs_per_sec": round(self.jobs_per_sec, 2),
            "jobs_per_sec_per_worker": round(self.jobs_per_sec_per_worker, 2),
            "sessions": len(self.per_session),
        }


def decision_log(result) -> Tuple[str, ...]:
    """The byte-comparable reuse decisions of one job's run (accepts
    anything with typed ``events`` — JobOutcome or PigRunResult)."""
    return tuple(render_events(result.events, DECISION_EVENTS))


class WorkloadDriver:
    """Deals a workload across tenant sessions and collects results."""

    def __init__(
        self,
        service: JobService,
        n_sessions: int = 4,
        session_prefix: str = "tenant",
    ):
        if n_sessions < 1:
            raise ValueError("need at least one tenant session")
        self.service = service
        self.sessions = [
            service.open_session(f"{session_prefix}_{i:03d}")
            for i in range(n_sessions)
        ]

    def run(self, items: Sequence[WorkloadItem]) -> DriverResult:
        """Submit every item round-robin, wait in submission order."""
        started = time.perf_counter()
        futures = []
        for index, item in enumerate(items):
            handle = self.sessions[index % len(self.sessions)]
            if callable(item):
                futures.append(handle.submit_workflow(item()))
            else:
                futures.append(handle.submit(item, name=f"job_{index:05d}"))
        results = [future.result() for future in futures]
        elapsed = time.perf_counter() - started
        driven = DriverResult(
            jobs=len(results),
            elapsed_s=elapsed,
            workers=self.service.max_workers,
            per_session=dict(self.service.stats.per_session),
            decisions=[decision_log(result) for result in results],
            results=results,
        )
        return driven

    @staticmethod
    def run_serial(
        session: ReStoreSession,
        items: Sequence[WorkloadItem],
        workers_label: int = 0,
    ) -> DriverResult:
        """The serial oracle: the same stream, one synchronous session.

        ``workers_label`` is recorded as the result's worker count
        (0 = no pool) so reports can tell the baseline apart.
        """
        started = time.perf_counter()
        results: List[PigRunResult] = []
        for index, item in enumerate(items):
            if callable(item):
                results.append(session.run_workflow(item()))
            else:
                results.append(session.run(item, name=f"job_{index:05d}"))
        elapsed = time.perf_counter() - started
        return DriverResult(
            jobs=len(results),
            elapsed_s=elapsed,
            workers=workers_label,
            per_session={session.session_id: len(results)},
            decisions=[decision_log(result) for result in results],
            results=results,
        )

    def close(self) -> None:
        for handle in self.sessions:
            handle.close()


__all__ = [
    "DriverResult",
    "WorkloadDriver",
    "WorkloadItem",
    "decision_log",
]
