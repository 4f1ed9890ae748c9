"""WorkloadDriver: push a job stream through a JobService.

The driver is the differential harness for the shared-service
deployment: it opens ``n_sessions`` tenant sessions, deals a workload
across them round-robin (tenant i gets jobs i, i+n, i+2n, ...), submits
everything up front, and waits for the futures in submission order.  It
records a **decision log** — every job's ``PigRunResult.decisions``
(the rendered ``RewriteApplied`` / ``JobEliminated`` lines), in
submission order — which is
the byte-comparable artifact of the 1-worker differentials in
``tests/test_service.py`` and ``tests/test_service_processes.py``: a
1-worker service run must produce exactly the serial log.

``run_serial`` provides that baseline: the same round-robin stream
executed synchronously on one :class:`~repro.session.ReStoreSession`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple, Union

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
    #: session id -> jobs completed for that tenant
    per_session: Dict[str, int] = field(default_factory=dict)
    #: per job (submission order): rendered rewrite/elimination lines
    decisions: List[Tuple[str, ...]] = field(default_factory=list)
    #: per driven job (submission order)
    results: List[PigRunResult] = field(default_factory=list)


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
        futures = []
        for index, item in enumerate(items):
            handle = self.sessions[index % len(self.sessions)]
            if callable(item):
                futures.append(handle.submit_workflow(item()))
            else:
                futures.append(handle.submit(item, name=f"job_{index:05d}"))
        results = [future.result() for future in futures]
        return DriverResult(
            jobs=len(results),
            per_session=dict(self.service.stats.per_session),
            decisions=[result.decisions for result in results],
            results=results,
        )

    @staticmethod
    def run_serial(
        session: ReStoreSession, items: Sequence[WorkloadItem]
    ) -> DriverResult:
        """The serial oracle: the same stream, one synchronous session."""
        results: List[PigRunResult] = []
        for index, item in enumerate(items):
            if callable(item):
                results.append(session.run_workflow(item()))
            else:
                results.append(session.run(item, name=f"job_{index:05d}"))
        return DriverResult(
            jobs=len(results),
            per_session={session.session_id: len(results)},
            decisions=[result.decisions for result in results],
            results=results,
        )

    def close(self) -> None:
        for handle in self.sessions:
            handle.close()


__all__ = [
    "DriverResult",
    "WorkloadDriver",
    "WorkloadItem",
]
