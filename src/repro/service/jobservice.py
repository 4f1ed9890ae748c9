"""JobService: the concurrent multi-tenant front door to ReStore.

The paper positions ReStore as a *shared service* between many Pig
clients and one MapReduce cluster (§1, Figure 1): every client's jobs
flow through the same repository so that one tenant's stored results
answer another tenant's queries.  This module is that deployment
shape: a :class:`JobService` owns one DFS, one thread-safe
:class:`~repro.core.manager.ReStoreManager`, and one
:class:`~repro.core.repository.Repository`, and executes job
submissions from many :class:`~repro.session.ReStoreSession` tenants.

A submission is a call: ``JobService.submit`` and
``submit``/``submit_workflow``/``run`` on a :class:`ServiceSession`
queue the tenant's own :meth:`ReStoreSession.run
<repro.session.ReStoreSession.run>` (or ``run_workflow``), which runs
on the coordinator and returns the engine's
:class:`~repro.pig.engine.PigRunResult`.  The ``executor`` argument
decides only where a job executes: ``"threads"`` runs it on the
submitting pool thread, ``"processes"`` hands it to a spawn-based
worker process (:class:`ProcessJobRunner`; see
:mod:`repro.service.procpool` for the one-exchange wire protocol).

Guarantees (both executors):

* **per-session FIFO** — each tenant's submissions execute in exact
  submission order (a ticket taken at enqueue time gates execution),
  while different tenants' jobs run concurrently;
* **event isolation** — every tenant's work runs inside its own
  ``manager.session_scope``, so its typed events are stamped with its
  session id and drained without cross-talk;
* **1-worker determinism** — with ``max_workers=1`` all submissions
  execute in global FIFO order, producing byte-identical rewrite
  decisions and an identical final repository to a serial run of the
  same stream, for one worker *thread* and one worker *process* alike
  (the 1-worker differentials in ``tests/test_service.py`` and
  ``tests/test_service_processes.py`` assert exactly this).

Quick start::

    from repro.service import JobService

    with JobService(max_workers=4) as service:
        service.dfs.write_file("data/users", "alice\\t1\\nbob\\t2\\n")
        alice = service.open_session("alice")
        bob = service.open_session("bob")
        f1 = alice.submit(
            "A = load 'data/users' as (name, uid:int);"
            "B = filter A by uid > 0; store B into 'out/a';"
        )
        f1.result()
        f2 = bob.submit(           # submitted after alice's job
            "A = load 'data/users' as (name, uid:int);"
            "B = filter A by uid > 0; C = foreach B generate name;"
            "store C into 'out/b';"
        )
        f2.result()                # reused alice's stored result
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional

from repro.core.manager import ReStoreConfig, ReStoreManager
from repro.core.repository import Repository
from repro.costmodel.model import CostModel
from repro.dfs.filesystem import DistributedFileSystem
from repro.events import (
    EntryQuarantined,
    PersistenceDegraded,
    ReStoreEvent,
    WorkerKilled,
)
from repro.faults import injector as faults
from repro.mapreduce.cluster import ClusterConfig
from repro.mapreduce.job import MapReduceJob, Workflow
from repro.mapreduce.runner import HadoopSimulator
from repro.mapreduce.stats import JobStats
from repro.pig.engine import PigRunResult
from repro.persistence.durability import (
    PersistenceConfig,
    RepositoryPersister,
    adopt_recovered,
    recover,
)
from repro.service.procpool import (
    ProcessWorkerPool,
    WorkerCrashed,
    WorkerJobError,
    WorkerTimeout,
)
from repro.session import ReStoreSession

#: valid ``JobService(executor=...)`` values
EXECUTORS = ("threads", "processes")
#: crash/timeout retry backoff: attempt k sleeps
#: ``min(BACKOFF_BASE_S * 2**(k-1), BACKOFF_CAP_S)`` plus a deterministic
#: jitter seeded from (session, attempt) — retries de-synchronize across
#: tenants yet replay identically
BACKOFF_BASE_S = 0.02
BACKOFF_CAP_S = 1.0


@dataclass
class ServiceStats:
    """Aggregate counters for one :class:`JobService` lifetime."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    #: process mode: jobs run again after their worker crashed or hung
    retried: int = 0
    #: process mode: worker exchanges that exceeded exchange_timeout
    #: (the hung worker was killed; counted within ``retried`` too
    #: when the re-run stayed inside the retry budget)
    timeouts: int = 0
    #: repository entries evicted for failing to materialize
    quarantined_entries: int = 0
    #: persistence circuit-breaker trips (log write failures that
    #: degraded to buffered-in-memory mode)
    breaker_trips: int = 0
    #: session id -> jobs completed for that tenant
    per_session: Dict[str, int] = field(default_factory=dict)

    @property
    def in_flight(self) -> int:
        return self.submitted - self.completed - self.failed - self.cancelled


class ServiceSession:
    """One tenant's handle on the service.

    Wraps a real :class:`ReStoreSession` (sharing the service's DFS,
    manager, and repository) and turns its synchronous execution into
    pool-scheduled ``submit`` calls.  Submissions from one session are
    serialized FIFO by *ticket*: each submission takes the session's
    next ticket number at enqueue time, and a worker only runs it when
    the session is serving that ticket — so even if two workers
    dequeue one tenant's jobs back to back, they execute in exact
    submission order.  Different sessions interleave on the pool.

    Trade-off: a worker that dequeues a not-yet-eligible ticket parks
    in ``_await_turn``, so one tenant's burst of k submissions can
    idle up to k-1 pool slots until its head job finishes.  Progress
    is still guaranteed (the lowest outstanding ticket is always the
    first dequeued), but pools should be sized above the expected
    per-tenant burst; a per-session holdback queue that only hands
    the executor eligible jobs is the known next refinement.
    """

    def __init__(self, service: "JobService", session: ReStoreSession):
        self._service = service
        self.session = session
        #: job re-executions of the submission now running (process
        #: mode: a worker crashed or hung under one of its jobs)
        self.reruns = 0
        #: per-session FIFO: tickets are taken in submission order and
        #: served strictly in sequence
        self._order = threading.Condition()
        self._next_ticket = 0
        self._now_serving = 0
        #: tickets released out of turn (cancelled before execution);
        #: _now_serving skips over them once their turn comes up
        self._released: set = set()

    def _take_ticket(self) -> int:
        with self._order:
            ticket = self._next_ticket
            self._next_ticket += 1
            return ticket

    def _await_turn(self, ticket: int) -> None:
        with self._order:
            while self._now_serving != ticket:
                self._order.wait()

    def _finish_turn(self, ticket: int) -> None:
        """Release *ticket*.  Only advances ``_now_serving`` when the
        released ticket's turn arrives — a ticket cancelled while an
        earlier one is still running must not unblock later tickets
        early (that would let two of a tenant's jobs run at once)."""
        with self._order:
            self._released.add(ticket)
            while self._now_serving in self._released:
                self._released.discard(self._now_serving)
                self._now_serving += 1
            self._order.notify_all()

    @property
    def session_id(self) -> str:
        return self.session.session_id

    def submit(self, source: str, name: str = "") -> "Future[PigRunResult]":
        """Queue a Pig Latin script; returns a future of its result."""
        return self._service._submit(self, partial(self.session.run, source, name))

    def submit_workflow(self, workflow: Workflow) -> "Future[PigRunResult]":
        """Queue a pre-compiled workflow (benchmark/driver path)."""
        return self._service._submit(self, partial(self.session.run_workflow, workflow))

    def run(self, source: str, name: str = "") -> PigRunResult:
        """Submit and wait (convenience for interactive tenants)."""
        return self.submit(source, name=name).result()

    def drain_events(self) -> List[ReStoreEvent]:
        """Typed events from this tenant's completed jobs that were
        not already attached to a returned result."""
        return self._service.manager.drain_session(self.session_id)

    def close(self) -> None:
        self.session.close()

    def __repr__(self) -> str:
        return f"ServiceSession({self.session_id!r})"


class ProcessJobRunner(HadoopSimulator):
    """A process-mode tenant's runner: :meth:`run_job` executes each
    job on a pool worker, in one exchange
    (:meth:`~repro.service.procpool.ProcessWorkerPool.run`); the rest
    of the submission runs on the coordinator, as in thread mode.

    A worker that crashes, hangs or garbles its reply is discarded and
    the job runs again on a fresh one, after a backoff, up to
    ``JobService(retries=...)`` times.  Nothing the submission decided is
    replayed: the job's reply is the first thing it changes here.
    """

    def __init__(self, service: "JobService", tenant: ServiceSession):
        server = tenant.session.server
        super().__init__(server.dfs, server.cluster, server.cost_model)
        self._service = service
        self._tenant = tenant

    def run_job(self, job: MapReduceJob) -> JobStats:
        service = self._service
        pool = service._pool
        attempt = 0
        while True:
            attempt += 1
            worker = pool.acquire()
            try:
                stats = pool.run(worker, job, self.dfs, service.exchange_timeout)
            except WorkerCrashed as exc:
                # WorkerTimeout subclasses WorkerCrashed: a hung worker
                # is killed and the job re-run exactly like a crashed
                # one, it just moves the timeout counter too
                pool.discard(worker)
                if isinstance(exc, WorkerTimeout):
                    with service._lock:
                        service.stats.timeouts += 1
                if attempt > service.retries:
                    raise
                with service._lock:
                    service.stats.retried += 1
                self._tenant.reruns += 1
                service._backoff(self._tenant.session_id, attempt)
                continue
            except WorkerJobError as exc:
                # the job failed but the worker replied cleanly — it is
                # healthy and stays pooled
                pool.release(worker)
                raise exc.typed() from None
            except BaseException:
                # a coordinator-side failure mid-exchange: the pipe may
                # be desynced and must never re-enter the pool
                pool.discard(worker)
                raise
            pool.release(worker)
            return stats

    def cleanup_temporaries(self, workflow: Workflow, keep=None) -> int:
        deleted = super().cleanup_temporaries(workflow, keep)
        # the workflow's end: temps are gone, and so may be evicted
        # outputs, deferred deletes and delta scratch
        self._service._pool.forget_missing(self.dfs)
        return deleted


class JobService:
    """Shared ReStore deployment: one repository, many tenants, a pool.

    Infrastructure parameters mirror :class:`ReStoreSession`; the
    service builds the shared state once and every
    :meth:`open_session` tenant is wired onto it.  The execution
    arguments:

    * ``executor`` — ``"threads"`` executes jobs in the coordinator's
      address space, ``"processes"`` on spawned worker processes, one
      exchange per job (see :data:`EXECUTORS`);
    * ``max_workers`` — pool threads, and worker processes in process
      mode;
    * ``retries`` — process mode: how many times a job runs again on a
      fresh worker after its worker crashed, hung or garbled its reply
      (0 = fail fast);
    * ``exchange_timeout`` — process mode: seconds to wait for a
      worker's reply before declaring it hung (None = block forever).

    All of them are checked before any thread or process starts.  With
    1 worker (thread or process) the service degenerates to a
    deterministic serial executor.
    """

    def __init__(
        self,
        dfs: Optional[DistributedFileSystem] = None,
        *,
        cluster: Optional[ClusterConfig] = None,
        cost_model: Optional[CostModel] = None,
        repository: Optional[Repository] = None,
        config: Optional[ReStoreConfig] = None,
        persistence: Optional[PersistenceConfig] = None,
        executor: str = "threads",
        max_workers: int = 4,
        retries: int = 1,
        exchange_timeout: Optional[float] = 30.0,
    ):
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; pick one of {', '.join(EXECUTORS)}"
            )
        if max_workers < 1:
            raise ValueError("need at least one worker")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if exchange_timeout is not None and exchange_timeout <= 0:
            raise ValueError(
                "exchange_timeout must be positive seconds (or None to "
                "block forever)"
            )
        self.executor = executor
        self.max_workers = max_workers
        self.retries = retries
        self.exchange_timeout = exchange_timeout
        self.cluster = cluster or ClusterConfig()
        self.dfs = dfs or DistributedFileSystem()
        self.cost_model = cost_model or CostModel(cluster=self.cluster)
        self.config = config or ReStoreConfig()
        #: the attached RepositoryPersister when persistence= is given
        self.persister: Optional[RepositoryPersister] = None
        recovered = None
        if persistence is not None:
            if repository is not None:
                raise ValueError(
                    "persistence= recovers its own repository from the "
                    "snapshot/journal; don't also pass repository="
                )
            # recover before the manager exists: the restored
            # repository becomes the shared repository, and the id
            # floors land in the DFS before any tenant's job allocates
            recovered = recover(persistence, self.dfs)
            repository = recovered.repository
        self.manager = ReStoreManager(
            self.dfs,
            cost_model=self.cost_model,
            repository=repository,
            config=self.config,
        )
        if recovered is not None:
            self.persister = adopt_recovered(self.manager, recovered, persistence)
        self._pool: Optional[ProcessWorkerPool] = None
        if executor == "processes":
            # ship the active fault plan (if a harness installed one)
            # to every worker: workers re-install it keyed by their
            # own ordinal, so worker-targeted rules replay exactly
            active_injector = faults.active()
            self._pool = ProcessWorkerPool(
                max_workers,
                {
                    "cluster": self.cluster,
                    "cost_model": self.cost_model,
                    "faults": (
                        active_injector.plan
                        if active_injector is not None
                        else None
                    ),
                },
            )
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers,
            thread_name_prefix="restore-worker",
        )
        self._lock = threading.RLock()
        self._sessions: Dict[str, ServiceSession] = {}
        self._session_counter = 0
        self._closed = False
        self.stats = ServiceStats()
        self._wire_resilience()

    def _wire_resilience(self) -> None:
        """Fold resilience events into the service counters (the
        manager bus for quarantines, the persister bus for breaker
        trips)."""

        def _count_quarantine(event) -> None:
            with self._lock:
                self.stats.quarantined_entries += 1

        self.manager.events.subscribe(
            _count_quarantine, event_types=(EntryQuarantined,)
        )
        if self.persister is not None:

            def _count_trip(event) -> None:
                with self._lock:
                    self.stats.breaker_trips += 1

            self.persister.events.subscribe(
                _count_trip, event_types=(PersistenceDegraded,)
            )

    # -- tenants -----------------------------------------------------------------

    @property
    def repository(self) -> Repository:
        return self.manager.repository

    @property
    def events(self):
        """The shared bus (all tenants' events, in global seq order)."""
        return self.manager.events

    def open_session(self, session_id: Optional[str] = None) -> ServiceSession:
        """Register a tenant; ids default to ``tenant_001``, ...

        The returned handle owns a real :class:`ReStoreSession` that
        shares the service's DFS, manager, and repository.
        """
        with self._lock:
            self._check_open()
            if session_id is None:
                # skip ids already taken by explicit registrations
                # (e.g. a WorkloadDriver's tenant_### names)
                while True:
                    self._session_counter += 1
                    session_id = f"tenant_{self._session_counter:03d}"
                    if session_id not in self._sessions:
                        break
            if session_id in self._sessions:
                raise ValueError(f"session id already open: {session_id}")
            session = ReStoreSession(
                manager=self.manager,
                cluster=self.cluster,
                session_id=session_id,
            )
            handle = ServiceSession(self, session)
            if self.executor == "processes":
                session.server.runner = ProcessJobRunner(self, handle)
            self._sessions[session_id] = handle
            return handle

    def session(self, session_id: str) -> ServiceSession:
        with self._lock:
            return self._sessions[session_id]

    def sessions(self) -> List[ServiceSession]:
        with self._lock:
            return list(self._sessions.values())

    # -- submission --------------------------------------------------------------

    def submit(
        self, session_id: str, source: str, name: str = ""
    ) -> "Future[PigRunResult]":
        """Queue a script for the named tenant (opened on demand).

        The get-or-open is atomic (the service lock is reentrant), so
        concurrent first submissions for one tenant race safely.
        """
        with self._lock:
            handle = self._sessions.get(session_id)
            if handle is None:
                handle = self.open_session(session_id)
        return handle.submit(source, name=name)

    def _submit(
        self, handle: ServiceSession, call: Callable[[], PigRunResult]
    ) -> "Future[PigRunResult]":
        # Ticket-take and enqueue happen under one lock, so the pool's
        # FIFO queue order always agrees with ticket order — the
        # worker holding a session's lowest outstanding ticket was
        # dequeued first and can always make progress (no deadlock).
        with self._lock:
            self._check_open()
            self.stats.submitted += 1
            ticket = handle._take_ticket()
            future = self._executor.submit(self._execute, handle, call, ticket)

        # A cancelled future never reaches _execute, so its turn must
        # still be released (or the tenant's ticket chain wedges and
        # every later submission blocks a pool worker forever) and its
        # submission accounted, or in_flight overcounts permanently.
        def _on_done(f) -> None:
            if f.cancelled():
                handle._finish_turn(ticket)
                with self._lock:
                    self.stats.cancelled += 1

        future.add_done_callback(_on_done)
        return future

    def _execute(
        self, handle: ServiceSession, call: Callable[[], PigRunResult], ticket: int
    ) -> PigRunResult:
        # Per-session FIFO: wait for this submission's turn, so a
        # tenant's own submissions never interleave or reorder (and
        # the event drain attributes decisions unambiguously).
        handle._await_turn(ticket)
        handle.reruns = 0
        try:
            result = call()
        except BaseException:
            with self._lock:
                self.stats.failed += 1
            raise
        finally:
            handle._finish_turn(ticket)
        result.attempts += handle.reruns
        with self._lock:
            self.stats.completed += 1
            sid = handle.session_id
            self.stats.per_session[sid] = self.stats.per_session.get(sid, 0) + 1
        return result

    # -- self-healing ------------------------------------------------------------

    def _backoff(self, session_id: str, attempt: int) -> None:
        """Sleep before replaying a crashed/hung attempt: exponential
        backoff capped at :data:`BACKOFF_CAP_S`, plus a jitter drawn from
        a generator seeded by (session, attempt) — retries de-synchronize
        across tenants yet replay to identical delays run over run."""
        delay = min(BACKOFF_BASE_S * 2 ** (attempt - 1), BACKOFF_CAP_S)
        jitter = random.Random(f"{session_id}:{attempt}").uniform(0.0, BACKOFF_BASE_S)
        time.sleep(min(delay + jitter, BACKOFF_CAP_S))

    # -- lifecycle ---------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("service is shut down")

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting submissions.

        With ``wait=True`` (default) every queued and running job
        finishes, then the tenant sessions close and the worker pool
        stops.  With ``wait=False`` queued jobs are cancelled (their
        futures report cancelled — they must not run against closed
        sessions) and every worker process — idle *or* hung mid-job —
        is terminated with a bounded join, each kill surfaced as a
        typed :class:`~repro.events.WorkerKilled` event on the shared
        bus (an in-flight submission then fails with
        :class:`WorkerCrashed` instead of blocking forever behind a
        hung worker).  The DFS, repository, and manager stay readable
        so state can be inspected or persisted afterwards.  A durable
        service flushes its journal and detaches the persister once the
        last job has drained.
        """
        with self._lock:
            self._closed = True
            handles = list(self._sessions.values())
        if not wait and self._pool is not None:
            # kill before joining the executor: a hung worker would
            # otherwise park its submission thread forever
            for name, pid, reason in self._pool.kill_all():
                self.manager.events.emit(
                    WorkerKilled(worker=name, pid=pid, reason=reason)
                )
        self._executor.shutdown(wait=wait, cancel_futures=not wait)
        if wait:
            for handle in handles:
                handle.session.close()
            if self._pool is not None:
                self._pool.stop()
            if self.persister is not None:
                self.persister.close()

    def __enter__(self) -> "JobService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(wait=True)

    def __repr__(self) -> str:
        return (
            f"JobService({self.executor}, workers={self.max_workers}, "
            f"sessions={len(self._sessions)}, "
            f"entries={len(self.repository)}, "
            f"completed={self.stats.completed})"
        )
