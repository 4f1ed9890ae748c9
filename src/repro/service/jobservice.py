"""JobService: the concurrent multi-tenant front door to ReStore.

The paper positions ReStore as a *shared service* between many Pig
clients and one MapReduce cluster (§1, Figure 1): every client's jobs
flow through the same repository so that one tenant's stored results
answer another tenant's queries.  This module is that deployment
shape: a :class:`JobService` owns one DFS, one thread-safe
:class:`~repro.core.manager.ReStoreManager`, and one
:class:`~repro.core.repository.Repository`, and executes job
submissions from many :class:`~repro.session.ReStoreSession` tenants.

Every submission path — ``submit``/``submit_workflow``/``run`` here,
``run``/``run_workflow`` on a session — converges on the typed
:class:`~repro.service.api.JobRequest` /
:class:`~repro.service.api.JobOutcome` pair, and
:class:`~repro.service.api.ServiceConfig` selects the execution
substrate: ``executor="threads"`` (shared address space) or
``executor="processes"`` (a spawn-based worker-process pool —
coordinator keeps the repository/manager/DFS, workers execute plans;
see :mod:`repro.service.procpool` for the wire protocol).

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
  (the differential tests and the ``service_throughput`` benchmark
  gates assert exactly this).

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
from typing import Dict, List, Optional

from repro.core.manager import ReStoreConfig, ReStoreManager
from repro.core.repository import Repository
from repro.costmodel.model import CostModel
from repro.dfs.filesystem import DistributedFileSystem
from repro.events import (
    DECISION_EVENTS,
    CoordinatorHeartbeat,
    DeltaFallback,
    EntryQuarantined,
    PersistenceDegraded,
    ReStoreEvent,
    StandbyPromoted,
    SubJobDiscarded,
    WorkerKilled,
)
from repro.faults import injector as faults
from repro.mapreduce.cluster import ClusterConfig
from repro.mapreduce.job import Workflow
from repro.persistence.durability import (
    PersistenceConfig,
    RepositoryPersister,
    adopt_recovered,
    recover,
)
from repro.persistence.standby import StandbyReplica
from repro.pig.engine import PigRunResult
from repro.service.api import JobOutcome, JobRequest, ServiceConfig
from repro.service.procpool import (
    ProcessJobRunner,
    ProcessWorkerPool,
    WorkerCrashed,
    WorkerJobError,
    WorkerTimeout,
)
from repro.session import ReStoreSession

#: what one attempt at a submission decided for itself.  A replay after
#: a worker crash decides again, so the crashed attempt's copies never
#: reach the outcome (1-worker decision logs stay byte-identical)
_ATTEMPT_DECISIONS = DECISION_EVENTS + (DeltaFallback, SubJobDiscarded)


@dataclass
class ServiceStats:
    """Aggregate counters for one :class:`JobService` lifetime."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    #: process mode: extra attempts spent replaying crashed workers
    retried: int = 0
    #: process mode: worker exchanges that exceeded exchange_timeout
    #: (the hung worker was killed; counted within ``retried`` too
    #: when the re-dispatch stayed inside the retry budget)
    timeouts: int = 0
    #: repository entries evicted for failing to materialize
    quarantined_entries: int = 0
    #: standby replicas promoted into a fresh coordinator manager
    promotions: int = 0
    #: persistence circuit-breaker trips (journal/snapshot write
    #: failures that degraded to buffered-in-memory mode)
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

    def submit(self, source: str, name: str = "") -> "Future[JobOutcome]":
        """Queue a Pig Latin script; returns a future of its outcome."""
        return self._service._submit(
            self,
            JobRequest.from_source(
                source, session_id=self.session_id, name=name
            ),
        )

    def submit_workflow(self, workflow: Workflow) -> "Future[JobOutcome]":
        """Queue a pre-compiled workflow (benchmark/driver path)."""
        return self._service._submit(
            self,
            JobRequest.from_workflow(workflow, session_id=self.session_id),
        )

    def run(self, source: str, name: str = "") -> JobOutcome:
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


class JobService:
    """Shared ReStore deployment: one repository, many tenants, a pool.

    Infrastructure parameters mirror :class:`ReStoreSession`; the
    service builds the shared state once and every
    :meth:`open_session` tenant is wired onto it.  Execution knobs
    live in a :class:`~repro.service.api.ServiceConfig` passed as
    ``service=`` — or via the ``max_workers``/``executor``/
    ``optimize``/``default_parallel`` shorthands, which are mutually
    exclusive with it.  With 1 worker (thread or process) the service
    degenerates to a deterministic serial executor.
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
        service: Optional[ServiceConfig] = None,
        max_workers: Optional[int] = None,
        executor: Optional[str] = None,
        optimize: Optional[bool] = None,
        default_parallel: Optional[int] = None,
    ):
        if service is not None:
            shorthands = {
                "max_workers": max_workers,
                "executor": executor,
                "optimize": optimize,
                "default_parallel": default_parallel,
            }
            clashing = sorted(k for k, v in shorthands.items() if v is not None)
            if clashing:
                raise ValueError(
                    "service= already fixes the execution knobs; don't "
                    f"also pass {', '.join(clashing)} (set them on the "
                    "ServiceConfig instead)"
                )
        else:
            service = ServiceConfig(
                executor=executor if executor is not None else "threads",
                max_workers=max_workers if max_workers is not None else 4,
                optimize=optimize if optimize is not None else True,
                default_parallel=(
                    default_parallel if default_parallel is not None else 28
                ),
            )
        service.validate()
        if service.standby and persistence is None:
            raise ValueError(
                "standby=True needs persistence= (the warm replica "
                "tails the persister's journal)"
            )
        self.service_config = service
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
        self._optimize = service.optimize
        self._default_parallel = service.default_parallel
        self._pool: Optional[ProcessWorkerPool] = None
        reserved_paths: tuple = ()
        if service.executor == "processes":
            # persistence= + processes: the persister and any standby
            # stay coordinator-side by construction (recovery happened
            # above, before a single worker spawned) — and when the
            # journal lives on the shared DFS, its paths are reserved
            # so no worker store can ever clobber them
            if persistence is not None and persistence.backend == "dfs":
                reserved_paths = (
                    persistence.snapshot_path,
                    persistence.journal_path,
                    # covers every generation file (prefix-matched:
                    # "<base>.g0", "<base>.g1", ...)
                    persistence.blockstore_base,
                )
            # ship the active fault plan (if a harness installed one)
            # to every worker: workers re-install it keyed by their
            # own ordinal, so worker-targeted rules replay exactly
            active_injector = faults.active()
            self._pool = ProcessWorkerPool(
                service.max_workers,
                {
                    "cluster": self.cluster,
                    "cost_model": self.cost_model,
                    "optimize": service.optimize,
                    "default_parallel": service.default_parallel,
                    "faults": (
                        active_injector.plan
                        if active_injector is not None
                        else None
                    ),
                },
            )
        self._runner = ProcessJobRunner(
            self.manager,
            self.dfs,
            reserved_paths=reserved_paths,
            exchange_timeout=service.exchange_timeout,
        )
        self._executor = ThreadPoolExecutor(
            max_workers=service.max_workers,
            thread_name_prefix="restore-worker",
        )
        self._lock = threading.RLock()
        self._sessions: Dict[str, ServiceSession] = {}
        self._session_counter = 0
        self._closed = False
        self.stats = ServiceStats()
        self._persistence_config = persistence
        #: the warm replica (standby=True), swapped on promotion
        self.standby: Optional[StandbyReplica] = None
        self._heartbeat_tick = 0
        self._missed_beats = 0
        self._wire_resilience()
        if service.standby:
            self.standby = StandbyReplica(self.persister)

    def _wire_resilience(self) -> None:
        """Fold resilience events into the service counters (the
        manager bus for quarantines, the persister bus for breaker
        trips); re-run against the fresh manager after a promotion."""

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
    def max_workers(self) -> int:
        return self.service_config.max_workers

    @property
    def executor(self) -> str:
        return self.service_config.executor

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
                optimize=self._optimize,
                default_parallel=self._default_parallel,
                session_id=session_id,
            )
            handle = ServiceSession(self, session)
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
    ) -> "Future[JobOutcome]":
        """Queue a script for the named tenant (opened on demand).

        The get-or-open is atomic (the service lock is reentrant), so
        concurrent first submissions for one tenant race safely.
        """
        with self._lock:
            handle = self._sessions.get(session_id)
            if handle is None:
                handle = self.open_session(session_id)
        return handle.submit(source, name=name)

    def execute(self, request: JobRequest) -> "Future[JobOutcome]":
        """The single submission surface: queue a typed request for its
        ``session_id`` tenant (opened on demand)."""
        with self._lock:
            handle = self._sessions.get(request.session_id)
            if handle is None:
                handle = self.open_session(request.session_id or None)
        return self._submit(handle, request)

    def _submit(
        self, handle: ServiceSession, request: JobRequest
    ) -> "Future[JobOutcome]":
        # Ticket-take and enqueue happen under one lock, so the pool's
        # FIFO queue order always agrees with ticket order — the
        # worker holding a session's lowest outstanding ticket was
        # dequeued first and can always make progress (no deadlock).
        with self._lock:
            self._check_open()
            self.stats.submitted += 1
            ticket = handle._take_ticket()
            future = self._executor.submit(
                self._execute, handle, request, ticket
            )

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
        self, handle: ServiceSession, request: JobRequest, ticket: int
    ) -> JobOutcome:
        # Per-session FIFO: wait for this submission's turn, so a
        # tenant's own submissions never interleave or reorder (and
        # the event drain attributes decisions unambiguously).
        handle._await_turn(ticket)
        try:
            if self.service_config.executor == "threads":
                outcome = handle.session.execute(request)
            else:
                outcome = self._run_on_workers(handle, request)
        except BaseException:
            with self._lock:
                self.stats.failed += 1
            raise
        finally:
            handle._finish_turn(ticket)
        with self._lock:
            self.stats.completed += 1
            sid = handle.session_id
            self.stats.per_session[sid] = self.stats.per_session.get(sid, 0) + 1
        self._heartbeat()
        return outcome

    def _run_on_workers(
        self, handle: ServiceSession, request: JobRequest
    ) -> JobOutcome:
        """Process mode: drive *request* through the worker pool.

        Script ids are allocated coordinator-side at execution turn —
        the same DFS counter a serial run would consume, in the same
        order — and the whole conversation runs inside the tenant's
        session scope so decisions land in its event bucket.  A
        crashed worker is discarded and the request replays on a fresh
        worker within the configured retry budget.  What the crashed
        attempt decided for itself (:data:`_ATTEMPT_DECISIONS`) goes
        with it; what it changed in the repository — an entry stored,
        evicted, quarantined or refreshed — stays true, so those events
        lead the replayed submission's outcome.
        """
        sid = handle.session_id
        script_id = (
            self.dfs.next_script_id() if request.source is not None else None
        )
        attempts = 0
        carried: List[ReStoreEvent] = []
        with self.manager.session_scope(sid):
            while True:
                attempts += 1
                worker = self._pool.acquire()
                try:
                    workflow, stats, outputs = self._runner.run_conversation(
                        worker, request, script_id
                    )
                except WorkerCrashed as exc:
                    # WorkerTimeout subclasses WorkerCrashed: a hung
                    # worker is killed and replayed exactly like a
                    # crashed one, it just moves the timeout counter too
                    self._pool.discard(worker)
                    # the crashed attempt's partial decisions must not
                    # leak into the retry's (or a later drain's) log
                    carried.extend(
                        event
                        for event in self.manager.drain_session(sid)
                        if not isinstance(event, _ATTEMPT_DECISIONS)
                    )
                    with self._lock:
                        if isinstance(exc, WorkerTimeout):
                            self.stats.timeouts += 1
                    if attempts > self.service_config.retries:
                        raise
                    with self._lock:
                        self.stats.retried += 1
                    self._backoff(sid, attempts)
                    continue
                except WorkerJobError:
                    # the job failed but the worker completed the error
                    # protocol cleanly — it is healthy and stays pooled
                    self._pool.release(worker)
                    raise
                except BaseException:
                    # coordinator-side failure mid-conversation: the
                    # pipe is desynced and must never re-enter the pool
                    self._pool.discard(worker)
                    raise
                self._pool.release(worker)
                break
            events = carried + self.manager.drain()
        result = PigRunResult(
            workflow=workflow, stats=stats, outputs=outputs, events=events
        )
        handle.session.results.append(result)
        return JobOutcome.from_result(
            result, session_id=sid, executor="processes", attempts=attempts
        )

    # -- self-healing ------------------------------------------------------------

    def _backoff(self, session_id: str, attempt: int) -> None:
        """Sleep before replaying a crashed/hung attempt: exponential
        backoff capped at ``backoff_cap_s``, plus a jitter drawn from a
        generator seeded by (session, attempt) — retries de-synchronize
        across tenants yet replay to identical delays run over run."""
        cfg = self.service_config
        if cfg.backoff_base_s <= 0:
            return
        delay = min(cfg.backoff_base_s * 2 ** (attempt - 1), cfg.backoff_cap_s)
        jitter = random.Random(f"{session_id}:{attempt}").uniform(
            0.0, cfg.backoff_base_s
        )
        time.sleep(min(delay + jitter, cfg.backoff_cap_s))

    def _heartbeat(self) -> None:
        """One coordinator liveness tick, taken after every completed
        job.  The tick routes through the "coordinator.heartbeat"
        injection site; a suppressed beat (the harness's stand-in for a
        dead coordinator) advances the missed-beat counter, and
        ``heartbeat_misses`` consecutive misses trigger the standby
        promotion.  A no-op unless standby mode is on.
        """
        if self.standby is None:
            return
        with self._lock:
            self._heartbeat_tick += 1
            tick = self._heartbeat_tick
        beat = faults.fire("coordinator.heartbeat", data=tick)
        if beat is None:
            with self._lock:
                self._missed_beats += 1
                missed = self._missed_beats
            if missed >= self.service_config.heartbeat_misses:
                self.promote_standby(missed_beats=missed)
            return
        with self._lock:
            self._missed_beats = 0
        if self.persister is not None:
            self.persister.events.emit(CoordinatorHeartbeat(tick=tick))

    def promote_standby(self, *, missed_beats: int = 0):
        """Fail over to the warm replica: the standby's caught-up state
        becomes a fresh manager + persister, and every open tenant
        session is re-wired onto it.

        The promoted state contains every mutation the old coordinator
        ever journaled (``StandbyReplica.promote`` flushes the primary
        and catches up through the final record), so no entry is lost
        and none duplicates — recovery and the replica replay the same
        idempotent log.  Returns the :class:`StandbyPromoted` event, or
        ``None`` when no standby is armed.
        """
        with self._lock:
            standby = self.standby
            if standby is None:
                return None
            self.standby = None  # single promotion in flight
        state = standby.promote()
        standby.close()
        # a standby is only ever armed beside a persister
        self.persister.close()
        manager = ReStoreManager(
            self.dfs,
            cost_model=self.cost_model,
            repository=state.repository,
            config=self.config,
        )
        # the promoted state carries the replica's payload-ref table, so
        # the new persister resumes block-store dedup where the old
        # coordinator left off
        persister = adopt_recovered(manager, state, self._persistence_config)
        with self._lock:
            self.manager = manager
            self.persister = persister
            self._runner.manager = manager
            for handle in self._sessions.values():
                session = handle.session
                session.manager = manager
                session.server.restore = manager
                session._events = manager.events
            self.stats.promotions += 1
            self._missed_beats = 0
        self._wire_resilience()
        # re-arm: the new coordinator gets its own warm replica, and
        # the harness's suppressed heartbeat site comes back to life
        # (the old coordinator entity is gone)
        injector = faults.active()
        if injector is not None:
            injector.revive("coordinator.heartbeat")
        self.standby = StandbyReplica(persister)
        event = StandbyPromoted(
            entries=len(state.repository),
            records_applied=state.journal_records,
            missed_beats=missed_beats,
        )
        persister.events.emit(event)
        return event

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
            if self.standby is not None:
                self.standby.close()
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
