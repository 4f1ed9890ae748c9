"""Spawn-based worker-process pool: the GIL-free execution substrate.

The thread-pool service hit a wall the ``service_throughput`` bench
made undeniable: 8 workers delivered the same aggregate jobs/sec as 1,
because every interpreter step serialized on the GIL.  This module
splits the service the way the paper splits responsibilities between
Pig clients and the ReStore server (§1): a **coordinator** process
keeps the DFS, the repository, and the manager — all matching,
rewriting, registration, eviction, and persistence — while **worker**
processes compile and execute plans against private filesystems.

The two halves speak a compact message protocol over a
``multiprocessing`` pipe, one synchronous exchange per
:class:`~repro.mapreduce.runner.JobListener` hook, with plans encoded
as the snapshot codec's plan JSON (fingerprint-preserving, so the
coordinator's matching decisions are exactly the ones a serial run
would make):

======================  =====================================================
worker → coordinator    coordinator reply
======================  =====================================================
``wf_start``            ``proceed`` — mirror workflow built, pins opened
``before_job``          ``directives`` — run flag, every job's current plan
                        + elimination state, input payloads the worker lacks
``after_job``           ``proceed`` — store payloads written to the
                        coordinator DFS, sub-jobs registered
``wf_end``              ``kept`` — pins released, protected paths for the
                        worker's temp cleanup
``result`` / ``error``  *(ends the conversation)*
======================  =====================================================

File shipping is versioned by the coordinator DFS's logical mtime: a
per-worker ``synced`` map records which version of each path a worker
already holds, so repeated probes against the same datasets ship bytes
once, not per job.

Determinism: every decision-producing step runs coordinator-side in
submission order (per-session FIFO tickets, script ids allocated from
the coordinator DFS at execution turn), so a 1-worker-process service
produces a decision log byte-identical to a serial run — the same gate
the thread pool has always been held to.
"""

from __future__ import annotations

import multiprocessing
import threading
from typing import Dict, List, Optional, Set, Tuple

from repro.dfs.filesystem import DistributedFileSystem
from repro.faults import injector as faults
from repro.mapreduce.job import MapReduceJob, Workflow
from repro.mapreduce.runner import JobListener
from repro.pig.physical.plan import PhysicalPlan
from repro.relational.schema import Schema
from repro.relational.tuples import deserialize_rows


class WorkerCrashed(RuntimeError):
    """The worker process died (or desynced) mid-conversation.

    The coordinator discards the worker and — within the configured
    retry budget — replays the whole request on a fresh one; repository
    registration is idempotent (``add_if_absent``), so a crash after a
    partial run cannot duplicate entries.
    """


class WorkerTimeout(WorkerCrashed):
    """The worker exceeded the per-exchange timeout: it is hung (or
    dead without closing the pipe).  Handled exactly like a crash —
    the worker is killed and the request re-dispatched — but kept as
    its own type so the service can count timeouts separately."""


class WorkerJobError(RuntimeError):
    """The job raised inside the worker; the worker itself is healthy
    (it completed the error protocol) and stays in the pool."""

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.job_message = message


# -- worker side --------------------------------------------------------------------


class _CoordinatorProxy(JobListener):
    """Worker-side listener forwarding every hook to the coordinator.

    The worker never matches, registers, or evicts: each hook is one
    synchronous request/reply exchange on the pipe, and the reply
    carries the coordinator's decisions — rewritten plans, elimination
    flags, input payloads, kept paths — for the worker to apply to its
    local workflow and filesystem.
    """

    def __init__(self, conn, dfs: DistributedFileSystem):
        self._conn = conn
        self._dfs = dfs
        self._kept: Set[str] = set()

    def _exchange(self, message: dict) -> dict:
        # injection site "worker.hook": crash/hang before the request
        # reaches the coordinator, garble the frame, or (when="after")
        # crash once the reply arrived but before it was applied
        out = faults.fire("worker.hook", data=message)
        if out is faults.GARBLED:
            # a corrupted frame: raw junk the coordinator cannot
            # unpickle — it must treat this worker as crashed
            self._conn.send_bytes(b"\xde\xad\xbe\xef not a pickle")
        else:
            self._conn.send(message)
        reply = self._conn.recv()
        faults.fire("worker.hook", when="after", data=reply)
        return reply

    def on_workflow_start(self, workflow: Workflow) -> None:
        self._kept = set()
        self._exchange({"op": "wf_start", "workflow": workflow.to_dict()})

    def before_job(self, job: MapReduceJob, workflow: Workflow) -> bool:
        reply = self._exchange({"op": "before_job", "job_id": job.job_id})
        # The coordinator's matcher may have rewritten ANY job of the
        # workflow (a whole-job elimination redirects every consumer's
        # loads), so the directives carry each job's current plan.
        for job_id, plan_data, eliminated_by in reply["jobs"]:
            target = workflow.job_by_id(job_id)
            target.plan = PhysicalPlan.from_dict(plan_data)
            target.eliminated_by = eliminated_by
        for path, payload in reply["files"]:
            self._dfs.write_file(path, payload, overwrite=True)
        return reply["run"]

    def after_job(self, job, stats, workflow) -> None:
        stores = [
            (path, self._dfs.read_file(path))
            for path in job.store_paths
            if self._dfs.exists(path)
        ]
        self._exchange(
            {
                "op": "after_job",
                "job_id": job.job_id,
                "stats": stats,
                "stores": stores,
            }
        )

    def on_workflow_end(self, workflow) -> None:
        reply = self._exchange({"op": "wf_end"})
        self._kept = set(reply["kept"])

    def protected_paths(self) -> Set[str]:
        return set(self._kept)

    def drain(self) -> list:
        # Events are coordinator-side state: the manager emitted them
        # while this conversation drove its hooks, and the coordinator
        # drains them into the result envelope.
        return []


def worker_main(conn, context: dict, ordinal: int = 0) -> None:
    """Entry point of one worker process (the spawn target).

    Builds a private DFS + ``PigServer`` once, then serves run
    requests until a ``stop`` message or pipe loss.  Input files
    arrive through ``before_job`` directives; store payloads flow back
    through ``after_job`` — the worker's filesystem is a cache of the
    coordinator's, never the source of truth.

    ``ordinal`` is this worker's pool spawn-sequence number; a fault
    plan shipped in the context is installed keyed by it, so chaos
    rules address individual workers deterministically across spawns
    (a crashed worker's replacement has a fresh ordinal and can never
    re-trip a one-shot rule).
    """
    from repro.pig.engine import PigServer
    from repro.service.api import JobRequest

    plan = context.get("faults")
    if plan is not None:
        faults.install(faults.FaultInjector(plan, worker_ordinal=ordinal))
    dfs = DistributedFileSystem()
    proxy = _CoordinatorProxy(conn, dfs)
    server = PigServer(
        dfs,
        cluster=context["cluster"],
        cost_model=context["cost_model"],
        restore=proxy,
        optimize=context["optimize"],
        default_parallel=context["default_parallel"],
    )
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message.get("op") == "stop":
            break
        request = JobRequest.from_wire(message["request"])
        try:
            if request.source is not None:
                workflow = server.compile(
                    request.source,
                    name=request.name,
                    script_id=message["script_id"],
                )
            else:
                workflow = request.workflow
            result = server.run_workflow(workflow)
        except BaseException as exc:
            try:
                conn.send(
                    {
                        "op": "error",
                        "kind": type(exc).__name__,
                        "message": str(exc),
                    }
                )
            except (BrokenPipeError, OSError):
                break
            continue
        try:
            # injection site "worker.result": crash/hang after the job
            # ran but before its result reached the coordinator — the
            # retry must stay idempotent despite completed side effects
            faults.fire("worker.result")
            conn.send(
                {"op": "result", "stats": result.stats, "outputs": result.outputs}
            )
            faults.fire("worker.result", when="after")
        except (BrokenPipeError, OSError):
            break
    conn.close()


# -- coordinator side ---------------------------------------------------------------


class WorkerHandle:
    """Coordinator-side state of one live worker process."""

    def __init__(self, process, conn, name: str, ordinal: int = 0):
        self.process = process
        self.conn = conn
        self.name = name
        #: pool spawn-sequence number (fault plans target it)
        self.ordinal = ordinal
        #: coordinator-DFS logical mtime of every path this worker
        #: already holds (shipped to it, or received back from it) —
        #: the file-sync version map
        self.synced: Dict[str, int] = {}

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def __repr__(self) -> str:
        state = "alive" if self.process.is_alive() else "dead"
        return f"WorkerHandle({self.name}, pid={self.pid}, {state})"


class ProcessWorkerPool:
    """A fixed-size pool of spawned worker processes.

    All workers are spawned up front (spawn cost stays out of the
    serving window); a worker discarded after a crash is replaced
    lazily by the next ``acquire`` that needs it.  Workers are daemons:
    an abandoned pool can never outlive the coordinator.
    """

    def __init__(self, n_workers: int, context: dict):
        self._mp = multiprocessing.get_context("spawn")
        self._context = context
        self._n = n_workers
        self._lock = threading.Condition()
        self._idle: List[WorkerHandle] = []
        #: handles currently out on a conversation (kill_all must be
        #: able to reach hung workers, not just idle ones)
        self._busy: List[WorkerHandle] = []
        self._live = 0
        self._seq = 0
        self._closed = False
        for _ in range(n_workers):
            self._idle.append(self._spawn())
            self._live += 1

    def _spawn(self) -> WorkerHandle:
        with self._lock:
            self._seq += 1
            ordinal = self._seq
            name = f"restore-proc-{ordinal}"
        parent_conn, child_conn = self._mp.Pipe()
        process = self._mp.Process(
            target=worker_main,
            args=(child_conn, self._context, ordinal),
            name=name,
            daemon=True,
        )
        process.start()
        # close our copy of the child end so a dead worker surfaces as
        # EOFError on the next recv instead of a hang
        child_conn.close()
        return WorkerHandle(process, parent_conn, name, ordinal=ordinal)

    def acquire(self) -> WorkerHandle:
        """Take an idle worker, spawning a replacement for a discarded
        one if the pool is below size; blocks when all are busy."""
        with self._lock:
            while True:
                if self._closed:
                    raise RuntimeError("worker pool is stopped")
                if self._idle:
                    handle = self._idle.pop()
                    self._busy.append(handle)
                    return handle
                if self._live < self._n:
                    self._live += 1
                    break
                self._lock.wait()
        try:
            handle = self._spawn()
        except BaseException:
            with self._lock:
                self._live -= 1
                self._lock.notify()
            raise
        with self._lock:
            self._busy.append(handle)
        return handle

    def release(self, handle: WorkerHandle) -> None:
        """Return a healthy worker to the pool."""
        with self._lock:
            if handle in self._busy:
                self._busy.remove(handle)
            if not self._closed:
                self._idle.append(handle)
                self._lock.notify()
                return
        self._stop_handle(handle, graceful=True)

    def discard(self, handle: WorkerHandle) -> None:
        """Drop a crashed, hung, or desynced worker (terminated
        immediately — it may be unresponsive); its replacement is
        spawned by the next acquire that needs one."""
        self._stop_handle(handle, graceful=False)
        with self._lock:
            if handle in self._busy:
                self._busy.remove(handle)
            self._live = max(0, self._live - 1)
            self._lock.notify()

    def stop(self) -> None:
        """Stop every idle worker and refuse further acquires; busy
        workers are stopped as their conversations release them."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            idle = list(self._idle)
            self._idle.clear()
            self._lock.notify_all()
        for handle in idle:
            self._stop_handle(handle, graceful=True)

    def kill_all(
        self, join_timeout: float = 1.0
    ) -> List[Tuple[str, Optional[int], str]]:
        """Terminate every live worker — idle *and* busy — with a
        bounded join, and refuse further acquires.

        The non-waiting shutdown path uses this: a hung worker would
        otherwise survive ``stop()`` (which only reaps idle handles)
        and wedge interpreter exit on its pipe.  Returns
        ``(name, pid, state)`` for each worker that had to be killed
        while alive, so the service can surface ``WorkerKilled``
        events.
        """
        with self._lock:
            self._closed = True
            victims = self._idle + self._busy
            self._idle.clear()
            self._busy.clear()
            self._live = 0
            self._lock.notify_all()
        killed: List[Tuple[str, Optional[int], str]] = []
        for handle in victims:
            alive = handle.process.is_alive()
            try:
                handle.conn.close()
            except OSError:
                pass
            if alive:
                handle.process.terminate()
                handle.process.join(timeout=join_timeout)
                killed.append((handle.name, handle.pid, "terminated"))
            else:
                handle.process.join(timeout=join_timeout)
        return killed

    def _stop_handle(self, handle: WorkerHandle, graceful: bool) -> None:
        if graceful and handle.process.is_alive():
            try:
                handle.conn.send({"op": "stop"})
            except (BrokenPipeError, OSError):
                pass
        try:
            handle.conn.close()
        except OSError:
            pass
        if graceful:
            handle.process.join(timeout=5.0)
        # non-graceful: terminate immediately — the worker may be hung
        # mid-exchange, and a courtesy join would stall every retry by
        # its full timeout
        if handle.process.is_alive():
            handle.process.terminate()
            handle.process.join(timeout=5.0)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"ProcessWorkerPool(size={self._n}, live={self._live}, "
                f"idle={len(self._idle)}, closed={self._closed})"
            )


class _Conversation:
    """Per-conversation coordinator state."""

    __slots__ = ("mirror", "started")

    def __init__(self):
        self.mirror: Optional[Workflow] = None
        self.started = False


class ProcessJobRunner:
    """Coordinator-side half of the wire protocol.

    One instance per service; each :meth:`run_conversation` drives one
    submission on one worker, applying every manager hook to a
    coordinator-side *mirror* workflow so matching, registration,
    pinning, and eviction see exactly the state a serial run would.
    """

    def __init__(self, manager, dfs, reserved_paths=(), exchange_timeout=None):
        self.manager = manager
        self.dfs = dfs
        #: coordinator-owned DFS paths a worker must never store to
        #: (the persistence snapshot/journal, and the block-store base
        #: whose generation files hang off it as "<base>.g<N>")
        self.reserved_paths: Set[str] = set(reserved_paths)
        #: seconds to wait for any single worker reply (None/0 = block
        #: forever, the historical behaviour)
        self.exchange_timeout: Optional[float] = exchange_timeout

    def _recv(self, handle: WorkerHandle):
        """One reply off the worker pipe, bounded by the exchange
        timeout.

        Any receive failure — EOF, pipe loss, or an undecodable
        (garbled) frame — maps to :class:`WorkerCrashed`: the sender
        is the only plausible culprit once bytes went bad, and the
        worker must leave the pool either way.
        """
        timeout = self.exchange_timeout
        if timeout:
            if not handle.conn.poll(timeout):
                raise WorkerTimeout(
                    f"worker {handle.name} (pid {handle.pid}) sent nothing "
                    f"for {timeout:g}s: hung mid-exchange"
                )
        try:
            return handle.conn.recv()
        except Exception as exc:
            raise WorkerCrashed(
                f"worker {handle.name} (pid {handle.pid}) pipe "
                f"unreadable: {exc!r}"
            ) from exc

    def run_conversation(
        self, handle: WorkerHandle, request, script_id: Optional[int]
    ) -> Tuple[Workflow, object, Dict[str, list]]:
        """Run *request* on *handle*; returns (workflow, stats, outputs).

        Raises :class:`WorkerJobError` when the job failed worker-side
        (worker healthy) and :class:`WorkerCrashed` when the pipe died.
        """
        conn = handle.conn
        state = _Conversation()
        try:
            try:
                conn.send(
                    {
                        "op": "run",
                        "request": request.to_wire(),
                        "script_id": script_id,
                    }
                )
                while True:
                    message = self._recv(handle)
                    op = message.get("op")
                    if op == "wf_start":
                        self._on_wf_start(state, message)
                        conn.send({"op": "proceed"})
                    elif op == "before_job":
                        conn.send(self._on_before_job(state, handle, message))
                    elif op == "after_job":
                        self._on_after_job(state, handle, message)
                        conn.send({"op": "proceed"})
                    elif op == "wf_end":
                        conn.send(self._on_wf_end(state))
                    elif op == "result":
                        outputs = message["outputs"]
                        self._fill_missing_outputs(state.mirror, outputs)
                        return state.mirror, message["stats"], outputs
                    elif op == "error":
                        raise WorkerJobError(message["kind"], message["message"])
                    else:
                        raise WorkerCrashed(
                            f"worker {handle.name} sent unexpected {op!r}"
                        )
            except (EOFError, BrokenPipeError, OSError) as exc:
                raise WorkerCrashed(
                    f"worker {handle.name} (pid {handle.pid}) died "
                    f"mid-conversation: {exc!r}"
                ) from exc
        finally:
            if state.started and state.mirror is not None:
                # the worker-side runner's finally never reached us:
                # release pins/pending exactly as on_workflow_end would
                self.manager.on_workflow_end(state.mirror)

    # -- hook handlers (monkeypatch points for fault-injection tests) ------------

    def _on_wf_start(self, state: _Conversation, message: dict) -> None:
        state.mirror = Workflow.from_dict(message["workflow"])
        self.manager.on_workflow_start(state.mirror)
        state.started = True

    def _on_before_job(
        self, state: _Conversation, handle: WorkerHandle, message: dict
    ) -> dict:
        job = state.mirror.job_by_id(message["job_id"])
        run_it = self.manager.before_job(job, state.mirror)
        files: List[Tuple[str, bytes]] = []
        if run_it:
            # ship the (post-rewrite) inputs this worker lacks; a path
            # missing coordinator-side fails worker-side exactly as it
            # would in a serial run
            for path in job.load_paths:
                if not self.dfs.exists(path):
                    continue
                version = self.dfs.mtime(path)
                if handle.synced.get(path) != version:
                    files.append((path, self.dfs.read_file(path)))
                    handle.synced[path] = version
        return {
            "op": "directives",
            "run": run_it,
            "jobs": [
                (j.job_id, j.plan.to_dict(), j.eliminated_by)
                for j in state.mirror.jobs
            ],
            "files": files,
        }

    def _on_after_job(
        self, state: _Conversation, handle: WorkerHandle, message: dict
    ) -> None:
        job = state.mirror.job_by_id(message["job_id"])
        for path, payload in message["stores"]:
            if self._reserved(path):
                raise RuntimeError(
                    f"worker stored to reserved persistence path {path!r}; "
                    "the snapshot/journal/block store are "
                    "coordinator-owned files"
                )
            self.dfs.write_file(path, payload, overwrite=True)
            handle.synced[path] = self.dfs.mtime(path)
        self.manager.after_job(job, message["stats"], state.mirror)

    def _reserved(self, path: str) -> bool:
        """Exact reserved paths, plus their dot-suffixed derivatives
        (block-store generations "<base>.gN", temp files)."""
        if path in self.reserved_paths:
            return True
        return any(
            path.startswith(base + ".") for base in self.reserved_paths
        )

    def _on_wf_end(self, state: _Conversation) -> dict:
        self.manager.on_workflow_end(state.mirror)
        state.started = False
        kept = self.manager.protected_paths()
        # replicate the engine's temp cleanup on the coordinator's
        # authoritative filesystem (the worker cleans its own copy)
        for job in state.mirror.jobs:
            if job.temporary and job.output_path not in kept:
                self.dfs.delete_if_exists(job.output_path)
        return {"op": "kept", "kept": sorted(kept)}

    def _fill_missing_outputs(
        self, mirror: Optional[Workflow], outputs: Dict[str, list]
    ) -> None:
        """Outputs an eliminated job never produced worker-side (e.g.
        an ``already-stored`` resubmission) exist only on the
        coordinator's filesystem — parse them here so the result
        envelope matches a serial run's."""
        if mirror is None:
            return
        for job in mirror.jobs:
            if job.temporary:
                continue
            store = job.plan.primary_store()
            if store is None or store.path in outputs:
                continue
            if self.dfs.exists(store.path):
                schema = store.schema or Schema()
                outputs[store.path] = deserialize_rows(
                    self.dfs.read_text(store.path), schema
                )


__all__ = [
    "ProcessJobRunner",
    "ProcessWorkerPool",
    "WorkerCrashed",
    "WorkerHandle",
    "WorkerJobError",
    "WorkerTimeout",
    "worker_main",
]
