"""Spawn-based worker-process pool: where process mode runs its jobs.

Worker threads share one interpreter, so every interpreter step of an
execution-heavy stream serializes on the GIL.  In process mode the
service still runs every submission on the coordinator, exactly as
thread mode does — compile, the ReStore hooks (matching, rewriting,
registration, eviction, pinning, persistence), output collection and
temp cleanup — and only :meth:`HadoopSimulator.run_job
<repro.mapreduce.runner.HadoopSimulator.run_job>` moves: a session's
runner hands each job to a pool worker, which runs that one job
against a private filesystem and nothing else (the paper's split:
ReStore extends Pig's job submission, Hadoop runs the job, §6.2).

One job is one exchange over a ``multiprocessing`` pipe:

=========================================  ================================
coordinator → worker                       worker → coordinator
=========================================  ================================
``{job, files, drop}`` — the job's dict     ``{stats, stores}`` — its
form, the inputs this worker lacks, paths  statistics and an image of
it should forget                           every stored file; or
                                           ``{error}``
=========================================  ================================

A file crosses as one image
(:meth:`~repro.dfs.filesystem.DistributedFileSystem.export_file` on the
sending side, ``import_file`` on the receiving one): the pickle of its
rows when it is one write whose exact dataset is current — a job's
store, or such a file forwarded on as the pickle that brought it —
and its text otherwise (a raw input, a rendered write).  Typed rows
are therefore never rendered for the pipe nor parsed again on the far
side; a received pickle is unpickled on its first ``read_rows``, and
a file only forwarded is never unpickled.

File shipping is versioned by the coordinator DFS's logical mtime: a
per-worker ``synced`` map records which version of each path a worker
already holds, so repeated probes against the same datasets ship once,
not per job.  At every workflow's end each path the coordinator no
longer has (a temp, an evicted output, a deferred delete, delta
scratch) leaves every worker's map and is dropped on that worker's
next request.
"""

from __future__ import annotations

import multiprocessing
import threading
from typing import Dict, List, Optional, Set, Tuple

from repro import exceptions
from repro.dfs.filesystem import DistributedFileSystem, FileImage
from repro.faults import injector as faults
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runner import HadoopSimulator
from repro.mapreduce.stats import JobStats


class WorkerCrashed(RuntimeError):
    """The worker process died, hung or garbled its reply mid-job.

    The coordinator discards the worker and — within the configured
    retry budget — runs the job again on a fresh one.  The job changed
    nothing coordinator-side before its reply, so nothing is undone.
    """


class WorkerTimeout(WorkerCrashed):
    """The worker exceeded the exchange timeout: it is hung (or dead
    without closing the pipe).  Handled exactly like a crash, but kept
    as its own type so the service can count timeouts separately."""


class WorkerJobError(RuntimeError):
    """The job raised inside the worker; the worker itself is healthy
    (it replied with the error) and stays in the pool."""

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.job_message = message

    def typed(self) -> Exception:
        """The job's error as the :mod:`repro.exceptions` type a
        thread-mode run raises; this error when it is of no such type."""
        cls = getattr(exceptions, self.kind, None)
        if isinstance(cls, type) and issubclass(cls, exceptions.ReproError):
            return cls(self.job_message)
        return self


# -- worker side --------------------------------------------------------------------


def worker_main(conn, context: dict, ordinal: int = 0) -> None:
    """Entry point of one worker process (the spawn target).

    Keeps a private DFS and a plain :class:`HadoopSimulator`, then
    serves job requests until ``None`` or pipe loss: forget the dropped
    paths, import the shipped files, run the job, reply with an image
    of each store.  The worker's filesystem is a cache of the
    coordinator's, never the source of truth.

    ``ordinal`` is this worker's pool spawn-sequence number; a fault
    plan shipped in the context is installed keyed by it, so chaos
    rules address individual workers deterministically across spawns
    (a crashed worker's replacement has a fresh ordinal and can never
    re-trip a one-shot rule).
    """
    plan = context.get("faults")
    if plan is not None:
        faults.install(faults.FaultInjector(plan, worker_ordinal=ordinal))
    dfs = DistributedFileSystem()
    runner = HadoopSimulator(dfs, context["cluster"], context["cost_model"])
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            break
        if request is None:
            break
        for path in request["drop"]:
            dfs.delete_if_exists(path)
        for path, image in request["files"]:
            dfs.import_file(path, image)
        try:
            # injection site "worker.job": "before" is the job's
            # arrival, "after" is once it ran, before the reply
            faults.fire("worker.job")
            job = MapReduceJob.from_dict(request["job"])
            stats = runner.run_job(job)
            stores = [
                (path, dfs.export_file(path))
                for path in job.store_paths
                if dfs.exists(path)
            ]
            faults.fire("worker.job", when="after")
            reply = {"stats": stats, "stores": stores}
        except Exception as exc:
            reply = {"error": (type(exc).__name__, str(exc))}
        try:
            # injection site "worker.result": around the reply; a
            # corrupt rule garbles the frame, which the coordinator
            # cannot unpickle and must treat as a crash
            if faults.fire("worker.result", data=reply) is faults.GARBLED:
                conn.send_bytes(b"\xde\xad\xbe\xef not a pickle")
            else:
                conn.send(reply)
            faults.fire("worker.result", when="after")
        except OSError:
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
        #: the file-sync version map.  It names only paths the
        #: coordinator still had at the last workflow's end
        #: (:meth:`ProcessWorkerPool.forget_missing`), so a worker holds
        #: no deleted file's rows for longer than one more exchange
        self.synced: Dict[str, int] = {}
        #: paths the coordinator deleted that this worker still holds;
        #: its next request tells it to drop them
        self.drop: Set[str] = set()

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
        #: handles currently out on a job (kill_all must be able to
        #: reach hung workers, not just idle ones)
        self._busy: List[WorkerHandle] = []
        self._live = 0
        self._seq = 0
        self._closed = False
        #: the coordinator namespace's departure count at the last
        #: :meth:`forget_missing` sweep
        self._departures = 0
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

    def forget_missing(self, dfs: DistributedFileSystem) -> None:
        """Every path a worker holds that *dfs* no longer has (a temp,
        an evicted entry's output, a deferred delete, delta scratch)
        leaves that worker's ``synced`` map, and the worker drops its
        copy with its next job."""
        departures = dfs.namenode.departures
        with self._lock:
            if departures == self._departures:
                return  # nothing left the namespace since the last sweep
            self._departures = departures
            handles = self._idle + self._busy
        for handle in handles:
            # a copy: a busy handle's exchange may grow the map meanwhile
            gone = [path for path in list(handle.synced) if not dfs.exists(path)]
            gone = [path for path in gone if handle.synced.pop(path, None) is not None]
            with self._lock:
                handle.drop.update(gone)

    def run(
        self,
        handle: WorkerHandle,
        job: MapReduceJob,
        dfs: DistributedFileSystem,
        timeout: Optional[float],
    ) -> JobStats:
        """Run *job* on *handle*'s worker in one exchange; its stores
        land in *dfs* before this returns.

        Raises :class:`WorkerJobError` when the job failed worker-side
        (worker healthy) and :class:`WorkerCrashed` when the worker
        died, hung past *timeout* seconds (``None`` = wait forever) or
        garbled its reply.
        """
        synced = handle.synced
        with self._lock:
            drop, handle.drop = sorted(handle.drop), set()
        files: List[Tuple[str, FileImage]] = []
        for path in job.load_paths:
            if not dfs.exists(path):
                # missing here, so missing there: the job fails on the
                # worker exactly as it would in a serial run
                synced.pop(path, None)
                drop.append(path)
                continue
            version = dfs.mtime(path)
            if synced.get(path) != version:
                files.append((path, dfs.export_file(path)))
                synced[path] = version
        try:
            handle.conn.send({"job": job.to_dict(), "files": files, "drop": drop})
            answered = not timeout or handle.conn.poll(timeout)
            reply = handle.conn.recv() if answered else None
        except Exception as exc:
            # EOF, pipe loss, or an undecodable (garbled) frame: the
            # sender is the only plausible culprit once bytes went bad
            raise WorkerCrashed(
                f"worker {handle.name} (pid {handle.pid}) lost mid-job: {exc!r}"
            ) from exc
        if not answered:
            raise WorkerTimeout(
                f"worker {handle.name} (pid {handle.pid}) sent nothing "
                f"for {timeout:g}s: hung mid-job"
            )
        if "error" in reply:
            # a failed job may have half-written its stores worker-side
            for path in job.store_paths:
                synced.pop(path, None)
            raise WorkerJobError(*reply["error"])
        for path, image in reply["stores"]:
            synced[path] = dfs.import_file(path, image).mtime
        return reply["stats"]

    def stop(self) -> None:
        """Stop every idle worker and refuse further acquires; busy
        workers are stopped as their jobs release them."""
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
                handle.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        try:
            handle.conn.close()
        except OSError:
            pass
        if graceful:
            handle.process.join(timeout=5.0)
        # non-graceful: terminate immediately — the worker may be hung
        # mid-job, and a courtesy join would stall every retry by its
        # full timeout
        if handle.process.is_alive():
            handle.process.terminate()
            handle.process.join(timeout=5.0)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"ProcessWorkerPool(size={self._n}, live={self._live}, "
                f"idle={len(self._idle)}, closed={self._closed})"
            )


__all__ = [
    "ProcessWorkerPool",
    "WorkerCrashed",
    "WorkerHandle",
    "WorkerJobError",
    "WorkerTimeout",
    "worker_main",
]
