"""The six workloads: set-up, timed stream, verification.

Every workload is a closed loop: the next submission leaves only after
the previous result is in (one client; two for ``service_processes``).
One *epoch* is a complete set-up plus stream on fresh state — fresh
filesystem, fresh repository, regenerated inputs — so epochs of one run
are independent samples of the same fixed work, and counts (simulated
seconds, stored bytes, repository decisions) repeat exactly from epoch
to epoch on the serial workloads.

Verification hashes every final output right after its submission
returns (outside the latency clock, and not later: ReStore refreshes a
registered whole-job output *in place* when its input grows, so a user
output can change after the fact).  Expected digests come from a
restore-disabled twin session fed the same inputs and mutations.
"""

from __future__ import annotations

import gc
import hashlib
import multiprocessing
import os
import shutil
import statistics
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import JobService, ReStoreSession
from repro.persistence import PersistenceConfig

import inputs
from inputs import Plan, Step

_TICK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100

#: sizes of a full run.  One epoch lasts about a second on the 2-core
#: reference host, so a 15 s run holds 8-20 epochs: enough for the
#: medians over epochs to shrug off a slow one.
FULL = {
    "pigmix": dict(instances=2, page_views=5000, users=200, power_users=30,
                   widerow=1000),
    "pigmix_reuse_passes": 12,
    "tenant_stream": dict(partitions=20, rows=2000, users=150, queries=300,
                          append_every=25, append_rows=100, window=75),
    "durable_stream": dict(partitions=12, rows=2000, users=150, queries=150,
                           snapshot_interval=120, recoveries=2, replay=30),
    "service_processes": dict(partitions=12, rows=2000, users=150,
                              queries=200, tenants=2),
}

#: sizes of ``--quick`` (smoke test): same code paths, trivial volume
QUICK = {
    "pigmix": dict(instances=1, page_views=120, users=40, power_users=8,
                   widerow=40),
    "pigmix_reuse_passes": 1,
    "tenant_stream": dict(partitions=4, rows=60, users=20, queries=40,
                          append_every=10, append_rows=10, window=12),
    "durable_stream": dict(partitions=3, rows=60, users=20, queries=24,
                           snapshot_interval=30, recoveries=1, replay=6),
    "service_processes": dict(partitions=3, rows=60, users=20, queries=16,
                              tenants=2),
}

WARMUP_QUERIES = 20
#: the stream takes a host-speed sample this often (see
#: :func:`calibration_sample`)
CALIBRATION_PERIOD_S = 0.05


# -- measurement helpers ------------------------------------------------------


#: seconds the calibration loop takes on the reference host (2-core
#: Xeon 2.1 GHz sandbox, CPython 3.11) at the speed it runs at most of
#: the time
REFERENCE_LOOP_S = 0.00102


def calibration_sample() -> float:
    """Seconds of one fixed pure-Python loop (about a millisecond):
    how fast the host runs Python right now.

    The reference host's speed wanders by +-15 % over seconds to
    minutes (measured with this very loop, on both cores at once), and
    stays off its usual value for longer than a run lasts.  Unscaled
    medians of ten runs therefore disagree by a fifth and more for
    reasons no commit can cause.  The streams take a sample every
    50 ms, between submissions and outside every clock, and each time
    the end-to-end metrics report is scaled by ``REFERENCE_LOOP_S /
    mean sample of its epoch`` — an estimate of the time the same
    work takes at the reference speed.  The unscaled values are
    reported next to them as ``raw.*``.
    """
    start = time.perf_counter()
    x = 0
    for i in range(20_000):
        x += i * i % 7
    return time.perf_counter() - start


class HostSpeed:
    """Collects calibration samples and the time they took."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._next = 0.0

    def burst(self, n: int = 3) -> None:
        self.samples += [calibration_sample() for _ in range(n)]
        self._next = time.perf_counter() + CALIBRATION_PERIOD_S

    def tick(self) -> None:
        """One sample, unless the last is younger than the period."""
        if time.perf_counter() >= self._next:
            self.burst(1)

    @property
    def spent_s(self) -> float:
        return sum(self.samples)

    def loop_s(self) -> float:
        """Mean sample, without the ones a preemption inflated: a
        stream's time is a sum, so the mean slowness is what scales it
        (a median misjudges an epoch the speed changed in).  Without
        samples the host counts as running at the reference speed."""
        if not self.samples:
            return REFERENCE_LOOP_S
        limit = 1.5 * statistics.median(self.samples)
        return statistics.mean(x for x in self.samples if x <= limit)


def _children_cpu() -> float:
    """CPU seconds used so far by live child processes (the service's
    workers).  ``RUSAGE_CHILDREN`` only counts children already reaped,
    so live ones are read from ``/proc``."""
    total = 0.0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        total += (int(fields[11]) + int(fields[12])) / _TICK
    return total


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def combined(digests: List[Optional[str]]) -> str:
    return digest("\n".join(d or "-" for d in digests).encode())


@dataclass
class Counts:
    """What the submissions of one stream did, from their results."""

    jobs: int = 0
    jobs_executed: int = 0
    jobs_eliminated: int = 0
    jobs_reused: int = 0
    input_records: int = 0
    shuffle_records: int = 0
    events: Counter = field(default_factory=Counter)

    def add(self, result) -> None:
        stats = result.stats
        self.jobs += len(result.workflow.jobs)
        self.jobs_executed += len(stats.job_stats)
        self.jobs_eliminated += len(stats.eliminated_jobs)
        for job in stats.job_stats.values():
            self.input_records += job.input_records
            self.shuffle_records += job.shuffle_records
        reused = set()
        for event in result.events:
            kind = type(event).__name__
            self.events[kind] += 1
            if kind in ("RewriteApplied", "JobEliminated"):
                reused.add(event.job_id)
        self.jobs_reused += len(reused)


@dataclass
class Epoch:
    """Everything measured in one epoch."""

    setup_s: float = 0.0
    #: host speed during set-up and during the stream
    setup_speed: HostSpeed = field(default_factory=HostSpeed)
    speed: HostSpeed = field(default_factory=HostSpeed)
    #: time the client spent waiting on the system: the sum of the
    #: submission latencies plus input appends (one client), or first
    #: submit to last result (two clients)
    busy_s: float = 0.0
    cpu_s: float = 0.0
    sim_s: float = 0.0
    latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    counts: Counts = field(default_factory=Counts)
    input_bytes: int = 0
    #: None when the workload has no repository
    stored_bytes: Optional[int] = None
    entries_final: Optional[int] = None
    #: match-pipeline totals (empty when the workload has no repository)
    match: Dict[str, float] = field(default_factory=dict)
    dfs: Dict[str, int] = field(default_factory=dict)
    output_bytes: int = 0
    recover_s: List[float] = field(default_factory=list)
    persistence: Dict[str, float] = field(default_factory=dict)
    service: Dict[str, float] = field(default_factory=dict)


# -- expected outputs ---------------------------------------------------------


class Verifier:
    """Expected digest per query step of a plan.

    The committed golden digest (default seed and sizes) is checked
    first; only on a mismatch — or when no golden applies — is the
    restore-disabled twin run, which also says *which* outputs differ.
    The twin answers a repeated query over unchanged inputs from a
    memo, so its cost is the distinct work of the stream.
    """

    def __init__(self, plan: Plan, golden: Optional[str] = None):
        self.plan = plan
        self.golden = golden
        self._expected: Optional[List[str]] = None

    @property
    def verified_by(self) -> str:
        return "golden" if self._expected is None else "oracle"

    @property
    def expected(self) -> List[str]:
        if self._expected is None:
            self._expected = self._run_twin()
        return self._expected

    def _run_twin(self) -> List[str]:
        twin = ReStoreSession(restore_enabled=False)
        _load(twin.dfs, self.plan)
        versions: Counter = Counter()
        memo: Dict[tuple, str] = {}
        out: List[str] = []
        for step in self.plan.steps:
            if step.kind == "append":
                twin.dfs.append(step.out, step.data)
                versions[step.out] += 1
                continue
            key = (step.key, tuple(versions[p] for p in step.reads))
            if key not in memo:
                twin.run(step.source)
                memo[key] = digest(twin.dfs.read_file(step.out))
                twin.dfs.delete(step.out)
            out.append(memo[key])
        return out

    def failures(self, digests: List[Optional[str]]) -> int:
        if self.golden is not None and combined(digests) == self.golden:
            return 0
        return sum(got != want for got, want in zip(digests, self.expected))


# -- streams ------------------------------------------------------------------


def run_serial(session, steps: List[Step], epoch: Epoch, tracer=None
               ) -> List[Optional[str]]:
    """One client, closed loop.  Returns the digest of every query's
    output (None where the submission raised)."""
    dfs = session.dfs
    clock = time.perf_counter
    digests: List[Optional[str]] = []
    for number, step in enumerate(steps):
        epoch.speed.tick()
        if step.kind == "append":
            start = clock()
            dfs.append(step.out, step.data)
            epoch.busy_s += clock() - start
            continue
        if tracer is not None:
            tracer.begin(number)
        start = clock()
        try:
            result = session.run(step.source)
        except Exception as exc:  # a failed submission is a counted outcome
            result = None
            print(f"submission {number} raised {exc!r}", file=sys.stderr)
        elapsed = clock() - start
        if tracer is not None:
            tracer.end()
        epoch.busy_s += elapsed
        epoch.latencies.append(elapsed)
        epoch.attempted += 1
        if result is None:
            digests.append(None)
            continue
        epoch.sim_s += result.sim_seconds
        epoch.counts.add(result)
        payload = dfs.read_file(step.out)
        epoch.output_bytes += len(payload)
        digests.append(digest(payload))
    return digests


def _load(dfs, plan: Plan) -> None:
    for path, payload in plan.files.items():
        dfs.write_file(path, payload, overwrite=True)


def _warm_up(plan_builder) -> None:
    """Run the first queries of a miniature plan on a throwaway
    session: imports, cached closures and compiled expressions are paid
    before the clock starts.  Cold input parses are *not* warmed —
    users pay them."""
    plan = plan_builder()
    with ReStoreSession() as session:
        _load(session.dfs, plan)
        for step in plan.queries[:WARMUP_QUERIES]:
            session.run(step.source)


def _snapshot_repository(session_or_service, epoch: Epoch) -> None:
    manager = session_or_service.manager
    if manager is None:
        return
    epoch.stored_bytes = manager.repository.total_stored_bytes
    epoch.entries_final = len(manager.repository)
    totals = manager.match_totals
    epoch.match = {
        "jobs_scanned": totals.jobs_scanned,
        "traversals": totals.traversals,
        "prune_ratio": totals.prune_ratio,
        "delta_refreshes": manager.delta_refresh_count,
        "delta_fallbacks": manager.delta_fallback_count,
    }


def _dfs_counters(dfs) -> Dict[str, int]:
    return {"bytes_read": dfs.bytes_read, "bytes_written": dfs.bytes_written}


class Workload:
    """Base: a serial stream over one ``ReStoreSession``."""

    name = ""
    serial = True

    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        self.sizes = QUICK if quick else FULL

    # what differs per workload
    def plan(self) -> Plan:
        raise NotImplementedError

    def mini_plan(self) -> Plan:
        raise NotImplementedError

    def session(self, workdir: str) -> ReStoreSession:
        return ReStoreSession()

    def describe(self) -> dict:
        """The sizes this workload runs at (recorded in the results)."""
        return {}

    def prepare(self, session, plan: Plan, tick) -> None:
        """Stream-free work that belongs to set-up; calls *tick*
        between long steps so the host speed keeps being sampled."""

    def epoch(self, verifier: Verifier, workdir: str, tracer=None) -> Epoch:
        epoch = Epoch()
        host = epoch.setup_speed
        start = time.perf_counter()
        host.burst()
        plan = self.plan()
        host.burst()
        session = self.session(workdir)
        _load(session.dfs, plan)
        self.prepare(session, plan, host.tick)
        host.burst()
        _warm_up(self.mini_plan)
        gc.collect()
        host.burst()
        epoch.setup_s = time.perf_counter() - start - host.spent_s
        epoch.input_bytes = plan.input_bytes

        if tracer is not None:
            tracer.install()
            tracer.streaming = True
        try:
            before = _dfs_counters(session.dfs)
            cpu = time.process_time()
            digests = run_serial(session, plan.steps, epoch, tracer)
            epoch.cpu_s = time.process_time() - cpu
            if tracer is not None:
                tracer.streaming = False
            after = _dfs_counters(session.dfs)
            _snapshot_repository(session, epoch)
            self.after_stream(session, epoch, workdir)
        finally:
            if tracer is not None:
                tracer.remove()
        epoch.dfs = {k: after[k] - before[k] for k in after}
        epoch.failed = verifier.failures(digests)
        self.finish(session, plan, digests, epoch, workdir)
        return epoch

    def after_stream(self, session, epoch, workdir) -> None:
        """Untimed work the traced repeat should still see."""
        session.close()

    def finish(self, session, plan, digests, epoch, workdir) -> None:
        """Untraced epilogue (extra verification, clean-up)."""


class PigmixPlain(Workload):
    name = "pigmix_plain"

    def plan(self) -> Plan:
        return inputs.pigmix_plan(self.seed, self.sizes["pigmix"])

    def mini_plan(self) -> Plan:
        return inputs.pigmix_plan(0, QUICK["pigmix"], passes=1)

    def session(self, workdir):
        return ReStoreSession(restore_enabled=False)

    def describe(self):
        return dict(self.sizes["pigmix"])


class PigmixFirstRun(PigmixPlain):
    name = "pigmix_first_run"

    def session(self, workdir):
        return ReStoreSession()


class PigmixReuse(PigmixFirstRun):
    name = "pigmix_reuse"

    def plan(self) -> Plan:
        return inputs.pigmix_plan(
            self.seed, self.sizes["pigmix"],
            passes=self.sizes["pigmix_reuse_passes"],
        )

    def prepare(self, session, plan, tick) -> None:
        # the first-run stream fills the repository this workload reads
        for step in inputs.pigmix_stream(self.sizes["pigmix"]):
            tick()
            session.run(step.source)

    def describe(self):
        return dict(self.sizes["pigmix"],
                    passes=self.sizes["pigmix_reuse_passes"])


class TenantStream(Workload):
    name = "tenant_stream"

    def plan(self) -> Plan:
        return inputs.tenant_plan(self.seed, self.sizes[self.name])

    def mini_plan(self) -> Plan:
        return inputs.tenant_plan(0, QUICK["tenant_stream"])

    def session(self, workdir):
        window = self.sizes[self.name]["window"]
        return ReStoreSession.builder().evict(f"time-window:{window}").build()

    def describe(self):
        return dict(self.sizes[self.name])


class DurableStream(TenantStream):
    """Write-through journal (``flush_every=1``: one fsync'd append per
    record), block-store payload capture, snapshot rotation every
    ``snapshot_interval`` records; then close, timed recoveries into
    fresh filesystems, and a replay of the stream's tail on the last
    recovered session."""

    name = "durable_stream"

    def _config(self, workdir: str) -> PersistenceConfig:
        return PersistenceConfig(
            snapshot_path=os.path.join(workdir, "repo.snapshot"),
            journal_path=os.path.join(workdir, "repo.journal"),
            backend="local",
            flush_every=1,
            snapshot_interval=self.sizes[self.name]["snapshot_interval"],
        )

    def session(self, workdir):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        return ReStoreSession(persistence=self._config(workdir))

    def prepare(self, session, plan, tick) -> None:
        written = self._written = Counter()

        def on_event(event) -> None:
            kind = type(event).__name__
            if kind == "JournalAppended":
                written["journal_bytes"] += event.bytes
            elif kind == "SnapshotTaken":
                written["snapshot_bytes"] += event.bytes
                written["snapshots"] += 1

        session.persister.events.subscribe(on_event)

    def after_stream(self, session, epoch, workdir) -> None:
        session.close()
        on_disk = blocks = 0
        for entry in os.scandir(workdir):
            on_disk += entry.stat().st_size
            if ".blocks" in entry.name:
                blocks += entry.stat().st_size
        epoch.persistence = dict(
            self._written, blockstore_bytes=blocks, space_bytes=on_disk
        )
        self._recovered = None
        for _ in range(self.sizes[self.name]["recoveries"]):
            if self._recovered is not None:
                self._recovered.close()
            start = time.perf_counter()
            self._recovered = ReStoreSession(
                persistence=self._config(workdir)
            )
            epoch.recover_s.append(time.perf_counter() - start)

    def finish(self, session, plan, digests, epoch, workdir) -> None:
        # crash consistency: the recovered repository must answer the
        # tail of the stream with the pre-crash bytes
        recovered = self._recovered
        _load(recovered.dfs, plan)
        replay = self.sizes[self.name]["replay"]
        for step, want in zip(plan.queries[-replay:], digests[-replay:]):
            out = "replay/" + step.out
            source = step.source.replace(f"'{step.out}'", f"'{out}'")
            epoch.attempted += 1
            try:
                recovered.run(source)
                got = digest(recovered.dfs.read_file(out))
            except Exception as exc:
                got = None
                print(f"replay of {step.out} raised {exc!r}", file=sys.stderr)
            epoch.failed += got != want or got is None
        recovered.close()
        shutil.rmtree(workdir, ignore_errors=True)


#: set when the run is being torn down (SIGTERM, Ctrl-C): client
#: threads stop submitting instead of working through their share
ABORT = threading.Event()


def _run_clients(client, n: int, speed: Optional[HostSpeed] = None) -> None:
    """Run ``client(0..n-1)`` on one thread each and wait for all.
    The waiting thread — otherwise idle — takes *speed*'s samples."""
    threads = [threading.Thread(target=client, args=(i,)) for i in range(n)]
    for thread in threads:
        thread.start()
    try:
        for thread in threads:
            while thread.is_alive():
                thread.join(CALIBRATION_PERIOD_S)
                if speed is not None:
                    speed.tick()
    except BaseException:
        ABORT.set()
        raise


class ServiceProcesses(TenantStream):
    """Two tenants of a process-pool ``JobService``; each tenant is a
    closed loop on its own client thread."""

    name = "service_processes"
    serial = False

    def epoch(self, verifier, workdir, tracer=None) -> Epoch:
        sizes = self.sizes[self.name]
        epoch = Epoch()
        host = epoch.setup_speed
        start = time.perf_counter()
        host.burst()
        plan = self.plan()
        host.burst()
        service = JobService(executor="processes", max_workers=2)
        try:
            host.burst()
            _load(service.dfs, plan)
            tenants = [
                service.open_session(f"tenant{i}")
                for i in range(sizes["tenants"])
            ]
            self._warm_workers(service, tenants)
            gc.collect()
            host.burst()
            epoch.setup_s = time.perf_counter() - start - host.spent_s
            epoch.input_bytes = plan.input_bytes
            if tracer is not None:
                tracer.install()
            self._stream(service, tenants, plan, verifier, epoch, tracer)
        finally:
            if tracer is not None:
                tracer.remove()
            service.shutdown(wait=True)
        return epoch

    def _warm_workers(self, service, tenants) -> None:
        """The spawned workers import and compile lazily, so the
        throwaway-session warm-up cannot reach them: every tenant runs
        a miniature stream of its own (both at once, so that both
        workers serve).  Its inputs live under ``warmup/``; the few
        entries it leaves in the shared repository never match the
        real stream."""
        plan = inputs.tenant_plan(
            0, QUICK["tenant_stream"], root="warmup/"
        )
        _load(service.dfs, plan)
        queries = plan.queries[:WARMUP_QUERIES]

        def client(index: int) -> None:
            for step in queries[index::len(tenants)]:
                if ABORT.is_set():
                    return
                tenants[index].submit(step.source).result()

        _run_clients(client, len(tenants))

    def _stream(self, service, tenants, plan, verifier, epoch, tracer):
        queries = plan.queries
        spans = [None] * len(tenants)
        per_query = [None] * len(queries)
        clock = time.perf_counter

        def client(index: int) -> None:
            tenant = tenants[index]
            first = clock()
            for number in range(index, len(queries), len(tenants)):
                if ABORT.is_set():
                    break
                if tracer is not None:
                    tracer.begin(number)
                start = clock()
                try:
                    outcome = tenant.submit(queries[number].source).result()
                except Exception as exc:
                    outcome = None
                    print(f"submission {number} raised {exc!r}",
                          file=sys.stderr)
                per_query[number] = (clock() - start, outcome)
                if tracer is not None:
                    tracer.end()
            spans[index] = (first, clock())

        # The client threads do not sample the host's speed (they would
        # do it inside their own latency clocks); the main thread, which
        # only waits for them, does: 1 ms of the interpreter each 50 ms.
        before = _dfs_counters(service.dfs)
        cpu_self, cpu_workers = time.process_time(), _children_cpu()
        if tracer is not None:
            tracer.streaming = True
        _run_clients(client, len(tenants), epoch.speed)
        if tracer is not None:
            tracer.streaming = False
        coordinator = time.process_time() - cpu_self
        workers = _children_cpu() - cpu_workers
        after = _dfs_counters(service.dfs)

        epoch.dfs = {k: after[k] - before[k] for k in after}
        epoch.busy_s = max(s[1] for s in spans) - min(s[0] for s in spans)
        epoch.cpu_s = coordinator + workers
        overhead = 0.0
        digests: List[Optional[str]] = []
        # no input is mutated here, so outputs can be hashed afterwards
        for step, (elapsed, outcome) in zip(queries, per_query):
            epoch.latencies.append(elapsed)
            epoch.attempted += 1
            if outcome is None:
                digests.append(None)
                continue
            epoch.sim_s += outcome.sim_seconds
            epoch.counts.add(outcome)
            overhead += elapsed - outcome.stats.wall_seconds
            payload = service.dfs.read_file(step.out)
            epoch.output_bytes += len(payload)
            digests.append(digest(payload))
        _snapshot_repository(service, epoch)
        epoch.failed = verifier.failures(digests)
        stats = service.stats
        epoch.service = {
            "overhead_s": overhead,
            "coordinator_cpu_s": coordinator,
            "worker_cpu_s": workers,
            "retried": stats.retried,
            "timeouts": stats.timeouts,
            "failed": stats.failed,
        }


WORKLOADS = {
    cls.name: cls
    for cls in (PigmixPlain, PigmixFirstRun, PigmixReuse, TenantStream,
                DurableStream, ServiceProcesses)
}
