"""ReStoreManager: the paper's three components wired into the job
submission loop (§6.2), as a listener facade over one stage per module.

For every job about to run: (1) the plan matcher and rewriter scans
the repository — repeatedly, restarting after every successful rewrite
— and rewrites the job to load stored outputs (:meth:`before_job`, the
match stage, here); (2) the sub-job enumerator injects Split+Store
instrumentation chosen by the active heuristic
(:mod:`repro.core.enumerator`); after execution, delta refreshes merge
(:mod:`repro.core.freshness`) and (3) the enumerated sub-job selector
cuts each instrumented sub-job from the plan that ran and decides which
outputs stay in the repository
(:mod:`repro.core.selector`), and eviction policies run between
workflows (:mod:`repro.core.eviction`).  Those stages are functions of
the manager: the facade owns the state they share — config, counters,
locks, pins, session scope and the bus — and the order they run in.

Every decision is published as a typed :class:`repro.events.ReStoreEvent`
on ``manager.events`` (an :class:`repro.events.EventBus`); the engine
collects them through the :class:`repro.mapreduce.runner.JobListener`
protocol's ``drain()``.  Reports that want the pre-1.1 log lines can
project any typed event list through
``repro.events.render_events(events, LOG_EVENTS)``.

The manager is **multi-tenant and concurrency-safe**: many sessions
(threads) may drive jobs through one manager against one shared
repository.  A reentrant manager lock guards the mutable aggregates
(counters, kept paths, the logical clock, queued delta refreshes,
event buffers); the repository carries its own lock, always taken
after this one (the order is stated in :mod:`repro.core.repository`);
and the match scan runs outside any manager-level lock against
candidate snapshots.  Each worker thread activates a *session
scope* (:meth:`ReStoreManager.session_scope`) so every emitted event
is stamped with its session id and lands in a per-session drain buffer
— sessions sharing the manager never see each other's events.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.enumerator import SUBJOB_DIR, SubJobEnumerator
from repro.core.eviction import (
    EVICTION_POLICIES,
    build_eviction_policy,
    condemn,
    evict,
    run_evictions,
)
from repro.core.freshness import (
    EntryFreshness,
    PendingDeltaRefresh,
    apply_refresh,
    classify_entry,
    try_delta_rewrite,
)
from repro.core.heuristics import HEURISTICS
from repro.core.matcher import PlanMatcher
from repro.core.repository import Repository, RepositoryEntry
from repro.core.rewriter import PlanRewriter
from repro.core.selector import SELECTORS, offer_sub_job, offer_whole_job
from repro.costmodel.model import CostModel
from repro.dfs.filesystem import DistributedFileSystem
from repro.events import (
    EventBus,
    JobEliminated,
    MatchScanned,
    ReStoreEvent,
    RewriteApplied,
)
from repro.exceptions import RepositoryError
from repro.persistence.snapshot import SnapshotError
from repro.mapreduce.job import MapReduceJob, Workflow
from repro.mapreduce.runner import JobListener
from repro.mapreduce.stats import JobStats
from repro.pig.physical.operators import POLoad

#: whole-job registration policies (``ReStoreConfig.register_whole_jobs``)
WHOLE_JOB_POLICIES = ("all", "none", "temporary-only")

#: upper bound on rewrite rescans per job (paper: loop until no match)
MAX_REWRITE_PASSES = 20


def _check_name(field_name: str, value, valid) -> None:
    if value not in valid:
        raise ValueError(
            f"unknown {field_name} {value!r}; expected one of {sorted(valid)}"
        )


@dataclass
class ReStoreConfig:
    """Which §4–§5 policies the manager runs, each given by name.

    * ``heuristic`` — a :data:`~repro.core.heuristics.HEURISTICS` key
      (§4: ``conservative``, ``aggressive``, ``no-heuristic``, or
      ``never`` for whole jobs only).
    * ``selector`` — a :data:`~repro.core.selector.SELECTORS` key (§5
      Rules 1–2: ``keep-all`` or ``rules``).
    * ``register_whole_jobs`` — whole-job registration (§2.1 type 1):
      ``all``, ``none``, or ``temporary-only``.  The last registers
      only intermediate (workflow-internal) job outputs — it isolates
      sub-job reuse for a query's final result while still letting
      multi-job workflows chain through the repository: §3's "even
      jobs whose input is the output of other jobs that are also
      stored in the repository" requires consumers to be redirected to
      the stored (canonical) copy of their producer's output.
    * ``eviction_policies`` — ``name[:arg]`` specs over
      :data:`~repro.core.eviction.EVICTION_POLICIES` (§5 Rules 3–4 plus
      capacity: ``time-window:4``, ``input-modified``,
      ``capacity:1048576``).

    An unknown value raises ``ValueError`` naming the field, the value
    and the valid names when the config is constructed.
    """

    heuristic: str = "aggressive"
    selector: str = "keep-all"
    register_whole_jobs: str = "all"
    eviction_policies: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        _check_name("heuristic", self.heuristic, HEURISTICS)
        _check_name("selector", self.selector, SELECTORS)
        _check_name(
            "register_whole_jobs", self.register_whole_jobs, WHOLE_JOB_POLICIES
        )
        for spec in self.eviction_policies:
            name = spec.partition(":")[0]
            _check_name("eviction_policies", name, EVICTION_POLICIES)
            build_eviction_policy(spec)  # a bad argument fails here too


@dataclass
class MatchPipelineTotals:
    """Cumulative match-pipeline telemetry across every job scanned."""

    jobs_scanned: int = 0
    passes: int = 0
    #: entries visible at scan time, summed over passes
    entries_seen: int = 0
    #: entries the frontier index returned (each contained in the job)
    candidates_examined: int = 0
    #: entries the frontier index left out (not contained in the job)
    candidates_pruned: int = 0
    #: candidates the scan asked the matcher about before a verdict
    traversals: int = 0
    #: passes the exact-fingerprint index answered (whole-job hits on a
    #: plan equal to a stored one: no candidate list, no matcher call)
    exact_hits: int = 0

    @property
    def prune_ratio(self) -> float:
        """Fraction of the repository the index pruned away (0..1)."""
        if not self.entries_seen:
            return 0.0
        return self.candidates_pruned / self.entries_seen


class ReStoreManager(JobListener):
    """The ReStore system: repository + matcher/rewriter + enumerator."""

    def __init__(
        self,
        dfs: DistributedFileSystem,
        cost_model: Optional[CostModel] = None,
        repository: Optional[Repository] = None,
        config: Optional[ReStoreConfig] = None,
    ):
        self.dfs = dfs
        self.cost_model = cost_model or CostModel()
        self.config = config or ReStoreConfig()
        self.matcher = PlanMatcher()
        self.rewriter = PlanRewriter()
        # explicit None check: an empty Repository is falsy (len == 0)
        self.repository = repository if repository is not None else Repository()
        self.enumerator = SubJobEnumerator(
            HEURISTICS[self.config.heuristic], id_allocator=dfs.next_subjob_id
        )
        self.selector = SELECTORS[self.config.selector](self.cost_model)
        self.eviction_policies = [
            build_eviction_policy(spec) for spec in self.config.eviction_policies
        ]
        #: typed event fan-out; subscribe for live reuse telemetry
        self.events = EventBus()
        #: attached :class:`repro.persistence.RepositoryPersister`
        #: (None = nothing durable; the persister sets and clears this)
        self.persistence = None
        #: DFS paths the engine must not delete during temp cleanup
        self.kept_paths: Set[str] = set()
        #: logical clock: one tick per workflow (drives eviction Rule 3)
        self.clock = 0
        #: guards counters, kept paths, the clock, queued delta
        #: refreshes and the per-session event buffers
        self._lock = threading.RLock()
        #: active session scope, tracked per worker thread
        self._session_local = threading.local()
        #: session id -> events awaiting that session's drain()
        self._pending_events: Dict[str, List[ReStoreEvent]] = {}
        #: workflow -> repository output paths its rewritten plans
        #: read: a concurrent tenant's eviction must never delete a
        #: file an in-flight job was rewritten to load (serial ReStore
        #: never had this window — evictions only ran between whole
        #: workflows), so :func:`~repro.core.eviction.evict` defers it
        self._pinned: Dict[int, Set[str]] = {}
        #: owned output files of already-condemned entries, awaiting
        #: deletion until no in-flight workflow reads them
        self._deferred_deletes: Set[str] = set()
        # counters for reporting / tests
        self.rewrite_count = 0
        self.elimination_count = 0
        #: entries evicted because their stored plan failed to
        #: materialize (fingerprint mismatch, undecodable plan JSON)
        self.quarantine_count = 0
        #: delta refreshes merged / delta attempts that fell back to a
        #: full rerun (the ``incremental`` bench reads both)
        self.delta_refresh_count = 0
        self.delta_fallback_count = 0
        #: entry ids with a delta refresh in flight: a second probe
        #: matching the same append-grown entry before the first merge
        #: lands must fall back — two merges would double the tail
        self._refreshing: Set[str] = set()
        #: live job object -> delta refreshes to apply in after_job;
        #: by id(job), as tenants' pre-built workflows may share job ids
        self._pending_refresh: Dict[int, List[PendingDeltaRefresh]] = {}
        #: cumulative index/pruning telemetry (reporting, benchmarks)
        self.match_totals = MatchPipelineTotals()

    @contextmanager
    def locked(self):
        """Hold the manager lock across a multi-step read (snapshot
        capture pairs kept paths + clock + repository state
        atomically)."""
        with self._lock:
            yield self

    # -- session scoping ---------------------------------------------------------------

    @property
    def current_session_id(self) -> str:
        """The session id active on this thread ("" outside scopes)."""
        stack = getattr(self._session_local, "stack", None)
        return stack[-1] if stack else ""

    @contextmanager
    def session_scope(self, session_id: str):
        """Stamp every event emitted by this thread with *session_id*.

        Scopes nest (the innermost wins) and are per-thread, so
        concurrent service workers each route their events — and their
        ``drain()`` calls — to their own session buffer.
        """
        stack = getattr(self._session_local, "stack", None)
        if stack is None:
            stack = []
            self._session_local.stack = stack
        stack.append(session_id)
        try:
            yield self
        finally:
            stack.pop()

    def _emit(self, event: ReStoreEvent) -> None:
        event.session_id = self.current_session_id
        self.events.emit(event)
        with self._lock:
            self._pending_events.setdefault(event.session_id, []).append(event)

    # -- JobListener hooks -----------------------------------------------------------

    def on_workflow_start(self, workflow: Workflow) -> None:
        with self._lock:
            self.clock += 1
        if self.persistence is not None:
            # from here the persister stages; on_workflow_end commits
            self.persistence.note_workflow_start()
        self.run_evictions()

    def on_workflow_end(self, workflow: Workflow) -> None:
        with self._lock:
            self._pinned.pop(id(workflow), None)
            # jobs that failed mid-workflow never reached after_job;
            # drop their queued delta refreshes or a long-lived shared
            # manager leaks them on every failure: release the entry
            # claims (the entry is untouched, so the next probe just
            # classifies appended again) and reclaim the scratch files
            orphaned: List[PendingDeltaRefresh] = []
            for job in workflow.jobs:
                orphaned.extend(self._pending_refresh.pop(id(job), []))
            for refresh in orphaned:
                self._refreshing.discard(refresh.entry_id)
            # condemned entries whose files were kept alive for this
            # workflow: delete once no other workflow reads them and
            # the path is not claimed again — either re-kept, or
            # re-registered as a live entry's output (a condemned
            # whole-job entry's rerun recreates the very same path)
            ready: Set[str] = set()
            if self._deferred_deletes:
                live = {e.output_path for e in self.repository.entries()}
                live |= set().union(*self._pinned.values()) | self.kept_paths
                ready = self._deferred_deletes - live
                self._deferred_deletes -= ready
        for refresh in orphaned:
            self.dfs.delete_if_exists(refresh.delta_path)
            self.dfs.delete_if_exists(refresh.tail_path)
        for path in ready:
            self.dfs.delete_if_exists(path)
        if self.persistence is not None:
            # workflow boundary, the submission's commit point: persist
            # moved counters, commit the staged batch, rotate if due
            self.persistence.note_workflow_end()

    def _pin(self, workflow: Workflow, output_path: str) -> None:
        """Protect *output_path* from eviction until *workflow* ends."""
        with self._lock:
            self._pinned.setdefault(id(workflow), set()).add(output_path)

    def _pin_live_entry(
        self, workflow: Workflow, entry: RepositoryEntry
    ) -> Optional[EntryFreshness]:
        """Atomically validate-and-pin a matched entry, then classify
        its inputs against the live DFS.

        The match loop traverses a candidate *snapshot*, so an entry
        can be evicted (and its file deleted) between the scan and the
        rewrite.  Eviction runs under the manager lock, so checking
        liveness and pinning under the same lock closes that window:
        either the eviction already removed the entry (we return None
        and the match is skipped) or it runs later and sees the pin.

        The freshness verdict decides what the caller may do with the
        match: rewrite normally (fresh), refresh incrementally
        (appended), or condemn and rerun (rewritten/dead) — see
        :mod:`repro.core.freshness`.
        """
        with self._lock:
            if not self.repository.has_entry(entry.entry_id):
                return None
            self._pin(workflow, entry.output_path)
        return classify_entry(entry, self.dfs)

    def before_job(self, job: MapReduceJob, workflow: Workflow) -> bool:
        persister = self.persistence
        if persister is not None:
            for path in job.store_paths:
                if persister.owns(path):
                    raise RepositoryError(
                        f"{job.job_id} stores into {path!r}, a file of the "
                        "repository's own persistence"
                    )
        self._match_and_rewrite(job, workflow)
        if job.eliminated_by is not None:
            return False
        self.enumerator.enumerate_and_inject(job)
        return True

    def after_job(self, job: MapReduceJob, stats: JobStats, workflow: Workflow) -> None:
        with self._lock:
            refreshes = self._pending_refresh.pop(id(job), [])
        # merge delta refreshes before registration: the refreshed
        # entry must be current before any rescan can match it again
        for refresh in refreshes:
            apply_refresh(self, job, refresh, stats)
        written = {s.path for s in stats.stores if not s.side}
        refreshed = {refresh.entry_id for refresh in refreshes}
        for path in written:
            # the job stored over these entries' output: its bytes (and,
            # after a restart, the payload recovery would write back)
            # are no longer the file's, whether or not the job registers.
            # The removal only stages: it commits with the submission,
            # ahead of any re-registration over the same path
            for entry in self.repository.entries_with_output(path):
                if entry.entry_id not in refreshed:
                    event = evict(self, entry, "output-modified")
                    if event is not None:
                        self._emit(event)
        if written & set(job.load_paths):
            # the job stored over one of its own inputs: an extent read
            # now is not of the bytes it read, so it registers nothing
            # (and ``before_job`` injected nothing: see ``registrable``)
            return
        # the side stores the enumerator injected, in injection order (a
        # delta refresh's side store lives elsewhere and is not offered)
        for store in job.plan.side_stores():
            if store.path.startswith(SUBJOB_DIR + "/"):
                offer_sub_job(self, job.plan, store, stats, workflow)
        offer_whole_job(self, job, stats, workflow)

    def protected_paths(self) -> Set[str]:
        with self._lock:
            return set(self.kept_paths)

    def drain(self) -> List[ReStoreEvent]:
        """Events for the session scope active on this thread."""
        return self.drain_session(self.current_session_id)

    def drain_session(self, session_id: str) -> List[ReStoreEvent]:
        """Return (and clear) the named session's buffered events."""
        with self._lock:
            return self._pending_events.pop(session_id, [])

    # -- matching & rewriting (component 1) -----------------------------------------------

    def _match_and_rewrite(self, job: MapReduceJob, workflow: Workflow) -> None:
        """Scan the repository; rewrite on the first match; rescan
        until no plan matches (paper §3).

        Each pass asks the exact-fingerprint index first
        (:meth:`_exact_hit`) and otherwise the repository for the
        entries contained in the job, in §3 order; the scan runs
        outside any manager-level lock — the candidate list is a
        snapshot, and the job plan being rewritten is submission-local.
        A :class:`~repro.events.MatchScanned` telemetry event goes out
        on the bus when the scan completes.
        """
        scan = MatchScanned(job_id=job.job_id)
        try:
            for _ in range(MAX_REWRITE_PASSES):
                entry = self._exact_hit(job, workflow)
                if entry is not None:  # booked as a one-candidate pass
                    scan.passes += 1
                    scan.entries_total = len(self.repository)
                    scan.candidates += 1
                    scan.pruned += scan.entries_total - 1
                    scan.matches += 1
                    scan.exact_hits += 1
                    self._apply_whole_job(job, entry, workflow)
                    return
                matched = False
                candidates, pass_stats = self.repository.match_candidates(job.plan)
                scan.passes += 1
                scan.entries_total = pass_stats.entries_total
                scan.candidates += pass_stats.candidates
                scan.pruned += pass_stats.pruned
                for entry in candidates:
                    scan.traversals += 1
                    try:
                        result = self.matcher.match(job.plan, entry.plan)
                    except SnapshotError as exc:
                        # the stored plan is corrupt (restored-plan
                        # fingerprint mismatch, undecodable plan JSON):
                        # quarantine the entry and serve the match miss
                        # — never crash the scan, never reuse bad bytes
                        condemn(self, entry, "quarantined", str(exc))
                        continue
                    if result is None:
                        continue
                    if self._is_noop_match(result.frontier, entry):
                        continue
                    freshness = self._pin_live_entry(workflow, entry)
                    if freshness is None:
                        continue  # evicted since the candidate snapshot
                    if freshness.stale:
                        # an input was rewritten or deleted, or the
                        # output was: reusing the entry would serve
                        # stale bytes — and just skipping it would
                        # poison this job's rerun (find_equivalent
                        # discards the fresh output)
                        policy = "stale-input"
                        if not freshness.output_intact:
                            policy = "output-modified"
                        condemn(self, entry, policy)
                        continue
                    delta = freshness.is_appended
                    if delta:
                        if not try_delta_rewrite(self, job, entry, result, freshness):
                            condemn(self, entry, "stale-input")
                            continue
                    elif result.whole_job:
                        scan.matches += 1
                        self._apply_whole_job(job, entry, workflow)
                        return
                    else:
                        self.rewriter.rewrite_partial(
                            job.plan, result, entry.output_path, entry.output_schema
                        )
                    scan.matches += 1
                    self._book_rewrite(job, entry, delta=delta)
                    matched = True
                    break
                if not matched:
                    return
        finally:
            self._record_scan(scan)

    def _record_scan(self, scan: MatchScanned) -> None:
        with self._lock:
            totals = self.match_totals
            totals.jobs_scanned += 1
            totals.passes += scan.passes
            totals.entries_seen += scan.entries_total * scan.passes
            totals.candidates_examined += scan.candidates
            totals.candidates_pruned += scan.pruned
            totals.traversals += scan.traversals
            totals.exact_hits += scan.exact_hits
        if scan.entries_total:
            # Bus-only telemetry: the drain channel stays a pure
            # decision log, so legacy consumers see no new lines.
            scan.session_id = self.current_session_id
            self.events.emit(scan)

    @staticmethod
    def _is_noop_match(frontier, entry: RepositoryEntry) -> bool:
        """Reject rewrites that would only swap a Load for an identical
        Load (possible with trivial entries; avoids rewrite cycles)."""
        return isinstance(frontier, POLoad) and frontier.path == entry.output_path

    def _exact_hit(
        self, job: MapReduceJob, workflow: Workflow
    ) -> Optional[RepositoryEntry]:
        """The entry whose plan *is* the job's, when it can be served as
        it stands: one dict probe, no candidate list, no matcher call.

        This cannot change which entry wins.  An entry whose plan equals
        the job's contains every other entry that matches the job, so
        its §3 subsumption score exceeds theirs and the scan reaches it
        first; ``add_if_absent`` keeps its fingerprint bucket at one.
        Only the verdict the scan would reach on it is taken here —
        live, pinned, fresh, a real rewrite; anything else (no such
        entry, evicted since, stale, appended) returns None and the
        scan deals with it as before.  Never skipped is the corruption
        check: asking a restored entry's lazy plan for its frontier
        rebuilds it and verifies its fingerprint, and a failure
        quarantines the entry.
        """
        entry = self.repository.find_equivalent(job.plan)
        if entry is None:
            return None
        try:
            frontier = entry.plan.frontier()
        except SnapshotError as exc:
            condemn(self, entry, "quarantined", str(exc))
            return None
        if frontier is None or self._is_noop_match(frontier, entry):
            return None
        freshness = self._pin_live_entry(workflow, entry)
        if freshness is None or freshness.stale or freshness.is_appended:
            return None
        return entry

    def _apply_whole_job(
        self, job: MapReduceJob, entry: RepositoryEntry, workflow: Workflow
    ) -> None:
        # the caller pinned the (validated-live) entry: every branch
        # below leaves some job of this workflow reading its output
        # (redirect targets, copy-job sources)
        if job.temporary:
            # Intermediate job: drop it, point consumers at the stored copy.
            others = [j for j in workflow.jobs if j is not job]
            self.rewriter.redirect_loads(others, job.output_path, entry.output_path)
            reason = "redirected"
        elif entry.output_path == job.output_path and self.dfs.exists(job.output_path):
            # Resubmission of the very same query: result already there.
            reason = "already-stored"
        else:
            # Final job writing elsewhere: degrade to a copy job.
            self.rewriter.rewrite_as_copy_job(
                job, entry.output_path, entry.output_schema
            )
            self._book_rewrite(job, entry, whole_job=True)
            return
        job.eliminated_by = entry.entry_id
        with self._lock:
            entry.mark_used(self.clock)
            self.elimination_count += 1
        self._emit(
            JobEliminated(
                job_id=job.job_id,
                entry_id=entry.entry_id,
                output_path=entry.output_path,
                reason=reason,
            )
        )

    def _book_rewrite(self, job: MapReduceJob, entry: RepositoryEntry, **kind) -> None:
        """Book one rewrite of *job* onto *entry*: mark the entry used,
        count it, and say so with a :class:`RewriteApplied` whose
        ``delta`` / ``whole_job`` flags are *kind*."""
        with self._lock:
            # under the manager lock: use_count/last_used_at are
            # read-modify-write state the LRU eviction policy reads
            # during its (locked) passes
            entry.mark_used(self.clock)
            self.rewrite_count += 1
        self._emit(
            RewriteApplied(
                job_id=job.job_id,
                entry_id=entry.entry_id,
                anchor_kind=entry.anchor_kind,
                output_path=entry.output_path,
                **kind,
            )
        )

    def run_evictions(self) -> List[str]:
        """Run the eviction stage (:func:`repro.core.eviction.run_evictions`)
        until fixpoint; returns the evicted entry ids."""
        return run_evictions(self)

    def __repr__(self) -> str:
        return (
            f"ReStoreManager(entries={len(self.repository)}, "
            f"rewrites={self.rewrite_count}, eliminations={self.elimination_count})"
        )
