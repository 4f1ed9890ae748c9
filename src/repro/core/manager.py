"""ReStoreManager: the paper's three components wired into the job
submission loop (§6.2).

For every job about to run: (1) the plan matcher and rewriter scans
the repository — repeatedly, restarting after every successful rewrite
— and rewrites the job to load stored outputs; (2) the sub-job
enumerator injects Split+Store instrumentation chosen by the active
heuristic; after execution, (3) the enumerated sub-job selector
decides which outputs stay in the repository, statistics are recorded,
and eviction policies run between workflows.

Every decision is published as a typed :class:`repro.events.ReStoreEvent`
on ``manager.events`` (an :class:`repro.events.EventBus`); the engine
collects them through the :class:`repro.mapreduce.runner.JobListener`
protocol's ``drain()``.  Reports that want the pre-1.1 log lines can
project any typed event list through
``repro.events.render_events(events, LOG_EVENTS)``.

The manager is **multi-tenant and concurrency-safe**: many sessions
(threads) may drive jobs through one manager against one shared
repository.  A reentrant manager lock guards the mutable aggregates
(counters, pending sub-jobs, kept paths, the logical clock, event
buffers); the repository carries its own lock, always taken after this
one (the order is stated in :mod:`repro.core.repository`); and the
expensive pairwise plan traversals run outside any manager-level lock
against candidate snapshots.  Each worker thread activates a *session
scope* (:meth:`ReStoreManager.session_scope`) so every emitted event
is stamped with its session id and lands in a per-session drain buffer
— sessions sharing the manager never see each other's events.
"""

from __future__ import annotations

import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Mapping, Optional, Set, Union

from repro.core.enumerator import CandidateSubJob, SubJobEnumerator
from repro.core.eviction import EvictionPolicy, eviction_by_name
from repro.core.freshness import EntryFreshness, classify_entry, delta_chain
from repro.core.heuristics import Heuristic, heuristic_by_name
from repro.core.matcher import PlanMatcher
from repro.core.repository import EntryStats, Repository, RepositoryEntry
from repro.core.rewriter import PlanRewriter
from repro.core.selector import Selector, selector_by_name
from repro.costmodel.model import CostModel, estimate_standalone_time
from repro.dfs.filesystem import DistributedFileSystem
from repro.dfs.namenode import InputExtent
from repro.events import (
    DeltaFallback,
    EntryEvicted,
    EntryQuarantined,
    EntryRefreshed,
    EventBus,
    JobEliminated,
    MatchScanned,
    ReStoreEvent,
    RewriteApplied,
    SubJobDiscarded,
    SubJobStored,
)
from repro.exceptions import RepositoryError
from repro.persistence.snapshot import SnapshotError
from repro.mapreduce.job import MapReduceJob, Workflow
from repro.mapreduce.runner import JobListener
from repro.mapreduce.stats import JobStats
from repro.pig.physical.operators import POLoad
from repro.pig.physical.plan import PhysicalPlan
from repro.relational.schema import Schema

#: scratch prefix for delta-refresh temporaries: the appended tail of
#: a grown input (``tail-<n>``) and the side-stored delta rows
#: (``out-<n>``).  Both files die when the refresh is applied, so no
#: plan loading from under this prefix is ever registered.
DELTA_TMP_PREFIX = "restore/delta/"


@dataclass
class ReStoreConfig:
    """Behavioural switches for the manager.

    ``heuristic``, ``selector``, and ``eviction_policies`` accept
    either plugin instances or registry names (``"aggressive"``,
    ``"rules"``, ``"time-window:4"``, ...) — names are resolved when a
    manager is built, so string-only configuration (CLI flags, JSON
    files via :meth:`from_dict`) reaches every policy knob.
    """

    heuristic: Union[str, Heuristic] = "aggressive"
    rewrite_enabled: bool = True
    #: when True (default) a matched entry whose inputs only grew by
    #: appends is refreshed in place: identity-preserving sub-plans
    #: (single Load -> FILTER/FOREACH/SPLIT chain) rerun over just the
    #: appended tail, UNION-merged with the stored output, and the
    #: entry's recorded extents advance.  False condemns append-grown
    #: entries like rewritten ones (full rerun + re-registration) —
    #: correct either way, only the recomputation volume differs
    delta_enabled: bool = True
    inject_enabled: bool = True
    #: whole-job registration policy (§2.1 type 1): "all", "none", or
    #: "temporary-only".  The last registers only intermediate
    #: (workflow-internal) job outputs — it isolates sub-job reuse for
    #: a query's final result while still letting multi-job workflows
    #: chain through the repository: §3's "even jobs whose input is the
    #: output of other jobs that are also stored in the repository"
    #: requires consumers to be redirected to the stored (canonical)
    #: copy of their producer's output.
    register_whole_jobs: str = "all"
    selector: Union[str, Selector] = "keep-all"
    eviction_policies: List[Union[str, EvictionPolicy]] = field(default_factory=list)
    #: upper bound on rewrite rescans per job (paper: loop until no match)
    max_rewrite_passes: int = 20

    def resolve_heuristic(self) -> Heuristic:
        if isinstance(self.heuristic, Heuristic):
            return self.heuristic
        return heuristic_by_name(self.heuristic)

    def resolve_selector(self, cost_model: Optional[CostModel] = None) -> Selector:
        if isinstance(self.selector, Selector):
            return self.selector
        return selector_by_name(self.selector, cost_model=cost_model)

    def resolve_eviction_policies(self) -> List[EvictionPolicy]:
        return [
            policy if isinstance(policy, EvictionPolicy) else eviction_by_name(policy)
            for policy in self.eviction_policies
        ]

    @classmethod
    def from_dict(cls, data: Mapping) -> "ReStoreConfig":
        """Build a config from plain JSON-shaped data.

        Plugin fields stay as names and resolve lazily against the
        registries; unknown keys raise immediately so typos in config
        files surface at load time::

            ReStoreConfig.from_dict({
                "heuristic": "conservative",
                "selector": "rules",
                "eviction_policies": ["time-window:4", "input-modified"],
                "register_whole_jobs": "temporary-only",
            })
        """
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown ReStoreConfig keys {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        kwargs = dict(data)
        if "eviction_policies" in kwargs:
            kwargs["eviction_policies"] = list(kwargs["eviction_policies"])
        config = cls(**kwargs)
        # fail fast on unknown plugin names (the point of from_dict)
        config.resolve_heuristic()
        config.resolve_selector()
        config.resolve_eviction_policies()
        return config


@dataclass
class MatchPipelineTotals:
    """Cumulative match-pipeline telemetry across every job scanned."""

    jobs_scanned: int = 0
    passes: int = 0
    #: entries visible at scan time, summed over passes
    entries_seen: int = 0
    #: entries that survived fingerprint pruning (traversals attempted)
    candidates_examined: int = 0
    #: entries dismissed by the index without a pairwise traversal
    candidates_pruned: int = 0
    #: pairwise Algorithm-1 traversals actually run while matching
    traversals: int = 0
    #: passes the exact-fingerprint index answered (whole-job hits on a
    #: plan equal to a stored one: no candidate list, no traversal)
    exact_hits: int = 0

    @property
    def prune_ratio(self) -> float:
        """Fraction of the repository the index pruned away (0..1)."""
        if not self.entries_seen:
            return 0.0
        return self.candidates_pruned / self.entries_seen


@dataclass
class _PendingDeltaRefresh:
    """A delta rewrite whose merge is deferred until after the job.

    The rewrite side-stores the tail branch's rows at ``delta_path``;
    once the job succeeds, ``after_job`` appends them onto the entry's
    stored output and advances its recorded input extents (the values
    captured here, at classification time — a racing further append
    simply classifies as appended again on the next probe).
    """

    entry_id: str
    output_path: str
    delta_path: str
    tail_path: str
    input_extents: Dict[str, InputExtent]
    input_bytes_delta: int


class ReStoreManager(JobListener):
    """The ReStore system: repository + matcher/rewriter + enumerator."""

    def __init__(
        self,
        dfs: DistributedFileSystem,
        cost_model: Optional[CostModel] = None,
        repository: Optional[Repository] = None,
        config: Optional[ReStoreConfig] = None,
        event_bus: Optional[EventBus] = None,
    ):
        self.dfs = dfs
        self.cost_model = cost_model or CostModel()
        self.config = config or ReStoreConfig()
        self.matcher = PlanMatcher()
        self.rewriter = PlanRewriter()
        # explicit None check: an empty Repository is falsy (len == 0)
        self.repository = (
            repository if repository is not None else Repository(self.matcher)
        )
        self.enumerator = SubJobEnumerator(
            self.config.resolve_heuristic(), id_allocator=dfs.next_subjob_id
        )
        self.selector = self.config.resolve_selector(self.cost_model)
        self.eviction_policies = self.config.resolve_eviction_policies()
        #: typed event fan-out; subscribe for live reuse telemetry
        self.events = event_bus or EventBus()
        #: attached :class:`repro.persistence.RepositoryPersister`
        #: (None = nothing durable; the persister sets and clears this)
        self.persistence = None
        #: DFS paths the engine must not delete during temp cleanup
        self.kept_paths: Set[str] = set()
        #: logical clock: one tick per workflow (drives eviction Rule 3)
        self.clock = 0
        #: guards counters, pending sub-jobs, kept paths, the clock,
        #: and the per-session event buffers
        self._lock = threading.RLock()
        #: active session scope, tracked per worker thread
        self._session_local = threading.local()
        #: live job object -> its enumerated sub-job candidates.  Keyed
        #: by id(job), not job_id: tenants may submit pre-built
        #: workflows with colliding job ids, and bare-string keys would
        #: let one tenant's bookkeeping clobber another's
        self._pending: Dict[int, List[CandidateSubJob]] = {}
        #: session id -> events awaiting that session's drain()
        self._pending_events: Dict[str, List[ReStoreEvent]] = {}
        #: workflow -> repository output paths its rewritten plans
        #: read.  Eviction still *condemns* pinned victims immediately
        #: (the entry leaves the repository, so no later job can match
        #: stale data), but their file deletion is deferred until the
        #: reading workflow ends: a concurrent tenant's eviction pass
        #: must never delete a file another tenant's in-flight job was
        #: rewritten to load (serial ReStore never had this window —
        #: evictions only ran between whole workflows).
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
        #: live job object -> delta refreshes to apply in after_job
        #: (keyed by id(job) like ``_pending``, for the same reason)
        self._pending_refresh: Dict[int, List[_PendingDeltaRefresh]] = {}
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
            # drop their enumerated candidates or a long-lived shared
            # manager leaks them on every failure.  Ditto their queued
            # delta refreshes: release the entry claims (the entry is
            # untouched, so the next probe just classifies appended
            # again) and reclaim the scratch files
            orphaned: List[_PendingDeltaRefresh] = []
            for job in workflow.jobs:
                self._pending.pop(id(job), None)
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
                live |= self._pinned_paths() | self.kept_paths
                ready = self._deferred_deletes - live
                self._deferred_deletes -= ready
        for refresh in orphaned:
            self._discard_file(refresh.delta_path)
            self._discard_file(refresh.tail_path)
        for path in ready:
            self._discard_file(path)
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

    def _pinned_paths(self) -> Set[str]:
        with self._lock:
            return set().union(*self._pinned.values()) if self._pinned else set()

    def before_job(self, job: MapReduceJob, workflow: Workflow) -> bool:
        if self.config.rewrite_enabled:
            self._match_and_rewrite(job, workflow)
        if job.eliminated_by is not None:
            return False
        if self.config.inject_enabled:
            candidates = self.enumerator.enumerate_and_inject(job)
            with self._lock:
                self._pending[id(job)] = candidates
        return True

    def after_job(self, job: MapReduceJob, stats: JobStats, workflow: Workflow) -> None:
        with self._lock:
            refreshes = self._pending_refresh.pop(id(job), [])
            candidates = self._pending.pop(id(job), [])
        # merge delta refreshes before registration: the refreshed
        # entry must be current before any rescan can match it again
        for refresh in refreshes:
            self._apply_refresh(job, refresh, stats)
        for candidate in candidates:
            self._offer_sub_job(candidate, stats, workflow)
        self._offer_whole_job(job, stats, workflow)

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
        (:meth:`_exact_hit`) and otherwise the repository for
        fingerprint-pruned candidates; the expensive pairwise traversal
        only runs against those, outside any manager-level lock — the
        candidate list is a snapshot, and the job plan being rewritten
        is submission-local.  A :class:`~repro.events.MatchScanned`
        telemetry event goes out on the bus when the scan completes.
        """
        scan = MatchScanned(job_id=job.job_id)
        try:
            for _ in range(self.config.max_rewrite_passes):
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
                        self._quarantine(entry, str(exc))
                        continue
                    if result is None:
                        continue
                    if self._is_noop_match(result.frontier, entry):
                        continue
                    freshness = self._pin_live_entry(workflow, entry)
                    if freshness is None:
                        continue  # evicted since the candidate snapshot
                    if freshness.stale:
                        # an input was rewritten or deleted: reusing
                        # the entry would serve stale bytes — and just
                        # skipping it would poison this job's rerun
                        # (find_equivalent discards the fresh output)
                        self._condemn_stale(entry)
                        continue
                    if freshness.is_appended:
                        if self._try_delta_rewrite(
                            job, entry, result, freshness, workflow
                        ):
                            scan.matches += 1
                            with self._lock:
                                entry.mark_used(self.clock)
                                self.rewrite_count += 1
                            self._emit(
                                RewriteApplied(
                                    job_id=job.job_id,
                                    entry_id=entry.entry_id,
                                    anchor_kind=entry.anchor_kind,
                                    output_path=entry.output_path,
                                    delta=True,
                                )
                            )
                            matched = True
                            break
                        self._condemn_stale(entry)
                        continue
                    if result.whole_job:
                        scan.matches += 1
                        self._apply_whole_job(job, entry, workflow)
                        return
                    self.rewriter.rewrite_partial(
                        job.plan, result, entry.output_path, entry.output_schema
                    )
                    scan.matches += 1
                    with self._lock:
                        # under the manager lock: use_count/last_used_at
                        # are read-modify-write state the LRU eviction
                        # policy reads during its (locked) passes
                        entry.mark_used(self.clock)
                        self.rewrite_count += 1
                    self._emit(
                        RewriteApplied(
                            job_id=job.job_id,
                            entry_id=entry.entry_id,
                            anchor_kind=entry.anchor_kind,
                            output_path=entry.output_path,
                        )
                    )
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
        it stands: one dict probe, no candidate list, no Algorithm 1.

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
            frontier = self.matcher.repo_frontier(entry.plan)
        except SnapshotError as exc:
            self._quarantine(entry, str(exc))
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
        with self._lock:
            entry.mark_used(self.clock)
        if job.temporary:
            # Intermediate job: drop it, point consumers at the stored copy.
            job.eliminated_by = entry.entry_id
            others = [j for j in workflow.jobs if j is not job]
            self.rewriter.redirect_loads(others, job.output_path, entry.output_path)
            with self._lock:
                self.elimination_count += 1
            self._emit(
                JobEliminated(
                    job_id=job.job_id,
                    entry_id=entry.entry_id,
                    output_path=entry.output_path,
                    reason="redirected",
                )
            )
            return
        if entry.output_path == job.output_path and self.dfs.exists(entry.output_path):
            # Resubmission of the very same query: result already there.
            job.eliminated_by = entry.entry_id
            with self._lock:
                self.elimination_count += 1
            self._emit(
                JobEliminated(
                    job_id=job.job_id,
                    entry_id=entry.entry_id,
                    output_path=entry.output_path,
                    reason="already-stored",
                )
            )
            return
        # Final job writing elsewhere: degrade to a copy job.
        self.rewriter.rewrite_as_copy_job(job, entry.output_path, entry.output_schema)
        with self._lock:
            self.rewrite_count += 1
        self._emit(
            RewriteApplied(
                job_id=job.job_id,
                entry_id=entry.entry_id,
                anchor_kind=entry.anchor_kind,
                output_path=entry.output_path,
                whole_job=True,
            )
        )

    # -- delta refresh (appended inputs) ---------------------------------------------------

    def _condemn_stale(self, entry: RepositoryEntry) -> None:
        """Evict a matched entry whose inputs changed underneath it.

        Rejecting the match alone is not enough: the stale entry would
        still answer ``find_equivalent`` after this job's full rerun,
        so the selector would discard the *fresh* output and leave the
        stale one registered forever.  Condemning at match time lets
        the rerun re-register fresh state.  The file deletion defers
        while an in-flight workflow reads it (this entry was pinned by
        the caller just before classification, so it always defers to
        at least this workflow's end).
        """
        event = self._evict(
            entry,
            "stale-input",
            defer_delete=entry.output_path in self._pinned_paths(),
        )
        if event is not None:
            self._emit(event)
            if self.persistence is not None:
                # like run_evictions: the removal must hit the journal
                # before the rerun re-registers over the same path
                self.persistence.flush()

    def _quarantine(self, entry: RepositoryEntry, reason: str) -> None:
        """Evict an entry whose stored plan failed to materialize.

        Like :meth:`_condemn_stale`, rejecting the match alone is not
        enough — the corrupt entry would keep answering index probes
        (its recorded fingerprint and signatures are served without
        materializing) and fail every future scan the same way.  The
        eviction is journaled as ``entry_quarantined`` so recovery and
        the standby converge on the same repository.
        """
        event = self._evict(
            entry,
            "quarantined",
            defer_delete=entry.output_path in self._pinned_paths(),
        )
        if event is None:
            return  # already evicted by a concurrent scan
        with self._lock:
            self.quarantine_count += 1
        self._emit(event)
        self._emit(
            EntryQuarantined(
                entry_id=entry.entry_id,
                output_path=entry.output_path,
                reason=reason,
            )
        )
        if self.persistence is not None:
            self.persistence.note_quarantine(entry.entry_id, reason)
            self.persistence.flush()

    def _try_delta_rewrite(
        self,
        job: MapReduceJob,
        entry: RepositoryEntry,
        result,
        freshness: EntryFreshness,
        workflow: Workflow,
    ) -> bool:
        """Rewrite *job* to recompute only the appended tail of the
        matched entry's input (i2MapReduce-style, PAPERS.md).

        The entry's sub-plan must be an identity-preserving chain
        (:func:`repro.core.freshness.delta_chain`); the probe plan is
        then spliced to read ``UNION(stored output, chain(tail))`` and
        a refresh is queued for ``after_job`` to merge the side-stored
        delta rows into the entry.  Returns True on success; False
        tells the caller to condemn the entry and fall back to a full
        rerun — a typed :class:`DeltaFallback` records why.
        """

        def fallback(path: str, reason: str) -> bool:
            with self._lock:
                self.delta_fallback_count += 1
            self._emit(
                DeltaFallback(
                    job_id=job.job_id,
                    entry_id=entry.entry_id,
                    path=path,
                    reason=reason,
                )
            )
            return False

        path = min(freshness.appended)
        if not self.config.delta_enabled:
            return fallback(path, "delta-disabled")
        if len(job.plan.loads()) != 1:
            # splicing two loads into a multi-load probe would reorder
            # the interpreter's load streaming relative to the full
            # rerun — not provably byte-stable, so rerun instead
            return fallback(path, "multi-load-probe")
        chain = delta_chain(entry.plan)
        if chain is None:
            # GROUP/JOIN/LIMIT/multi-input shapes: f(old ++ tail) is
            # not f(old) ++ f(tail); this counter is the headroom a
            # keyed re-grouping delta model would unlock
            return fallback(path, "ineligible-chain")
        # a delta-eligible entry has exactly one load, hence exactly
        # one (appended) input path
        live = freshness.appended[path]
        recorded = entry.input_extents[path]
        if recorded.size > 0:
            boundary = self.dfs.read_range(path, recorded.size - 1, recorded.size)
            if boundary != b"\n":
                # the append glued bytes onto the recorded prefix's
                # unterminated last line: the tail is not a clean
                # record suffix of the grown file
                return fallback(path, "tail-boundary")
        with self._lock:
            claimed = entry.entry_id not in self._refreshing
            if claimed:
                self._refreshing.add(entry.entry_id)
        if not claimed:
            return fallback(path, "refresh-in-flight")
        delta_id = self.dfs.next_delta_id()
        tail_path = f"{DELTA_TMP_PREFIX}tail-{delta_id}"
        delta_path = f"{DELTA_TMP_PREFIX}out-{delta_id}"
        try:
            tail = self.dfs.read_range(path, recorded.size, live.size)
            self.dfs.write_file(tail_path, tail, overwrite=True)
            self.rewriter.rewrite_delta(
                job.plan,
                result,
                chain,
                stored_path=entry.output_path,
                stored_schema=entry.output_schema,
                tail_path=tail_path,
                tail_schema=entry.plan.loads()[0].schema,
                delta_path=delta_path,
            )
        except Exception:
            with self._lock:
                self._refreshing.discard(entry.entry_id)
            self._discard_file(tail_path)
            raise
        # the refreshed extent extends the recorded prefix checksum
        # over the tail incrementally — no O(file) re-hash needed —
        # so the grown input stays verifiable across a restart too
        merged_crc = (
            zlib.crc32(tail, recorded.crc) if recorded.crc is not None else None
        )
        refresh = _PendingDeltaRefresh(
            entry_id=entry.entry_id,
            output_path=entry.output_path,
            delta_path=delta_path,
            tail_path=tail_path,
            input_extents={path: replace(live, crc=merged_crc)},
            input_bytes_delta=live.size - recorded.size,
        )
        with self._lock:
            self._pending_refresh.setdefault(id(job), []).append(refresh)
        return True

    def _apply_refresh(
        self, job: MapReduceJob, refresh: _PendingDeltaRefresh, stats: JobStats
    ) -> None:
        """Merge one delta run into its entry's stored output.

        The job side-stored the tail branch's rows at ``delta_path``;
        append them onto the stored output — unless the job's own
        primary store already wrote the merged file there (the
        resubmission shape, where the probe's output path *is* the
        entry's output path) — then advance the entry's recorded
        input extents so the grown input now classifies fresh.
        """
        try:
            if not self.repository.has_entry(refresh.entry_id):
                return  # condemned while the job ran; a rerun re-registers
            delta_bytes = b""
            delta_records = 0
            if self.dfs.exists(refresh.delta_path):
                delta_bytes = self.dfs.read_file(refresh.delta_path)
                stat = stats.store_for_path(refresh.delta_path)
                if stat is not None:
                    delta_records = stat.records
            own_stores = {s.path for s in stats.stores if not s.side}
            if delta_bytes and refresh.output_path not in own_stores:
                self.dfs.append(refresh.output_path, delta_bytes)
            try:
                self.repository.refresh_entry(
                    refresh.entry_id,
                    input_extents=refresh.input_extents,
                    input_bytes_delta=refresh.input_bytes_delta,
                    output_bytes_delta=len(delta_bytes),
                    output_records_delta=delta_records,
                )
            except RepositoryError:
                return  # condemned mid-merge; the rerun re-registers
            with self._lock:
                self.delta_refresh_count += 1
            self._emit(
                EntryRefreshed(
                    job_id=job.job_id,
                    entry_id=refresh.entry_id,
                    output_path=refresh.output_path,
                    delta_bytes=len(delta_bytes),
                    delta_records=delta_records,
                )
            )
            if self.persistence is not None:
                # the refreshed extents must reach the journal before
                # a crash, or recovery would replay the pre-append
                # extents and re-run the delta against a merged output
                self.persistence.flush()
        finally:
            with self._lock:
                self._refreshing.discard(refresh.entry_id)
            self._discard_file(refresh.delta_path)
            self._discard_file(refresh.tail_path)

    # -- registration (components 2+3) ----------------------------------------------------

    def _offer_sub_job(
        self, candidate: CandidateSubJob, stats: JobStats, workflow: Workflow
    ) -> None:
        """Offer one injected side store.  The file is the repository's
        own, so a refusal deletes it."""
        store_stat = stats.store_for_path(candidate.store_path)
        if store_stat is None:
            return
        input_bytes = sum(
            stats.load_bytes.get(op.path, 0) for op in candidate.plan.loads()
        )
        entry_stats = EntryStats(
            input_bytes=input_bytes,
            output_bytes=store_stat.bytes,
            output_records=store_stat.records,
            exec_time_s=estimate_standalone_time(
                self.cost_model,
                input_bytes=input_bytes,
                output_bytes=store_stat.bytes,
                records=stats.input_records,
            ),
        )
        if not self._register(
            candidate.plan,
            candidate.store_path,
            candidate.output_schema,
            entry_stats,
            candidate.anchor_kind,
            workflow,
            owned=True,
        ):
            self._discard_file(candidate.store_path)

    def _offer_whole_job(
        self, job: MapReduceJob, stats: JobStats, workflow: Workflow
    ) -> None:
        """Offer the job's own output (§2.1 type 1).  A final output is
        the user's file: refused or not, it stays where they stored it;
        a temporary one becomes the repository's when it is kept."""
        policy = self.config.register_whole_jobs
        if policy == "none":
            return
        if policy == "temporary-only" and not job.temporary:
            return
        primary = job.plan.primary_store()
        if primary is None or len(job.plan) <= 2:
            # nothing to offer, or the copy job a whole-job hit leaves
            # behind: _register refuses it, so do not clone it to hear so
            return
        sim_time = stats.sim.total_without_side_stores if stats.sim is not None else 0.0
        self._register(
            job.plan.subplan_upto(primary),
            primary.path,
            primary.schema or job.plan.loads()[0].schema,
            EntryStats(
                input_bytes=stats.input_bytes,
                output_bytes=stats.output_bytes,
                output_records=stats.output_records,
                exec_time_s=sim_time,
            ),
            "whole-job",
            workflow,
            owned=job.temporary,
        )

    def _register(
        self,
        plan: PhysicalPlan,
        output_path: str,
        output_schema: Schema,
        stats: EntryStats,
        anchor_kind: str,
        workflow: Workflow,
        *,
        owned: bool,
    ) -> bool:
        """The one way into the repository: probe, snapshot the inputs,
        build the entry, ask the selector, add atomically, keep and pin
        an *owned* file, emit.  Returns whether the output was stored.
        """
        if len(plan) <= 2:
            return False  # trivial copy: nothing worth storing
        load_paths = [op.path for op in plan.loads()]
        if any(p.startswith(DELTA_TMP_PREFIX) for p in load_paths):
            # the plan reads delta scratch (an appended tail): that
            # file dies when the refresh lands, so the entry could
            # never be recomputed
            return False
        if self.repository.find_equivalent(plan) is not None:
            return False  # duplicate computation already stored
        entry = RepositoryEntry(
            plan=plan,
            output_path=output_path,
            output_schema=output_schema,
            stats=stats,
            anchor_kind=anchor_kind,
            created_at=self.clock,
            last_used_at=self.clock,
            input_extents=self._input_snapshot(load_paths),
        )
        refused_as = "whole-job" if anchor_kind == "whole-job" else "sub-job"

        def refuse(reason: str) -> bool:
            self._emit(
                SubJobDiscarded(
                    output_path=output_path, reason=reason, anchor_kind=refused_as
                )
            )
            return False

        decision = self.selector.decide(entry)
        if not decision.keep:
            return refuse(decision.reason)
        # Atomic: a concurrent worker registering the same computation
        # loses the race here instead of storing a duplicate entry.
        # Entry insert and path ownership commit under one manager
        # lock, so an eviction pass can never observe the entry
        # without its kept path (which would orphan the stored file).
        with self._lock:
            stored, added = self.repository.add_if_absent(entry)
            if added and owned:
                self.kept_paths.add(output_path)
                # protect the fresh output from a concurrent tenant's
                # eviction until this workflow (whose rescan passes may
                # re-match it, whose later jobs may load it) is over
                self._pin(workflow, output_path)
                if self.persistence is not None:
                    self.persistence.note_kept_path(output_path, True)
        if not added:
            return refuse(
                f"duplicate of {stored.entry_id} (lost concurrent registration)"
            )
        self._emit(
            SubJobStored(
                entry_id=entry.entry_id,
                output_path=output_path,
                anchor_kind=anchor_kind,
            )
        )
        return True

    def _input_snapshot(self, paths) -> Dict[str, InputExtent]:
        """Each existing input's extent (identity, length, prefix
        checksum) at registration time — what the freshness classifier
        compares against the live file."""
        extents: Dict[str, InputExtent] = {}
        for path in paths:
            extent = self.dfs.input_extent(path, with_crc=True)
            if extent is not None:
                extents[path] = extent
        return extents

    # -- eviction (§5 rules 3-4) --------------------------------------------------------------

    def run_evictions(self) -> List[str]:
        """Apply all configured policies until fixpoint.

        Iterating matters for cascades: evicting an entry deletes its
        owned output file, which is another entry's *input* — Rule 4
        must then claim that dependent entry on the next pass (stale
        results never survive transitively).  The whole fixpoint runs
        under the manager lock: eviction is rare (once per workflow)
        and policies must see a stable repository while choosing
        victims.  Victims whose output an in-flight workflow was
        rewritten to read are condemned immediately (removed from the
        repository so no later job matches possibly-stale data) but
        their files outlive the reading workflow (see :meth:`_pin` and
        ``_deferred_deletes``).
        """
        evicted: List[str] = []
        events: List[EntryEvicted] = []
        with self._lock:
            changed = True
            while changed:
                changed = False
                pinned = self._pinned_paths()
                for policy in self.eviction_policies:
                    victims = policy.select_victims(
                        self.repository, self.dfs, self.clock
                    )
                    for victim in victims:
                        if victim.entry_id in evicted:
                            continue
                        # pinned: an in-flight workflow reads the
                        # file — condemn the entry now (it must not
                        # match again; it may be stale) but let the
                        # file outlive the reading workflow
                        event = self._evict(
                            victim,
                            policy.name,
                            defer_delete=victim.output_path in pinned,
                        )
                        if event is not None:
                            events.append(event)
                        evicted.append(victim.entry_id)
                        changed = True
        # emit after releasing the manager lock: bus subscribers run
        # callback code and may call back into the manager (events.py
        # promises they can do so without lock-order deadlocks)
        for event in events:
            self._emit(event)
        if evicted and self.persistence is not None:
            # evictions must hit the journal before their files are
            # reclaimed: a crash after the deletes but before a flush
            # would otherwise resurrect entries for vanished files
            self.persistence.flush()
        return evicted

    def _evict(
        self, entry: RepositoryEntry, reason: str, defer_delete: bool = False
    ) -> Optional[EntryEvicted]:
        """Remove one entry (and usually its owned file); returns the
        :class:`EntryEvicted` event for the caller to emit outside the
        eviction critical section, or None if the entry was gone.

        ``defer_delete`` keeps the owned file on disk (queued in
        ``_deferred_deletes``) because an in-flight workflow still
        reads it; the entry itself is removed unconditionally.
        """
        try:
            self.repository.remove(entry.entry_id)
        except RepositoryError:
            return None
        with self._lock:
            owned = entry.output_path in self.kept_paths
            if owned:
                self.kept_paths.discard(entry.output_path)
                if self.persistence is not None:
                    self.persistence.note_kept_path(entry.output_path, False)
                if defer_delete:
                    self._deferred_deletes.add(entry.output_path)
        if owned and not defer_delete:
            self._discard_file(entry.output_path)
        return EntryEvicted(
            entry_id=entry.entry_id,
            policy=reason,
            output_path=entry.output_path,
        )

    def _discard_file(self, path: str) -> None:
        self.dfs.delete_if_exists(path)

    def __repr__(self) -> str:
        return (
            f"ReStoreManager(entries={len(self.repository)}, "
            f"rewrites={self.rewrite_count}, eliminations={self.elimination_count})"
        )
