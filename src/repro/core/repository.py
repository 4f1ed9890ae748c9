"""The ReStore repository of stored MapReduce job outputs.

Each entry keeps exactly what the paper lists (§2.2): (1) the physical
plan of the job that produced the output, (2) the output's filename in
the DFS, and (3) statistics — input/output sizes, execution time, how
often and how recently the output was reused.

``ordered_entries`` realizes §3's ordering rules so that the *first*
match found during the sequential scan is the best one:

1. plan A before plan B when A subsumes B (all of B's operators have
   equivalents in A);
2. otherwise by the input/output size ratio, then by execution time
   (both: higher first).

The repository is fingerprint-indexed and **concurrency-safe under one
lock**.  A single reentrant repository lock guards everything: the
entry table, the insertion sequence, the §3 ordering structures and
three plain inverted indexes kept in step with the entries:

* whole-plan fingerprint → entry ids: O(1) exact-equivalence lookup
  (``find_equivalent``);
* load-signature → entry ids: a submitted job's Load set prunes the
  repository to the entries that can possibly be contained in it, so
  Algorithm 1's pairwise traversal only runs against real candidates
  (``match_candidates``);
* input path → entry ids, keyed by each entry's recorded
  ``input_extents``: eviction Rule 4 checks each source dataset once
  instead of walking every entry.

Every method that walks an index, the entry table or the order takes
that lock and returns a snapshot (``get`` / ``has_entry`` / ``len`` are
single dict probes).  Callers that also hold manager state take the
manager lock first: the lock order is *manager → repository*, never the
reverse, and this is the one place it is stated.

The §3 scan order is **a key, not a list**: entries added while no
scan is running accumulate in a pending batch, and the next scan
(``match_candidates()``, ``ordered_entries()``, or an explicit
``flush()``) records the subsumption pairs of each pending entry
(fingerprint-pruned) — what the key's first component counts.  A scan
then sorts the ids it kept by that key.  The key is a strict total
order (the insertion sequence breaks every tie), so the result is
independent of how the pending entries were grouped into flushes, and
``remove`` / ``refresh_entry`` have no position to repair: they move
scores and statistics, which the next sort reads.
"""

from __future__ import annotations

import re
import threading
from bisect import insort
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.matcher import PlanMatcher
from repro.dfs.namenode import InputExtent
from repro.exceptions import RepositoryError
from repro.pig.physical.plan import PhysicalPlan
from repro.relational.schema import Schema

_ENTRY_ID_PATTERN = re.compile(r"^entry_(\d+)$")


@dataclass
class EntryStats:
    """Execution statistics stored with a repository entry (§5)."""

    input_bytes: int = 0
    output_bytes: int = 0
    output_records: int = 0
    #: estimated standalone execution time of the producing job (sim s)
    exec_time_s: float = 0.0

    @property
    def io_ratio(self) -> float:
        """Input/output size ratio — ordering metric 1 (higher = better)."""
        return self.input_bytes / max(1, self.output_bytes)


@dataclass
class RepositoryEntry:
    """One stored job (or sub-job) output.

    ``entry_id`` is assigned by the owning :class:`Repository` when the
    entry is added (scoped per repository, so two sessions in one
    process produce identical, deterministic id sequences); entries
    loaded from persisted JSON keep their recorded ids.
    """

    plan: PhysicalPlan
    output_path: str
    output_schema: Schema
    stats: EntryStats = field(default_factory=EntryStats)
    anchor_kind: str = "whole-job"
    created_at: int = 0
    last_used_at: int = 0
    use_count: int = 0
    #: the entry's source datasets: exact per-input identity + length
    #: fingerprints recorded at registration (and advanced on every
    #: delta refresh).  The freshness classifier tells fresh, appended
    #: and rewritten inputs apart with these (eviction Rule 4, the
    #: match-time guard), and the keys feed the input-path index
    input_extents: Dict[str, InputExtent] = field(default_factory=dict)
    entry_id: str = ""

    def mark_used(self, now: int) -> None:
        self.use_count += 1
        self.last_used_at = now


@dataclass
class MatchScanStats:
    """What one candidate-selection pass over the repository saw."""

    entries_total: int = 0
    candidates: int = 0
    pruned: int = 0


@dataclass
class RepositoryIndexStats:
    """Cumulative counters for the fingerprint index (reporting/CI)."""

    exact_lookups: int = 0
    exact_hits: int = 0
    #: matcher traversals spent maintaining the §3 subsumption order
    subsume_checks: int = 0
    #: ordering pairs dismissed by fingerprint pruning (no traversal)
    subsume_pruned: int = 0
    #: order flushes, and entries integrated across them
    batch_flushes: int = 0
    batch_entries: int = 0


class Repository:
    """Fingerprint-indexed, scan-ordered, concurrency-safe collection.

    All public methods may be called from any thread; reads return
    snapshots.
    """

    def __init__(self, matcher: Optional[PlanMatcher] = None):
        self.matcher = matcher or PlanMatcher()
        self.index_stats = RepositoryIndexStats()
        #: guards the entry table, sequence numbers, the inverted
        #: indexes, the ordering structures, and index_stats
        self._lock = threading.RLock()
        self._entries: Dict[str, RepositoryEntry] = {}
        self._id_counter = 1
        self._seq_counter = 0
        #: entry id -> insertion sequence (stable-sort tie-break)
        self._seq: Dict[str, int] = {}
        # -- inverted indexes (kept in step with _entries) ------------
        #: whole-plan fingerprint -> entry ids (insertion order)
        self._by_fingerprint: Dict[str, List[str]] = {}
        #: load signature -> entry ids
        self._by_load_sig: Dict[str, Set[str]] = {}
        #: input path -> entry ids
        self._by_input_path: Dict[str, Set[str]] = {}
        self._sig_counts: Dict[str, Dict[str, int]] = {}
        # -- incremental §3 ordering ---------------------------------
        #: entry id -> how many other entries its plan subsumes; holds
        #: exactly the *integrated* entries (zero scores included)
        self._scores: Dict[str, int] = {}
        #: a -> {b: a's plan contains b's plan} and the inverse
        self._subsumes: Dict[str, Set[str]] = {}
        self._subsumed_by: Dict[str, Set[str]] = {}
        #: added but not yet integrated into the order (lazy, so
        #: ordering-free workloads never pay for matcher calls; flushed
        #: together by the next ordered scan)
        self._pending: List[str] = []
        #: durability hooks: called as ``listener(kind, entry)`` with
        #: kind "added"/"removed"/"refreshed", *under the repository
        #: lock*, right after the mutation commits (see
        #: subscribe_mutations)
        self._mutation_listeners: List[Callable[[str, RepositoryEntry], None]] = []

    @contextmanager
    def locked(self):
        """Hold the repository lock across a multi-step read (snapshot
        capture pairs :meth:`snapshot_state` with :meth:`entries`
        atomically).  Reentrant; a caller that also needs manager
        state takes the manager lock first (module docstring)."""
        with self._lock:
            yield self

    def subscribe_mutations(
        self, listener: Callable[[str, "RepositoryEntry"], None]
    ) -> Callable[[], None]:
        """Register a durability listener; returns an unsubscribe
        function.

        The listener runs under the repository lock, synchronously
        with the mutation — that is the point: a journaling listener
        serializes the entry *exactly* as committed, with no window
        for a concurrent re-add or eviction to slip between commit and
        record.  Listeners must not call back into entry-level
        repository methods (the lock is held) and must never fire
        during :meth:`from_persisted_state` — restored entries are
        already persisted.
        """
        with self._lock:
            self._mutation_listeners.append(listener)

        def unsubscribe() -> None:
            with self._lock:
                if listener in self._mutation_listeners:
                    self._mutation_listeners.remove(listener)

        return unsubscribe

    def _notify_mutation(self, kind: str, entry: "RepositoryEntry") -> None:
        for listener in self._mutation_listeners:
            listener(kind, entry)

    # -- basic operations ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self.entries())

    def entries(self) -> List[RepositoryEntry]:
        with self._lock:
            return list(self._entries.values())

    def get(self, entry_id: str) -> RepositoryEntry:
        try:
            return self._entries[entry_id]
        except KeyError:
            raise RepositoryError(f"no such entry: {entry_id}") from None

    def has_entry(self, entry_id: str) -> bool:
        """Whether *entry_id* is still live (snapshot validation: a
        matcher works on candidate snapshots, so an entry can be
        evicted mid-scan; callers re-check before acting on a match)."""
        return entry_id in self._entries

    def _assign_id(self, entry: RepositoryEntry) -> None:
        if entry.entry_id:
            # Persisted id: keep it, but advance the counter past it so
            # later generated ids can never collide.
            match = _ENTRY_ID_PATTERN.match(entry.entry_id)
            if match:
                self._id_counter = max(self._id_counter, int(match.group(1)) + 1)
            return
        while True:
            candidate = f"entry_{self._id_counter:06d}"
            self._id_counter += 1
            if candidate not in self._entries:
                entry.entry_id = candidate
                return

    def add(self, entry: RepositoryEntry) -> RepositoryEntry:
        with self._lock:
            self._assign_id(entry)
            eid = entry.entry_id
            if eid in self._entries:
                # Same-id re-add replaces the old entry like the
                # historical dict assignment did: deindex the old one
                # but keep the entry's insertion position (dict slot
                # and seq tie-break).
                self._deindex_entry(self._entries[eid])
                if eid in self._pending:
                    self._pending.remove(eid)
                else:
                    self._retire_from_order(eid)
            else:
                self._seq[eid] = self._seq_counter
                self._seq_counter += 1
            self._entries[eid] = entry
            self._index_entry(entry)
            self._pending.append(eid)
            self._notify_mutation("added", entry)
            return entry

    def add_if_absent(self, entry: RepositoryEntry) -> Tuple[RepositoryEntry, bool]:
        """Atomically register *entry* unless an equivalent plan is
        already stored.

        Returns ``(stored_entry, added)``.  This is the check-then-add
        race closed: two concurrent registrations of the same
        computation can both pass a bare :meth:`find_equivalent` probe,
        but only one can win this method; the loser receives the
        winner's entry and ``added=False``.
        """
        with self._lock:
            existing = self.find_equivalent(entry.plan)
            if existing is not None:
                return existing, False
            return self.add(entry), True

    def remove(self, entry_id: str) -> RepositoryEntry:
        with self._lock:
            entry = self.get(entry_id)
            del self._entries[entry_id]
            del self._seq[entry_id]
            self._deindex_entry(entry)
            if entry_id in self._pending:
                self._pending.remove(entry_id)
            else:
                self._retire_from_order(entry_id)
            self._notify_mutation("removed", entry)
            return entry

    def refresh_entry(
        self,
        entry_id: str,
        *,
        input_extents: Optional[Mapping[str, InputExtent]] = None,
        input_bytes_delta: int = 0,
        output_bytes_delta: int = 0,
        output_records_delta: int = 0,
    ) -> RepositoryEntry:
        """Advance an entry's recorded input state after a delta merge.

        The incremental-recomputation layer appended the tail-run's
        output onto the entry's stored file; the entry now describes
        the *grown* computation: input extents move to the captured
        live values and the size statistics grow by the delta.  The
        plan (and therefore the fingerprint and the signature indexes)
        is unchanged; only the §3 order position may move with the
        statistics, and the input-path index follows the extents' keys
        (a delta refresh never adds a path today).  Listeners observe
        the mutation as kind ``"refreshed"``.
        """
        with self._lock:
            entry = self.get(entry_id)
            if input_extents:
                for path in input_extents:
                    self._by_input_path.setdefault(path, set()).add(entry_id)
                entry.input_extents.update(input_extents)
            entry.stats.input_bytes += input_bytes_delta
            entry.stats.output_bytes += output_bytes_delta
            entry.stats.output_records += output_records_delta
            self._notify_mutation("refreshed", entry)
            return entry

    # -- inverted indexes (all under the repository lock) -------------------------

    def _index_entry(self, entry: RepositoryEntry) -> None:
        eid = entry.entry_id
        bucket = self._by_fingerprint.setdefault(entry.plan.fingerprint(), [])
        # keep buckets in insertion-sequence order even through
        # same-id re-adds, so find_equivalent can take bucket[0]
        insort(bucket, eid, key=lambda e: self._seq[e])
        for sig in entry.plan.load_signature_set():
            self._by_load_sig.setdefault(sig, set()).add(eid)
        for path in entry.input_extents:
            self._by_input_path.setdefault(path, set()).add(eid)
        self._sig_counts[eid] = dict(entry.plan.signature_counts())

    def _deindex_entry(self, entry: RepositoryEntry) -> None:
        eid = entry.entry_id
        fingerprint = entry.plan.fingerprint()
        bucket = self._by_fingerprint.get(fingerprint, [])
        if eid in bucket:
            bucket.remove(eid)
            if not bucket:
                del self._by_fingerprint[fingerprint]
        for index, keys in (
            (self._by_load_sig, entry.plan.load_signature_set()),
            (self._by_input_path, entry.input_extents),
        ):
            for key in keys:
                holders = index.get(key)
                if holders is not None:
                    holders.discard(eid)
                    if not holders:
                        del index[key]
        self._sig_counts.pop(eid, None)

    def _load_sig_pool(self, sigs: Iterable[str]) -> Set[str]:
        """Union of the load-signature buckets for *sigs*."""
        pool: Set[str] = set()
        for sig in sigs:
            pool |= self._by_load_sig.get(sig, set())
        return pool

    def merged_index_views(self) -> Dict[str, Dict]:
        """Deep-copied snapshots of the three inverted indexes, keyed
        ``by_fingerprint`` / ``by_load_sig`` / ``by_input_path`` (tests,
        debugging).  The containers are copies, so mutating them cannot
        desync the real buckets."""
        with self._lock:
            return {
                "by_fingerprint": {
                    key: list(bucket) for key, bucket in self._by_fingerprint.items()
                },
                "by_load_sig": {
                    key: set(holders) for key, holders in self._by_load_sig.items()
                },
                "by_input_path": {
                    key: set(holders) for key, holders in self._by_input_path.items()
                },
            }

    def find_equivalent(self, plan: PhysicalPlan) -> Optional[RepositoryEntry]:
        """An existing entry whose plan computes exactly *plan*.

        O(1): one cached fingerprint plus one dict probe.
        """
        fingerprint = plan.fingerprint()
        with self._lock:
            self.index_stats.exact_lookups += 1
            bucket = self._by_fingerprint.get(fingerprint)
            if not bucket:
                return None
            self.index_stats.exact_hits += 1
            # buckets are kept in insertion order: the first-stored
            # equivalent wins
            return self._entries[bucket[0]]

    def input_paths(self) -> List[str]:
        """Distinct source-dataset paths recorded by live entries."""
        with self._lock:
            return list(self._by_input_path)

    def entries_with_input(self, path: str) -> List[RepositoryEntry]:
        """Entries whose plans read *path* (insertion order)."""
        with self._lock:
            ids = self._by_input_path.get(path, ())
            return [
                self._entries[eid] for eid in sorted(ids, key=lambda e: self._seq[e])
            ]

    @property
    def total_stored_bytes(self) -> int:
        return sum(e.stats.output_bytes for e in self.entries())

    # -- candidate pruning (the indexed fast path) --------------------------------

    @staticmethod
    def _counts_contained(inner: Dict[str, int], outer: Dict[str, int]) -> bool:
        """True when *inner* is a sub-multiset of *outer* — necessary
        for inner's plan to be contained in outer's (every repo
        operator needs a distinct, signature-equal image)."""
        return all(outer.get(sig, 0) >= n for sig, n in inner.items())

    def match_candidates(
        self, plan: PhysicalPlan
    ) -> Tuple[List[RepositoryEntry], MatchScanStats]:
        """Scan-ordered entries that can possibly be contained in
        *plan*, plus what the pruning saw.

        Pruning is sound: it only removes entries whose Load set or
        operator-signature multiset proves Algorithm 1 would reject
        them, so the surviving first match is the one a scan of every
        ordered entry finds.  The returned list is a snapshot: entries
        removed concurrently stay visible to a scan already in flight.
        """
        load_sigs = plan.load_signature_set()
        counts = dict(plan.signature_counts())
        with self._lock:
            self.flush()  # every live entry now has its §3 position
            total = len(self._entries)
            keep = [
                eid
                for eid in self._load_sig_pool(load_sigs)
                if self._counts_contained(self._sig_counts[eid], counts)
            ]
            # the scan key is a strict total order: sorting the kept ids
            # by it is filtering the whole ordered list, in O(kept)
            keep.sort(key=self._order_key)
            candidates = [self._entries[eid] for eid in keep]
            stats = MatchScanStats(total, len(keep), total - len(keep))
            return candidates, stats

    # -- ordering (§3, incrementally maintained) ----------------------------------

    def _order_key(self, entry_id: str) -> tuple:
        entry = self._entries[entry_id]
        return (
            -self._scores.get(entry_id, 0),
            -entry.stats.io_ratio,
            -entry.stats.exec_time_s,
            self._seq[entry_id],
        )

    def _check_subsumption(self, a_id: str, b_id: str) -> None:
        """Record that *a*'s plan contains *b*'s, when the signature
        multisets allow it and Algorithm 1 confirms it."""
        if not self._counts_contained(self._sig_counts[b_id], self._sig_counts[a_id]):
            self.index_stats.subsume_pruned += 1
            return
        self.index_stats.subsume_checks += 1
        if self.matcher.contains(self._entries[a_id].plan, self._entries[b_id].plan):
            self._subsumes.setdefault(a_id, set()).add(b_id)
            self._subsumed_by.setdefault(b_id, set()).add(a_id)
            self._scores[a_id] = self._scores.get(a_id, 0) + 1

    def _compute_subsumptions(self, entry_id: str) -> None:
        """Record the subsumption pairs of one pending entry: compare
        it (fingerprint-pruned) against every integrated or
        earlier-flushed entry sharing a Load, updating scores on both
        sides."""
        plan = self._entries[entry_id].plan
        pool = self._load_sig_pool(plan.load_signature_set())
        pool.discard(entry_id)
        self._scores.setdefault(entry_id, 0)
        for other_id in sorted(pool, key=lambda e: self._seq[e]):
            if other_id not in self._scores:
                continue  # still pending; handled when it integrates
            self._check_subsumption(entry_id, other_id)
            self._check_subsumption(other_id, entry_id)

    def flush(self) -> None:
        """Fold every pending entry into the §3 order now: subsumption
        pairs per entry (earlier pending entries are visible to later
        ones).

        What every scan starts with; exposed so batch writers can pay
        the upkeep at a chosen point (e.g. between workloads) instead
        of inside a match scan.
        """
        with self._lock:
            if not self._pending:
                return
            batch, self._pending = self._pending, []
            self.index_stats.batch_flushes += 1
            self.index_stats.batch_entries += len(batch)
            for entry_id in batch:
                self._compute_subsumptions(entry_id)

    def _retire_from_order(self, entry_id: str) -> None:
        """Remove an integrated entry: retire its cached subsumption
        pairs (no matcher calls) and fix the scores they carried."""
        for a_id in self._subsumed_by.pop(entry_id, set()):
            subsumed = self._subsumes.get(a_id)
            if subsumed is not None:
                subsumed.discard(entry_id)
            if a_id in self._scores:
                self._scores[a_id] -= 1
        for b_id in self._subsumes.pop(entry_id, set()):
            holders = self._subsumed_by.get(b_id)
            if holders is not None:
                holders.discard(entry_id)
        self._scores.pop(entry_id, None)

    def ordered_entries(self) -> List[RepositoryEntry]:
        """Entries in match-scan order (best candidates first).

        One sort by (subsumption score desc, io ratio desc, exec time
        desc, insertion order) — the order a match scan filters, with
        the scores maintained flush by flush instead of recomputed
        O(n²) per mutation.  Returns a snapshot safe to iterate without
        locks.

        Integration of pending entries (including its matcher
        traversals) runs under the repository lock — the §3 order is
        global state, so upkeep is deliberately exclusive.
        """
        with self._lock:
            self.flush()
            ordered = sorted(self._scores, key=self._order_key)
            return [self._entries[eid] for eid in ordered]

    # -- persistence --------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Everything beyond the entries themselves that a faithful
        restore needs: the id/sequence counters, the
        per-entry insertion sequence, and the full incremental §3
        ordering state (scores keep zero-valued members — membership
        in ``scores`` is what marks an entry as *integrated*, which
        pending-batch subsumption computation relies on)."""
        with self._lock:
            return {
                "id_counter": self._id_counter,
                "seq_counter": self._seq_counter,
                "seq": dict(self._seq),
                "order": {
                    "scores": dict(self._scores),
                    "subsumes": {
                        a: sorted(bs) for a, bs in self._subsumes.items() if bs
                    },
                    "pending": list(self._pending),
                },
            }

    @classmethod
    def from_persisted_state(
        cls,
        entries: Iterable[RepositoryEntry],
        seqs: Mapping[str, int],
        state: Mapping,
    ) -> "Repository":
        """Install persisted entries and ordering state directly —
        O(entries) index rebuild, zero matcher traversals, zero
        re-registration.

        Mutation listeners deliberately never fire here: restored
        entries are already persisted, and the persister attaches only
        after recovery completes.
        """
        repo = cls()
        with repo._lock:
            max_seq = -1
            for entry in sorted(entries, key=lambda e: seqs[e.entry_id]):
                eid = entry.entry_id
                if not eid:
                    raise RepositoryError("persisted entry without an id")
                repo._assign_id(entry)  # keeps eid, moves the counter past it
                seq = int(seqs[eid])
                repo._seq[eid] = seq
                repo._entries[eid] = entry
                repo._index_entry(entry)
                max_seq = max(max_seq, seq)
            # counters resume past everything persisted, so new
            # registrations can never collide with restored ids
            repo._id_counter = max(int(state.get("id_counter", 1)), repo._id_counter)
            repo._seq_counter = max(int(state.get("seq_counter", 0)), max_seq + 1)
            order = state["order"]
            repo._scores = {
                eid: int(score) for eid, score in order.get("scores", {}).items()
            }
            repo._subsumes = {a: set(bs) for a, bs in order.get("subsumes", {}).items()}
            for a_id, subsumed in repo._subsumes.items():
                for b_id in subsumed:
                    repo._subsumed_by.setdefault(b_id, set()).add(a_id)
            repo._pending = list(order.get("pending", []))
        return repo

    @classmethod
    def restore(cls, snapshot, journal=None) -> "Repository":
        """Rebuild a repository from a persisted snapshot plus the
        post-snapshot journal — the crash-recovery entry point.

        *snapshot* is a :class:`~repro.persistence.snapshot.RepositorySnapshot`
        or its encoded bytes; *journal* is raw journal bytes or an
        iterable of decoded records.  All inverted indexes and the
        incremental §3 order come back in O(entries read) without
        re-registering any plan, and the entry-id counter resumes past
        every persisted id.  (For full-system recovery — kept paths,
        clock, DFS id floors — use :func:`repro.persistence.recover`.)
        """
        from repro.persistence.durability import ReplayTarget
        from repro.persistence.journal import decode_journal

        target = ReplayTarget.from_snapshot(snapshot)
        if isinstance(journal, (bytes, bytearray, memoryview)):
            journal = decode_journal(bytes(journal)).records
        target.apply_all(journal or ())
        return target.repository

    def __repr__(self) -> str:
        return (
            f"Repository(entries={len(self._entries)}, "
            f"stored_bytes={self.total_stored_bytes})"
        )
