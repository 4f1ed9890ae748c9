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
entry table, the insertion sequence, the §3 subsumption pairs and four
plain inverted indexes kept in step with the entries:

* whole-plan fingerprint → entry ids: O(1) exact-equivalence lookup
  (``find_equivalent``);
* frontier fingerprint → entry ids: an entry is contained in a job
  exactly when its frontier's fingerprint is one of the job's operator
  fingerprints (:mod:`repro.core.matcher`), so a job's match
  candidates are the union of its operators' buckets
  (``match_candidates``);
* operator fingerprint → entry ids: at registration, entry *a*
  subsumes entry *b* exactly when *b*'s frontier fingerprint is one of
  *a*'s operator fingerprints, so ``add`` records a new entry's
  subsumption pairs with two lookups per operator;
* input path → entry ids, keyed by each entry's recorded
  ``input_extents``: eviction Rule 4 checks each source dataset once
  instead of walking every entry.

Every method that walks an index, the entry table or the order takes
that lock and returns a snapshot (``get`` / ``has_entry`` / ``len`` are
single dict probes).  Callers that also hold manager state take the
manager lock first: the lock order is *manager → repository*, never the
reverse, and this is the one place it is stated.

The §3 scan order is **a key, not a list**: (entries subsumed desc, io
ratio desc, exec time desc, insertion sequence).  The key is a strict
total order, so a scan sorts the ids it kept by it, and ``remove`` /
``refresh_entry`` have no position to repair: they move subsumption
pairs and statistics, which the next sort reads.  The pairs are a pure
function of the live entries' fingerprints, so a restore recomputes
them instead of reading them back.
"""

from __future__ import annotations

import re
import threading
from bisect import insort
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Set, Tuple

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
    #: the output file's extent when it last held the entry's bytes:
    #: stamped at registration, after a delta refresh, and by the
    #: recovery scrub once the bytes are verified.  A match serves the
    #: entry only while the live file still classifies fresh against
    #: it; None (never verified) is never served
    output_extent: Optional[InputExtent] = None
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


class Repository:
    """Fingerprint-indexed, scan-ordered, concurrency-safe collection.

    All public methods may be called from any thread; reads return
    snapshots.
    """

    def __init__(self):
        self.index_stats = RepositoryIndexStats()
        #: guards the entry table, sequence numbers, the inverted
        #: indexes, the subsumption pairs, and index_stats
        self._lock = threading.RLock()
        self._entries: Dict[str, RepositoryEntry] = {}
        self._id_counter = 1
        self._seq_counter = 0
        #: entry id -> insertion sequence (stable-sort tie-break)
        self._seq: Dict[str, int] = {}
        # -- inverted indexes (kept in step with _entries) ------------
        #: whole-plan fingerprint -> entry ids (insertion order)
        self._by_fingerprint: Dict[str, List[str]] = {}
        #: frontier fingerprint -> entry ids
        self._by_frontier: Dict[str, Set[str]] = {}
        #: operator fingerprint -> entry ids whose plans compute it
        self._by_operator: Dict[str, Set[str]] = {}
        #: input path -> entry ids
        self._by_input_path: Dict[str, Set[str]] = {}
        #: output path -> entry ids (a user's path can hold several)
        self._by_output_path: Dict[str, Set[str]] = {}
        # -- §3 subsumption pairs ------------------------------------
        #: a -> {b: a's plan contains b's plan} and the inverse
        self._subsumes: Dict[str, Set[str]] = {}
        self._subsumed_by: Dict[str, Set[str]] = {}
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
            else:
                self._seq[eid] = self._seq_counter
                self._seq_counter += 1
            self._entries[eid] = entry
            self._index_entry(entry)
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
            self._notify_mutation("removed", entry)
            return entry

    def refresh_entry(
        self,
        entry_id: str,
        *,
        input_extents: Optional[Mapping[str, InputExtent]] = None,
        output_extent: Optional[InputExtent] = None,
        input_bytes_delta: int = 0,
        output_bytes_delta: int = 0,
        output_records_delta: int = 0,
    ) -> RepositoryEntry:
        """Advance an entry's recorded input state after a delta merge.

        The incremental-recomputation layer appended the tail-run's
        output onto the entry's stored file; the entry now describes
        the *grown* computation: input extents move to the captured
        live values, the output extent (when given) to the merged
        file's, and the size statistics grow by the delta.  The
        plan (and therefore every fingerprint index) is unchanged; only
        the §3 order position may move with the statistics, and the
        input-path index follows the extents' keys
        (a delta refresh never adds a path today).  Listeners observe
        the mutation as kind ``"refreshed"``.
        """
        with self._lock:
            entry = self.get(entry_id)
            if input_extents:
                for path in input_extents:
                    self._by_input_path.setdefault(path, set()).add(entry_id)
                entry.input_extents.update(input_extents)
            if output_extent is not None:
                entry.output_extent = output_extent
            entry.stats.input_bytes += input_bytes_delta
            entry.stats.output_bytes += output_bytes_delta
            entry.stats.output_records += output_records_delta
            self._notify_mutation("refreshed", entry)
            return entry

    # -- inverted indexes (all under the repository lock) -------------------------

    def _index_entry(self, entry: RepositoryEntry) -> None:
        """Index *entry* and record its subsumption pairs with every
        live entry: *a* subsumes *b* when *b*'s frontier fingerprint is
        one of *a*'s operator fingerprints."""
        eid = entry.entry_id
        plan = entry.plan
        bucket = self._by_fingerprint.setdefault(plan.fingerprint(), [])
        # keep buckets in insertion-sequence order even through
        # same-id re-adds, so find_equivalent can take bucket[0]
        insort(bucket, eid, key=lambda e: self._seq[e])
        for path in entry.input_extents:
            self._by_input_path.setdefault(path, set()).add(eid)
        self._by_output_path.setdefault(entry.output_path, set()).add(eid)
        subsumed: Set[str] = set()
        for fingerprint in plan.operator_fingerprints():
            self._by_operator.setdefault(fingerprint, set()).add(eid)
            subsumed |= self._by_frontier.get(fingerprint, set())
        frontier = plan.frontier_fingerprint()
        if frontier is not None:
            self._by_frontier.setdefault(frontier, set()).add(eid)
            subsumers = self._by_operator.get(frontier, set()) - {eid}
        else:
            subsumers = set()
        self._subsumes[eid] = subsumed
        self._subsumed_by[eid] = subsumers
        for other in subsumed:
            self._subsumed_by[other].add(eid)
        for other in subsumers:
            self._subsumes[other].add(eid)

    def _deindex_entry(self, entry: RepositoryEntry) -> None:
        eid = entry.entry_id
        fingerprint = entry.plan.fingerprint()
        bucket = self._by_fingerprint.get(fingerprint, [])
        if eid in bucket:
            bucket.remove(eid)
            if not bucket:
                del self._by_fingerprint[fingerprint]
        for index, keys in (
            (self._by_frontier, (entry.plan.frontier_fingerprint(),)),
            (self._by_operator, entry.plan.operator_fingerprints()),
            (self._by_input_path, entry.input_extents),
            (self._by_output_path, (entry.output_path,)),
        ):
            for key in keys:
                holders = index.get(key)
                if holders is not None:
                    holders.discard(eid)
                    if not holders:
                        del index[key]
        for other in self._subsumes.pop(eid, ()):
            self._subsumed_by[other].discard(eid)
        for other in self._subsumed_by.pop(eid, ()):
            self._subsumes[other].discard(eid)

    def merged_index_views(self) -> Dict[str, Dict]:
        """Deep-copied snapshots of the four inverted indexes, keyed
        ``by_fingerprint`` / ``by_frontier`` / ``by_operator`` /
        ``by_input_path`` (tests, debugging).  The containers are
        copies, so mutating them cannot desync the real buckets."""
        with self._lock:
            return {
                "by_fingerprint": {
                    key: list(bucket) for key, bucket in self._by_fingerprint.items()
                },
                **{
                    name: {key: set(holders) for key, holders in index.items()}
                    for name, index in (
                        ("by_frontier", self._by_frontier),
                        ("by_operator", self._by_operator),
                        ("by_input_path", self._by_input_path),
                    )
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
        return self._holders(self._by_input_path, path)

    def entries_with_output(self, path: str) -> List[RepositoryEntry]:
        """Entries whose output is *path* (insertion order)."""
        return self._holders(self._by_output_path, path)

    def _holders(self, index: Dict[str, Set[str]], path: str) -> List[RepositoryEntry]:
        with self._lock:
            ids = index.get(path, ())
            return [
                self._entries[eid] for eid in sorted(ids, key=lambda e: self._seq[e])
            ]

    @property
    def total_stored_bytes(self) -> int:
        return sum(e.stats.output_bytes for e in self.entries())

    # -- matching (§3) ------------------------------------------------------------

    def match_candidates(
        self, plan: PhysicalPlan
    ) -> Tuple[List[RepositoryEntry], MatchScanStats]:
        """The entries contained in *plan*, in §3 scan order, plus what
        the index saw.

        An entry is a candidate exactly when its frontier fingerprint
        is one of *plan*'s operator fingerprints, so the first
        candidate the scan can serve is the first match a scan of every
        ordered entry finds.  The returned list is a snapshot: entries
        removed concurrently stay visible to a scan already in flight.
        """
        fingerprints = plan.operator_fingerprints()
        with self._lock:
            total = len(self._entries)
            keep: Set[str] = set()
            for fingerprint in fingerprints:
                keep |= self._by_frontier.get(fingerprint, set())
            ordered = sorted(keep, key=self._order_key)
            candidates = [self._entries[eid] for eid in ordered]
            stats = MatchScanStats(total, len(ordered), total - len(ordered))
            return candidates, stats

    def _order_key(self, entry_id: str) -> tuple:
        entry = self._entries[entry_id]
        return (
            -len(self._subsumes[entry_id]),
            -entry.stats.io_ratio,
            -entry.stats.exec_time_s,
            self._seq[entry_id],
        )

    def subsumption_pairs(self) -> List[Tuple[str, str]]:
        """Every recorded (a, b) with a's plan containing b's, sorted."""
        with self._lock:
            return sorted(
                (a, b) for a, subsumed in self._subsumes.items() for b in subsumed
            )

    def ordered_entries(self) -> List[RepositoryEntry]:
        """Entries in match-scan order (best candidates first): one sort
        by the §3 key.  Returns a snapshot safe to iterate without
        locks."""
        with self._lock:
            ordered = sorted(self._entries, key=self._order_key)
            return [self._entries[eid] for eid in ordered]

    # -- persistence --------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Everything beyond the entries themselves that a faithful
        restore needs: the id/sequence counters and the per-entry
        insertion sequence."""
        with self._lock:
            return {
                "id_counter": self._id_counter,
                "seq_counter": self._seq_counter,
                "seq": dict(self._seq),
            }

    @classmethod
    def from_persisted_state(
        cls,
        entries: Iterable[RepositoryEntry],
        seqs: Mapping[str, int],
        state: Mapping,
    ) -> "Repository":
        """Install persisted entries directly — O(entries) index
        rebuild from their recorded fingerprints, zero re-registration.

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
        return repo

    def __repr__(self) -> str:
        return (
            f"Repository(entries={len(self._entries)}, "
            f"stored_bytes={self.total_stored_bytes})"
        )
