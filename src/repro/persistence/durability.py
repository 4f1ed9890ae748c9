"""Live durability wiring: the persister, replay, and crash recovery.

:class:`RepositoryPersister` attaches to a running
:class:`~repro.core.manager.ReStoreManager`, stages every repository
mutation as it happens, **commits** the staged batch at the submission
boundary and rotates snapshots at a configurable interval.
:func:`recover` is the other half: load the snapshot, replay the clean
journal prefix, truncate any torn tail, scrub every payload, and push
the restored id floors back into the DFS so nothing ever collides with
persisted state.

The contract (``tests/test_group_commit.py`` asserts it): **a crash
loses at most the submissions in flight; nothing acknowledged is lost,
nothing unprovable is served.**  The argument, in one place:

* *staged* — while a submission is open (``on_workflow_start`` to
  ``on_workflow_end``, which the runner calls in a ``finally``) a
  mutation only joins an in-memory batch: its journal record, behind
  the output's bytes as read at that moment.  Outside any submission
  it commits at once (``PersistenceConfig.flush_every``);
* *the commit* — one block-store write of every staged payload, then
  one journal write of every record with its segment ref filled in,
  one fsync each, block store strictly first: a journaled ref always
  names durable bytes.  Either write failing is a failed commit — the
  batch stays staged, the breaker opens, a later probe lands it whole;
* *commit points* — ``note_workflow_end`` (the acknowledgement: no
  submission returns before it), the manager's ordering barriers
  (eviction before file reclaim, stale-input eviction before
  re-registration, quarantine, refreshed extents), ``close()`` and the
  standby's promotion drain, all through ``RepositoryPersister.flush``;
* *a half-landed batch is harmless* — a crash inside either write
  tears only that file's tail, which recovery truncates; what survives
  is a prefix of the mutation order, and replay is idempotent (a
  same-id re-add replaces and re-integrates to the identical order, a
  remove of a missing entry is a no-op, usage stats and counter floors
  merge by max).  Segments whose records never landed are dead bytes,
  and the post-recovery scrub (:class:`_PayloadScrub`) refuses to
  serve an entry whose segment is missing, corrupt, or length-drifted:
  metadata may over-promise after a torn write, recovery never serves;
* *rotation* — a snapshot commits (staged batch, capture, write,
  journal reset) under the manager and repository locks, so no
  mutation falls between "folded into the snapshot" and "journaled for
  replay"; a crash between snapshot write and journal reset merely
  leaves folded records in the journal, replayed idempotently.
"""

from __future__ import annotations

import re
import threading
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.repository import Repository
from repro.events import (
    EntryQuarantined,
    EventBus,
    JobEliminated,
    JournalAppended,
    PersistenceDegraded,
    PersistenceRecovered,
    RewriteApplied,
    SnapshotTaken,
)
from repro.faults import injector as faults
from repro.persistence.blockstore import (
    BlockStore,
    BlockStoreError,
    SegmentRef,
    verify_ref,
)
from repro.persistence.framedlog import FrameScan
from repro.persistence.journal import Journal, JournalRecord
from repro.persistence.snapshot import (
    RepositorySnapshot,
    entry_from_record,
    entry_record,
)
from repro.persistence.storage import PersistenceConfig


@dataclass
class RecoveredState:
    """Everything :func:`recover` (or a standby promotion) hands back."""

    repository: Repository
    kept_paths: Set[str] = field(default_factory=set)
    clock: int = 0
    #: DFS id floors ({"next_script_id": ..., "next_subjob_id": ...})
    id_floors: Dict[str, int] = field(default_factory=dict)
    #: entries that came from the snapshot itself
    snapshot_entries: int = 0
    #: clean journal records replayed on top
    journal_records: int = 0
    #: bytes of torn journal tail truncated (0 = clean shutdown)
    journal_torn_bytes: int = 0
    #: mid-journal records quarantined for failing their checksum
    journal_skipped: int = 0
    #: path → raw segment ref ([gen, offset, length, crc]) for every
    #: payload the scrub verified (the persister resumes dedup from
    #: these)
    payload_refs: Dict[str, list] = field(default_factory=dict)
    #: block-store generation new appends continue into
    blockstore_gen: int = 0
    #: payloads written back into the DFS from the block store
    payloads_restored: int = 0
    #: (entry_id, output_path, reason) per entry the scrub condemned —
    #: already removed from the repository and journaled as
    #: ``entry_quarantined``; the caller emits the events
    payloads_condemned: List[Tuple[str, str, str]] = field(default_factory=list)
    #: set when those records could *not* be journaled: announced with
    #: the quarantines, and the next recovery re-derives the verdicts
    condemnations_unjournaled: Optional[PersistenceDegraded] = None
    #: kept paths the scrub dropped (bytes unrecoverable)
    kept_paths_condemned: List[str] = field(default_factory=list)
    #: entries tolerated without a payload ref (pre-block-store state
    #: whose output bytes were still present, or no DFS to check)
    payloads_legacy: int = 0


class ReplayTarget:
    """Mutable state a journal replay folds records into.

    The one replay pipeline — :meth:`from_snapshot`, :meth:`apply_all`,
    :meth:`finish` — shared by crash recovery, the standby replica and
    :meth:`Repository.restore`.  Replay is idempotent: every handler is
    a no-op or a max-merge when its effect is already present.
    """

    def __init__(self, repository: Repository) -> None:
        self.repository = repository
        self.kept_paths: Set[str] = set()
        self.clock = 0
        self.id_floors: Dict[str, int] = {"next_script_id": 1, "next_subjob_id": 1}
        #: path → raw block-store segment ref; seeded from the
        #: snapshot's payload table, extended by ``payload_stored``
        #: journal records
        self.payload_refs: Dict[str, list] = {}
        self.payload_gen = 0
        #: entries that came from the snapshot itself
        self.snapshot_entries = 0

    @classmethod
    def from_snapshot(cls, snapshot) -> "ReplayTarget":
        """The replay's starting state: *snapshot* (a
        :class:`RepositorySnapshot`, its encoded bytes, or ``None`` /
        empty for "no snapshot yet") restored, or an empty repository."""
        if not isinstance(snapshot, RepositorySnapshot):
            if not snapshot:
                return cls(Repository())
            snapshot = RepositorySnapshot.from_bytes(bytes(snapshot))
        target = cls(snapshot.restore_repository())
        manager_state = snapshot.manager_state
        target.kept_paths.update(manager_state.get("kept_paths", ()))
        target.clock = int(manager_state.get("clock", 0))
        for key, value in snapshot.dfs_state.items():
            target.id_floors[key] = max(target.id_floors.get(key, 1), int(value))
        payloads = snapshot.payload_state
        for path, ref in payloads.get("refs", {}).items():
            target.payload_refs[path] = list(ref)
        target.payload_gen = int(payloads.get("gen", 0))
        target.snapshot_entries = len(snapshot)
        return target

    def apply(self, record: JournalRecord) -> None:
        data = record.data
        if record.type in ("entry_added", "entry_refreshed"):
            # a refresh (delta merge) carries the entry's full
            # post-refresh state; a same-id add replaces in place
            # (idempotent on replay, no-op ordering hazards)
            self.repository.add(entry_from_record(data["entry"]))
        elif record.type in ("entry_removed", "entry_quarantined"):
            # quarantine is an eviction with a recorded reason: replay
            # treats both as an idempotent remove
            entry_id = data["entry_id"]
            if self.repository.has_entry(entry_id):
                self.repository.remove(entry_id)
        elif record.type == "entry_used":
            entry_id = data["entry_id"]
            if self.repository.has_entry(entry_id):
                entry = self.repository.get(entry_id)
                entry.use_count = max(entry.use_count, data.get("use_count", 0))
                entry.last_used_at = max(
                    entry.last_used_at, data.get("last_used_at", 0)
                )
            self.clock = max(self.clock, data.get("clock", 0))
        elif record.type == "kept_path_added":
            self.kept_paths.add(data["path"])
        elif record.type == "kept_path_removed":
            self.kept_paths.discard(data["path"])
        elif record.type == "payload_stored":
            # a later ref for the same path supersedes (refresh /
            # re-capture); replaying twice lands on the same ref
            self.payload_refs[data["path"]] = list(data["ref"])
            self.payload_gen = max(self.payload_gen, int(data["ref"][0]))
        elif record.type == "counters":
            for key in ("next_script_id", "next_subjob_id"):
                if key in data:
                    self.id_floors[key] = max(self.id_floors[key], int(data[key]))
            self.clock = max(self.clock, data.get("clock", 0))
        # unknown types: skipped (journals from newer writers)

    def apply_all(self, records) -> int:
        count = 0
        for record in records:
            self.apply(record)
            count += 1
        return count

    def finish(self, **counts) -> "RecoveredState":
        """The replayed state as a :class:`RecoveredState`: id floors
        merged with what the restored paths imply, the clock raised past
        every entry's timestamps, and the block-store generation new
        appends continue into.  *counts* fills the caller's bookkeeping
        fields (``journal_records``, scrub results, ...)."""
        for key, value in derive_id_floors(self.repository).items():
            self.id_floors[key] = max(self.id_floors.get(key, 1), value)
        for entry in self.repository.entries():
            self.clock = max(self.clock, entry.created_at, entry.last_used_at)
        gen = self.payload_gen
        for raw in self.payload_refs.values():
            gen = max(gen, int(raw[0]))
        return RecoveredState(
            repository=self.repository,
            kept_paths=set(self.kept_paths),
            clock=self.clock,
            id_floors=dict(self.id_floors),
            snapshot_entries=self.snapshot_entries,
            payload_refs={p: list(r) for p, r in self.payload_refs.items()},
            blockstore_gen=gen,
            **counts,
        )


#: id-bearing paths a repository entry can reference: enumerator
#: sub-job outputs and script-scoped temp outputs
_SUBJOB_PATH = re.compile(r"(?:^|/)sj(\d+)$")
_SCRIPT_PREFIX = re.compile(r"^tmp/s(\d+)(?:/|$)")


def derive_id_floors(repository: Repository) -> Dict[str, int]:
    """Id floors recoverable from restored entry paths alone — the
    belt-and-braces path when no ``counters`` record survived the
    crash (the floors only ever max-merge, so over-approximating from
    paths is always safe)."""
    script, subjob = 0, 0
    for entry in repository.entries():
        match = _SUBJOB_PATH.search(entry.output_path)
        if match:
            subjob = max(subjob, int(match.group(1)))
        match = _SCRIPT_PREFIX.match(entry.output_path)
        if match:
            script = max(script, int(match.group(1)))
    return {"next_script_id": script + 1, "next_subjob_id": subjob + 1}


#: sentinel distinguishing "no ref recorded" from "ref malformed"
_NO_REF = object()


class _PayloadScrub:
    """The post-recovery payload integrity pass.

    Every restored entry (and kept path) is checked against the block
    store before it can ever be served:

    * a recorded ref whose segment is missing, checksum-mismatched, or
      length-drifted **condemns** the entry — removed from the
      repository, journaled as ``entry_quarantined`` so the decision
      replays idempotently, surfaced for the caller to emit
      :class:`~repro.events.EntryQuarantined`;
    * an intact ref restores its bytes into the DFS when the file is
      absent (the warm-start path: payloads come back natively);
    * an entry with **no** ref is legacy (pre-block-store state): it
      is tolerated when its output bytes are already present — or when
      there is no DFS to check against — and condemned when a DFS is
      given and the bytes are gone, which is exactly the stale-output
      hazard the scrub exists to close.
    """

    def __init__(self, config: PersistenceConfig, dfs, journal: Journal):
        self.config = config
        self.dfs = dfs
        self.journal = journal
        self.restored = 0
        self.legacy = 0
        self.condemned: List[Tuple[str, str, str]] = []
        self.kept_condemned: List[str] = []
        self._scans: Dict[int, FrameScan] = {}

    def _scan_gen(self, gen: int) -> FrameScan:
        scan = self._scans.get(gen)
        if scan is None:
            store = BlockStore(self.config.blockstore_storage(self.dfs, gen), gen)
            scan = store.scan()
            if scan.torn:
                # not advisory: the successor must not append behind a tear
                store.repair(scan)
            self._scans[gen] = scan
        return scan

    def _check(self, path: str, refs: Dict[str, list]):
        """``(ok, payload_or_None, reason)`` for one referenced path."""
        raw = refs.get(path, _NO_REF)
        if raw is _NO_REF:
            if self.dfs is None or self.dfs.exists(path):
                self.legacy += 1
                return True, None, ""
            return False, None, "no payload segment recorded and output bytes missing"
        try:
            ref = SegmentRef.from_list(raw)
        except (BlockStoreError, TypeError, ValueError):
            return False, None, f"malformed payload segment ref {raw!r}"
        payload = verify_ref(self._scan_gen(ref.gen), ref, path)
        if payload is None:
            return (
                False,
                None,
                f"payload segment missing or corrupt "
                f"(gen {ref.gen}, offset {ref.offset})",
            )
        return True, payload, ""

    def run(self, target: ReplayTarget) -> None:
        refs = target.payload_refs
        for entry in list(target.repository.entries()):
            ok, payload, reason = self._check(entry.output_path, refs)
            if not ok:
                self.condemned.append((entry.entry_id, entry.output_path, reason))
                continue
            self._restore(entry.output_path, payload)
        for path in sorted(target.kept_paths):
            ok, payload, _ = self._check(path, refs)
            if not ok:
                self.kept_condemned.append(path)
                continue
            self._restore(path, payload)
        for entry_id, path, _ in self.condemned:
            if target.repository.has_entry(entry_id):
                target.repository.remove(entry_id)
            refs.pop(path, None)
        for path in self.kept_condemned:
            target.kept_paths.discard(path)
            refs.pop(path, None)

    def _restore(self, path: str, payload: Optional[bytes]) -> None:
        if payload is None or self.dfs is None or self.dfs.exists(path):
            return
        self.dfs.write_file(path, payload)
        self.restored += 1

    def journal_condemnations(self) -> None:
        """Make the scrub's verdicts durable: an ``entry_quarantined``
        replays as an idempotent remove, so the next recovery reaches
        the same state without re-deriving it.  An ``OSError`` from a
        degraded journal merely defers that; the caller records it."""
        records = [
            {
                "type": "entry_quarantined",
                "entry_id": entry_id,
                "reason": f"payload-scrub: {reason}",
            }
            for entry_id, _, reason in self.condemned
        ]
        records.extend(
            {"type": "kept_path_removed", "path": path}
            for path in self.kept_condemned
        )
        if records:
            self.journal.append_payloads(records)


def recover(config: PersistenceConfig, dfs=None) -> RecoveredState:
    """Rebuild repository + manager state from snapshot and journal.

    Loads the snapshot (if any), replays every intact journal record
    on top, truncates a torn tail in place, scrubs every restored
    entry's payload against the block store (see :class:`_PayloadScrub`
    — intact bytes are written back into *dfs*, condemned entries are
    removed and journaled), and derives/merges the id and clock
    floors.  When *dfs* is given the id floors are pushed into it
    immediately via :meth:`ensure_id_floor`.
    """
    journal = Journal(config.journal_storage(dfs))
    storage = config.snapshot_storage(dfs)
    data = storage.read() if storage.exists() else b""
    if data:
        # injection site "snapshot.read": corruption here must surface
        # as a SnapshotError, never as silent partial state
        data = faults.fire("snapshot.read", data=data)
    target = ReplayTarget.from_snapshot(data)
    scan = journal.scan()
    replayed = target.apply_all(scan.records)
    if scan.torn:
        journal.repair(scan)
    scrub = _PayloadScrub(config, dfs, journal)
    scrub.run(target)
    unjournaled = None
    try:
        scrub.journal_condemnations()
    except OSError as exc:
        unjournaled = PersistenceDegraded(path=journal.location, error=str(exc))
    state = target.finish(
        condemnations_unjournaled=unjournaled,
        journal_records=replayed,
        journal_torn_bytes=scan.torn_bytes,
        journal_skipped=scan.skipped,
        payloads_restored=scrub.restored,
        payloads_condemned=scrub.condemned,
        kept_paths_condemned=scrub.kept_condemned,
        payloads_legacy=scrub.legacy,
    )
    # the successor appends here: scan + repair it, referenced or not
    scrub._scan_gen(state.blockstore_gen)
    if dfs is not None:
        dfs.ensure_id_floor(**state.id_floors)
    return state


def announce_scrub_condemnations(manager, recovered: RecoveredState) -> None:
    """Surface the recovery scrub's verdicts on a live manager.

    The repository removals and ``entry_quarantined`` journal records
    already happened inside :func:`recover`; this bumps the manager's
    quarantine counter and emits one
    :class:`~repro.events.EntryQuarantined` per condemned entry so
    operators and the service stats see them like any match-time
    quarantine, and a :class:`~repro.events.PersistenceDegraded` when
    those records could not be written.
    """
    if recovered.condemnations_unjournaled is not None:
        manager.events.emit(recovered.condemnations_unjournaled)
    if not recovered.payloads_condemned:
        return
    with manager.locked():
        manager.quarantine_count += len(recovered.payloads_condemned)
    for entry_id, output_path, reason in recovered.payloads_condemned:
        manager.events.emit(
            EntryQuarantined(
                entry_id=entry_id,
                output_path=output_path,
                reason=f"payload-scrub: {reason}",
            )
        )


def adopt_recovered(
    manager, state: RecoveredState, config: PersistenceConfig
) -> "RepositoryPersister":
    """Make *state* (from :func:`recover` or a standby promotion) the
    live state of *manager* — already built over ``state.repository`` —
    and return its attached persister.

    Kept paths, clock and id floors land before the persister
    subscribes, so nothing already durable is journaled again; the
    scrub's condemnations are announced last, to a fully wired manager.
    """
    manager.kept_paths.update(state.kept_paths)
    manager.clock = max(manager.clock, state.clock)
    manager.dfs.ensure_id_floor(**state.id_floors)
    persister = RepositoryPersister(manager, config, recovered=state)
    announce_scrub_condemnations(manager, state)
    return persister


class RepositoryPersister:
    """Stages live mutations, commits per submission, rotates snapshots.

    Wiring (all detachable via :meth:`close`):

    * repository mutation listeners — ``entry_added``/``entry_removed``
      records are built *under the repository lock* (correctness over
      cost: the entry cannot change or vanish mid-serialization);
    * the manager bus — ``RewriteApplied``/``JobEliminated`` update an
      entry's reuse statistics, staged as ``entry_used`` records;
    * manager hooks — kept-path commits stage inline; a workflow start
      opens a submission, and its end stages a ``counters`` record when
      the DFS id state or clock moved, commits (:meth:`flush`) and
      rotates the snapshot when the configured interval has elapsed.

    A commit lands everything staged, whichever tenant staged it (one
    acknowledgement makes the others' records durable early).  Lock
    order: manager → repository → io → buffer → dfs.  The
    persister's own :class:`EventBus` (``events``) carries
    :class:`JournalAppended`/:class:`SnapshotTaken` so standby
    replicas never touch the manager bus.
    """

    #: circuit breaker: while open, only every N-th flush attempt
    #: probes storage (the rest stay staged instead of eating an error)
    PROBE_EVERY = 3
    #: a rotation compacts once the generation's dead bytes exceed
    #: this multiple of its live ones (space <= 2x live + one interval)
    COMPACT_DEAD_PER_LIVE = 1.0

    def __init__(
        self,
        manager,
        config: PersistenceConfig,
        *,
        recovered: Optional[RecoveredState] = None,
    ) -> None:
        self.manager = manager
        self.repository = manager.repository
        self.config = config
        self.dfs = manager.dfs
        #: persister-scoped bus: JournalAppended / SnapshotTaken
        self.events = EventBus()
        self.snapshot_storage = config.snapshot_storage(self.dfs)
        self.journal = Journal(config.journal_storage(self.dfs))
        #: *recovered* resumes the block-store generation and ref table
        gen = recovered.blockstore_gen if recovered is not None else 0
        self.blockstore = BlockStore(config.blockstore_storage(self.dfs, gen), gen)
        #: path → durable segment ref, set by the commit that landed it
        self._payload_refs: Dict[str, SegmentRef] = {}
        #: path → (payload crc32, inode extent) as last captured, staged
        #: or durable: a matching extent skips the read (and lets rotation
        #: carry the ref), a matching crc the write (``None``: resumed)
        self._captured: Dict[str, tuple] = {}
        if recovered is not None:
            for path, raw in recovered.payload_refs.items():
                try:
                    ref = SegmentRef.from_list(raw)
                except (BlockStoreError, TypeError, ValueError):
                    continue
                self._payload_refs[path] = ref
                self._captured[path] = (ref.crc, None)
        #: the staged batch, in mutation order
        self._buffer: List[dict] = []
        self._buffer_lock = threading.Lock()
        #: while a submission is open, staging never commits by itself
        self._open_submissions = 0
        #: serializes commits so batches reach storage in order
        self._io_lock = threading.Lock()
        #: the batch being committed: drained from the buffer, not yet
        #: durable (outlives a flush only while the breaker is open)
        self._backlog: List[dict] = []
        self._breaker_open = False
        self._breaker_failures = 0
        self._probe_countdown = 0
        self.breaker_trips = 0
        self.breaker_recoveries = 0
        self._records_since_snapshot = 0
        self._last_counters: Optional[dict] = None
        self._closed = False
        self._unsubscribes = [
            self.repository.subscribe_mutations(self._on_mutation),
            self.manager.events.subscribe(
                self._on_usage, event_types=(RewriteApplied, JobEliminated)
            ),
        ]
        manager.persistence = self
        #: timer-driven rotation (satellite of the payload-durability
        #: work): a daemon thread rotates the snapshot every
        #: ``snapshot_interval_s`` seconds of wall clock while records
        #: have accumulated, so a service that never reaches a workflow
        #: boundary still bounds its replay window
        self._timer_stop = threading.Event()
        self._timer: Optional[threading.Thread] = None
        if config.snapshot_interval_s > 0:
            self._timer = threading.Thread(
                target=self._timer_loop,
                name="persister-snapshot-timer",
                daemon=True,
            )
            self._timer.start()

    def _timer_loop(self) -> None:
        while not self._timer_stop.wait(self.config.snapshot_interval_s):
            if self._closed:
                break
            try:
                if self._records_since_snapshot > 0:
                    self.take_snapshot()
            except Exception as exc:
                # storage failures never get here (take_snapshot turns
                # them into a breaker trip), so this is unexpected: say
                # so, but the timer itself must never die of it
                self.events.emit(
                    PersistenceDegraded(
                        path=self.snapshot_storage.location,
                        error=repr(exc),
                        buffered=self.buffered_records,
                    )
                )

    # -- record sources -----------------------------------------------------------

    def _on_mutation(self, kind: str, entry) -> None:
        if kind == "removed":
            payload = {"type": "entry_removed", "entry_id": entry.entry_id}
        elif kind in ("added", "refreshed"):
            # a refresh carries the full post-refresh entry state:
            # replay re-adds it over the original entry_added record;
            # capture first — added and refreshed outputs hold new bytes
            self._stage_payload(entry.output_path)
            payload = {"type": f"entry_{kind}", "entry": entry_record(entry)}
        else:
            return
        self._enqueue(payload)

    def _stage_payload(self, path: str, *, commit: bool = True) -> None:
        """Stage *path*'s DFS bytes, read now, as a ``payload_stored``
        record; they ride in it as ``data`` until the commit that
        writes them swaps in the segment ref.  A path with no file
        stages nothing (its entry is journaled without a ref and the
        recovery scrub refuses to serve it); a file whose inode extent,
        or whose bytes' crc32, equals the last capture's — durable or
        staged — is not staged again.
        """
        # extent first: a stale one only costs the next capture a re-read
        extent = self.dfs.input_extent(path)
        known_crc, known_extent = self._captured.get(path, (None, None))
        if self._closed or extent is None or extent == known_extent:
            return
        data = self.dfs.read_file(path)
        crc = zlib.crc32(data)
        self._captured[path] = (crc, extent)
        if crc != known_crc:
            record = {"type": "payload_stored", "path": path, "ref": None, "data": data}
            self._enqueue(record, commit=commit)

    def _on_usage(self, event) -> None:
        entry_id = event.entry_id
        if not entry_id or not self.repository.has_entry(entry_id):
            return
        entry = self.repository.get(entry_id)
        self._enqueue(
            {
                "type": "entry_used",
                "entry_id": entry_id,
                "use_count": entry.use_count,
                "last_used_at": entry.last_used_at,
                "clock": self.manager.clock,
            }
        )

    def note_quarantine(self, entry_id: str, reason: str) -> None:
        """Called by the manager (under its lock) when an entry is
        quarantined for corruption; replayed as an idempotent remove."""
        self._enqueue(
            {
                "type": "entry_quarantined",
                "entry_id": entry_id,
                "reason": reason,
            }
        )

    def note_kept_path(self, path: str, added: bool) -> None:
        """Called by the manager (under its lock) when a stored output
        enters or leaves the kept-path set."""
        if added:
            self._stage_payload(path)
        self._enqueue(
            {
                "type": "kept_path_added" if added else "kept_path_removed",
                "path": path,
            }
        )

    def note_workflow_start(self) -> None:
        """A submission opens: until its end, mutations only stage."""
        with self._buffer_lock:
            self._open_submissions += 1

    def note_workflow_end(self) -> None:
        """Workflow boundary, the submission's commit point: persist moved
        counters, commit everything staged, rotate the snapshot if due."""
        self._journal_counters_if_moved()
        with self._buffer_lock:
            # floored: probes and tests end workflows they never started
            self._open_submissions = max(0, self._open_submissions - 1)
        self.flush()
        interval = self.config.snapshot_interval
        if interval > 0 and self._records_since_snapshot >= interval:
            self.take_snapshot()

    def _journal_counters_if_moved(self) -> None:
        counters = dict(self.dfs.id_state())
        counters["clock"] = self.manager.clock
        if counters != self._last_counters:
            self._last_counters = counters
            self._enqueue({"type": "counters", **counters})

    # -- writing ------------------------------------------------------------------

    def _enqueue(self, record: dict, *, commit: bool = True) -> None:
        """Append *record* to the staged batch; outside any submission,
        commit once ``flush_every`` records wait."""
        if self._closed:
            return
        with self._buffer_lock:
            self._buffer.append(record)
            limit = max(1, self.config.flush_every)
            due = commit and not self._open_submissions and len(self._buffer) >= limit
        if due:
            self.flush()

    def flush(self, *, force: bool = False) -> int:
        """Commit the staged batch — payload segments to the block
        store, then every record to the journal; returns the number of
        records durably written.

        A storage failure opens the circuit breaker instead of
        propagating: the batch stays in ``_backlog``, a
        :class:`PersistenceDegraded` says so, and only every
        ``PROBE_EVERY``-th attempt probes storage (*force* skips the
        gating: close, promotion) until one lands the backlog whole
        and emits :class:`PersistenceRecovered`.
        """
        pending: List = []
        written = 0
        with self._io_lock:
            if not (self._buffer or self._backlog):
                return 0
            if self._breaker_open and not force:
                self._probe_countdown -= 1
                if self._probe_countdown > 0:
                    return 0  # staged in memory; not yet time to probe
                self._probe_countdown = self.PROBE_EVERY
            try:
                written = self._commit(pending)
            except OSError as exc:
                self._breaker_trip(pending, self.journal.location, exc)
        for event in pending:  # emitted outside the io lock
            self.events.emit(event)
        return written

    def _commit(self, pending: List) -> int:
        """Land everything staged (io lock held): one block-store write
        whose refs replace the staged bytes in their records, then one
        journal write.  On ``OSError`` a retry writes no segment twice."""
        with self._buffer_lock:
            self._backlog.extend(self._buffer)
            self._buffer = []
        if not self._backlog:
            return 0
        segments = [record for record in self._backlog if "data" in record]
        if segments:
            refs = self.blockstore.append_segments(
                [(record["path"], record["data"]) for record in segments]
            )
            for record, ref in zip(segments, refs):
                del record["data"]
                record["ref"] = ref.to_list()
                self._payload_refs[record["path"]] = ref
        records = len(self._backlog)
        nbytes = self.journal.append_payloads(self._backlog)
        self._backlog = []
        self._records_since_snapshot += records
        self._breaker_heal(pending, self.journal.location, records)
        pending.append(
            JournalAppended(path=self.journal.location, records=records, bytes=nbytes)
        )
        return records

    def _breaker_trip(self, pending, location, exc) -> None:
        """A storage write failed (io lock held): count it and, on the
        closed → open edge, stage :class:`PersistenceDegraded`."""
        self._breaker_failures += 1
        if not self._breaker_open:
            self._breaker_open = True
            self.breaker_trips += 1
            self._probe_countdown = self.PROBE_EVERY
            pending.append(
                PersistenceDegraded(
                    path=location, error=str(exc), buffered=self.buffered_records
                )
            )

    def _breaker_heal(self, pending, location, flushed) -> None:
        """A storage write succeeded (io lock held): on the open →
        closed edge, stage :class:`PersistenceRecovered`."""
        if self._breaker_open:
            self._breaker_open = False
            self.breaker_recoveries += 1
            pending.append(
                PersistenceRecovered(
                    path=location, flushed=flushed, failures=self._breaker_failures
                )
            )
            self._breaker_failures = 0

    @property
    def breaker_open(self) -> bool:
        return self._breaker_open

    @property
    def buffered_records(self) -> int:
        """Records staged in memory but not yet durably journaled."""
        with self._buffer_lock:
            return len(self._buffer) + len(self._backlog)

    def take_snapshot(self) -> Optional[SnapshotTaken]:
        """Commit what is staged, capture + write a snapshot and reset
        the journal, atomically with respect to mutations (manager and
        repository locks held through the whole rotation).

        Payloads rotate *by reference*: the snapshot's ``payloads``
        table carries the live subset of the ref table as it stands, so
        a rotation costs in proportion to churn, not repository size.
        A ref is carried only while its file's inode extent is the one
        captured (O(live) metadata checks); a file that moved on, or a
        ref resumed from recovery, is re-read — same crc, same ref; new
        bytes, a new segment in the rotation's one batch.  Only past
        ``COMPACT_DEAD_PER_LIVE`` does it *compact*: every live payload
        goes into ``gen+1`` in one framed write, and superseded files
        go only after snapshot + journal reset committed, so at every
        crash point all referenced segments are on disk.  A storage
        failure aborts the rotation *without* resetting the journal or
        adopting a half-written generation (debris the next compaction
        truncates), trips the breaker, and returns ``None``.
        """
        pending: List = []
        event: Optional[SnapshotTaken] = None
        with self.manager.locked(), self.repository.locked(), self._io_lock:
            try:
                event = self._rotate(pending)
            except OSError as exc:
                self._breaker_trip(pending, self.snapshot_storage.location, exc)
        for item in pending:  # emitted outside every lock
            self.events.emit(item)
        return event

    def _rotate(self, pending: List) -> SnapshotTaken:
        """The rotation proper (every lock held): an ``OSError`` before
        the snapshot is durable leaves generation and refs as they were."""
        live = {entry.output_path for entry in self.repository.entries()}
        live = sorted(live | self.manager.kept_paths)
        for path in live:  # reads only files that moved on since capture
            self._stage_payload(path, commit=False)
        self._commit(pending)
        # a live path whose file is gone has nothing durable to carry
        refs = {
            path: self._payload_refs[path]
            for path in live
            if path in self._payload_refs and self.dfs.exists(path)
        }
        store = self.blockstore
        live_bytes = sum(ref.length for ref in refs.values())
        if (
            store.size() - live_bytes > self.COMPACT_DEAD_PER_LIVE * live_bytes
            or any(ref.gen != store.gen for ref in refs.values())
        ):
            store = BlockStore(
                self.config.blockstore_storage(self.dfs, store.gen + 1),
                store.gen + 1,
            )
            store.reset()  # debris from an earlier aborted compaction
            copies = store.append_segments([(p, self.dfs.read_file(p)) for p in refs])
            refs = dict(zip(refs, copies))
        snapshot = RepositorySnapshot.capture(
            self.repository,
            kept_paths=self.manager.kept_paths,
            clock=self.manager.clock,
            dfs_ids=self.dfs.id_state(),
            payloads={
                "gen": store.gen,
                "refs": {path: ref.to_list() for path, ref in refs.items()},
            },
        )
        data = snapshot.to_bytes()
        # injection site "snapshot.write": rotation I/O
        faults.fire("snapshot.write")
        self.snapshot_storage.write(data)
        # the snapshot is durable: its generation and ref table are the
        # live ones from here, even if the journal reset below fails
        self.blockstore = store
        self._payload_refs = refs
        self._captured = {path: self._captured[path] for path in refs}
        self.journal.reset()
        # every surviving ref names ``store.gen``: older generations
        # (compacted away, or stragglers of aborted rotations) can go
        for gen in range(max(0, store.gen - 2), store.gen):
            try:
                self.config.blockstore_storage(self.dfs, gen).delete()
            except OSError:
                pass
        self._records_since_snapshot = 0
        self._breaker_heal(pending, self.snapshot_storage.location, 0)
        event = SnapshotTaken(
            path=self.snapshot_storage.location, entries=len(snapshot), bytes=len(data)
        )
        pending.append(event)
        return event

    def close(self, *, snapshot: bool = False) -> None:
        """Detach from the manager, committing (and optionally
        snapshotting) first; idempotent."""
        if self._closed:
            return
        self._timer_stop.set()
        if self._timer is not None and self._timer.is_alive():
            self._timer.join(timeout=5.0)
        self._timer = None
        self._journal_counters_if_moved()
        # force past the breaker's probe gating: closing is the last
        # chance to land the backlog on storage
        self.flush(force=True)
        if snapshot:
            self.take_snapshot()
        self._closed = True
        for unsubscribe in self._unsubscribes:
            unsubscribe()
        self._unsubscribes = []
        if getattr(self.manager, "persistence", None) is self:
            self.manager.persistence = None

    def __repr__(self) -> str:
        state = "degraded" if self._breaker_open else "ok"
        return (
            f"RepositoryPersister(journal={self.journal.location!r}, "
            f"snapshot={self.snapshot_storage.location!r}, "
            f"pending={len(self._buffer) + len(self._backlog)}, "
            f"breaker={state})"
        )
