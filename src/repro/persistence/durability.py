"""Live durability wiring: the persister, replay, and crash recovery.

:class:`RepositoryPersister` attaches to a running
:class:`~repro.core.manager.ReStoreManager` and journals every
repository mutation as it commits (entry add/evict via the
repository's mutation listeners, reuse statistics via the manager
bus, kept-path commits via manager hooks), rotating snapshots at a
configurable interval.  :func:`recover` is the other half: load the
snapshot, replay the clean journal prefix, truncate any torn tail,
and push the restored id floors back into the DFS so nothing ever
collides with persisted state.

Crash-safety argument, in one place:

* the journal is written *before* the crash window matters — default
  ``flush_every=1`` is write-through, so a mutation is durable the
  moment the repository lock that committed it is released;
* a snapshot commits (capture + write + journal reset) while holding
  the manager and repository locks, so no mutation can fall between
  "folded into the snapshot" and "journaled for replay";
* a crash *between* snapshot write and journal reset merely leaves
  already-folded records in the journal — replay is idempotent (a
  same-id re-add replaces and re-integrates to the identical order,
  a remove of a missing entry is a no-op, usage stats and counter
  floors merge by max), so applying them twice equals applying them
  once;
* entry payloads are appended to the block store *before* the
  ``entry_added`` record is journaled, and the post-recovery scrub
  (:class:`_PayloadScrub`) refuses to serve any entry whose payload
  segment is missing, corrupt, or length-drifted — the metadata may
  over-promise after a torn write, but recovery can never over-serve.
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
from repro.persistence.storage import DFSStorage, LocalStorage


@dataclass
class PersistenceConfig:
    """Where and how repository state is persisted.

    The default backend is the simulated DFS (repository metadata is
    just another replicated file on the cluster it indexes, as in the
    paper's deployment); ``backend="local"`` writes real files so the
    CLI can carry state across process invocations.
    """

    snapshot_path: str = "restore/repository.snapshot"
    journal_path: str = "restore/repository.journal"
    #: "dfs" or "local"
    backend: str = "dfs"
    #: journal records between automatic snapshot rotations
    #: (0 = snapshot only when explicitly requested)
    snapshot_interval: int = 0
    #: seconds between timer-driven rotations under a live service
    #: (0 = no timer; rotation still happens at workflow boundaries
    #: via ``snapshot_interval``); a timer rotation that fails aborts
    #: without touching the journal, like any other rotation
    snapshot_interval_s: float = 0.0
    #: buffered records per journal write; 1 (default) is write-through
    flush_every: int = 1

    @property
    def blockstore_base(self) -> str:
        """Base path of the payload block store (generation files
        append ``.g<N>``)."""
        return self.snapshot_path + ".blocks"

    def blockstore_file(self, gen: int) -> str:
        return f"{self.blockstore_base}.g{gen}"

    def _storage(self, path: str, dfs):
        if self.backend == "local":
            return LocalStorage(path)
        if self.backend != "dfs":
            raise ValueError(f"unknown persistence backend: {self.backend!r}")
        if dfs is None:
            raise ValueError("the 'dfs' persistence backend needs a filesystem")
        return DFSStorage(dfs, path)

    def snapshot_storage(self, dfs=None):
        return self._storage(self.snapshot_path, dfs)

    def journal_storage(self, dfs=None):
        return self._storage(self.journal_path, dfs)

    def blockstore_storage(self, dfs=None, gen: int = 0):
        return self._storage(self.blockstore_file(gen), dfs)


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
                try:
                    store.repair(scan)
                except OSError:
                    pass  # repair is advisory; the scan already excludes the tear
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
        self._journal_condemnations()

    def _restore(self, path: str, payload: Optional[bytes]) -> None:
        if payload is None or self.dfs is None or self.dfs.exists(path):
            return
        self.dfs.write_file(path, payload)
        self.restored += 1

    def _journal_condemnations(self) -> None:
        """Make the scrub's verdicts durable: an ``entry_quarantined``
        replays as an idempotent remove, so the next recovery reaches
        the same state without re-deriving it — and a degraded journal
        merely defers that (the scrub re-derives identically)."""
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
        if not records:
            return
        try:
            self.journal.append_payloads(records)
        except OSError:
            pass


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
    state = target.finish(
        journal_records=replayed,
        journal_torn_bytes=scan.torn_bytes,
        journal_skipped=scan.skipped,
        payloads_restored=scrub.restored,
        payloads_condemned=scrub.condemned,
        kept_paths_condemned=scrub.kept_condemned,
        payloads_legacy=scrub.legacy,
    )
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
    quarantine.
    """
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
    """Journals live mutations and rotates snapshots for one manager.

    Wiring (all detachable via :meth:`close`):

    * repository mutation listeners — ``entry_added``/``entry_removed``
      records are built *under the repository lock* (correctness over
      cost: the entry cannot change or vanish mid-serialization) and
      buffered; with the default write-through config the buffer
      drains to storage before the mutating call returns;
    * the manager bus — ``RewriteApplied``/``JobEliminated`` update an
      entry's reuse statistics, journaled as ``entry_used`` records
      (max-merged on replay);
    * manager hooks — kept-path commits journal inline, and workflow
      boundaries flush + write a ``counters`` record when the DFS id
      state or clock moved + rotate the snapshot when the configured
      interval has elapsed.

    Lock order: manager → repository → buffer → io → dfs.  The
    persister's own :class:`EventBus` (``events``) carries
    :class:`JournalAppended`/:class:`SnapshotTaken` so standby
    replicas never touch the manager bus.
    """

    #: circuit breaker: while storage writes are failing, only every
    #: N-th flush attempt probes storage again (the rest buffer in
    #: memory instantly instead of eating an I/O error each)
    PROBE_EVERY = 3

    def __init__(
        self,
        manager,
        config: PersistenceConfig,
        *,
        dfs=None,
        recovered: Optional[RecoveredState] = None,
    ) -> None:
        self.manager = manager
        self.repository = manager.repository
        self.config = config
        self.dfs = dfs if dfs is not None else manager.dfs
        #: persister-scoped bus: JournalAppended / SnapshotTaken
        self.events = EventBus()
        self.snapshot_storage = config.snapshot_storage(self.dfs)
        self.journal = Journal(config.journal_storage(self.dfs))
        #: payload block store; *recovered* (from :func:`recover` or a
        #: standby promotion) resumes the generation and the ref table
        #: so unchanged payloads are not re-appended
        gen = recovered.blockstore_gen if recovered is not None else 0
        self.blockstore = BlockStore(
            config.blockstore_storage(self.dfs, gen), gen
        )
        self._payload_refs: Dict[str, SegmentRef] = {}
        if recovered is not None:
            for path, raw in recovered.payload_refs.items():
                try:
                    self._payload_refs[path] = SegmentRef.from_list(raw)
                except (BlockStoreError, TypeError, ValueError):
                    continue
        self._buffer: List[dict] = []
        self._buffer_lock = threading.Lock()
        #: serializes journal writes so flushed batches stay in order
        self._io_lock = threading.Lock()
        #: records drained from the buffer but not yet durably written
        #: (non-empty only while the circuit breaker is open)
        self._backlog: List[dict] = []
        #: circuit breaker over journal/snapshot writes: open = storage
        #: is failing, records accumulate in ``_backlog`` and only
        #: every ``PROBE_EVERY``-th flush attempt touches storage
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
        if kind == "added":
            self._capture_payload(entry.output_path)
            payload = {"type": "entry_added", "entry": entry_record(entry)}
        elif kind == "refreshed":
            # the full post-refresh entry state (extents, stats):
            # replay re-adds it over the original entry_added record;
            # re-capture first — refreshed outputs may hold new bytes
            self._capture_payload(entry.output_path)
            payload = {"type": "entry_refreshed", "entry": entry_record(entry)}
        elif kind == "removed":
            payload = {"type": "entry_removed", "entry_id": entry.entry_id}
        else:
            return
        self._enqueue(payload)

    def _capture_payload(self, path: str) -> None:
        """Persist *path*'s DFS bytes into the block store and journal
        the segment ref, best-effort.

        A failure here (storage error, file not yet written) leaves
        the entry's metadata journaled without a usable ref — the
        recovery scrub then refuses to serve it instead of serving
        stale or missing bytes, so skipping is always safe.  Unchanged
        bytes (same crc32 as the recorded ref) are not re-appended.
        """
        if self._closed or self.dfs is None:
            return
        try:
            if not self.dfs.exists(path):
                return
            data = self.dfs.read_file(path)
        except OSError:
            return
        existing = self._payload_refs.get(path)
        if existing is not None and existing.crc == zlib.crc32(data):
            return
        try:
            ref = self.blockstore.append(path, data)
        except OSError:
            return
        self._payload_refs[path] = ref
        self._enqueue(
            {"type": "payload_stored", "path": path, "ref": ref.to_list()}
        )

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
            self._capture_payload(path)
        self._enqueue(
            {
                "type": "kept_path_added" if added else "kept_path_removed",
                "path": path,
            }
        )

    def note_workflow_end(self) -> None:
        """Workflow boundary: persist moved counters, drain the buffer,
        rotate the snapshot if the interval has elapsed."""
        self._journal_counters_if_moved()
        self.flush()
        self.maybe_snapshot()

    def _journal_counters_if_moved(self) -> None:
        counters = dict(self.dfs.id_state())
        counters["clock"] = self.manager.clock
        if counters != self._last_counters:
            self._last_counters = counters
            self._enqueue({"type": "counters", **counters})

    # -- writing ------------------------------------------------------------------

    def _enqueue(self, payload: dict) -> None:
        if self._closed:
            return
        with self._buffer_lock:
            self._buffer.append(payload)
            due = len(self._buffer) >= max(1, self.config.flush_every)
        if due:
            self.flush()

    def flush(self, *, force: bool = False) -> int:
        """Write pending records to the journal; returns the number of
        records durably written.

        Storage failures open the circuit breaker instead of
        propagating: the records stay staged in ``_backlog`` (nothing
        is lost from the in-memory view), a
        :class:`PersistenceDegraded` event announces the degraded mode,
        and while open only every ``PROBE_EVERY``-th flush attempt
        probes storage again (*force* bypasses the gating — used on
        close).  The first successful probe drains the whole backlog in
        order and emits :class:`PersistenceRecovered`.
        """
        pending: List = []
        written = 0
        with self._io_lock:
            with self._buffer_lock:
                if self._buffer:
                    self._backlog.extend(self._buffer)
                    self._buffer = []
            if not self._backlog:
                return 0
            if self._breaker_open and not force:
                self._probe_countdown -= 1
                if self._probe_countdown > 0:
                    return 0  # buffered in memory; not yet time to probe
                self._probe_countdown = self.PROBE_EVERY
            batch = list(self._backlog)
            try:
                nbytes = self.journal.append_payloads(batch)
            except OSError as exc:
                self._breaker_trip(pending, self.journal.location, exc, len(batch))
            else:
                self._backlog.clear()
                self._records_since_snapshot += len(batch)
                written = len(batch)
                self._breaker_heal(pending, self.journal.location, len(batch))
                pending.append(
                    JournalAppended(
                        path=self.journal.location,
                        records=len(batch),
                        bytes=nbytes,
                    )
                )
        for event in pending:  # emitted outside the io lock
            self.events.emit(event)
        return written

    def _breaker_trip(self, pending, location, exc, buffered) -> None:
        """A storage write failed (io lock held): count it and, on the
        closed → open edge, stage :class:`PersistenceDegraded`."""
        self._breaker_failures += 1
        if not self._breaker_open:
            self._breaker_open = True
            self.breaker_trips += 1
            self._probe_countdown = self.PROBE_EVERY
            pending.append(
                PersistenceDegraded(path=location, error=str(exc), buffered=buffered)
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

    def maybe_snapshot(self) -> bool:
        interval = self.config.snapshot_interval
        if interval > 0 and self._records_since_snapshot >= interval:
            self.take_snapshot()
            return True
        return False

    def take_snapshot(self) -> Optional[SnapshotTaken]:
        """Capture + write a snapshot and reset the journal, atomically
        with respect to mutations (manager and repository locks held
        through the whole rotation).

        The rotation also *compacts the block store*: every live
        payload (entry outputs + kept paths still holding DFS bytes)
        is re-appended into generation ``gen+1``, the snapshot records
        the fresh ref table, and superseded generation files are
        deleted only after the journal reset committed — so at every
        crash point all referenced segments are still on disk.

        A crash after the snapshot write but before the reset leaves
        already-folded records in the journal; replay is idempotent,
        so the next recovery converges to the same state.

        A storage failure (including a partial write torn into the
        new generation) aborts the rotation *without* touching the
        journal, the staged records, or the live ref table (nothing
        folded, nothing lost), trips the circuit breaker, and returns
        ``None``; the half-written generation file is debris the next
        rotation truncates.
        """
        pending: List = []
        event: Optional[SnapshotTaken] = None
        with self.manager.locked():
            with self.repository.locked():
                live = {
                    entry.output_path for entry in self.repository.entries()
                }
                live.update(self.manager.kept_paths)
                new_gen = self.blockstore.gen + 1
                new_store = BlockStore(
                    self.config.blockstore_storage(self.dfs, new_gen), new_gen
                )
                new_refs: Dict[str, SegmentRef] = {}
                with self._io_lock:
                    try:
                        if new_store.storage.exists():
                            # debris from an earlier aborted rotation
                            new_store.reset()
                        for path in sorted(live):
                            if self.dfs is None or not self.dfs.exists(path):
                                continue  # nothing durable to carry over
                            new_refs[path] = new_store.append(
                                path, self.dfs.read_file(path)
                            )
                        snapshot = RepositorySnapshot.capture(
                            self.repository,
                            kept_paths=self.manager.kept_paths,
                            clock=self.manager.clock,
                            dfs_ids=self.dfs.id_state(),
                            payloads={
                                "gen": new_gen,
                                "refs": {
                                    path: ref.to_list()
                                    for path, ref in new_refs.items()
                                },
                            },
                        )
                        data = snapshot.to_bytes()
                        # injection site "snapshot.write": rotation I/O
                        faults.fire("snapshot.write")
                        self.snapshot_storage.write(data)
                        self.journal.reset()
                    except OSError as exc:
                        self._breaker_trip(
                            pending,
                            self.snapshot_storage.location,
                            exc,
                            self.buffered_records,
                        )
                    else:
                        old_gen = self.blockstore.gen
                        self.blockstore = new_store
                        self._payload_refs = new_refs
                        # superseded generations: safe to drop only now
                        # (snapshot + journal reset are durable, so no
                        # surviving ref can point into them); deletion
                        # is best-effort and also sweeps stragglers
                        # from older aborted rotations
                        for gen in range(max(0, old_gen - 2), new_gen):
                            try:
                                self.config.blockstore_storage(
                                    self.dfs, gen
                                ).delete()
                            except OSError:
                                pass
                        with self._buffer_lock:
                            # staged records were captured in the snapshot
                            self._buffer.clear()
                        self._backlog.clear()
                        self._records_since_snapshot = 0
                        self._breaker_heal(pending, self.snapshot_storage.location, 0)
                        event = SnapshotTaken(
                            path=self.snapshot_storage.location,
                            entries=len(snapshot),
                            bytes=len(data),
                        )
                        pending.append(event)
        for item in pending:  # emitted outside every lock
            self.events.emit(item)
        return event

    def close(self, *, snapshot: bool = False) -> None:
        """Detach from the manager, flushing (and optionally
        snapshotting) first; idempotent."""
        if self._closed:
            return
        self._timer_stop.set()
        if self._timer is not None and self._timer.is_alive():
            self._timer.join(timeout=5.0)
        self._timer = None
        self._journal_counters_if_moved()
        # force past the breaker's probe gating: closing is the last
        # chance to drain the backlog to storage
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
