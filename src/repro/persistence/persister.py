"""Live durability: :class:`RepositoryPersister` stages every repository
mutation, **commits** the staged batch at the submission boundary and
rotates snapshots; :func:`repro.persistence.durability.recover` is the
other half.

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
  and the post-recovery scrub
  (:class:`~repro.persistence.durability._PayloadScrub`) refuses to
  serve an entry whose segment is missing, corrupt, or length-drifted:
  metadata may over-promise after a torn write, recovery never serves;
* *rotation* — a snapshot commits (staged batch, capture, write,
  journal reset) under the manager and repository locks, so no
  mutation falls between "folded into the snapshot" and "journaled for
  replay"; a crash between snapshot write and journal reset merely
  leaves folded records in the journal, replayed idempotently.
"""

from __future__ import annotations

import threading
import zlib
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.freshness import output_intact
from repro.events import (
    EventBus,
    JobEliminated,
    JournalAppended,
    PersistenceDegraded,
    PersistenceRecovered,
    RewriteApplied,
    SnapshotTaken,
)
from repro.faults import injector as faults
from repro.persistence.blockstore import BlockStore, BlockStoreError, SegmentRef
from repro.persistence.journal import Journal
from repro.persistence.snapshot import RepositorySnapshot, entry_record
from repro.persistence.storage import PersistenceConfig

if TYPE_CHECKING:
    from repro.persistence.durability import RecoveredState


class RepositoryPersister:
    """Stages live mutations, commits per submission, rotates snapshots.

    Wiring (all detachable via :meth:`close`):

    * repository mutation listeners — ``entry_added``/``entry_removed``
      records are built *under the repository lock* (correctness over
      cost: the entry cannot change or vanish mid-serialization); an
      entry's plan costs one encode, which every rotation reuses;
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

    def owns(self, path: str) -> bool:
        """Whether *path* is one of this persister's DFS files: the
        snapshot, the journal, or the block store's base and its
        ``.g<N>`` generations.  A local backend owns no DFS path."""
        config = self.config
        if config.backend != "dfs":
            return False
        base = config.blockstore_base
        return (
            path in (config.snapshot_path, config.journal_path, base)
            or path.startswith(base + ".")
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
        """Called by the manager when an entry is quarantined for
        corruption (after its removal, outside the manager lock);
        replayed as an idempotent remove."""
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
        repository locks held through the whole rotation; the capture
        reuses each plan's encoded bytes, so that hold grows with the
        index rows, not with re-encoding every plan).

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
        # an output changed behind its entry's back carries no payload:
        # recovery cannot verify it, so never serves it
        live = {
            entry.output_path
            for entry in self.repository.entries()
            if output_intact(entry, self.dfs)
        }
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
