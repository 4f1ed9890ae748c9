"""Live durability: :class:`RepositoryPersister` stages every repository
mutation, **commits** the staged batch at the submission boundary and
rotates snapshots; :func:`repro.persistence.durability.recover` is the
other half.

The contract (``tests/test_group_commit.py`` asserts it): **a crash
loses at most the submissions in flight; nothing acknowledged is lost,
nothing unprovable is served.**  The argument, in one place:

* *staged* — while a submission is open (``on_workflow_start`` to
  ``on_workflow_end``, which the runner calls in a ``finally``) a
  mutation only joins an in-memory batch: its record, behind the
  output's bytes as read at that moment.  Outside any submission it
  commits at once (``PersistenceConfig.flush_every``);
* *the commit* — one write to the log (:mod:`repro.persistence.framedlog`)
  and one fsync: every staged payload as a segment, then one frame of
  every record, a record's segments preceding it in the same write.  A
  payload stages together with the record that needs it, so no commit
  holds one without the other.  A failed write is a failed commit —
  the batch stays staged, the breaker opens, a later probe lands it
  whole;
* *commit points* — ``note_workflow_end`` (the acknowledgement: no
  submission returns before it) and ``close()``, both through
  ``RepositoryPersister.flush``.  Inside
  a submission nothing commits early: records land in staging order,
  so a condemned entry's removal precedes a re-registration over its
  path, and a refresh's extents travel with the merged output's bytes;
* *a torn commit is harmless* — a crash mid-write tears only the log's
  tail, which recovery cuts; what survives is a prefix of the write, so
  a commit's records survive whole or not at all and only behind their
  segments, and the replayed records are a prefix of the mutation order
  in whole commits, whose replay is idempotent (a same-id re-add
  replaces and re-integrates to the identical order, a remove of a
  missing entry is a no-op, usage stats and counter floors merge by
  max).  Segments whose records never landed are dead bytes, and the
  post-recovery scrub
  (:class:`~repro.persistence.durability._PayloadScrub`) refuses to
  serve an entry whose segment is missing, corrupt or length-drifted;
* *rotation* — a snapshot (staged batch committed, capture, write)
  happens under the manager and repository locks and records the log
  offset its state covers; replay starts there, so the log is never
  reset, and a crash on either side of the snapshot's atomic rename
  replays from the old or the new offset.
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
from repro.persistence.framedlog import FramedLog, LogError, SegmentRef
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
    :class:`JournalAppended`/:class:`SnapshotTaken`, so durability
    tooling never touches the manager bus.
    """

    #: circuit breaker: while open, only every N-th flush attempt
    #: probes storage (the rest stay staged instead of eating an error)
    PROBE_EVERY = 3
    #: a rotation compacts once the generation's dead bytes exceed this
    #: multiple of its live payloads plus twice the snapshot (space <=
    #: 2x live + 2x snapshot + one interval)
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
        #: *recovered* resumes the log generation and ref table; without
        #: it the persister appends to the generation recovery reads —
        #: the one the snapshot names — behind a cut torn tail
        gen = recovered.log_gen if recovered is not None else self._snapshot_gen()
        self.log = FramedLog(config.log_storage(self.dfs, gen), gen)
        if recovered is None and self.log.end:
            self.log.repair()
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
                except (LogError, TypeError, ValueError):
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

    def _snapshot_gen(self) -> int:
        storage = self.snapshot_storage
        if not storage.exists():
            return 0
        snapshot = RepositorySnapshot.from_bytes(storage.read())
        return int(snapshot.payload_state.get("gen", 0))

    def owns(self, path: str) -> bool:
        """Whether *path* is one of this persister's DFS files: the
        snapshot, or the log's base path and its ``.g<N>`` generations.
        A local backend owns no DFS path."""
        config = self.config
        if config.backend != "dfs":
            return False
        base = config.journal_path
        return path in (config.snapshot_path, base) or path.startswith(base + ".")

    # -- record sources -----------------------------------------------------------

    def _on_mutation(self, kind: str, entry) -> None:
        if kind == "removed":
            self._enqueue({"type": "entry_removed", "entry_id": entry.entry_id})
        elif kind in ("added", "refreshed"):
            # a refresh carries the full post-refresh entry state:
            # replay re-adds it over the original entry_added record;
            # added and refreshed outputs hold new bytes, which stage
            # with the entry's record, into the same commit
            payload = {"type": f"entry_{kind}", "entry": entry_record(entry)}
            self._enqueue(*self._capture(entry.output_path), payload)

    def _capture(self, path: str) -> List[dict]:
        """*path*'s DFS bytes, read now, as a ``payload_stored`` record
        (none or one) for the caller to stage beside the record that
        needs them; the bytes ride in it as ``data`` until the commit
        that writes them swaps in the segment ref.  A path with no file
        captures nothing (its entry is logged without a ref and the
        recovery scrub refuses to serve it); a file whose inode extent,
        or whose bytes' crc32, equals the last capture's — durable or
        staged — is not captured again.
        """
        # extent first: a stale one only costs the next capture a re-read
        extent = self.dfs.input_extent(path)
        known_crc, known_extent = self._captured.get(path, (None, None))
        if self._closed or extent is None or extent == known_extent:
            return []
        data = self.dfs.read_file(path)
        crc = zlib.crc32(data)
        self._captured[path] = (crc, extent)
        if crc == known_crc:
            return []
        return [{"type": "payload_stored", "path": path, "ref": None, "data": data}]

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
        self._enqueue(
            *(self._capture(path) if added else ()),
            {"type": "kept_path_added" if added else "kept_path_removed", "path": path},
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

    def _enqueue(self, *records: dict, commit: bool = True) -> None:
        """Append *records* to the staged batch, together (a commit
        takes all of them or none); outside any submission, commit once
        ``flush_every`` records wait."""
        if self._closed:
            return
        with self._buffer_lock:
            self._buffer.extend(records)
            limit = max(1, self.config.flush_every)
            due = commit and not self._open_submissions and len(self._buffer) >= limit
        if due:
            self.flush()

    def flush(self, *, force: bool = False) -> int:
        """Commit the staged batch — its payload segments, then every
        record, in one log write; returns the number of records durably
        written.

        A storage failure opens the circuit breaker instead of
        propagating: the batch stays in ``_backlog``, a
        :class:`PersistenceDegraded` says so, and only every
        ``PROBE_EVERY``-th attempt probes storage (*force* skips the
        gating: close) until one lands the backlog whole
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
                self._breaker_trip(pending, self.log.location, exc)
        for event in pending:  # emitted outside the io lock
            self.events.emit(event)
        return written

    def _commit(self, pending: List) -> int:
        """Land everything staged (io lock held) in one log write; on
        ``OSError`` the batch stays in the backlog, unchanged."""
        with self._buffer_lock:
            self._backlog.extend(self._buffer)
            self._buffer = []
        if not self._backlog:
            return 0
        refs, nbytes = self.log.append_commit(self._backlog)
        self._payload_refs.update(refs)
        records = len(self._backlog)
        self._backlog = []
        self._records_since_snapshot += records
        self._breaker_heal(pending, self.log.location, records)
        pending.append(
            JournalAppended(path=self.log.location, records=records, bytes=nbytes)
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
        """Records staged in memory but not yet durably logged."""
        with self._buffer_lock:
            return len(self._buffer) + len(self._backlog)

    def take_snapshot(self) -> Optional[SnapshotTaken]:
        """Commit what is staged, then capture + write a snapshot,
        atomically with respect to mutations (manager and repository
        locks held through the whole rotation; the capture reuses each
        plan's encoded bytes, so that hold grows with the index rows,
        not with re-encoding every plan).

        Payloads rotate *by reference*: the snapshot's ``payloads``
        table carries the live subset of the ref table as it stands,
        and the log offset replay resumes from, so a rotation costs in
        proportion to churn, not repository size, and never touches the
        log.  A ref is carried only while its file's inode extent is
        the one captured (O(live) metadata checks); a file that moved
        on, or a ref resumed from recovery, is re-read — same crc, same
        ref; new bytes, a new segment in the rotation's one commit.
        Only once the log's dead bytes (superseded segments, records
        before the offset) outweigh ``COMPACT_DEAD_PER_LIVE`` times the
        live payloads plus twice the snapshot does it *compact*: every
        live payload goes into generation ``gen+1`` in one write, and
        older files go only after the snapshot naming it is durable.  A
        storage failure aborts the rotation without adopting a
        half-written generation (debris the next compaction truncates),
        trips the breaker, and returns ``None``.
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
            self._enqueue(*self._capture(path), commit=False)
        self._commit(pending)
        # a live path whose file is gone has nothing durable to carry
        refs = {
            path: self._payload_refs[path]
            for path in live
            if path in self._payload_refs and self.dfs.exists(path)
        }
        log = self.log
        snapshot = RepositorySnapshot.capture(
            self.repository,
            kept_paths=self.manager.kept_paths,
            clock=self.manager.clock,
            dfs_ids=self.dfs.id_state(),
            payloads=_payload_table(log, refs),
        )
        data = snapshot.to_bytes()
        live_bytes = sum(ref.length for ref in refs.values())
        # records before the offset are dead but mostly restate the
        # snapshot in keyed JSON (~1.2x its size): they weigh against twice it
        weight = self.COMPACT_DEAD_PER_LIVE * (live_bytes + 2 * len(data))
        if log.end - live_bytes > weight:
            gen, read = log.gen + 1, self.dfs.read_file
            log = FramedLog(self.config.log_storage(self.dfs, gen), gen)
            log.reset()  # debris from an earlier aborted compaction
            copies, _ = log.append_commit(
                [{"path": path, "data": read(path)} for path in refs],
                segments_only=True,
            )
            refs = dict(copies)
            log.close()  # reopened by the first append once adopted
            snapshot.payload["payloads"] = _payload_table(log, refs)
            data = snapshot.to_bytes()
        # injection site "snapshot.write": rotation I/O
        faults.fire("snapshot.write")
        self.snapshot_storage.write(data)
        # the snapshot is durable: its generation and ref table are the
        # live ones from here
        if log is not self.log:
            self.log.close()
            self.log = log
            # every surviving ref names ``log.gen``: older generations
            # (compacted away, or stragglers of aborted rotations) can go
            for gen in range(max(0, log.gen - 2), log.gen):
                try:
                    self.config.log_storage(self.dfs, gen).delete()
                except OSError:
                    pass
        self._payload_refs = refs
        self._captured = {path: self._captured[path] for path in refs}
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
        self.log.close()
        for unsubscribe in self._unsubscribes:
            unsubscribe()
        self._unsubscribes = []
        if getattr(self.manager, "persistence", None) is self:
            self.manager.persistence = None

    def __repr__(self) -> str:
        state = "degraded" if self._breaker_open else "ok"
        return (
            f"RepositoryPersister(log={self.log.location!r}, "
            f"snapshot={self.snapshot_storage.location!r}, "
            f"pending={len(self._buffer) + len(self._backlog)}, "
            f"breaker={state})"
        )


def _payload_table(log: FramedLog, refs: Dict[str, SegmentRef]) -> dict:
    """A snapshot's ``payloads``: generation, live refs, replay offset."""
    refs = {path: ref.to_list() for path, ref in refs.items()}
    return {"gen": log.gen, "refs": refs, "offset": log.tail()}
