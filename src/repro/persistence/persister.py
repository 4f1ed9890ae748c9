"""Live durability: :class:`RepositoryPersister` stages every repository
mutation, **commits** the staged batch at the submission boundary and
appends checkpoints; :func:`repro.persistence.durability.recover` is
the other half, and the only way a persister is built
(:func:`~repro.persistence.durability.adopt_recovered`).

The contract (``tests/test_group_commit.py`` asserts it): **a crash
loses at most the submissions in flight; nothing acknowledged is lost,
nothing unprovable is served.**  The argument, in one place:

* *staged* — while a submission is open (``on_workflow_start`` to
  ``on_workflow_end``, which the runner calls in a ``finally``) a
  mutation only joins an in-memory batch: its record, behind the
  output's bytes as read at that moment.  Outside any submission it
  commits at once (``PersistenceConfig.flush_every``);
* *the commit* — one write to the log (:mod:`repro.persistence.framedlog`)
  and one fsync: every staged payload, and every new entry's plan, as a
  segment, then one frame of every record, a record's segments
  preceding it in the same write.  A payload stages together with the
  record that needs it, so no commit holds one without the other.  A
  failed write is a failed commit — the batch stays staged, the breaker
  opens, a later probe lands it whole;
* *commit points* — ``note_workflow_end`` (the acknowledgement: no
  submission returns before it) and ``close()``, both through
  ``RepositoryPersister.flush``.  Inside
  a submission nothing commits early: records land in staging order,
  so a condemned entry's removal precedes a re-registration over its
  path, and a refresh's extents travel with the merged output's bytes;
* *a torn commit is harmless* — a crash mid-write tears only the log's
  tail, which recovery cuts: a commit's records survive whole or not at
  all and only behind their segments, and replaying a prefix of the
  mutation order in whole commits is idempotent (a same-id re-add
  replaces in place, a remove of a missing entry is a no-op, usage
  stats and counter floors merge by max).  The post-recovery scrub
  (:class:`~repro.persistence.durability._PayloadScrub`) refuses to
  serve an entry whose segment is missing, corrupt or length-drifted;
* *rotation* — a checkpoint (staged batch committed, capture, one
  append of one frame) happens under the manager and repository locks;
  recovery restores the last intact checkpoint and replays the records
  after it, so a torn checkpoint leaves the previous one plus every
  record after it.  A compaction's one append into generation ``gen+1``
  is preferred by recovery only once it is intact.
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
from repro.persistence.framedlog import (
    FramedLog,
    LogError,
    SegmentRef,
    encode_checkpoint,
)
from repro.persistence.snapshot import IndexState, entry_record
from repro.persistence.storage import PersistenceConfig

if TYPE_CHECKING:
    from repro.persistence.durability import RecoveredState


class RepositoryPersister:
    """Stages live mutations, commits per submission, appends checkpoints.

    Wiring (all detachable via :meth:`close`):

    * repository mutation listeners — ``entry_added``/``entry_removed``
      records are built *under the repository lock* (correctness over
      cost: the entry cannot change or vanish mid-serialization); an
      entry's plan costs one encode, into one segment that every later
      record, checkpoint and compaction refers to or copies;
    * the manager bus — ``RewriteApplied``/``JobEliminated`` update an
      entry's reuse statistics, staged as ``entry_used`` records;
    * manager hooks — kept-path commits stage inline; a workflow start
      opens a submission, and its end stages a ``counters`` record when
      the DFS id state or clock moved, commits (:meth:`flush`) and
      appends a checkpoint when the configured interval has elapsed.

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
    #: a rotation compacts once the generation's dead bytes, with its own
    #: checkpoint appended, would exceed this multiple of its live
    #: segments plus twice the checkpoint (space <= 2x live + 2x
    #: checkpoint + one interval)
    COMPACT_DEAD_PER_LIVE = 1.0

    def __init__(
        self, manager, config: PersistenceConfig, *, recovered: RecoveredState
    ) -> None:
        self.manager = manager
        self.repository = manager.repository
        self.config = config
        self.dfs = manager.dfs
        #: persister-scoped bus: JournalAppended / SnapshotTaken
        self.events = EventBus()
        #: appends continue into the generation recovery read
        gen = recovered.log_gen
        self.log = FramedLog(config.log_storage(self.dfs, gen), gen)
        #: path → durable payload segment ref, set by the commit that
        #: landed it
        self._payload_refs = _refs(recovered.payload_refs)
        #: entry id → durable ref of its plan's segment
        self._plan_refs = _refs(recovered.plan_refs)
        #: path → (payload crc32, inode extent) as last captured, staged
        #: or durable: a matching extent skips the read (and lets rotation
        #: carry the ref), a matching crc the write (``None``: resumed)
        self._captured: Dict[str, tuple] = {
            path: (ref.crc, None) for path, ref in self._payload_refs.items()
        }
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
        log's base path and its ``.g<N>`` generations, or the retired
        snapshot path, which recovery refuses a file at.  A local backend
        owns no DFS path."""
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
            self._enqueue(
                *self._capture(entry.output_path), self._entry_record(kind, entry)
            )

    def _entry_record(self, kind: str, entry) -> dict:
        """An ``entry_<kind>`` record.  Until a commit lands the entry's
        plan as a segment named by its fingerprint, the plan's bytes ride
        in it as ``data``; after that it carries the segment's ref."""
        plan = entry.plan.to_json()
        ref = self._plan_refs.get(entry.entry_id)
        record = {
            "type": f"entry_{kind}",
            "entry": entry_record(entry),
            "path": entry.plan.fingerprint(),
        }
        if ref is not None and ref.crc == zlib.crc32(plan):
            record["ref"] = ref.to_list()
        else:
            record["data"] = plan
        return record

    def _capture(self, path: str) -> List[dict]:
        """*path*'s DFS bytes, read now, as a ``payload_stored`` record
        (none or one) to stage beside the record that needs them; the
        bytes ride as ``data`` until the commit swaps in the segment
        ref.  A path with no file captures nothing (the scrub refuses to
        serve its entry); a file whose inode extent, or whose bytes'
        crc32, equals the last capture's is not captured again."""
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
        counters, commit everything staged, append a checkpoint if due."""
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
        """Commit the staged batch — its segments, then every record, in
        one log write; returns the number of records durably written.

        A storage failure opens the circuit breaker instead of
        propagating: the batch stays in ``_backlog``, a
        :class:`PersistenceDegraded` says so, and only every
        ``PROBE_EVERY``-th attempt probes storage (*force* skips the
        gating: close) until one lands the backlog whole and emits
        :class:`PersistenceRecovered`.
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
        carriers = [record for record in self._backlog if "data" in record]
        refs, nbytes = self.log.append_commit(self._backlog)
        for record, (path, ref) in zip(carriers, refs):
            if "entry" in record:
                self._plan_refs[record["entry"]["entry_id"]] = ref
            else:
                self._payload_refs[path] = ref
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
        """Commit what is staged, then append a checkpoint of the whole
        index, with the manager and repository locks held (no plan is
        encoded or parsed for it: the hold grows with the index rows).

        Payloads and plans rotate *by reference*: the checkpoint carries
        the live subset of the ref tables.  A payload ref is carried
        only while its file's inode extent is the one captured; a file
        that moved on, or a ref resumed from recovery, is re-read — same
        crc, same ref; new bytes, a new segment in the rotation's
        commit.  Once the dead bytes outweigh ``COMPACT_DEAD_PER_LIVE``
        it *compacts*: every live segment and the checkpoint go into
        generation ``gen+1`` in one append, and older files go only once
        that is durable, name included (a new file's first append fsyncs
        its directory).  A storage failure leaves generation and refs as
        they were (a failed compaction deletes what it wrote), trips the
        breaker, and returns ``None``.
        """
        pending: List = []
        event: Optional[SnapshotTaken] = None
        with self.manager.locked(), self.repository.locked(), self._io_lock:
            try:
                event = self._rotate(pending)
            except OSError as exc:
                self._breaker_trip(pending, self.log.location, exc)
        for item in pending:  # emitted outside every lock
            self.events.emit(item)
        return event

    def _rotate(self, pending: List) -> SnapshotTaken:
        """The rotation proper (every lock held)."""
        entries = self.repository.entries()
        # an output changed behind its entry's back carries no payload:
        # recovery cannot verify it, so never serves it
        live = {e.output_path for e in entries if output_intact(e, self.dfs)}
        live = sorted(live | self.manager.kept_paths)
        for path in live:  # reads only files that moved on since capture
            self._enqueue(*self._capture(path), commit=False)
        self._commit(pending)
        # a live path whose file is gone has nothing durable to carry
        payloads = {
            path: self._payload_refs[path]
            for path in live
            if path in self._payload_refs and self.dfs.exists(path)
        }
        plans = {entry.entry_id: self._plan_refs[entry.entry_id] for entry in entries}
        log = self.log
        checkpoint = self._checkpoint(payloads, plans)
        live_bytes = sum(ref.length for ref in {*payloads.values(), *plans.values()})
        weight = self.COMPACT_DEAD_PER_LIVE * (live_bytes + 2 * len(checkpoint))
        if log.end + len(checkpoint) - live_bytes <= weight:
            written = log.append_frames(checkpoint)
        else:
            gen, read = log.gen + 1, self.dfs.read_file
            storage = self.config.log_storage(self.dfs, gen)
            storage.delete()  # debris of an earlier aborted compaction
            log = FramedLog(storage, gen)
            copies = [{"path": path, "data": read(path)} for path in payloads]
            copies += [
                {"path": entry.plan.fingerprint(), "data": entry.plan.to_json()}
                for entry in entries
            ]
            frames, refs = log.encode_commit(copies, segments_only=True)
            refs = [ref for _, ref in refs]
            payloads = dict(zip(payloads, refs))
            plans = {e.entry_id: ref for e, ref in zip(entries, refs[len(payloads) :])}
            checkpoint = self._checkpoint(payloads, plans)
            try:
                written = log.append_frames(frames + checkpoint)
            except OSError:
                # never leave a checkpoint behind that recovery would
                # prefer to the generation this persister keeps using
                log.storage.delete()
                raise
            log.close()  # reopened by the first append
        # the checkpoint is durable: its generation and ref tables are
        # the live ones from here
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
        self._payload_refs, self._plan_refs = payloads, plans
        self._captured = {path: self._captured[path] for path in payloads}
        self._records_since_snapshot = 0
        self._breaker_heal(pending, log.location, 0)
        event = SnapshotTaken(path=log.location, entries=len(entries), bytes=written)
        pending.append(event)
        return event

    def _checkpoint(self, payloads, plans) -> bytes:
        """The checkpoint frame of the index as it stands (locks held)."""
        state = IndexState(
            self.repository,
            self.manager.kept_paths,
            self.manager.clock,
            self.dfs.id_state(),
            {path: ref.to_list() for path, ref in payloads.items()},
            {entry_id: ref.to_list() for entry_id, ref in plans.items()},
        )
        return encode_checkpoint(state.checkpoint())

    def close(self, *, snapshot: bool = False) -> None:
        """Detach from the manager, committing (and optionally
        appending a checkpoint) first; idempotent."""
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
            f"pending={len(self._buffer) + len(self._backlog)}, "
            f"breaker={state})"
        )


def _refs(raw_refs: Dict[str, list]) -> Dict[str, SegmentRef]:
    """A recovered raw ref table, decoded (a malformed ref is dropped)."""
    refs = {}
    for key, raw in raw_refs.items():
        try:
            refs[key] = SegmentRef.from_list(raw)
        except (LogError, TypeError, ValueError):
            pass
    return refs
