"""The warm in-memory standby replica.

A :class:`StandbyReplica` keeps a second, independent repository (plus
kept-path set and counters) continuously caught up with the primary by
tailing the primary persister's log:

* on :class:`~repro.events.JournalAppended` it scans the log from its
  tracked byte offset up to the last committed byte, applies every
  newly intact record and steps over payload segments;
* on :class:`~repro.events.SnapshotTaken` it rebases — reloads the
  fresh snapshot and resumes tailing at the log generation and offset
  that snapshot names.

Both arrive on the **persister's own bus**, never the manager bus, so
the replica adds zero coupling to the live reuse pipeline; it touches
only its own repository, so no lock ordering with the primary exists
to get wrong.

:meth:`promote` turns the replica into the authoritative state: it
flushes the primary's buffer, catches up through the final record,
and returns a :class:`~repro.persistence.durability.RecoveredState` —
by construction containing every mutation the primary ever logged,
i.e. **zero lost reuse opportunities**.
"""

from __future__ import annotations

import threading

from repro.core.repository import Repository
from repro.events import JournalAppended, SnapshotTaken
from repro.persistence.durability import RecoveredState, ReplayTarget
from repro.persistence.framedlog import scan_frames


class StandbyReplica:
    """Tails a primary :class:`RepositoryPersister` into a warm replica."""

    def __init__(self, persister) -> None:
        self.persister = persister
        self._lock = threading.RLock()
        self._target = ReplayTarget.from_snapshot(None)
        #: the log generation tailed, and its bytes already applied
        #: (always a frame boundary)
        self._gen = self._offset = 0
        self.records_applied = 0
        self._unsubscribe = persister.events.subscribe(self._on_event)
        # events that fired before the subscription are covered here:
        # rebase reads whatever snapshot + log already exist
        self.rebase()

    # -- event tailing ------------------------------------------------------------

    def _on_event(self, event) -> None:
        if isinstance(event, SnapshotTaken):
            self.rebase()
        elif isinstance(event, JournalAppended):
            self.catch_up()

    def rebase(self) -> None:
        """Reload from the current snapshot, then tail the log from the
        generation and offset it names."""
        with self._lock:
            storage = self.persister.snapshot_storage
            self._target = ReplayTarget.from_snapshot(
                storage.read() if storage.exists() else b""
            )
            self._gen, self._offset = self._target.log_gen, self._target.log_offset
            self.catch_up()

    def catch_up(self) -> int:
        """Apply every intact record past the tracked offset, up to the
        primary's last committed byte; returns how many were applied."""
        with self._lock:
            log = self.persister.log
            if log.gen != self._gen:
                return 0  # a compaction's SnapshotTaken is on its way
            if log.end <= self._offset:
                return 0
            # only the committed bytes past the offset: never the whole log
            scan = scan_frames(log.storage.read_range(self._offset, log.end))
            applied = self._target.apply_all(scan.records)
            self._offset += scan.clean_bytes
            self.records_applied += applied
            return applied

    # -- promotion ----------------------------------------------------------------

    def promote(self) -> RecoveredState:
        """Make this replica the authoritative state.

        Drains the primary's buffer first, then catches up through the
        last logged record, so nothing the primary committed is
        missing: zero lost reuse opportunities.  The flush is forced
        past the circuit breaker's probe gating — promotion is the last
        chance to drain a backlog the breaker parked in memory.
        """
        self.persister.flush(force=True)
        with self._lock:
            if self.persister.log.gen != self._gen:
                self.rebase()
            self.catch_up()
            state = self._target.finish(journal_records=self.records_applied)
        # the log carries no output stamps; the primary, over the
        # same filesystem, holds them
        primary = self.persister.repository
        for entry in state.repository.entries():
            if primary.has_entry(entry.entry_id):
                entry.output_extent = primary.get(entry.entry_id).output_extent
        return state

    def close(self) -> None:
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None

    # -- views --------------------------------------------------------------------

    @property
    def repository(self) -> Repository:
        return self._target.repository

    @property
    def kept_paths(self):
        return set(self._target.kept_paths)

    def __len__(self) -> int:
        return len(self._target.repository)

    def __repr__(self) -> str:
        return (
            f"StandbyReplica(entries={len(self)}, "
            f"records_applied={self.records_applied})"
        )
