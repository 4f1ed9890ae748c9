"""The warm in-memory standby replica.

A :class:`StandbyReplica` keeps a second, independent repository (plus
kept-path set and counters) continuously caught up with the primary by
tailing the primary persister's storage:

* on :class:`~repro.events.JournalAppended` it reads the journal from
  its tracked byte offset and applies every newly intact record;
* on :class:`~repro.events.SnapshotTaken` it rebases — reloads the
  fresh snapshot and restarts tailing from journal offset zero.

Both arrive on the **persister's own bus**, never the manager bus, so
the replica adds zero coupling to the live reuse pipeline; it touches
only its own repository, so no lock ordering with the primary exists
to get wrong.

:meth:`promote` turns the replica into the authoritative state: it
flushes the primary's buffer, catches up through the final record,
and returns a :class:`~repro.persistence.durability.RecoveredState` —
by construction containing every mutation the primary ever journaled,
i.e. **zero lost reuse opportunities**.
"""

from __future__ import annotations

import threading

from repro.core.repository import Repository
from repro.events import JournalAppended, SnapshotTaken
from repro.persistence.durability import RecoveredState, ReplayTarget
from repro.persistence.journal import decode_journal


class StandbyReplica:
    """Tails a primary :class:`RepositoryPersister` into a warm replica."""

    def __init__(self, persister) -> None:
        self.persister = persister
        self._lock = threading.RLock()
        self._target = ReplayTarget.from_snapshot(None)
        #: journal bytes already applied (always a record boundary)
        self._offset = 0
        self.records_applied = 0
        self._unsubscribe = persister.events.subscribe(self._on_event)
        # events that fired before the subscription are covered here:
        # rebase reads whatever snapshot + journal already exist
        self.rebase()

    # -- event tailing ------------------------------------------------------------

    def _on_event(self, event) -> None:
        if isinstance(event, SnapshotTaken):
            self.rebase()
        elif isinstance(event, JournalAppended):
            self.catch_up()

    def rebase(self) -> None:
        """Reload from the current snapshot, then replay the journal
        from the top (after a snapshot rotation the journal restarts
        at offset zero)."""
        with self._lock:
            storage = self.persister.snapshot_storage
            self._target = ReplayTarget.from_snapshot(
                storage.read() if storage.exists() else b""
            )
            self._offset = 0
            self.catch_up()

    def catch_up(self) -> int:
        """Apply every intact journal record past the tracked offset;
        returns how many were applied."""
        with self._lock:
            storage = self.persister.journal.storage
            data = storage.read() if storage.exists() else b""
            if len(data) < self._offset:
                # the journal shrank under us: a snapshot rotation we
                # have not processed yet (its event is in flight) —
                # restart from the beginning; offsets are record
                # boundaries either way
                self._offset = 0
            scan = decode_journal(data[self._offset :])
            applied = self._target.apply_all(scan.records)
            self._offset += scan.clean_bytes
            self.records_applied += applied
            return applied

    # -- promotion ----------------------------------------------------------------

    def promote(self) -> RecoveredState:
        """Make this replica the authoritative state.

        Drains the primary's buffer first, then catches up through the
        last journaled record, so nothing the primary committed is
        missing: zero lost reuse opportunities.  The flush is forced
        past the circuit breaker's probe gating — promotion is the last
        chance to drain a backlog the breaker parked in memory.
        """
        self.persister.flush(force=True)
        with self._lock:
            self.catch_up()
            return self._target.finish(journal_records=self.records_applied)

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
