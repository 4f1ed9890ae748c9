"""Crash recovery, under the contract :mod:`repro.persistence.persister`
states: :func:`recover` loads the snapshot, scans the one log once,
replays its clean records from the snapshot's offset
(:class:`ReplayTarget`), cuts a torn tail, scrubs every payload
against the same scan (:class:`_PayloadScrub`), sweeps unclaimed
sub-job files and restores the DFS id floors; :func:`adopt_recovered`
makes the result a live manager's state under a fresh
:class:`RepositoryPersister`.  A state directory in the retired
two-file layout is refused with a :class:`LogError` naming the file,
before anything is read or cut.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.core.enumerator import SUBJOB_DIR
from repro.core.repository import Repository
from repro.dfs.namenode import InputExtent
from repro.events import EntryQuarantined, PersistenceDegraded
from repro.faults import injector as faults
from repro.persistence.framedlog import (
    FramedLog,
    FrameScan,
    JournalRecord,
    LogError,
    SegmentRef,
    verify_ref,
)
from repro.persistence.persister import RepositoryPersister
from repro.persistence.snapshot import (
    RepositorySnapshot,
    SnapshotError,
    entry_from_record,
)
from repro.persistence.storage import PersistenceConfig


@dataclass
class RecoveredState:
    """Everything :func:`recover` hands back."""

    repository: Repository
    kept_paths: Set[str] = field(default_factory=set)
    clock: int = 0
    #: DFS id floors ({"next_script_id": ..., "next_subjob_id": ...})
    id_floors: Dict[str, int] = field(default_factory=dict)
    #: entries that came from the snapshot itself
    snapshot_entries: int = 0
    #: clean log records replayed on top
    journal_records: int = 0
    #: bytes of torn log tail truncated (0 = clean shutdown)
    journal_torn_bytes: int = 0
    #: mid-log frames quarantined for failing their checksum
    journal_skipped: int = 0
    #: path → raw segment ref ([gen, offset, length, crc]) for every
    #: payload the scrub verified (the persister resumes dedup from
    #: these)
    payload_refs: Dict[str, list] = field(default_factory=dict)
    #: log generation new appends continue into
    log_gen: int = 0
    #: payloads written back into the DFS from the log
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
    #: entries tolerated without a payload ref (output bytes still
    #: present, or no DFS to check)
    payloads_legacy: int = 0
    #: unclaimed ``restore/subjob/`` files deleted (a crashed
    #: submission's side stores, condemned entries' outputs)
    subjobs_swept: int = 0


class ReplayTarget:
    """Mutable state a record replay folds records into.

    The replay pipeline of :func:`recover` — :meth:`from_snapshot`,
    :meth:`apply_all`, :meth:`finish`.  Replay is idempotent: every
    handler is a no-op or a max-merge when its effect is already
    present.
    """

    def __init__(self, repository: Repository) -> None:
        self.repository = repository
        self.kept_paths: Set[str] = set()
        self.clock = 0
        self.id_floors: Dict[str, int] = {"next_script_id": 1, "next_subjob_id": 1}
        #: path → raw segment ref; seeded from the snapshot's payload
        #: table, extended by ``payload_stored`` records
        self.payload_refs: Dict[str, list] = {}
        #: the log generation and offset record replay starts from
        self.log_gen = self.log_offset = 0
        #: entries that came from the snapshot itself
        self.snapshot_entries = 0

    @classmethod
    def from_snapshot(cls, snapshot: Optional[RepositorySnapshot]) -> "ReplayTarget":
        """The replay's starting state: *snapshot* restored, or an empty
        repository for ``None`` (no snapshot yet)."""
        if snapshot is None:
            return cls(Repository())
        target = cls(snapshot.restore_repository())
        manager_state = snapshot.manager_state
        target.kept_paths.update(manager_state.get("kept_paths", ()))
        target.clock = int(manager_state.get("clock", 0))
        for key, value in snapshot.dfs_state.items():
            target.id_floors[key] = max(target.id_floors.get(key, 1), int(value))
        payloads = snapshot.payload_state
        for path, ref in payloads.get("refs", {}).items():
            target.payload_refs[path] = list(ref)
        target.log_gen = int(payloads.get("gen", 0))
        target.log_offset = int(payloads.get("offset", 0))
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
        elif record.type == "counters":
            for key in ("next_script_id", "next_subjob_id"):
                if key in data:
                    self.id_floors[key] = max(self.id_floors[key], int(data[key]))
            self.clock = max(self.clock, data.get("clock", 0))
        # unknown types: skipped (logs from newer writers)

    def apply_all(self, records) -> int:
        count = 0
        for record in records:
            self.apply(record)
            count += 1
        return count

    def finish(self, **counts) -> "RecoveredState":
        """The replayed state as a :class:`RecoveredState`: id floors
        merged with what the restored paths imply, the clock raised past
        every entry's timestamps, and the log generation new appends
        continue into.  *counts* fills the caller's bookkeeping fields
        (``journal_records``, scrub results, ...)."""
        for key, value in derive_id_floors(self.repository).items():
            self.id_floors[key] = max(self.id_floors.get(key, 1), value)
        for entry in self.repository.entries():
            self.clock = max(self.clock, entry.created_at, entry.last_used_at)
        return RecoveredState(
            repository=self.repository,
            kept_paths=set(self.kept_paths),
            clock=self.clock,
            id_floors=dict(self.id_floors),
            snapshot_entries=self.snapshot_entries,
            payload_refs={p: list(r) for p, r in self.payload_refs.items()},
            log_gen=self.log_gen,
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

    Every restored entry (and kept path) is checked against the log's
    scan before it can ever be served:

    * a recorded ref whose segment is missing, checksum-mismatched, or
      length-drifted **condemns** the entry — removed from the
      repository, logged as ``entry_quarantined`` so the decision
      replays idempotently, surfaced for the caller to emit
      :class:`~repro.events.EntryQuarantined`;
    * every restored input extent forgets its birth (a logical-clock
      tick of the process that recorded it);
    * an intact ref restores its bytes into the DFS when the file is
      absent, and stamps the entry's output extent once the file holds
      exactly those bytes — restored, or already present and equal.
      This write-back into an empty path is the contract: it is the
      warm start on a fresh filesystem, and over the old one it brings
      back a stored output the user deleted or renamed away.  A path
      two entries claim is stamped for neither (the ref holds one of
      their outputs, and which one is not recorded);
    * an entry with **no** ref is tolerated when its output bytes are
      already present — or when there is no DFS to check against — and
      condemned when a DFS is given and the bytes are gone, which is
      exactly the stale-output hazard the scrub exists to close.
    """

    def __init__(self, dfs, scan: FrameScan, gen: int):
        self.dfs = dfs
        self.scan = scan
        self.gen = gen
        self.restored = 0
        self.legacy = 0
        self.condemned: List[Tuple[str, str, str]] = []
        self.kept_condemned: List[str] = []

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
        except (LogError, TypeError, ValueError):
            return False, None, f"malformed payload segment ref {raw!r}"
        payload = verify_ref(self.scan, ref, path) if ref.gen == self.gen else None
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
        entries = list(target.repository.entries())
        claims = Counter(entry.output_path for entry in entries)
        for entry in entries:
            # births are process-local: a restored one names no live
            # inode, so an input's first probe goes by its checksum
            entry.input_extents = {
                path: replace(extent, birth=0)
                for path, extent in entry.input_extents.items()
            }
            ok, payload, reason = self._check(entry.output_path, refs)
            if not ok:
                self.condemned.append((entry.entry_id, entry.output_path, reason))
                continue
            extent = self._restore(entry.output_path, payload)
            if claims[entry.output_path] == 1:
                entry.output_extent = extent
        for path in sorted(target.kept_paths):
            ok, payload, _ = self._check(path, refs)
            if not ok:
                self.kept_condemned.append(path)
            elif path not in claims:
                self._restore(path, payload)
        for entry_id, path, _ in self.condemned:
            if target.repository.has_entry(entry_id):
                target.repository.remove(entry_id)
            refs.pop(path, None)
        for path in self.kept_condemned:
            target.kept_paths.discard(path)
            refs.pop(path, None)

    def _restore(
        self, path: str, payload: Optional[memoryview]
    ) -> Optional[InputExtent]:
        """Write verified *payload* back when *path* is absent; the
        file's extent once it holds exactly those bytes, else None."""
        if payload is None or self.dfs is None:
            return None
        if not self.dfs.exists(path):
            self.dfs.write_file(path, bytes(payload))
            self.restored += 1
        elif self.dfs.read_range(path, 0, len(payload) + 1) != payload:
            return None  # changed since it was stored (the extra byte: grown)
        return self.dfs.input_extent(path)

    def sweep(self, target: ReplayTarget) -> int:
        """Delete every sub-job file no recovered entry or kept path
        claims: a crashed submission's side stores, condemned outputs."""
        claimed = {e.output_path for e in target.repository.entries()}
        claimed |= target.kept_paths
        swept = [
            path
            for path in self.dfs.list_paths(SUBJOB_DIR + "/")
            if path not in claimed
        ]
        for path in swept:
            self.dfs.delete_if_exists(path)
        return len(swept)

    def log_condemnations(self, log: FramedLog) -> None:
        """Make the scrub's verdicts durable: an ``entry_quarantined``
        replays as an idempotent remove, so the next recovery reaches
        the same state without re-deriving it.  An ``OSError`` from a
        degraded log merely defers that; the caller records it."""
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
        log.append_commit(records)


def recover(config: PersistenceConfig, dfs=None) -> RecoveredState:
    """Rebuild repository + manager state from the snapshot and the log.

    Refuses a retired layout (:class:`LogError` naming the file), loads
    the snapshot (if any; a :class:`SnapshotError` names its file),
    scans the log generation it names once, replays every intact record
    from its offset, cuts a torn tail in place, scrubs every restored
    entry's payload against the same scan (see :class:`_PayloadScrub` —
    intact bytes are written back into *dfs*, condemned entries are
    removed and logged), sweeps unclaimed sub-job files, and
    derives/merges the id and clock floors.  When *dfs* is given the id
    floors are pushed into it immediately via :meth:`ensure_id_floor`.
    """
    retired = config.retired_files(dfs)
    if retired:
        raise LogError(
            f"{retired[0]}: a file of the retired journal + block-store "
            "layout, which this reader refuses (no converter)"
        )
    storage = config.snapshot_storage(dfs)
    data = storage.read() if storage.exists() else b""
    if data:
        # injection site "snapshot.read": corruption here must surface
        # as a SnapshotError, never as silent partial state
        data = faults.fire("snapshot.read", data=data)
    try:
        snapshot = RepositorySnapshot.from_bytes(data) if data else None
    except SnapshotError as exc:
        raise SnapshotError(f"{storage.location}: {exc}") from None
    target = ReplayTarget.from_snapshot(snapshot)
    log = FramedLog(config.log_storage(dfs, target.log_gen), target.log_gen)
    try:
        scan = log.scan(target.log_offset)
        replayed = target.apply_all(scan.records)
        # not advisory: the successor must not append behind a tear
        log.repair(scan)
        if log.tail() < target.log_offset:
            # the log lost bytes the snapshot covers: replay from its end
            snapshot.payload["payloads"]["offset"] = log.tail()
            storage.write(snapshot.to_bytes())
        scrub = _PayloadScrub(dfs, scan, target.log_gen)
        scrub.run(target)
        unjournaled = None
        try:
            scrub.log_condemnations(log)
        except OSError as exc:
            unjournaled = PersistenceDegraded(path=log.location, error=str(exc))
    finally:
        log.close()
    state = target.finish(
        condemnations_unjournaled=unjournaled,
        journal_records=replayed,
        journal_torn_bytes=scan.torn_bytes,
        journal_skipped=scan.skipped,
        payloads_restored=scrub.restored,
        payloads_condemned=scrub.condemned,
        kept_paths_condemned=scrub.kept_condemned,
        payloads_legacy=scrub.legacy,
        subjobs_swept=scrub.sweep(target) if dfs is not None else 0,
    )
    if dfs is not None:
        dfs.ensure_id_floor(**state.id_floors)
    return state


def announce_scrub_condemnations(manager, recovered: RecoveredState) -> None:
    """Surface the recovery scrub's verdicts on a live manager.

    The repository removals and ``entry_quarantined`` records
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
) -> RepositoryPersister:
    """Make *state* (from :func:`recover`) the live state of *manager*
    — already built over ``state.repository`` — and return its attached
    persister.

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
