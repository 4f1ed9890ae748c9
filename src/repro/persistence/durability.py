"""Crash recovery, under the contract :mod:`repro.persistence.persister`
states: :func:`recover` opens the newest log generation that holds an
intact checkpoint, scans it once, restores the last checkpoint and
replays the clean records after it (:class:`ReplayTarget`), cuts a
torn tail, scrubs every payload and plan against the same scan
(:class:`_PayloadScrub`), sweeps unclaimed sub-job files and restores
the DFS id floors; :func:`adopt_recovered` makes the result a live
manager's state under a fresh :class:`RepositoryPersister`, the only
way one is built.  A state directory holding a file of a retired
layout (a snapshot file, a bare journal, block-store generations) is
refused with a :class:`LogError` naming the file, before anything is
read or cut.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.core.enumerator import SUBJOB_DIR
from repro.core.repository import Repository
from repro.dfs.namenode import InputExtent
from repro.events import EntryQuarantined, PersistenceDegraded
from repro.exceptions import RepositoryError
from repro.persistence.framedlog import (
    FramedLog,
    FrameScan,
    JournalRecord,
    LogError,
    SegmentRef,
    verify_ref,
)
from repro.persistence.persister import RepositoryPersister
from repro.persistence.snapshot import IndexState, SnapshotError, entry_from_record
from repro.persistence.storage import PersistenceConfig


@dataclass
class RecoveredState(IndexState):
    """Everything :func:`recover` hands back: the recovered index (its
    refs are those the scrub verified) and the recovery's bookkeeping."""

    #: clean log records replayed on top
    journal_records: int = 0
    #: bytes of torn log tail truncated (0 = clean shutdown)
    journal_torn_bytes: int = 0
    #: mid-log frames quarantined for failing their checksum
    journal_skipped: int = 0
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


class ReplayTarget(IndexState):
    """What :func:`recover`'s replay folds records into: :meth:`apply`
    per record over :meth:`from_checkpoint`, then :meth:`finish`.  Every
    handler is idempotent: a no-op or a max-merge once applied."""

    def apply(self, record: JournalRecord) -> None:
        data = record.data
        if record.type in ("entry_added", "entry_refreshed"):
            # a refresh (delta merge) carries the entry's full
            # post-refresh state; a same-id add replaces in place
            # (idempotent on replay, no-op ordering hazards)
            entry = entry_from_record(data["entry"])
            if "ref" not in data:
                raise LogError(
                    "an entry record without a plan ref: written by an older "
                    "format, which this reader refuses (no converter)"
                )
            self.plan_refs[self.repository.add(entry).entry_id] = data["ref"]
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

    def finish(self, **counts) -> "RecoveredState":
        """The replayed state, its id floors merged with what the restored
        paths imply and its clock raised past every entry's timestamps;
        *counts* fills the bookkeeping fields (``log_gen``, ...)."""
        for key, value in derive_id_floors(self.repository).items():
            self.id_floors[key] = max(self.id_floors.get(key, 1), value)
        for entry in self.repository.entries():
            self.clock = max(self.clock, entry.created_at, entry.last_used_at)
        live = {e.entry_id: self.plan_refs[e.entry_id] for e in self.repository}
        return RecoveredState(**{**vars(self), "plan_refs": live}, **counts)


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


class _PayloadScrub:
    """The post-recovery payload integrity pass.

    Every restored entry (and kept path) is checked against the log's
    scan before it can ever be served:

    * an entry's plan ref is verified first: the segment's bytes become
      its :class:`~repro.persistence.snapshot.LazyPlan`'s, copied out of
      the scan, unparsed;
    * a recorded ref (plan or payload) whose segment is missing,
      checksum-mismatched, or length-drifted **condemns** the entry —
      removed from the repository, logged as ``entry_quarantined`` so
      the decision replays idempotently, surfaced for the caller to
      emit :class:`~repro.events.EntryQuarantined`;
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
        if path in refs:
            return self._verify(path, refs[path], "payload")
        if self.dfs is None or self.dfs.exists(path):
            self.legacy += 1
            return True, None, ""
        return False, None, "no payload segment recorded and output bytes missing"

    def _verify(self, name: str, raw, kind: str):
        """``(ok, bytes_or_None, reason)`` for the segment *raw* refers
        to, which must frame *name*."""
        try:
            ref = SegmentRef.from_list(raw)
        except (LogError, TypeError, ValueError):
            return False, None, f"malformed {kind} segment ref {raw!r}"
        payload = verify_ref(self.scan, ref, name) if ref.gen == self.gen else None
        where = f"(gen {ref.gen}, offset {ref.offset})"
        if payload is None:
            return False, None, f"{kind} segment missing or corrupt {where}"
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
            plan_ref = target.plan_refs.get(entry.entry_id)
            ok, plan, reason = self._verify(entry.plan.fingerprint(), plan_ref, "plan")
            if ok:
                entry.plan.json = bytes(plan)
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


def _open_generation(config: PersistenceConfig, dfs) -> Tuple[FramedLog, FrameScan]:
    """The newest log generation that holds an intact checkpoint (gen 0
    needs none: it starts empty), and its scan.  A later one without
    is a torn compaction's debris, deleted once an older generation is
    found; with bit rot in it, or no older generation left, it raises
    :class:`LogError` naming the file."""
    debris: List[FramedLog] = []
    for gen in config.generations(dfs) or [0]:
        log = FramedLog(config.log_storage(dfs, gen), gen)
        scan = log.scan()
        if scan.checkpoint is not None or gen == 0:
            for stale in debris:
                stale.storage.delete()
            return log, scan
        log.close()
        if scan.skipped:
            break
        debris.append(log)
    raise LogError(
        f"{log.location}: a compacted log generation without an intact "
        "checkpoint (bit rot, or no older generation to recover from)"
    )


def recover(config: PersistenceConfig, dfs=None) -> RecoveredState:
    """Rebuild repository + manager state from the one log.

    Refuses a retired layout (:class:`LogError` naming the file: a file
    of one beside the log, or a record of an older format in it), scans
    the generation :func:`_open_generation` picks once, restores its
    last checkpoint, replays every intact record after it, cuts a torn
    tail in place, scrubs every restored plan and payload against the
    same scan (:class:`_PayloadScrub`), sweeps unclaimed sub-job files,
    and derives/merges the id and clock floors, pushing them into *dfs*
    when it is given.
    """
    retired = config.retired_files(dfs)
    if retired:
        raise LogError(
            f"{retired[0]}: a file of a retired layout (a snapshot file, a "
            "bare journal or the block store), which this reader refuses "
            "(no converter)"
        )
    log, scan = _open_generation(config, dfs)
    try:
        try:
            target = ReplayTarget.from_checkpoint(scan.checkpoint)
            for record in scan.records:
                target.apply(record)
        except (LogError, SnapshotError) as exc:
            raise LogError(f"{log.location}: {exc}") from None
        # not advisory: the successor must not append behind a tear
        log.repair(scan)
        scrub = _PayloadScrub(dfs, scan, log.gen)
        scrub.run(target)
        unjournaled = None
        try:
            scrub.log_condemnations(log)
        except OSError as exc:
            unjournaled = PersistenceDegraded(path=log.location, error=str(exc))
    finally:
        log.close()
    state = target.finish(
        log_gen=log.gen,
        condemnations_unjournaled=unjournaled,
        journal_records=len(scan.records),
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
    A manager over any other repository is refused: the log holds none
    of its entries, and its checkpoints would drop the recovered ones.
    """
    if manager.repository is not state.repository:
        raise RepositoryError(
            "adopt_recovered: the manager is not built over the recovered "
            "repository (pass repository=state.repository to ReStoreManager); "
            f"its own holds {len(manager.repository)} entries the log has "
            f"never seen, the recovered one {len(state.repository)}"
        )
    manager.kept_paths.update(state.kept_paths)
    manager.clock = max(manager.clock, state.clock)
    manager.dfs.ensure_id_floor(**state.id_floors)
    persister = RepositoryPersister(manager, config, recovered=state)
    announce_scrub_condemnations(manager, state)
    return persister
