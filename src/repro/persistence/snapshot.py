"""The versioned repository snapshot codec.

A snapshot is one self-validating byte string holding everything a
cold start needs to rebuild a :class:`~repro.core.repository.Repository`
in O(entries read) — **without re-registering a single plan**:

* every entry with its *derived* match metadata (whole-plan Merkle
  fingerprint, load-signature set, operator-signature multiset), so
  all three inverted indexes rebuild from recorded values instead of
  recomputing them from the plan graph;
* the incremental §3 subsumption order (scores, subsumption pairs,
  the pending set), so the first ordered scan after recovery pays zero
  matcher traversals (an older file's ``sorted`` list is ignored: the
  scan order is a sort by key, not a stored list);
* the entry-id and sequence counters, so post-recovery registrations
  can never collide with persisted ids;
* optionally the owning manager's kept-path set and eviction clock,
  and the DFS script/sub-job id floors.

Layout (version 4, the only version this reader accepts)::

    magic "RSNP" | version u8 | crc32 u32 | index_len u32 | body_len u32
    index (JSON) | cold blob (concatenated per-entry plan JSON)

Each entry row carries ``input_extents`` (the per-input
identity/length fingerprints freshness classification compares) as its
one record of the entry's inputs — format 4 is format 3 without the
redundant per-input mtime column, and a version-3 file is refused, not
converted.  The index has one *optional* top-level key,
``payloads`` — the block-store generation and the path → segment-ref
table captured at rotation time (see
:mod:`repro.persistence.blockstore`).

The CRC covers the whole body (index + cold blob): a half-written or
bit-rotted snapshot is rejected as a unit, never partially applied.
The *index* keeps each entry as a positional row of small scalars —
cheap to parse at 10k+ entries — while the serialized plan graph (the
bulk of the bytes) lives in the *cold blob*, referenced by offset.
Restored entries carry a :class:`LazyPlan` that serves fingerprints
and signatures from the recorded metadata and only parses + rebuilds
the real :class:`~repro.pig.physical.plan.PhysicalPlan` if a match
actually needs to traverse it.  That laziness is why cold start beats
rebuild-by-re-registration by an order of magnitude: most stored
plans are never looked at until they are genuine rewrite candidates.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.repository import EntryStats, Repository, RepositoryEntry
from repro.dfs.namenode import InputExtent
from repro.exceptions import ReproError
from repro.faults import injector as faults
from repro.pig.physical.plan import PhysicalPlan
from repro.relational.schema import Schema

SNAPSHOT_FORMAT = "restore-repo-snapshot"
SNAPSHOT_VERSION = 4

_MAGIC = b"RSNP"
#: magic, version, crc32(body), index length, total body length
_HEADER = struct.Struct(">4sBIII")


class SnapshotError(ReproError):
    """A snapshot could not be encoded, validated, or decoded."""


def _check_version(version) -> None:
    if not isinstance(version, int) or version < SNAPSHOT_VERSION:
        raise SnapshotError(
            f"unsupported snapshot version {version!r}: this reader "
            f"supports version {SNAPSHOT_VERSION} only"
        )
    if version > SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {version} is newer than this reader "
            f"(max {SNAPSHOT_VERSION})"
        )


class LazyPlan:
    """A stand-in for a stored :class:`PhysicalPlan` that defers the
    graph rebuild until a match actually traverses it.

    Recovery needs every entry's fingerprint, load signatures, and
    signature multiset (they feed the inverted indexes and candidate
    pruning) but not the operator graph itself — Algorithm 1 only
    walks the plans of entries that survive pruning.  The proxy serves
    the recorded metadata instantly and materializes the real plan on
    first structural access, verifying that the rebuilt plan's
    fingerprint matches the recorded one (a mismatch means the
    snapshot and the plan codec disagree — corruption, not a cache
    miss).
    """

    __slots__ = ("_source", "_fingerprint", "_load_sigs", "_sig_counts", "_plan")

    def __init__(
        self,
        source,
        fingerprint: str,
        load_sigs: FrozenSet[str],
        sig_counts: Dict[str, int],
    ) -> None:
        #: plan dict, or a bytes-like JSON slice parsed on demand
        self._source = source
        self._fingerprint = fingerprint
        self._load_sigs = frozenset(load_sigs)
        self._sig_counts = dict(sig_counts)
        self._plan: Optional[PhysicalPlan] = None

    # -- the recorded metadata (no materialization) -------------------------------

    def fingerprint(self) -> str:
        return self._fingerprint

    def load_signature_set(self) -> FrozenSet[str]:
        return self._load_sigs

    def signature_counts(self) -> Dict[str, int]:
        return self._sig_counts

    def _plan_data(self) -> dict:
        if not isinstance(self._source, dict):
            try:
                self._source = json.loads(bytes(self._source).decode())
            except (UnicodeDecodeError, ValueError) as exc:
                raise SnapshotError(
                    f"stored plan {self._fingerprint!r} is not decodable "
                    f"JSON: {exc}"
                ) from exc
        return self._source

    def to_dict(self) -> dict:
        if self._plan is not None:
            return self._plan.to_dict()
        return self._plan_data()

    @property
    def materialized(self) -> bool:
        return self._plan is not None

    # -- everything else rebuilds the real plan -----------------------------------

    def materialize(self) -> PhysicalPlan:
        if self._plan is None:
            # injection site "snapshot.materialize": a fault here must
            # surface as a SnapshotError so the manager can quarantine
            # the entry instead of crashing the match scan
            try:
                faults.fire("snapshot.materialize")
            except OSError as exc:
                raise SnapshotError(
                    f"stored plan {self._fingerprint!r} unreadable: {exc}"
                ) from exc
            data = self._plan_data()
            try:
                plan = PhysicalPlan.from_dict(data)
            except SnapshotError:
                raise
            except Exception as exc:
                raise SnapshotError(
                    f"stored plan {self._fingerprint!r} failed to "
                    f"rebuild: {exc}"
                ) from exc
            rebuilt = plan.fingerprint()
            if rebuilt != self._fingerprint:
                raise SnapshotError(
                    "restored plan fingerprint mismatch: "
                    f"recorded {self._fingerprint!r}, rebuilt {rebuilt!r}"
                )
            self._plan = plan
        return self._plan

    def __getattr__(self, name: str):
        return getattr(self.materialize(), name)

    # dunders bypass __getattr__, so forward the ones PhysicalPlan has
    def __len__(self) -> int:
        return len(self.materialize())

    def __iter__(self):
        return iter(self.materialize())

    def __contains__(self, op) -> bool:
        return op in self.materialize()

    def __repr__(self) -> str:
        state = "materialized" if self._plan is not None else "lazy"
        return f"LazyPlan({self._fingerprint!r}, {state})"


def plan_derived(plan) -> dict:
    """The derived match metadata persisted alongside a plan."""
    return {
        "fingerprint": plan.fingerprint(),
        "load_sigs": sorted(plan.load_signature_set()),
        "sig_counts": dict(plan.signature_counts()),
    }


def entry_record(entry: RepositoryEntry) -> dict:
    """A self-contained dict form of *entry* (used by journal records;
    the snapshot index uses the positional row form instead)."""
    stats = entry.stats
    return {
        "entry_id": entry.entry_id,
        "plan": entry.plan.to_dict(),
        "output_path": entry.output_path,
        "output_schema": entry.output_schema.to_dict(),
        "stats": {
            "input_bytes": stats.input_bytes,
            "output_bytes": stats.output_bytes,
            "output_records": stats.output_records,
            "exec_time_s": stats.exec_time_s,
        },
        "anchor_kind": entry.anchor_kind,
        "created_at": entry.created_at,
        "last_used_at": entry.last_used_at,
        "use_count": entry.use_count,
        "input_extents": {
            path: extent.to_list() for path, extent in entry.input_extents.items()
        },
        "derived": plan_derived(entry.plan),
    }


def entry_from_record(record: dict) -> RepositoryEntry:
    """Rebuild an entry from :func:`entry_record` output; the plan
    comes back as a :class:`LazyPlan` over the recorded metadata."""
    derived = record["derived"]
    plan = LazyPlan(
        record["plan"],
        derived["fingerprint"],
        frozenset(derived["load_sigs"]),
        {sig: int(n) for sig, n in derived["sig_counts"].items()},
    )
    stats = record.get("stats", {})
    return RepositoryEntry(
        plan=plan,
        output_path=record["output_path"],
        output_schema=Schema.from_dict(record["output_schema"]),
        stats=EntryStats(
            input_bytes=stats.get("input_bytes", 0),
            output_bytes=stats.get("output_bytes", 0),
            output_records=stats.get("output_records", 0),
            exec_time_s=stats.get("exec_time_s", 0.0),
        ),
        anchor_kind=record.get("anchor_kind", "whole-job"),
        created_at=record.get("created_at", 0),
        last_used_at=record.get("last_used_at", 0),
        use_count=record.get("use_count", 0),
        input_extents={
            path: InputExtent.from_list(extent)
            for path, extent in record.get("input_extents", {}).items()
        },
        entry_id=record.get("entry_id", ""),
    )


def _entry_row(
    entry: RepositoryEntry, seq: int, cold_offset: int, cold_length: int
) -> list:
    derived = plan_derived(entry.plan)
    stats = entry.stats
    return [
        entry.entry_id,
        seq,
        entry.output_path,
        entry.anchor_kind,
        entry.created_at,
        entry.last_used_at,
        entry.use_count,
        [
            stats.input_bytes,
            stats.output_bytes,
            stats.output_records,
            stats.exec_time_s,
        ],
        {path: extent.to_list() for path, extent in entry.input_extents.items()},
        entry.output_schema.to_dict(),
        derived["fingerprint"],
        derived["load_sigs"],
        derived["sig_counts"],
        cold_offset,
        cold_length,
    ]


def _entry_from_row(row: list, blob: memoryview) -> Tuple[RepositoryEntry, int]:
    # the positional columns of one entry row: their order is part of
    # the format (_entry_row writes it)
    (
        entry_id,
        seq,
        output_path,
        anchor_kind,
        created_at,
        last_used_at,
        use_count,
        stats,  # [input_bytes, output_bytes, output_records, exec_time_s]
        input_extents,  # {path: [mtime, generation, birth, size, crc]}
        schema,
        fingerprint,
        load_sigs,
        sig_counts,
        cold_offset,  # plan JSON position in the cold blob
        cold_length,
    ) = row
    plan = LazyPlan(
        blob[cold_offset : cold_offset + cold_length],
        fingerprint,
        frozenset(load_sigs),
        sig_counts,
    )
    entry = RepositoryEntry(
        plan=plan,
        output_path=output_path,
        output_schema=Schema.from_dict(schema),
        stats=EntryStats(stats[0], stats[1], stats[2], stats[3]),
        anchor_kind=anchor_kind,
        created_at=created_at,
        last_used_at=last_used_at,
        use_count=use_count,
        input_extents={
            path: InputExtent.from_list(extent)
            for path, extent in input_extents.items()
        },
        entry_id=entry_id,
    )
    return entry, seq


class RepositorySnapshot:
    """One decoded (or freshly captured) repository snapshot.

    ``payload`` is the index dict; entry plan graphs live in the
    ``cold`` blob and are referenced by offset from each entry row.
    """

    def __init__(self, payload: dict, cold: bytes = b"") -> None:
        if payload.get("format") != SNAPSHOT_FORMAT:
            raise SnapshotError(
                f"not a repository snapshot: format={payload.get('format')!r}"
            )
        _check_version(payload.get("version"))
        self.payload = payload
        self.cold = cold

    # -- capture ------------------------------------------------------------------

    @classmethod
    def capture(
        cls,
        repository: Repository,
        *,
        kept_paths=None,
        clock: Optional[int] = None,
        dfs_ids: Optional[dict] = None,
        payloads: Optional[dict] = None,
    ) -> "RepositorySnapshot":
        """A point-in-time snapshot of *repository* (and optionally the
        manager/DFS state that travels with it), taken atomically
        under the repository lock."""
        with repository.locked():
            state = repository.snapshot_state()
            entries = repository.entries()
            seq = state.pop("seq")
            rows: List[list] = []
            blob = bytearray()
            for entry in entries:
                body = json.dumps(
                    entry.plan.to_dict(), separators=(",", ":")
                ).encode()
                rows.append(
                    _entry_row(entry, seq[entry.entry_id], len(blob), len(body))
                )
                blob.extend(body)
        state["entries"] = rows
        payload = {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "repository": state,
        }
        if kept_paths is not None or clock is not None:
            payload["manager"] = {
                "kept_paths": sorted(kept_paths or ()),
                "clock": int(clock or 0),
            }
        if dfs_ids:
            payload["dfs"] = dict(dfs_ids)
        if payloads is not None:
            # {"gen": N, "refs": {path: [gen, offset, length, crc]}} —
            # the block-store table the recovery scrub verifies against
            payload["payloads"] = payloads
        return cls(payload, bytes(blob))

    # -- codec --------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        index = json.dumps(self.payload, separators=(",", ":")).encode()
        body = index + self.cold
        header = _HEADER.pack(
            _MAGIC, SNAPSHOT_VERSION, zlib.crc32(body), len(index), len(body)
        )
        return header + body

    @classmethod
    def from_bytes(cls, data: bytes) -> "RepositorySnapshot":
        if len(data) < _HEADER.size:
            raise SnapshotError("snapshot truncated: header incomplete")
        magic, version, crc, index_len, body_len = _HEADER.unpack_from(data)
        if magic != _MAGIC:
            raise SnapshotError(f"bad snapshot magic: {magic!r}")
        _check_version(version)
        body = data[_HEADER.size : _HEADER.size + body_len]
        if len(body) != body_len or index_len > body_len:
            raise SnapshotError("snapshot truncated: body incomplete")
        if zlib.crc32(body) != crc:
            raise SnapshotError("snapshot checksum mismatch")
        payload = json.loads(body[:index_len].decode())
        return cls(payload, bytes(body[index_len:]))

    # -- views --------------------------------------------------------------------

    @property
    def repository_state(self) -> dict:
        return self.payload.get("repository", {})

    @property
    def entry_rows(self) -> list:
        return self.repository_state.get("entries", [])

    @property
    def manager_state(self) -> dict:
        return self.payload.get("manager", {})

    @property
    def dfs_state(self) -> dict:
        return self.payload.get("dfs", {})

    @property
    def payload_state(self) -> dict:
        """The block-store table (empty when captured without one)."""
        return self.payload.get("payloads", {})

    def __len__(self) -> int:
        return len(self.entry_rows)

    # -- restore ------------------------------------------------------------------

    def restore_repository(self) -> Repository:
        """Rebuild the repository: every inverted index and the full §3
        order, in one pass over the recorded rows."""
        state = dict(self.repository_state)
        if not isinstance(state.get("order"), dict):
            raise SnapshotError("malformed snapshot: no recorded §3 order state")
        rows = state.pop("entries", [])
        blob = memoryview(self.cold)
        entries: List[RepositoryEntry] = []
        seqs: Dict[str, int] = {}
        for row in rows:
            entry, seq = _entry_from_row(row, blob)
            entries.append(entry)
            seqs[entry.entry_id] = seq
        return Repository.from_persisted_state(entries, seqs, state)

    def __repr__(self) -> str:
        return (
            f"RepositorySnapshot(entries={len(self)}, "
            f"cold_bytes={len(self.cold)})"
        )
