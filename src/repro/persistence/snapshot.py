"""The versioned repository snapshot codec.

A snapshot is one self-validating byte string holding everything a
cold start needs to rebuild a :class:`~repro.core.repository.Repository`
in O(entries read) — **without re-registering a single plan**:

* every entry with its *derived* match metadata (whole-plan Merkle
  fingerprint, frontier fingerprint, operator fingerprints), so every
  fingerprint index — and from them the §3 subsumption pairs — rebuild
  from recorded values instead of from the plan graph;
* the entry-id and sequence counters, so post-recovery registrations
  can never collide with persisted ids;
* optionally the owning manager's kept-path set and eviction clock,
  and the DFS script/sub-job id floors.

Layout (version 6, the only version this reader accepts)::

    magic "RSNP" | version u8 | crc32 u32 | index_len u32 | body_len u32
    index (JSON) | cold blob (concatenated per-entry plan JSON)

Each entry row carries ``input_extents`` (the per-input
identity/length fingerprints freshness classification compares) as its
one record of the entry's inputs.  Format 6 is format 5 with the
``payloads`` table pointing into the one log: an older file is
refused, not converted.  The index has one *optional* top-level key,
``payloads`` — ``{gen, refs, offset}``: the log generation, the path →
segment-ref table captured at rotation time, and the log offset record
replay starts from (see :mod:`repro.persistence.framedlog`).

The CRC covers the whole body (index + cold blob): a half-written or
bit-rotted snapshot, or one with bytes past the body, is rejected as
a unit, never partially applied.
The *index* keeps each entry as a positional row of small scalars —
cheap to parse at 10k+ entries — while the serialized plan graph (the
bulk of the bytes) lives in the *cold blob*, referenced by offset.
Restored entries carry a :class:`LazyPlan` that serves fingerprints
from the recorded metadata and only parses + rebuilds the real
:class:`~repro.pig.physical.plan.PhysicalPlan` when a match is about to
be served from it.  That laziness is why cold start beats
rebuild-by-re-registration by an order of magnitude: most stored
plans are never looked at until they are genuine rewrite candidates.

A stored plan is encoded once.  The cold blob concatenates each
plan's cached ``to_json()`` bytes (the ones its log record
carries too), and a :class:`LazyPlan` hands back the slice it was
restored from, unparsed; the match keys of an index row are cached
per plan as well.  So a rotation re-encodes only the index rows, and
its plan work grows with the entries added since the last one, not
with the repository.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.core.repository import EntryStats, Repository, RepositoryEntry
from repro.dfs.namenode import InputExtent
from repro.exceptions import ReproError
from repro.faults import injector as faults
from repro.pig.physical.plan import MatchKeys, PhysicalPlan
from repro.relational.schema import Schema

SNAPSHOT_FORMAT = "restore-repo-snapshot"
SNAPSHOT_VERSION = 6

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
    graph rebuild until a match is served from it.

    Recovery needs every entry's fingerprint, frontier fingerprint and
    operator fingerprints (they feed the inverted indexes and the §3
    subsumption pairs) but not the operator graph itself.  The proxy
    serves the recorded metadata instantly and materializes the real
    plan on first structural access, verifying that the rebuilt plan's
    fingerprint matches the recorded one (a mismatch means the
    snapshot and the plan codec disagree — corruption, not a cache
    miss).
    """

    __slots__ = (
        "_json",
        "_data",
        "_fingerprint",
        "_frontier",
        "_operators",
        "_keys",
        "_plan",
    )

    def __init__(
        self,
        source,
        fingerprint: str,
        frontier: Optional[str],
        operators: Iterable[str],
    ) -> None:
        #: the plan's JSON bytes (a cold-blob slice, served as-is) or its
        #: dict (a replayed journal record); the other form is made on
        #: first need
        if isinstance(source, dict):
            self._json, self._data = None, source
        else:
            self._json, self._data = source, None
        self._fingerprint = fingerprint
        self._frontier = frontier
        self._operators = frozenset(operators)
        self._keys: Optional[MatchKeys] = None
        self._plan: Optional[PhysicalPlan] = None

    # -- the recorded metadata (no materialization) -------------------------------

    def fingerprint(self) -> str:
        return self._fingerprint

    def frontier_fingerprint(self) -> Optional[str]:
        return self._frontier

    def operator_fingerprints(self) -> FrozenSet[str]:
        """The recorded keys of the plan's ``operator_fingerprints()``."""
        return self._operators

    def match_keys(self) -> MatchKeys:
        """:meth:`PhysicalPlan.match_keys` from the recorded metadata."""
        if self._keys is None:
            self._keys = (
                self._fingerprint,
                self._frontier,
                tuple(sorted(self._operators)),
            )
        return self._keys

    def to_json(self):
        """The stored plan's JSON bytes (bytes-like): the cold-blob
        slice it was restored from, never parsed for this, or the
        replayed dict encoded once."""
        if self._json is None:
            self._json = json.dumps(self._data, separators=(",", ":")).encode()
        return self._json

    def _plan_data(self) -> dict:
        if self._data is None:
            try:
                self._data = json.loads(bytes(self._json).decode())
            except (UnicodeDecodeError, ValueError) as exc:
                raise SnapshotError(
                    f"stored plan {self._fingerprint!r} is not decodable "
                    f"JSON: {exc}"
                ) from exc
        return self._data

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


def entry_record(entry: RepositoryEntry) -> dict:
    """A self-contained dict form of *entry* (used by log records; the
    snapshot index uses the positional row form instead).  Its
    ``plan`` is the plan's cached JSON bytes, which
    :func:`repro.persistence.framedlog.encode_record` splices in as-is."""
    fingerprint, frontier, operators = entry.plan.match_keys()
    stats = entry.stats
    return {
        "entry_id": entry.entry_id,
        "plan": entry.plan.to_json(),
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
        "derived": {
            "fingerprint": fingerprint,
            "frontier": frontier,
            "operators": operators,
        },
    }


def entry_from_record(record: dict) -> RepositoryEntry:
    """Rebuild an entry from :func:`entry_record` output; the plan
    comes back as a :class:`LazyPlan` over the recorded metadata."""
    derived = record["derived"]
    try:
        plan = LazyPlan(
            record["plan"],
            derived["fingerprint"],
            derived["frontier"],
            derived["operators"],
        )
    except KeyError as exc:
        raise SnapshotError(
            f"entry record without derived {exc}: written by an older "
            "format, which this reader does not convert"
        ) from None
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
    fingerprint, frontier, operators = entry.plan.match_keys()
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
        fingerprint,
        frontier,
        operators,
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
        frontier,  # fingerprint of the operator feeding the primary Store
        operators,  # every operator fingerprint but Splits' and Stores'
        cold_offset,  # plan JSON position in the cold blob
        cold_length,
    ) = row
    plan = LazyPlan(
        blob[cold_offset : cold_offset + cold_length], fingerprint, frontier, operators
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
            bodies = []
            offset = 0
            for entry in entries:
                body = entry.plan.to_json()  # encoded once per plan
                rows.append(_entry_row(entry, seq[entry.entry_id], offset, len(body)))
                bodies.append(body)
                offset += len(body)
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
            # {"gen": N, "refs": {path: [gen, offset, length, crc]},
            # "offset": replay start} — what the recovery scrub verifies
            # against, and where record replay begins
            payload["payloads"] = payloads
        return cls(payload, b"".join(bodies))

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
        if len(data) > _HEADER.size + body_len:
            raise SnapshotError(
                f"snapshot has {len(data) - _HEADER.size - body_len} trailing bytes"
            )
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
        """The log table (empty when captured without one)."""
        return self.payload.get("payloads", {})

    def __len__(self) -> int:
        return len(self.entry_rows)

    # -- restore ------------------------------------------------------------------

    def restore_repository(self) -> Repository:
        """Rebuild the repository: every inverted index and the §3
        subsumption pairs, in one pass over the recorded rows."""
        state = dict(self.repository_state)
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
