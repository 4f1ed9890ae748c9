"""The index as the log holds it: the checkpoint codec
(:class:`IndexState`), the entry codec and :class:`LazyPlan`.

A checkpoint row and an ``entry_added`` record
(:mod:`repro.persistence.framedlog`) hold one entry as
:func:`entry_record` writes it: its output, stats, input extents and
the *derived* match metadata (whole-plan Merkle fingerprint, frontier
fingerprint, operator fingerprints), so recovery rebuilds every
fingerprint index — and from them the §3 subsumption pairs — from
recorded values, **without re-registering a single plan**.  The plan
itself is not in the row: its JSON bytes are a log segment named by
its fingerprint, written once, in the commit of the entry's first
record, and every later record and checkpoint row carries its ref.

A restored entry's plan is a :class:`LazyPlan`: it serves fingerprints
from the recorded metadata, hands back the segment's bytes unparsed
when a rotation or compaction needs them, and only parses + rebuilds
the real :class:`~repro.pig.physical.plan.PhysicalPlan` when a match
is about to be served from it.  That laziness is why cold start beats
rebuild-by-re-registration by an order of magnitude: most stored plans
are never looked at until they are genuine rewrite candidates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Set

from repro.core.repository import EntryStats, Repository, RepositoryEntry
from repro.dfs.namenode import InputExtent
from repro.exceptions import ReproError
from repro.faults import injector as faults
from repro.pig.physical.plan import MatchKeys, PhysicalPlan
from repro.relational.schema import Schema


class SnapshotError(ReproError):
    """A stored entry or plan could not be decoded or rebuilt."""


class LazyPlan:
    """A stand-in for a stored :class:`PhysicalPlan` that defers the
    graph rebuild until a match is served from it.

    Recovery needs every entry's fingerprint, frontier fingerprint and
    operator fingerprints (they feed the inverted indexes and the §3
    subsumption pairs) but not the operator graph itself.  The proxy
    serves the recorded metadata instantly and materializes the real
    plan on first structural access, verifying that the rebuilt plan's
    fingerprint matches the recorded one (a mismatch means the
    log and the plan codec disagree — corruption, not a cache miss).

    ``json`` holds the plan's JSON bytes: a copy of its log segment, so
    the proxy does not keep the recovery scan's buffer alive.  Recovery
    sets it once the scrub has verified the segment.
    """

    __slots__ = (
        "json",
        "_fingerprint",
        "_frontier",
        "_operators",
        "_keys",
        "_plan",
    )

    def __init__(
        self,
        fingerprint: str,
        frontier: Optional[str],
        operators: Iterable[str],
        json: Optional[bytes] = None,
    ) -> None:
        self.json = json
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

    def to_json(self) -> bytes:
        """The stored plan's JSON bytes, as restored: never parsed or
        re-encoded for this."""
        return self.json

    @property
    def materialized(self) -> bool:
        return self._plan is not None

    # -- everything else rebuilds the real plan -----------------------------------

    def materialize(self) -> PhysicalPlan:
        if self._plan is None:
            # injection site "snapshot.materialize": a fault here, like
            # bytes that do not decode or rebuild, must surface as a
            # SnapshotError so the manager can quarantine the entry
            # instead of crashing the match scan
            try:
                faults.fire("snapshot.materialize")
                plan = PhysicalPlan.from_dict(json.loads(self.json))
            except Exception as exc:
                raise SnapshotError(
                    f"stored plan {self._fingerprint!r} unreadable: {exc}"
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
    """*entry* as a dict: a checkpoint row, and the ``entry`` of an entry
    record.  The plan is not in it (its bytes are a segment)."""
    fingerprint, frontier, operators = entry.plan.match_keys()
    stats = entry.stats
    return {
        "entry_id": entry.entry_id,
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
    comes back as a :class:`LazyPlan` over the recorded metadata, its
    bytes still to be set from the plan's segment."""
    derived = record["derived"]
    try:
        plan = LazyPlan(
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


@dataclass
class IndexState:
    """The index as a checkpoint frame holds it — repository, kept
    paths, clock, DFS id floors, and the raw refs of the live payload
    segments (by output path) and plan segments (by entry id) — and
    its codec: :meth:`checkpoint` encodes, :meth:`from_checkpoint`
    restores."""

    repository: Repository
    kept_paths: Set[str] = field(default_factory=set)
    clock: int = 0
    #: {"next_script_id": ..., "next_subjob_id": ...}
    id_floors: Dict[str, int] = field(
        default_factory=lambda: {"next_script_id": 1, "next_subjob_id": 1}
    )
    payload_refs: Dict[str, list] = field(default_factory=dict)
    plan_refs: Dict[str, list] = field(default_factory=dict)
    #: entries that came from the checkpoint itself
    checkpoint_entries: int = 0

    def checkpoint(self) -> dict:
        """The checkpoint's JSON object: :meth:`header`, and one row per
        live entry, its :func:`entry_record` beside its plan segment's
        ref."""
        rows = [
            {"entry": entry_record(entry), "ref": self.plan_refs[entry.entry_id]}
            for entry in self.repository.entries()
        ]
        return {**self.header(), "entries": rows}

    def header(self) -> dict:
        """The checkpoint's JSON object but its entry rows."""
        return {
            "clock": self.clock,
            "kept_paths": sorted(self.kept_paths),
            "ids": self.id_floors,
            "repository": self.repository.snapshot_state(),
            "payloads": self.payload_refs,
        }

    @classmethod
    def from_checkpoint(cls, record: Optional[dict]):
        """*record* restored (every index and the §3 subsumption pairs,
        in one pass over its rows), or an empty repository for ``None``
        (no checkpoint yet)."""
        if record is None:
            return cls(Repository())
        state = dict(record["repository"])
        seqs = state.pop("seq")
        rows = record["entries"]
        entries = [entry_from_record(row["entry"]) for row in rows]
        return cls(
            Repository.from_persisted_state(entries, seqs, state),
            set(record["kept_paths"]),
            int(record["clock"]),
            {key: int(value) for key, value in record["ids"].items()},
            dict(record["payloads"]),
            {row["entry"]["entry_id"]: row["ref"] for row in rows},
            len(entries),
        )
