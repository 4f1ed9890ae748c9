"""Match-time input-freshness classification and delta eligibility.

ReStore's original freshness story was lazy: eviction Rule 4 swept
stale entries *between* workflows, while the matcher happily rewrote
against entries whose recorded inputs no longer matched the DFS.  This
module is the eager half: every matched entry's inputs are classified
against the live filesystem *before* the rewrite commits.

Classification per input path (i2MapReduce-style, PAPERS.md):

=============  =======================================================
``fresh``      same inode (birth), same length — content unchanged
               (appends are the only in-place mutation, so equal size
               on the same inode proves byte identity even when the
               mtime moved via touch)
``appended``   same inode, length grew — the recorded bytes are an
               exact prefix; delta-eligible chains rerun only the tail
``rewritten``  different inode at the path (delete-and-recreate), or a
               same-inode shrink (impossible today, classified
               defensively)
``dead``       the path no longer exists
=============  =======================================================

``delta_chain`` decides whether an entry's sub-plan may be recomputed
incrementally: a single-Load linear chain of order-preserving,
row-local operators (FILTER / FOREACH / pass-through SPLIT) satisfies
``f(old ++ tail) == f(old) ++ f(tail)``, so UNION-merging the stored
output with the chain run over the appended tail is byte-identical to
a full rerun.  GROUP/JOIN (shuffles), LIMIT (not decomposable over
concatenation), multi-input UNIONs, and multi-Load shapes are *not*
delta-safe and fall back to a full rerun (``DeltaFallback``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.dfs.namenode import InputExtent
from repro.pig.physical.operators import (
    PhysicalOperator,
    POFilter,
    POForEach,
    POSplit,
    POStore,
)

FRESH = "fresh"
APPENDED = "appended"
REWRITTEN = "rewritten"
DEAD = "dead"


def classify_extent(
    recorded: InputExtent,
    live: Optional[InputExtent],
    prefix_crc=None,
) -> str:
    """Classify one input given its recorded and live extents.

    ``prefix_crc`` is an optional ``size -> Optional[crc32]`` callable
    (normally ``dfs.prefix_crc32`` curried over the path).  Logical
    clocks are process-local, so a birth mismatch alone cannot tell a
    delete-and-recreate from a persistence restart that re-materialized
    the very same dataset; the checksum settles it — a verified prefix
    keeps the entry usable (fresh or appended), anything unverifiable
    classifies as rewritten.
    """
    if live is None:
        return DEAD
    if live.size < recorded.size:
        return REWRITTEN
    if live.birth != recorded.birth:
        if recorded.crc is None or prefix_crc is None:
            return REWRITTEN
        if prefix_crc(recorded.size) != recorded.crc:
            return REWRITTEN
    if live.size > recorded.size:
        return APPENDED
    return FRESH


def classify_input(
    entry, path: str, live: Optional[InputExtent], dfs=None
) -> str:
    """Classify one recorded input of *entry* against its live extent
    (*dfs*, when given, supplies the prefix-checksum probe for
    cross-restart inode identity)."""
    prefix_crc = None
    if dfs is not None:
        prefix_crc = lambda size: dfs.prefix_crc32(path, size)  # noqa: E731
    return classify_extent(entry.input_extents[path], live, prefix_crc)


@dataclass
class EntryFreshness:
    """The per-input classification of one matched entry."""

    #: input path -> FRESH / APPENDED / REWRITTEN / DEAD
    kinds: Dict[str, str] = field(default_factory=dict)
    #: live extents of the appended inputs, captured at classification
    #: time (tail reads are bounded by these, so a racing append just
    #: classifies as appended again on the next probe)
    appended: Dict[str, InputExtent] = field(default_factory=dict)

    @property
    def stale(self) -> bool:
        """An input was rewritten or deleted: the entry is unusable."""
        return any(kind in (REWRITTEN, DEAD) for kind in self.kinds.values())

    @property
    def is_appended(self) -> bool:
        """Inputs only grew: the stored output is a reusable prefix."""
        return not self.stale and bool(self.appended)

    @property
    def fresh(self) -> bool:
        return not self.stale and not self.appended


def classify_entry(entry, dfs) -> EntryFreshness:
    """Classify every recorded input of *entry* against the live DFS.

    A checksum-verified birth mismatch (the persistence-restart case)
    also *rebases* the entry's recorded extent onto the live inode's
    identity, so later probes compare births directly instead of
    re-hashing the prefix on every match.  The write is guarded by an
    identity check on the extent object, so a concurrent delta refresh
    replacing the extent is never clobbered with pre-refresh state.
    """
    freshness = EntryFreshness()
    for path, recorded in sorted(entry.input_extents.items()):
        live = dfs.input_extent(path)
        kind = classify_input(entry, path, live, dfs)
        freshness.kinds[path] = kind
        if kind == APPENDED:
            freshness.appended[path] = live
        if (
            kind in (FRESH, APPENDED)
            and recorded.birth != live.birth
            and entry.input_extents.get(path) is recorded
        ):
            entry.input_extents[path] = replace(
                recorded,
                mtime=live.mtime,
                generation=live.generation,
                birth=live.birth,
            )
    return freshness


#: operators that are row-local and order-preserving, so they commute
#: with input concatenation.  LIMIT is deliberately absent:
#: limit(old ++ tail) != limit(old) ++ limit(tail).  UNION is absent
#: because a multi-input merge interleaves by chunk arrival, which is
#: not stable across different input partitionings.
_CHAIN_OPS = (POFilter, POForEach, POSplit)


def delta_chain(plan) -> Optional[List[PhysicalOperator]]:
    """The identity-preserving operator chain of a delta-eligible plan.

    Returns the operators strictly between the single Load and the
    Store in flow order, or None when the plan is not a linear
    Load -> {FILTER,FOREACH,SPLIT}* -> Store chain covering every
    operator.  Works on lazy plans (materializes on access).
    """
    loads = plan.loads()
    if len(loads) != 1:
        return None
    chain: List[PhysicalOperator] = []
    op: PhysicalOperator = loads[0]
    visited = {op.op_id}
    while True:
        succs = plan.successors(op)
        if len(succs) != 1:
            return None
        op = succs[0]
        if op.op_id in visited:
            return None
        visited.add(op.op_id)
        if isinstance(op, POStore):
            # linear and exhaustive: no side branches, no extra stores
            return chain if len(visited) == len(plan) else None
        if not isinstance(op, _CHAIN_OPS):
            return None
        chain.append(op)


def delta_upgradeable(entry) -> bool:
    """Whether an append-grown *entry* can be refreshed incrementally
    (eviction Rule 4 keeps such entries instead of killing them)."""
    return delta_chain(entry.plan) is not None
