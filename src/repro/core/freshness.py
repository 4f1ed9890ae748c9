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

The delta refresh stage sits next to that eligibility:
:func:`try_delta_rewrite` queues a :class:`PendingDeltaRefresh` that
:func:`apply_refresh` merges once the job has run.  Both take the
manager as their first argument.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.dfs.namenode import InputExtent
from repro.events import DeltaFallback, EntryRefreshed
from repro.exceptions import RepositoryError
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

#: scratch prefix for delta-refresh temporaries: the appended tail of
#: a grown input (``tail-<n>``) and the side-stored delta rows
#: (``out-<n>``).  Both files die when the refresh is applied, so no
#: plan loading from under this prefix is ever registered.
DELTA_TMP_PREFIX = "restore/delta/"


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
    #: the output file still holds the bytes the entry registered
    output_intact: bool = True

    @property
    def stale(self) -> bool:
        """An input was rewritten or deleted, or the output no longer
        holds the entry's bytes: the entry is unusable."""
        return not self.output_intact or any(
            kind in (REWRITTEN, DEAD) for kind in self.kinds.values()
        )

    @property
    def is_appended(self) -> bool:
        """Inputs only grew: the stored output is a reusable prefix."""
        return not self.stale and bool(self.appended)

    @property
    def fresh(self) -> bool:
        return not self.stale and not self.appended


def classify_entry(entry, dfs) -> EntryFreshness:
    """Classify every recorded input of *entry*, and its output,
    against the live DFS.

    The output must be intact (:func:`output_intact`): a user's
    output can be overwritten, appended to, deleted or renamed away
    like any file, and an entry without a stamp was never verified.

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
    freshness.output_intact = output_intact(entry, dfs)
    return freshness


def output_intact(entry, dfs) -> bool:
    """Whether *entry*'s output file still holds the bytes the entry
    registered: its live extent classifies fresh against the stamp."""
    recorded = entry.output_extent
    live = dfs.input_extent(entry.output_path)
    return recorded is not None and classify_extent(recorded, live) == FRESH


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


# -- the delta refresh stage --------------------------------------------------


@dataclass
class PendingDeltaRefresh:
    """A delta rewrite whose merge is deferred until after the job.

    The rewrite side-stores the tail branch's rows at ``delta_path``;
    once the job succeeds, ``after_job`` appends them onto the entry's
    stored output and advances its recorded input extents (the values
    captured here, at classification time — a racing further append
    simply classifies as appended again on the next probe).
    """

    entry_id: str
    output_path: str
    delta_path: str
    tail_path: str
    input_extents: Dict[str, InputExtent]
    input_bytes_delta: int


def try_delta_rewrite(manager, job, entry, result, freshness: EntryFreshness) -> bool:
    """Rewrite *job* to recompute only the appended tail of the
    matched entry's input (i2MapReduce-style, PAPERS.md).

    The entry's sub-plan must be an identity-preserving chain
    (:func:`delta_chain`); the probe plan is then spliced to read
    ``UNION(stored output, chain(tail))`` and a refresh is queued for
    ``after_job`` to merge the side-stored delta rows into the entry.
    Returns True on success; False tells the caller to condemn the
    entry and fall back to a full rerun — a typed
    :class:`DeltaFallback` records why.
    """

    def fallback(path: str, reason: str) -> bool:
        with manager._lock:
            manager.delta_fallback_count += 1
        manager._emit(
            DeltaFallback(
                job_id=job.job_id,
                entry_id=entry.entry_id,
                path=path,
                reason=reason,
            )
        )
        return False

    dfs = manager.dfs
    path = min(freshness.appended)
    if len(job.plan.loads()) != 1:
        # splicing two loads into a multi-load probe would reorder
        # the interpreter's load streaming relative to the full
        # rerun — not provably byte-stable, so rerun instead
        return fallback(path, "multi-load-probe")
    chain = delta_chain(entry.plan)
    if chain is None:
        # GROUP/JOIN/LIMIT/multi-input shapes: f(old ++ tail) is
        # not f(old) ++ f(tail); this counter is the headroom a
        # keyed re-grouping delta model would unlock
        return fallback(path, "ineligible-chain")
    if entry.output_path not in manager.kept_paths and not (
        result.whole_job and job.plan.primary_store().path == entry.output_path
    ):
        # a refresh writes the entry's output: only a file the
        # repository owns, or the resubmission's own store
        return fallback(path, "user-owned-output")
    # a delta-eligible entry has exactly one load, hence exactly
    # one (appended) input path
    live = freshness.appended[path]
    recorded = entry.input_extents[path]
    if recorded.size > 0:
        boundary = dfs.read_range(path, recorded.size - 1, recorded.size)
        if boundary != b"\n":
            # the append glued bytes onto the recorded prefix's
            # unterminated last line: the tail is not a clean
            # record suffix of the grown file
            return fallback(path, "tail-boundary")
    with manager._lock:
        claimed = entry.entry_id not in manager._refreshing
        if claimed:
            manager._refreshing.add(entry.entry_id)
    if not claimed:
        return fallback(path, "refresh-in-flight")
    delta_id = dfs.next_delta_id()
    tail_path = f"{DELTA_TMP_PREFIX}tail-{delta_id}"
    delta_path = f"{DELTA_TMP_PREFIX}out-{delta_id}"
    try:
        tail = dfs.read_range(path, recorded.size, live.size)
        dfs.write_file(tail_path, tail, overwrite=True)
        manager.rewriter.rewrite_delta(
            job.plan,
            result,
            chain,
            stored_path=entry.output_path,
            stored_schema=entry.output_schema,
            tail_path=tail_path,
            tail_schema=entry.plan.loads()[0].schema,
            delta_path=delta_path,
        )
    except Exception:
        with manager._lock:
            manager._refreshing.discard(entry.entry_id)
        dfs.delete_if_exists(tail_path)
        raise
    # the refreshed extent extends the recorded prefix checksum
    # over the tail incrementally — no O(file) re-hash needed —
    # so the grown input stays verifiable across a restart too
    merged_crc = zlib.crc32(tail, recorded.crc) if recorded.crc is not None else None
    refresh = PendingDeltaRefresh(
        entry_id=entry.entry_id,
        output_path=entry.output_path,
        delta_path=delta_path,
        tail_path=tail_path,
        input_extents={path: replace(live, crc=merged_crc)},
        input_bytes_delta=live.size - recorded.size,
    )
    with manager._lock:
        manager._pending_refresh.setdefault(id(job), []).append(refresh)
    return True


def apply_refresh(manager, job, refresh: PendingDeltaRefresh, stats) -> None:
    """Merge one delta run into its entry's stored output.

    The job side-stored the tail branch's rows at ``delta_path``;
    append them onto the stored output — unless the job's own
    primary store already wrote the merged file there (the
    resubmission shape, where the probe's output path *is* the
    entry's output path) — then advance the entry's recorded
    input extents so the grown input now classifies fresh, and
    re-stamp its output extent over the merged file.  The refreshed
    entry, with the merged output's bytes, stages into the
    submission's one commit.
    """
    dfs = manager.dfs
    try:
        if not manager.repository.has_entry(refresh.entry_id):
            return  # condemned while the job ran; a rerun re-registers
        delta_bytes = b""
        delta_records = 0
        if dfs.exists(refresh.delta_path):
            delta_bytes = dfs.read_file(refresh.delta_path)
            stat = stats.store_for_path(refresh.delta_path)
            if stat is not None:
                delta_records = stat.records
        own_stores = {s.path for s in stats.stores if not s.side}
        if delta_bytes and refresh.output_path not in own_stores:
            dfs.append(refresh.output_path, delta_bytes)
        try:
            manager.repository.refresh_entry(
                refresh.entry_id,
                input_extents=refresh.input_extents,
                output_extent=dfs.input_extent(refresh.output_path),
                input_bytes_delta=refresh.input_bytes_delta,
                output_bytes_delta=len(delta_bytes),
                output_records_delta=delta_records,
            )
        except RepositoryError:
            return  # condemned mid-merge; the rerun re-registers
        with manager._lock:
            manager.delta_refresh_count += 1
        manager._emit(
            EntryRefreshed(
                job_id=job.job_id,
                entry_id=refresh.entry_id,
                output_path=refresh.output_path,
                delta_bytes=len(delta_bytes),
                delta_records=delta_records,
            )
        )
    finally:
        with manager._lock:
            manager._refreshing.discard(refresh.entry_id)
        dfs.delete_if_exists(refresh.delta_path)
        dfs.delete_if_exists(refresh.tail_path)
