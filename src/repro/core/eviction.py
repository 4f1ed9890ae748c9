"""Repository eviction (§5, Rules 3 and 4, plus a capacity extension):
the policies that choose victims, and the stage that removes them.

* Rule 3 — evict outputs not reused within a window of (logical) time.
* Rule 4 — evict outputs whose inputs were deleted or modified.
* Capacity (extension) — when a byte budget is configured, evict
  least-recently-used entries until the repository fits.

Every way out of a live repository runs through :func:`evict`: the
sweep between workflows (:func:`run_evictions`) and the match stage's
:func:`condemn`.  Both take the manager as their first argument.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.freshness import APPENDED, FRESH, classify_input, delta_upgradeable
from repro.core.repository import Repository, RepositoryEntry
from repro.dfs.filesystem import DistributedFileSystem
from repro.events import EntryEvicted, EntryQuarantined
from repro.exceptions import RepositoryError


class EvictionPolicy:
    """Returns the entries that should leave the repository now."""

    name = "abstract"

    def select_victims(
        self, repository: Repository, dfs: DistributedFileSystem, now: int
    ) -> List[RepositoryEntry]:
        raise NotImplementedError

    @classmethod
    def from_spec(cls, arg: Optional[str]) -> "EvictionPolicy":
        """Build from the argument part of a ``name[:arg]`` spec."""
        if arg is not None:
            raise ValueError(f"{cls.name} takes no argument, got {arg!r}")
        return cls()


def _int_arg(name: str, arg: str) -> int:
    """The integer argument of spec ``name:arg``, or a ValueError
    naming the spec and the expected form."""
    try:
        return int(arg)
    except ValueError:
        raise ValueError(
            f"eviction spec '{name}:{arg}': argument must be an integer"
        ) from None


class TimeWindowEviction(EvictionPolicy):
    """Rule 3: not reused within ``window`` logical ticks.

    Our logical clock advances once per executed workflow, so a window
    of N means "evict if N workflows ran without reusing this output"
    (Facebook's production analogue: results kept for seven days, §1).
    """

    name = "time-window"

    #: default window when built from a bare ``time-window`` spec
    DEFAULT_WINDOW = 7

    def __init__(self, window: int):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window

    @classmethod
    def from_spec(cls, arg: Optional[str]) -> "TimeWindowEviction":
        if arg is None:
            return cls(window=cls.DEFAULT_WINDOW)
        return cls(window=_int_arg(cls.name, arg))

    def select_victims(
        self, repository: Repository, dfs: DistributedFileSystem, now: int
    ) -> List[RepositoryEntry]:
        victims = []
        for entry in repository:
            reference = max(entry.last_used_at, entry.created_at)
            if now - reference > self.window:
                victims.append(entry)
        return victims


class InputModifiedEviction(EvictionPolicy):
    """Rule 4: a source dataset was deleted or rewritten in place.

    Walks the repository's input-path index instead of every entry:
    each distinct source dataset is stat'ed exactly once, and only the
    entries registered under it are classified against its live
    extent (:mod:`repro.core.freshness`).  An input that merely *grew*
    by an append keeps the entry alive when its sub-plan is
    delta-upgradeable — the stored output is still an exact prefix of
    the recomputation and the matcher refreshes it incrementally on
    the next probe; evicting it would throw that prefix away.
    """

    name = "input-modified"

    def select_victims(
        self, repository: Repository, dfs: DistributedFileSystem, now: int
    ) -> List[RepositoryEntry]:
        victim_ids = set()
        for path in repository.input_paths():
            live = dfs.input_extent(path)
            for entry in repository.entries_with_input(path):
                if entry.entry_id in victim_ids:
                    continue
                kind = classify_input(entry, path, live, dfs)
                if kind == FRESH:
                    continue
                if kind == APPENDED and delta_upgradeable(entry):
                    continue
                victim_ids.add(entry.entry_id)
        # report in repository (insertion) order, like the full scan did
        return [e for e in repository if e.entry_id in victim_ids]


class CapacityEviction(EvictionPolicy):
    """Extension: keep total stored bytes under a budget (LRU order)."""

    name = "capacity"

    def __init__(self, capacity_bytes: int):
        if capacity_bytes < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity_bytes = capacity_bytes

    @classmethod
    def from_spec(cls, arg: Optional[str]) -> "CapacityEviction":
        if arg is None:
            raise ValueError(
                "capacity eviction needs a byte budget, e.g. capacity:1048576"
            )
        return cls(capacity_bytes=_int_arg(cls.name, arg))

    def select_victims(
        self, repository: Repository, dfs: DistributedFileSystem, now: int
    ) -> List[RepositoryEntry]:
        excess = repository.total_stored_bytes - self.capacity_bytes
        if excess <= 0:
            return []
        by_lru = sorted(
            repository,
            key=lambda e: (max(e.last_used_at, e.created_at), e.entry_id),
        )
        victims: List[RepositoryEntry] = []
        freed = 0
        for entry in by_lru:
            if freed >= excess:
                break
            victims.append(entry)
            freed += entry.stats.output_bytes
        return victims


#: eviction policy name -> class, built by ``from_spec`` from the
#: argument of a ``name[:arg]`` spec (``time-window:4``,
#: ``input-modified``, ``capacity:1048576``)
EVICTION_POLICIES = {
    "time-window": TimeWindowEviction,
    "input-modified": InputModifiedEviction,
    "capacity": CapacityEviction,
}


def build_eviction_policy(spec: str) -> EvictionPolicy:
    """The policy a ``name[:arg]`` spec names."""
    name, sep, arg = spec.partition(":")
    return EVICTION_POLICIES[name].from_spec(arg if sep else None)


# -- the eviction stage -------------------------------------------------------


def run_evictions(manager) -> List[str]:
    """Apply all of *manager*'s policies until fixpoint; returns the
    evicted entry ids.

    Iterating matters for cascades: evicting an entry deletes its
    owned output file, which is another entry's *input* — Rule 4
    must then claim that dependent entry on the next pass (stale
    results never survive transitively).  The whole fixpoint runs
    under the manager lock: eviction is rare (once per workflow)
    and policies must see a stable repository while choosing
    victims.
    """
    evicted: List[str] = []
    events: List[EntryEvicted] = []
    with manager._lock:
        changed = True
        while changed:
            changed = False
            for policy in manager.eviction_policies:
                victims = policy.select_victims(
                    manager.repository, manager.dfs, manager.clock
                )
                for victim in victims:
                    if victim.entry_id in evicted:
                        continue
                    event = evict(manager, victim, policy.name)
                    if event is not None:
                        events.append(event)
                    evicted.append(victim.entry_id)
                    changed = True
    # emit after releasing the manager lock: bus subscribers run
    # callback code and may call back into the manager (events.py
    # promises they can do so without lock-order deadlocks)
    for event in events:
        manager._emit(event)
    # the removals commit with the submission: a crash before that
    # resurrects an entry together with its proven payload, which
    # recovery writes back into the reclaimed file
    return evicted


def evict(manager, entry: RepositoryEntry, policy: str) -> Optional[EntryEvicted]:
    """Remove one entry and reclaim its owned file; returns the
    :class:`EntryEvicted` event for the caller to emit outside the
    eviction critical section, or None if the entry was gone.

    The entry leaves the repository unconditionally, so no later job
    can match possibly-stale data.  Its owned file is deleted at once
    unless an in-flight workflow was rewritten to read it (the pin
    table, checked under the manager lock that pinning takes): then
    the delete waits in ``_deferred_deletes`` until no reader is left.
    """
    try:
        manager.repository.remove(entry.entry_id)
    except RepositoryError:
        return None
    path = entry.output_path
    with manager._lock:
        owned = path in manager.kept_paths
        deferred = owned and any(path in pins for pins in manager._pinned.values())
        if owned:
            manager.kept_paths.discard(path)
            if manager.persistence is not None:
                manager.persistence.note_kept_path(path, False)
            if deferred:
                manager._deferred_deletes.add(path)
    if owned and not deferred:
        manager.dfs.delete_if_exists(path)
    return EntryEvicted(entry_id=entry.entry_id, policy=policy, output_path=path)


def condemn(
    manager, entry: RepositoryEntry, policy: str, reason: Optional[str] = None
) -> None:
    """Evict a matched entry the match stage cannot use.

    Rejecting the match alone is not enough.  A stale entry
    (``"stale-input"``: an input was rewritten, deleted, or grew past
    what a delta refresh can take; ``"output-modified"``: the stored
    output no longer holds the entry's bytes) would still answer
    ``find_equivalent`` after this job's full rerun, so the selector
    would discard the *fresh* output and leave the stale one
    registered forever.  A corrupt one (``"quarantined"``, with the
    materialization error as *reason*) would keep answering index
    probes and fail every future scan the same way; its removal is
    journaled as ``entry_quarantined`` so recovery reaches the same
    repository.

    The removal only stages: it commits with the submission, ahead of
    any re-registration over the same path.  A crash before that
    commit loses the removal with the rest of the submission, and the
    next match judges the resurrected entry afresh.
    """
    event = evict(manager, entry, policy)
    if event is None:
        return  # already evicted by a concurrent scan
    manager._emit(event)
    persistence = manager.persistence
    if reason is not None:
        with manager._lock:
            manager.quarantine_count += 1
        manager._emit(
            EntryQuarantined(
                entry_id=entry.entry_id,
                output_path=entry.output_path,
                reason=reason,
            )
        )
        if persistence is not None:
            persistence.note_quarantine(entry.entry_id, reason)
