"""Repository eviction policies (§5, Rules 3 and 4, plus a capacity
extension).

* Rule 3 — evict outputs not reused within a window of (logical) time.
* Rule 4 — evict outputs whose inputs were deleted or modified.
* Capacity (extension) — when a byte budget is configured, evict
  least-recently-used entries until the repository fits.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.freshness import APPENDED, FRESH, classify_input, delta_upgradeable
from repro.core.registry import PluginRegistry
from repro.core.repository import Repository, RepositoryEntry
from repro.dfs.filesystem import DistributedFileSystem

#: name -> policy class; extend with ``EVICTION_POLICIES.register``
EVICTION_POLICIES = PluginRegistry("eviction policy")


class EvictionPolicy:
    """Returns the entries that should leave the repository now."""

    name = "abstract"

    def select_victims(
        self, repository: Repository, dfs: DistributedFileSystem, now: int
    ) -> List[RepositoryEntry]:
        raise NotImplementedError

    @classmethod
    def from_spec(cls, arg: Optional[str]) -> "EvictionPolicy":
        """Build from the argument part of a ``name[:arg]`` CLI spec."""
        if arg is not None:
            raise ValueError(f"{cls.name} takes no argument, got {arg!r}")
        return cls()


@EVICTION_POLICIES.register("time-window", aliases=("window",))
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
        return cls(window=int(arg) if arg is not None else cls.DEFAULT_WINDOW)

    def select_victims(
        self, repository: Repository, dfs: DistributedFileSystem, now: int
    ) -> List[RepositoryEntry]:
        victims = []
        for entry in repository:
            reference = max(entry.last_used_at, entry.created_at)
            if now - reference > self.window:
                victims.append(entry)
        return victims


@EVICTION_POLICIES.register("input-modified", aliases=("stale",))
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


@EVICTION_POLICIES.register("capacity", aliases=("lru",))
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
        return cls(capacity_bytes=int(arg))

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


def eviction_by_name(spec: str) -> EvictionPolicy:
    """Build a policy from a ``name`` or ``name:arg`` spec string.

    Examples: ``time-window:4``, ``input-modified``, ``capacity:1048576``.
    """
    name, sep, arg = spec.partition(":")
    policy_cls = EVICTION_POLICIES.get(name)
    return policy_cls.from_spec(arg if sep else None)
