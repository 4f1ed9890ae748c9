"""Typed ReStore events and the session event bus.

The manager used to log its decisions as pre-rendered strings; tooling
that wanted to react to a rewrite had to grep them.  This module gives
every decision a dataclass — ``RewriteApplied``, ``JobEliminated``,
``SubJobStored``, ``SubJobDiscarded``, ``EntryEvicted`` — delivered
through an :class:`EventBus` that supports subscription with type and
predicate filters.

``render()`` on each event reproduces the legacy log line;
``render_events(events, LOG_EVENTS)`` projects a typed event list onto
that byte-identical text for reports that still want it.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Tuple, Type, Union


@dataclass
class ReStoreEvent:
    """Base class for everything the manager announces.

    ``seq`` is a bus-assigned monotonically increasing sequence number
    (0 until the event passes through a bus); it makes global ordering
    explicit for subscribers that buffer events.

    ``session_id`` names the tenant session whose job produced the
    event ("" outside any session scope).  The manager stamps it from
    its active session scope, so multi-tenant deployments — many
    sessions sharing one manager and repository — can route and drain
    events per session without cross-talk.
    """

    seq: int = field(default=0, init=False, compare=False)
    session_id: str = field(default="", init=False, compare=False)

    def render(self) -> str:
        """The legacy human-readable log line for this event."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.render()


@dataclass
class RewriteApplied(ReStoreEvent):
    """A job's plan was rewritten to load a stored result (§3)."""

    job_id: str = ""
    entry_id: str = ""
    anchor_kind: str = ""
    output_path: str = ""
    #: True when the entire job matched and degraded to a copy job
    whole_job: bool = False
    #: True when the match was applied as a delta recomputation: the
    #: entry's input grew by an append, so the rewrite unions the
    #: stored output with the sub-plan rerun over just the tail
    delta: bool = False

    def render(self) -> str:
        if self.delta:
            return (
                f"{self.job_id}: reused sub-job {self.entry_id} "
                f"({self.anchor_kind}) from {self.output_path} "
                f"+ delta over appended tail"
            )
        if self.whole_job:
            return (
                f"{self.job_id}: whole job matched {self.entry_id}; "
                f"rewritten to copy {self.output_path}"
            )
        return (
            f"{self.job_id}: reused sub-job {self.entry_id} "
            f"({self.anchor_kind}) from {self.output_path}"
        )


@dataclass
class JobEliminated(ReStoreEvent):
    """A whole job was answered from the repository without running."""

    job_id: str = ""
    entry_id: str = ""
    output_path: str = ""
    #: "redirected" (intermediate job; consumers re-pointed) or
    #: "already-stored" (resubmission of the same query)
    reason: str = "redirected"

    def render(self) -> str:
        if self.reason == "already-stored":
            return f"{self.job_id}: result already stored at {self.output_path}"
        return (
            f"{self.job_id}: whole job answered by {self.entry_id}; "
            f"consumers redirected to {self.output_path}"
        )


@dataclass
class SubJobStored(ReStoreEvent):
    """An output passed the selector and entered the repository."""

    entry_id: str = ""
    output_path: str = ""
    anchor_kind: str = ""
    reason: str = ""

    def render(self) -> str:
        text = (
            f"stored {self.anchor_kind} output {self.output_path} "
            f"as {self.entry_id}"
        )
        return f"{text}: {self.reason}" if self.reason else text


@dataclass
class SubJobDiscarded(ReStoreEvent):
    """The selector rejected a freshly produced output (§5 rules)."""

    output_path: str = ""
    reason: str = ""
    anchor_kind: str = "sub-job"

    def render(self) -> str:
        if self.anchor_kind == "whole-job":
            return f"not keeping whole-job output {self.output_path}: {self.reason}"
        return f"discarded sub-job output {self.output_path}: {self.reason}"


@dataclass
class MatchScanned(ReStoreEvent):
    """The matcher finished scanning the repository for one job.

    Emitted on the bus only (not the legacy drain channel): it is
    telemetry about *how* the match pipeline ran — how many entries the
    frontier index returned as contained in the job and how many of
    them the scan asked the matcher about before its verdict — not a
    reuse decision.
    """

    job_id: str = ""
    #: repository size when the job was matched
    entries_total: int = 0
    #: entries the frontier index returned (summed over passes)
    candidates: int = 0
    #: entries the frontier index left out
    pruned: int = 0
    #: candidates the matcher was asked about
    traversals: int = 0
    #: rewrite passes (rescans) the job needed
    passes: int = 0
    #: rewrites + eliminations this scan produced
    matches: int = 0
    #: passes answered by the exact-fingerprint index (each also booked
    #: as one pass with one candidate and no membership check)
    exact_hits: int = 0

    def render(self) -> str:
        return (
            f"{self.job_id}: scanned {self.entries_total} entries in "
            f"{self.passes} pass(es): {self.candidates} candidate(s), "
            f"{self.pruned} pruned, {self.traversals} membership check(s), "
            f"{self.matches} match(es), {self.exact_hits} by the exact index"
        )


@dataclass
class DeltaFallback(ReStoreEvent):
    """An append-grown entry could not be refreshed incrementally.

    The probe falls back to a full rerun (the stale entry is condemned
    so the rerun re-registers fresh state); the event records *why*,
    so the ``incremental`` bench can count the headroom a finer delta
    model (i2MapReduce-style keyed re-grouping) would unlock.
    """

    job_id: str = ""
    entry_id: str = ""
    #: the appended input that triggered the delta attempt
    path: str = ""
    #: "ineligible-chain" (GROUP/JOIN/LIMIT/multi-input shapes),
    #: "multi-load-probe", "user-owned-output" (the refresh would write
    #: a file the repository does not own), "tail-boundary" (append
    #: split a record), or "refresh-in-flight"
    reason: str = ""

    def render(self) -> str:
        return (
            f"{self.job_id}: delta fallback for {self.entry_id} "
            f"on {self.path}: {self.reason}"
        )


@dataclass
class EntryRefreshed(ReStoreEvent):
    """A delta run was merged into an entry's stored output.

    The appended tail of the entry's input ran through the sub-plan
    alone; the resulting delta rows were appended onto the stored
    output file and the entry's recorded extents advanced — the entry
    now answers probes over the grown input without a full rerun.
    """

    job_id: str = ""
    entry_id: str = ""
    output_path: str = ""
    delta_bytes: int = 0
    delta_records: int = 0

    def render(self) -> str:
        return (
            f"{self.job_id}: refreshed {self.entry_id} with "
            f"{self.delta_records} delta record(s) "
            f"({self.delta_bytes} bytes) onto {self.output_path}"
        )


@dataclass
class EntryEvicted(ReStoreEvent):
    """An eviction policy removed an entry (§5 rules 3-4, capacity)."""

    entry_id: str = ""
    policy: str = ""
    output_path: str = ""

    def render(self) -> str:
        return f"evicted {self.entry_id} ({self.policy}): {self.output_path}"


@dataclass
class SnapshotTaken(ReStoreEvent):
    """The persister appended a checkpoint of the repository index to
    its log (recovery replays only the records after it); ``bytes``
    counts what the rotation appended, a compaction's copies included.

    Emitted on the *persister's* bus (not the manager bus): durability
    tooling subscribes there, keeping the manager bus a pure
    reuse-decision channel.
    """

    path: str = ""
    entries: int = 0
    bytes: int = 0

    def render(self) -> str:
        return (
            f"snapshot: {self.entries} entries ({self.bytes} bytes) "
            f"to {self.path}"
        )


@dataclass
class JournalAppended(ReStoreEvent):
    """The persister committed its staged batch to the log: ``records``
    mutation records, ``bytes`` every byte the commit appended, payload
    segments included (emitted on the persister's bus)."""

    path: str = ""
    records: int = 0
    bytes: int = 0

    def render(self) -> str:
        return f"journal: {self.records} record(s) ({self.bytes} bytes) to {self.path}"


@dataclass
class PersistenceDegraded(ReStoreEvent):
    """A log write (a commit or a checkpoint) failed and the persister's
    circuit breaker opened: the batch stays staged in memory (the reuse
    pipeline keeps serving) until a probe write succeeds.

    Emitted on the persister's bus, like the other durability events
    (a recovery scrub's un-journaled verdicts: on the manager bus).
    """

    path: str = ""
    error: str = ""
    #: records parked in the in-memory backlog when the breaker opened
    buffered: int = 0

    def render(self) -> str:
        return (
            f"persistence degraded at {self.path}: {self.error} "
            f"({self.buffered} record(s) buffered)"
        )


@dataclass
class PersistenceRecovered(ReStoreEvent):
    """A probe write succeeded: the breaker closed and the buffered
    backlog drained to the journal (emitted on the persister's bus)."""

    path: str = ""
    #: backlog records flushed on recovery
    flushed: int = 0
    #: failed write attempts while the breaker was open
    failures: int = 0

    def render(self) -> str:
        return (
            f"persistence recovered at {self.path}: flushed "
            f"{self.flushed} record(s) after {self.failures} failure(s)"
        )


@dataclass
class EntryQuarantined(ReStoreEvent):
    """A stored entry failed integrity checks at match time (plan
    fingerprint mismatch, corrupt cold bytes) and was condemned
    instead of served; the probe proceeds as a match miss."""

    entry_id: str = ""
    output_path: str = ""
    reason: str = ""

    def render(self) -> str:
        return (
            f"quarantined {self.entry_id} ({self.reason}): "
            f"{self.output_path}"
        )


@dataclass
class WorkerKilled(ReStoreEvent):
    """A worker process was forcibly terminated (hung past its
    exchange timeout, or alive at a non-waiting shutdown)."""

    worker: str = ""
    pid: int = 0
    reason: str = ""

    def render(self) -> str:
        return f"killed worker {self.worker} (pid {self.pid}): {self.reason}"


EventTypes = Union[Type[ReStoreEvent], Tuple[Type[ReStoreEvent], ...]]


@dataclass
class _Subscription:
    callback: Callable[[ReStoreEvent], None]
    event_types: Optional[Tuple[Type[ReStoreEvent], ...]]
    predicate: Optional[Callable[[ReStoreEvent], bool]]
    active: bool = True

    def wants(self, event: ReStoreEvent) -> bool:
        if not self.active:
            return False
        if self.event_types is not None and not isinstance(event, self.event_types):
            return False
        if self.predicate is not None and not self.predicate(event):
            return False
        return True


class EventBus:
    """Synchronous publish/subscribe fan-out for :class:`ReStoreEvent`.

    Subscribers are invoked in subscription order, on the emitting
    thread; ``emit`` stamps each event with a strictly increasing
    ``seq`` before dispatch.  The bus is thread-safe, and callbacks
    run *outside* the bus lock — a subscriber may freely call back
    into the manager or the bus without risking lock-order deadlocks.
    The trade-off: when several threads emit concurrently, a single
    subscriber can observe events slightly out of ``seq`` order; the
    stamped ``seq`` is the authoritative global order for buffering
    subscribers.
    """

    def __init__(self):
        self._subscriptions: List[_Subscription] = []
        self._seq = itertools.count(1)
        self._lock = threading.RLock()

    def subscribe(
        self,
        callback: Callable[[ReStoreEvent], None],
        event_types: Optional[EventTypes] = None,
        predicate: Optional[Callable[[ReStoreEvent], bool]] = None,
    ) -> Callable[[], None]:
        """Register ``callback``; returns an unsubscribe function.

        ``event_types`` restricts delivery to instances of the given
        event class(es); ``predicate`` adds an arbitrary filter.
        """
        if event_types is not None and not isinstance(event_types, tuple):
            event_types = (event_types,)
        subscription = _Subscription(callback, event_types, predicate)
        with self._lock:
            self._subscriptions.append(subscription)

        def unsubscribe() -> None:
            subscription.active = False
            with self._lock:
                if subscription in self._subscriptions:
                    self._subscriptions.remove(subscription)

        return unsubscribe

    def collect(
        self,
        event_types: Optional[EventTypes] = None,
        predicate: Optional[Callable[[ReStoreEvent], bool]] = None,
    ) -> List[ReStoreEvent]:
        """Subscribe a growing list and return it (handy for tooling
        and tests: ``seen = bus.collect(RewriteApplied)``)."""
        seen: List[ReStoreEvent] = []
        self.subscribe(seen.append, event_types=event_types, predicate=predicate)
        return seen

    def emit(self, event: ReStoreEvent) -> ReStoreEvent:
        with self._lock:
            event.seq = next(self._seq)
            subscriptions = list(self._subscriptions)
        for subscription in subscriptions:
            if subscription.wants(event):
                subscription.callback(event)
        return event


#: the reuse decisions differentials compare byte for byte
DECISION_EVENTS = (RewriteApplied, JobEliminated)
#: what the pre-1.1 string log carried (it had no 'stored' lines)
LOG_EVENTS = (RewriteApplied, JobEliminated, SubJobDiscarded, EntryEvicted)


def render_events(
    events: Iterable[ReStoreEvent], event_types: EventTypes = ReStoreEvent
) -> List[str]:
    """The log lines of the *event_types* events among *events*."""
    return [event.render() for event in events if isinstance(event, event_types)]
