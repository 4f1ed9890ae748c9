"""The fault injector: named sites, seeded clocks, byte-replayable runs.

Every fault-capable operation in the codebase is wrapped in a *named
injection site* — a :func:`fire` call that is a no-op (one global
``None`` check) unless a :class:`FaultInjector` is installed.  The
injector owns a :class:`FaultClock` (per-site, per-timing invocation
counters) and consults the installed
:class:`~repro.faults.plan.FaultPlan`: when a rule's scheduled hit
number comes up, the injector *acts* — crash the process, hang, raise
an :class:`InjectedFault`, corrupt the bytes flowing through the site,
or suppress the operation — and appends the firing to its ``fired``
log.  Identical plan + identical workload ⇒ identical clocks ⇒
identical log: chaos runs replay byte for byte.

Worker processes install their own injector (the plan ships through
the spawn context) keyed by the worker's pool *ordinal*, so a crash
rule aimed at worker 1 can never re-fire on the replacement worker
(ordinal 2) that retries the job.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.faults.plan import FaultPlan, FaultRule

#: returned by :func:`fire` in place of ``data`` when a ``corrupt``
#: rule hits a site whose payload is not bytes (the call site decides
#: how to garble its own medium — e.g. send raw junk down a pipe)
GARBLED = object()


class InjectedFault(OSError):
    """The error a ``raise``-action rule throws at its site.

    An :class:`OSError` subclass on purpose: persistence and pipe code
    already treat ``OSError`` as the I/O failure envelope, so injected
    faults exercise exactly the handling real ones would.
    """

    def __init__(self, site: str, hit: int):
        super().__init__(f"injected fault at {site} (hit {hit})")
        self.site = site
        self.hit = hit


class PartialWriteFault(InjectedFault):
    """A ``partial``-action rule: the write tore mid-syscall.

    Carries the ``prefix`` that reached the medium before the tear.
    Append-style sites (journal, block store) write the prefix and
    re-raise, leaving a genuinely torn tail for recovery to repair;
    atomic-replace sites (snapshot write-temp-rename) let it propagate
    untouched — a real partial write there dies in the temp file and
    never publishes, so the fault degenerates to a failed rotation.
    Uninstrumented sites inherit plain ``raise`` semantics for free.
    """

    def __init__(self, site: str, hit: int, prefix: bytes = b""):
        super().__init__(site, hit)
        self.prefix = prefix


#: every known injection site -> one-line description (the chaos sweep
#: parametrizes over this registry, so a new site is tested by default)
_SITES: Dict[str, str] = {}


def register_site(name: str, description: str) -> str:
    _SITES[name] = description
    return name


def registered_sites() -> Dict[str, str]:
    return dict(_SITES)


# -- the registry (all sites declared here, next to their semantics) ----------

#: worker-side hook exchange with the coordinator (crash-before-reply,
#: crash-after-reply, hang, garbled frame)
SITE_WORKER_HOOK = register_site(
    "worker.hook", "worker→coordinator listener-hook pipe exchange"
)
#: worker's final result send (crash/hang after the job ran)
SITE_WORKER_RESULT = register_site(
    "worker.result", "worker's terminal result/error send"
)
#: persister journal append (OSError → circuit breaker)
SITE_JOURNAL_APPEND = register_site(
    "journal.append", "journal write of buffered mutation records"
)
#: journal scan (bit-flip → CRC failure → torn-tail truncation)
SITE_JOURNAL_READ = register_site(
    "journal.read", "journal read-back during scan/recovery"
)
#: snapshot rotation write (OSError → circuit breaker, rotation aborted)
SITE_SNAPSHOT_WRITE = register_site(
    "snapshot.write", "snapshot storage write during rotation"
)
#: snapshot read-back (corrupt → checksum rejection at recovery)
SITE_SNAPSHOT_READ = register_site(
    "snapshot.read", "snapshot storage read during recovery/rebase"
)
#: local-file durability syscall (fsync failure)
SITE_STORAGE_FSYNC = register_site(
    "storage.fsync", "fsync of a local snapshot/journal file"
)
#: lazy-plan rebuild (fingerprint mismatch → entry quarantine)
SITE_SNAPSHOT_MATERIALIZE = register_site(
    "snapshot.materialize", "LazyPlan plan-graph rebuild at match time"
)
#: DFS block read (corrupted payload)
SITE_DFS_READ = register_site("dfs.read", "DFS file read (file payload)")
#: block-store segment append (partial write → torn segment; any
#: OSError → failed commit, the batch stays staged behind the breaker)
SITE_BLOCKSTORE_APPEND = register_site(
    "blockstore.append", "block-store payload segment append"
)
#: block-store read-back during recovery scrub (bit rot → segment
#: quarantine / torn-tail truncation)
SITE_BLOCKSTORE_READ = register_site(
    "blockstore.read", "block-store segment read during recovery scrub"
)
#: coordinator liveness channel (suppress → standby promotion)
SITE_COORDINATOR_HEARTBEAT = register_site(
    "coordinator.heartbeat", "coordinator health heartbeat tick"
)


@dataclass
class FaultClock:
    """Per-(site, timing) invocation counters for one worker ordinal.

    Hit numbers are 1-based and deterministic: they advance once per
    :func:`fire` call whether or not a rule matches, so a plan's
    schedule addresses real invocation indexes, not fired ones.
    """

    counts: Dict[Tuple[str, str], int] = field(default_factory=dict)

    def tick(self, site: str, when: str) -> int:
        key = (site, when)
        self.counts[key] = self.counts.get(key, 0) + 1
        return self.counts[key]

    def hits(self, site: str, when: str = "before") -> int:
        return self.counts.get((site, when), 0)


class FaultInjector:
    """Executes one :class:`FaultPlan` against the process it lives in."""

    def __init__(self, plan: FaultPlan, *, worker_ordinal: int = 0) -> None:
        self.plan = plan
        self.worker_ordinal = worker_ordinal
        self.clock = FaultClock()
        #: (site, when, worker, hit, action) per firing — the replay log
        self.fired: List[Tuple[str, str, int, int, str]] = []
        self._revived: set = set()
        self._lock = threading.Lock()
        unknown = [s for s in plan.sites() if s not in _SITES]
        if unknown:
            raise ValueError(f"plan names unregistered sites: {unknown}")

    def revive(self, site: str) -> None:
        """Permanently disarm *site* (e.g. after failover replaced the
        entity the sticky rule was killing)."""
        with self._lock:
            self._revived.add(site)

    def reset(self) -> None:
        """Zero every clock, the fired log, and the revived set.

        Reusing one injector across seeds or bench lanes without a
        reset lets hit counters bleed between runs — rules scheduled
        for hit 1 silently never fire again.  Lanes that share an
        injector call this between runs; the test suite's autouse
        fixture calls it on the way out so no state leaks across tests.
        """
        with self._lock:
            self.clock = FaultClock()
            self.fired.clear()
            self._revived.clear()

    def _match(self, site: str, when: str, worker: int) -> Optional[
        Tuple[FaultRule, int]
    ]:
        with self._lock:
            hit = self.clock.tick(site, when)
            if site in self._revived:
                return None
            for rule in self.plan.for_site(site):
                if rule.matches(hit, when, worker):
                    self.fired.append((site, when, worker, hit, rule.action))
                    return rule, hit
        return None

    def fire(
        self,
        site: str,
        *,
        when: str = "before",
        worker: Optional[int] = None,
        data=None,
    ):
        """Advance *site*'s clock; act if a rule's hit number came up.

        Returns ``data`` (transformed for ``corrupt`` rules on bytes,
        :data:`GARBLED` for ``corrupt`` on non-bytes, ``None`` for
        ``suppress``, delayed but unchanged for ``slow``); raises
        :class:`InjectedFault` for ``raise`` rules and
        :class:`PartialWriteFault` (carrying the written prefix) for
        ``partial`` rules; never returns from ``crash``.
        """
        if worker is None:
            worker = self.worker_ordinal
        matched = self._match(site, when, worker)
        if matched is None:
            return data
        rule, hit = matched
        if rule.action == "crash":
            os._exit(170)
        if rule.action == "hang":
            time.sleep(rule.arg if rule.arg > 0 else 30.0)
            return data
        if rule.action == "raise":
            raise InjectedFault(site, hit)
        if rule.action == "slow":
            # seeded latency: the operation still succeeds, just late
            # (distinct from "hang", whose 30s default is meant to trip
            # exchange timeouts; slow-disk stays under them)
            time.sleep(rule.arg if rule.arg > 0 else 0.02)
            return data
        if rule.action == "partial":
            prefix = b""
            if isinstance(data, (bytes, bytearray, memoryview)):
                raw = bytes(data)
                cut = min(max(int(rule.arg), 0), len(raw))
                prefix = raw[:cut]
            raise PartialWriteFault(site, hit, prefix)
        if rule.action == "suppress":
            return None
        # corrupt: deterministic single-bit-flavoured damage
        if isinstance(data, (bytes, bytearray, memoryview)):
            raw = bytearray(bytes(data))
            if not raw:
                return bytes(raw)
            mask = int(rule.arg) or 0xFF
            raw[len(raw) // 2] ^= mask & 0xFF
            return bytes(raw)
        return GARBLED


# -- the module-global active injector (no-op fast path) ----------------------

_ACTIVE: Optional[FaultInjector] = None


def install(target) -> FaultInjector:
    """Install *target* (a plan or an injector) process-globally."""
    global _ACTIVE
    injector = (
        target if isinstance(target, FaultInjector) else FaultInjector(target)
    )
    _ACTIVE = injector
    return injector


def uninstall() -> None:
    global _ACTIVE
    _ACTIVE = None


def active() -> Optional[FaultInjector]:
    return _ACTIVE


def fire(site: str, *, when: str = "before", worker: Optional[int] = None, data=None):
    """Module-level :meth:`FaultInjector.fire`; a near-free no-op
    (one global load + None check) when no injector is installed."""
    injector = _ACTIVE
    if injector is None:
        return data
    return injector.fire(site, when=when, worker=worker, data=data)


__all__ = [
    "GARBLED",
    "FaultClock",
    "FaultInjector",
    "InjectedFault",
    "PartialWriteFault",
    "SITE_BLOCKSTORE_APPEND",
    "SITE_BLOCKSTORE_READ",
    "SITE_COORDINATOR_HEARTBEAT",
    "SITE_DFS_READ",
    "SITE_JOURNAL_APPEND",
    "SITE_JOURNAL_READ",
    "SITE_SNAPSHOT_MATERIALIZE",
    "SITE_SNAPSHOT_READ",
    "SITE_SNAPSHOT_WRITE",
    "SITE_STORAGE_FSYNC",
    "SITE_WORKER_HOOK",
    "SITE_WORKER_RESULT",
    "active",
    "fire",
    "install",
    "register_site",
    "registered_sites",
    "uninstall",
]
