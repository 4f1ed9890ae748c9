"""Deterministic, seeded fault plans.

A :class:`FaultPlan` is a pure-data description of *which* injection
sites misbehave, *when* (which hit numbers of that site), and *how*
(crash / hang / raise / corrupt / partial / slow).  Plans are frozen,
picklable, and
carry their seed, so a chaos run is byte-replayable: the same plan
against the same workload produces the same fault timeline, and the
:class:`~repro.faults.injector.FaultInjector` records every firing in
a log the tests compare across replays.

Two plan builders cover the common shapes:

* :func:`storm_plan` — the bench's seeded fault storm (worker crash,
  worker hang, a journal-error window), with every hit number drawn
  from the seed;
* hand-written plans in tests, one rule per scenario.

Worker-side rules target a worker *ordinal* (the pool's spawn
sequence number): a replacement worker spawned after a crash has a new
ordinal, so a one-shot crash rule can never re-fire on the retry and
walk the service past its retry budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: actions an injected rule can take when its site fires
ACTIONS = ("crash", "hang", "raise", "corrupt", "suppress", "partial", "slow")

#: rule timing relative to the instrumented operation
WHENS = ("before", "after")


@dataclass(frozen=True)
class FaultRule:
    """One scheduled misbehaviour of one named injection site.

    ``hits`` are 1-based per-site invocation numbers (per worker
    ordinal for worker-side sites); the rule fires when the site's
    clock reaches any of them.  ``sticky`` rules keep firing on every
    hit at or past their first scheduled one (a site that stays
    broken).
    """

    site: str
    action: str
    hits: Tuple[int, ...] = (1,)
    when: str = "before"
    #: worker ordinal this rule targets (0 = coordinator-side sites)
    worker: int = 0
    sticky: bool = False
    #: action parameter: hang/slow seconds, corrupt XOR mask, or the
    #: byte offset a ``partial`` write is cut at (0 = nothing lands)
    arg: float = 0.0

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.when not in WHENS:
            raise ValueError(f"unknown fault timing {self.when!r}")
        if not self.hits or any(h < 1 for h in self.hits):
            raise ValueError("hits must be 1-based invocation numbers")

    def matches(self, hit: int, when: str, worker: int) -> bool:
        if self.when != when or self.worker != worker:
            return False
        if self.sticky:
            return hit >= min(self.hits)
        return hit in self.hits


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, immutable schedule of fault rules.

    The plan is plain data (it ships through the spawn context to
    worker processes untouched); all firing state lives in the
    injector's :class:`~repro.faults.injector.FaultClock`.
    """

    seed: int = 0
    rules: Tuple[FaultRule, ...] = ()

    def for_site(self, site: str) -> Tuple[FaultRule, ...]:
        return tuple(rule for rule in self.rules if rule.site == site)

    def sites(self) -> Tuple[str, ...]:
        return tuple(sorted({rule.site for rule in self.rules}))

    def with_rules(self, *rules: FaultRule) -> "FaultPlan":
        return FaultPlan(seed=self.seed, rules=self.rules + tuple(rules))

    def __len__(self) -> int:
        return len(self.rules)


@dataclass
class StormSpec:
    """Knobs of :func:`storm_plan`, all derived deterministically from
    the seed unless pinned explicitly."""

    seed: int = 13
    #: jobs the storm's workload will run (hit numbers are drawn < this)
    n_jobs: int = 18
    #: must exceed the service's exchange timeout for the hang to be
    #: detected as one (the hung worker is killed mid-sleep)
    hang_seconds: float = 5.0
    #: journal appends that fail before the breaker's probe reopens
    journal_error_hits: int = 2
    worker_ordinals: Tuple[int, ...] = (1,)
    #: per-site hit overrides ({site: hit}) for tests that pin timing
    pinned: Dict[str, int] = field(default_factory=dict)


def storm_plan(spec: Optional[StormSpec] = None) -> FaultPlan:
    """The bench's seeded fault storm.

    One worker crash, one worker hang and a journal-error window (the
    circuit breaker trips, then recovers on probe).  Entry corruption
    is injected separately (it targets a specific entry's cold bytes,
    not a site clock), and so is a coordinator restart (it is a new
    service, not a fault at a site).
    """
    spec = spec or StormSpec()
    rng = random.Random(spec.seed)
    span = max(4, spec.n_jobs)
    # distinct early hit numbers for the worker faults
    crash_hit = spec.pinned.get("worker.job", rng.randint(2, max(2, span // 3)))
    hang_hit = spec.pinned.get(
        "worker.result", crash_hit + 1 + rng.randint(1, 2)
    )
    journal_hit = spec.pinned.get("journal.append", rng.randint(1, 3))
    ordinal = spec.worker_ordinals[0]
    rules = (
        FaultRule(
            site="worker.job",
            action="crash",
            hits=(crash_hit,),
            when="before",
            worker=ordinal,
        ),
        FaultRule(
            site="worker.result",
            action="hang",
            hits=(hang_hit,),
            when="before",
            worker=ordinal + 1,  # the crash's replacement worker
            arg=spec.hang_seconds,
        ),
        FaultRule(
            site="journal.append",
            action="raise",
            hits=tuple(range(journal_hit, journal_hit + spec.journal_error_hits)),
            when="before",
        ),
    )
    return FaultPlan(seed=spec.seed, rules=rules)


__all__ = [
    "ACTIONS",
    "WHENS",
    "FaultPlan",
    "FaultRule",
    "StormSpec",
    "storm_plan",
]
