"""ReStore core: repository, matcher/rewriter, enumerator, policies."""

from repro.core.enumerator import SubJobEnumerator
from repro.core.eviction import (
    EVICTION_POLICIES,
    CapacityEviction,
    EvictionPolicy,
    InputModifiedEviction,
    TimeWindowEviction,
    build_eviction_policy,
)
from repro.core.heuristics import HEURISTICS, classify_operator
from repro.core.manager import ReStoreConfig, ReStoreManager
from repro.core.matcher import MatchResult, PlanMatcher
from repro.core.repository import EntryStats, Repository, RepositoryEntry
from repro.core.rewriter import PlanRewriter
from repro.core.selector import (
    SELECTORS,
    KeepAllSelector,
    KeepDecision,
    RuleBasedSelector,
    Selector,
)

__all__ = [
    "EVICTION_POLICIES",
    "HEURISTICS",
    "SELECTORS",
    "build_eviction_policy",
    "CapacityEviction",
    "EntryStats",
    "EvictionPolicy",
    "InputModifiedEviction",
    "KeepAllSelector",
    "KeepDecision",
    "MatchResult",
    "PlanMatcher",
    "PlanRewriter",
    "Repository",
    "RepositoryEntry",
    "ReStoreConfig",
    "ReStoreManager",
    "RuleBasedSelector",
    "Selector",
    "SubJobEnumerator",
    "TimeWindowEviction",
    "classify_operator",
]
