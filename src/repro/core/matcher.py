"""Plan matching: is a repository plan contained in an input job plan?

Implements the paper's §3 matching semantics.  Two operators are
equivalent when (1) their inputs are pipelined from equivalent
operators or the same data sets, and (2) they perform functions that
produce the same output data — here: equal :meth:`signature` plus
pairwise-equivalent (ordered) inputs.

``PairwisePlanTraversal`` (Algorithm 1) traverses both plans
simultaneously from their Load operators.  Our implementation walks
the repository plan in topological order, growing an injective mapping
repo-op -> input-op; the repository plan's final Store is terminal
(a stored sub-job's Store writes its output wherever ReStore chose —
it matches any insertion point, cf. Figures 5–6).

The traversal looks *through* POSplit tees on the input side so that
plans already instrumented by the sub-job enumerator still match.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.exceptions import PlanError
from repro.pig.physical.operators import (
    PhysicalOperator,
    POSplit,
    POStore,
)
from repro.pig.physical.plan import PhysicalPlan


@dataclass
class MatchResult:
    """A successful containment of a repository plan in an input plan."""

    #: repo op_id -> matched input operator
    mapping: Dict[int, PhysicalOperator] = field(default_factory=dict)
    #: input operator equivalent to the repo plan's frontier (the
    #: operator feeding the repo Store) — the rewrite splice point
    frontier: Optional[PhysicalOperator] = None
    #: True when the repo plan covers the input job completely
    whole_job: bool = False

    @property
    def matched_input_ids(self) -> Set[int]:
        return {op.op_id for op in self.mapping.values()}


def operators_equivalent(a: PhysicalOperator, b: PhysicalOperator) -> bool:
    """Local (signature) equivalence; input equivalence is the walk."""
    return a.signature() == b.signature()


class PlanMatcher:
    """Tests repository-plan containment and produces rewrite info.

    ``traversal_count`` tallies every pairwise plan traversal this
    matcher has run — the §3 hot-path unit the fingerprint index
    exists to minimize; benchmarks and the CI perf gate read it.
    """

    def __init__(self):
        self.traversal_count = 0

    def effective_successors(
        self, plan: PhysicalPlan, op: PhysicalOperator
    ) -> List[PhysicalOperator]:
        """Successors of *op*, looking through POSplit tees."""
        out: List[PhysicalOperator] = []
        for succ in plan.successors(op):
            if isinstance(succ, POSplit):
                out.extend(self.effective_successors(plan, succ))
            else:
                out.append(succ)
        return out

    # -- entry point ----------------------------------------------------------------

    def match(
        self, input_plan: PhysicalPlan, repo_plan: PhysicalPlan
    ) -> Optional[MatchResult]:
        """Return a :class:`MatchResult` if *repo_plan* is contained in
        *input_plan*, else None.

        Backtracks over candidate assignments: symmetric branches
        (e.g. a self-join loading the same path twice) can make the
        greedy choice wrong even though a consistent mapping exists.
        """
        self.traversal_count += 1
        frontier_repo = self.repo_frontier(repo_plan)
        if frontier_repo is None:
            return None

        order = [op for op in repo_plan.topo_order() if not isinstance(op, POStore)]
        mapping: Dict[int, PhysicalOperator] = {}
        used_input_ids: Set[int] = set()

        def assign(position: int) -> bool:
            if position == len(order):
                return True
            repo_op = order[position]
            for candidate in self._candidates_for(
                input_plan, repo_plan, repo_op, mapping, used_input_ids
            ):
                mapping[repo_op.op_id] = candidate
                used_input_ids.add(candidate.op_id)
                if assign(position + 1):
                    return True
                del mapping[repo_op.op_id]
                used_input_ids.discard(candidate.op_id)
            return False

        if not assign(0):
            return None

        frontier_input = mapping[frontier_repo.op_id]
        whole = self._is_whole_job(input_plan, mapping, frontier_input)
        return MatchResult(mapping=mapping, frontier=frontier_input, whole_job=whole)

    def contains(self, outer: PhysicalPlan, inner: PhysicalPlan) -> bool:
        """Paper's subsumption: every op of *inner* has an equivalent
        in *outer* (used to order the repository, §3 rule 1)."""
        return self.match(outer, inner) is not None

    def repo_frontier(self, repo_plan: PhysicalPlan) -> Optional[PhysicalOperator]:
        """The repo operator feeding its primary Store."""
        store = repo_plan.primary_store()
        if store is None:
            stores = repo_plan.stores()
            if not stores:
                raise PlanError("repository plan has no store")
            store = stores[0]
        preds = repo_plan.predecessors(store)
        if len(preds) != 1:
            return None
        return preds[0]

    # -- internals ---------------------------------------------------------------------

    def _candidates_for(
        self,
        input_plan: PhysicalPlan,
        repo_plan: PhysicalPlan,
        repo_op: PhysicalOperator,
        mapping: Dict[int, PhysicalOperator],
        used_input_ids: Set[int],
    ) -> List[PhysicalOperator]:
        """Input operators that can extend the mapping with *repo_op*."""
        repo_preds = repo_plan.predecessors(repo_op)

        if not repo_preds:
            # A source (Load): match against the input plan's loads.
            pool = [op for op in input_plan.loads() if op.op_id not in used_input_ids]
        else:
            # All predecessors were already mapped (topological walk);
            # candidates are common effective successors of the images.
            pools: List[List[PhysicalOperator]] = []
            for pred in repo_preds:
                image = mapping.get(pred.op_id)
                if image is None:
                    return []
                pools.append(self.effective_successors(input_plan, image))
            first = pools[0]
            common_ids = set(op.op_id for op in first)
            for pool in pools[1:]:
                common_ids &= {op.op_id for op in pool}
            pool = [
                op
                for op in first
                if op.op_id in common_ids and op.op_id not in used_input_ids
            ]

        candidates = [op for op in pool if operators_equivalent(op, repo_op)]
        # For multi-input ops the *order* of inputs must also agree;
        # signature equality of the upstream LocalRearranges (which
        # embed their branch index) already enforces this.
        candidates.sort(key=lambda op: op.op_id)
        return candidates

    def _is_whole_job(
        self,
        input_plan: PhysicalPlan,
        mapping: Dict[int, PhysicalOperator],
        frontier_input: PhysicalOperator,
    ) -> bool:
        """The repo plan covers the input job completely iff the
        frontier feeds the job's primary store and, apart from that
        store (and pass-through splits / side stores), every input
        operator is matched."""
        primary = input_plan.primary_store()
        if primary is None:
            return False
        feeds_primary = any(
            succ.op_id == primary.op_id
            for succ in self.effective_successors(input_plan, frontier_input)
        )
        if not feeds_primary:
            return False
        matched = {op.op_id for op in mapping.values()}
        for op in input_plan.operators:
            if op.op_id in matched:
                continue
            if isinstance(op, POSplit):
                continue
            if isinstance(op, POStore):
                continue  # primary store + any injected side stores
            return False
        return True
