"""Plan matching: is a repository plan contained in an input job plan?

Implements the paper's §3 matching semantics.  Two operators are
equivalent when (1) their inputs are pipelined from equivalent
operators or the same data sets, and (2) they perform functions that
produce the same output data — here: equal :meth:`signature` plus
pairwise-equivalent (ordered) inputs.  That recursive definition is
exactly the Merkle fingerprint every :class:`PhysicalPlan` keeps per
operator (:meth:`~PhysicalPlan.op_fingerprint`), so containment is
**fingerprint membership**: a repository plan is contained in a job
when the fingerprint of its frontier (the operator feeding its primary
Store) is the fingerprint of some job operator, and that operator is
the rewrite's splice point.  The repository plan's Store is terminal
(a stored sub-job's Store writes wherever ReStore chose — it matches
any insertion point, cf. Figures 5–6), and Split tees are transparent
(a Split's fingerprint is its input's), so plans already instrumented
by the sub-job enumerator still match.

Where two job operators share the frontier's fingerprint the lowest
op id wins.  The paper's Algorithm 1 (a pairwise traversal growing an
injective operator mapping) is the reference these semantics are
property-tested against; membership also accepts two shapes it
refuses, both computing identical bytes — a stored self-join over two
Loads of one path against a job whose one Load feeds both branches,
and a multi-store stored plan whose non-primary branch the job lacks.
A UNION's input order stays in the fingerprint: a UNION over swapped
inputs writes its rows in another order, so it is not served.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.pig.physical.operators import PhysicalOperator, POSplit, POStore
from repro.pig.physical.plan import PhysicalPlan


@dataclass
class MatchResult:
    """A successful containment of a repository plan in an input plan."""

    #: input operator equivalent to the repo plan's frontier (the
    #: operator feeding the repo Store) — the rewrite splice point
    frontier: PhysicalOperator
    #: True when the repo plan covers the input job completely
    whole_job: bool = False


class PlanMatcher:
    """Tests repository-plan containment and produces rewrite info."""

    def match(
        self, input_plan: PhysicalPlan, repo_plan: PhysicalPlan
    ) -> Optional[MatchResult]:
        """Return a :class:`MatchResult` if *repo_plan* is contained in
        *input_plan*, else None.

        Asking a restored entry's lazy plan for its frontier rebuilds
        and verifies it: a corrupt stored plan raises
        :class:`~repro.persistence.snapshot.SnapshotError` here, before
        anything is served from it.
        """
        frontier = repo_plan.frontier()
        if frontier is None:
            return None
        fingerprint = repo_plan.op_fingerprint(frontier)
        image = input_plan.operator_fingerprints().get(fingerprint)
        if image is None:
            return None
        return MatchResult(image, self._is_whole_job(input_plan, image))

    @staticmethod
    def _is_whole_job(input_plan: PhysicalPlan, frontier: PhysicalOperator) -> bool:
        """The repo plan covers the input job completely iff the
        frontier feeds the job's primary store (through Split tees) and
        every other operator but Splits and Stores (side stores
        included) lies upstream of it."""
        primary = input_plan.primary_store()
        if primary is None:
            return False
        feeder = input_plan.predecessors(primary)[0]
        while isinstance(feeder, POSplit):
            feeder = input_plan.predecessors(feeder)[0]
        if feeder is not frontier:
            return False
        upstream = input_plan.upstream_closure(frontier)
        return all(
            op.op_id in upstream or isinstance(op, (POSplit, POStore))
            for op in input_plan.operators
        )
