"""A faithful port of the paper's Algorithm 1 (PairwisePlanTraversal).

The production matcher (``repro.core.matcher``) decides containment by
fingerprint membership; this module transcribes the paper's pseudocode
nearly line-by-line and serves as the oracle membership is
property-tested against (``tests/test_algorithm1.py``).

Pseudocode (paper §3):

    PairwisePlanTraversal(operator, succsPlan1, succsPlan2, seen, lastMatch)
     1: if succsPlan2 == φ: return lastMatch
     3: else if succsPlan1 == φ: return null
     6: for all succ ∈ succsPlan1:
     7:   if succ ∉ seen:
     8:     seen ← seen ∪ {succ}
     9:     equivOP ← findEquivalentOP(succ, succsPlan2)
    10:     if equivOP == null: continue
    13:     newSuccsPlan1 ← getSuccessors(succ)
    14:     newSuccsPlan2 ← getSuccs(equivOP)
    15:     retVal ← PairwisePlanTraversal(succ, newSuccsPlan1,
                                           newSuccsPlan2, seen, succ)
    16:     if retVal == null: return null
    19:     succsPlan2 ← succsPlan2 − {equivOP}
    20:     if succsPlan2 == φ: break
    27: return retVal

It is initially called with the Load operators of the input plan as
``succsPlan1`` and of the repository plan as ``succsPlan2``; the
repository plan is contained when all of its operators find equivalent
operators in the input plan.  As in the production matcher, the
repository plan's final Store is terminal (a store writes anywhere),
and Split tees on the input side are looked through.

The traversal grows an *injective* operator mapping over *every*
repository operator, so it refuses two shapes membership accepts (a
stored self-join over two Loads of one path against a job with one
shared Load, and a multi-store stored plan whose non-primary branch
the job lacks), and its equivalence is signature equality, blind to
the order of a UNION's inputs.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.pig.physical.operators import PhysicalOperator, POSplit, POStore
from repro.pig.physical.plan import PhysicalPlan


def operators_equivalent(a: PhysicalOperator, b: PhysicalOperator) -> bool:
    """Local (signature) equivalence; input equivalence is the walk."""
    return a.signature() == b.signature()


class PairwisePlanTraversal:
    """The paper's recursive simultaneous traversal."""

    def __init__(self, input_plan: PhysicalPlan, repo_plan: PhysicalPlan):
        self.input_plan = input_plan
        self.repo_plan = repo_plan
        #: repository operators that found an equivalent (for the final
        #: "all operators of the plan in the repository have equivalent
        #: operators" containment check)
        self.matched_repo_ids: Set[int] = set()
        self.last_match: Optional[PhysicalOperator] = None

    # -- plan accessors (the pseudocode's helpers) -------------------------------

    def _successors_input(self, op: PhysicalOperator) -> List[PhysicalOperator]:
        """getSuccessors on the input plan, transparent through Splits."""
        out: List[PhysicalOperator] = []
        for succ in self.input_plan.successors(op):
            if isinstance(succ, POSplit):
                out.extend(self._successors_input(succ))
            else:
                out.append(succ)
        return out

    def _successors_repo(self, op: PhysicalOperator) -> List[PhysicalOperator]:
        """getSuccs on the repository plan; the final Store is terminal."""
        return [
            succ
            for succ in self.repo_plan.successors(op)
            if not isinstance(succ, POStore)
        ]

    @staticmethod
    def _find_equivalent(
        succ: PhysicalOperator, succs_plan2: List[PhysicalOperator]
    ) -> Optional[PhysicalOperator]:
        """findEquivalentOP (line 9): first signature-equivalent op."""
        for candidate in succs_plan2:
            if operators_equivalent(succ, candidate):
                return candidate
        return None

    # -- the algorithm --------------------------------------------------------------

    def traverse(
        self,
        succs_plan1: List[PhysicalOperator],
        succs_plan2: List[PhysicalOperator],
        seen: Set[int],
        last_match: Optional[PhysicalOperator],
    ) -> Optional[PhysicalOperator]:
        if not succs_plan2:  # line 1
            return last_match  # line 2
        if not succs_plan1:  # line 3
            return None  # line 4

        succs_plan2 = list(succs_plan2)
        ret_val: Optional[PhysicalOperator] = last_match
        for succ in succs_plan1:  # line 6
            if succ.op_id in seen:  # line 7
                continue
            seen.add(succ.op_id)  # line 8
            equiv_op = self._find_equivalent(succ, succs_plan2)  # line 9
            if equiv_op is None:  # line 10
                continue  # line 11
            self.matched_repo_ids.add(equiv_op.op_id)
            ret_val = self.traverse(  # line 15
                self._successors_input(succ),
                self._successors_repo(equiv_op),
                seen,
                succ,
            )
            if ret_val is None:  # line 16
                return None  # line 17
            succs_plan2.remove(equiv_op)  # line 19
            if not succs_plan2:  # line 20
                break  # line 21
        self.last_match = ret_val
        return ret_val  # line 27

    def run(self) -> Optional[PhysicalOperator]:
        """Initial call: both plans' Load operators (paper §3)."""
        result = self.traverse(
            list(self.input_plan.sources()),
            list(self.repo_plan.sources()),
            set(),
            None,
        )
        if result is None:
            return None
        # containment: every repo operator (Stores excluded) matched
        repo_ops = {
            op.op_id
            for op in self.repo_plan.operators
            if not isinstance(op, POStore)
        }
        if not repo_ops <= self.matched_repo_ids:
            return None
        return result


def algorithm1_contains(input_plan: PhysicalPlan, repo_plan: PhysicalPlan) -> bool:
    """True when *repo_plan* is contained in *input_plan* per the
    paper's Algorithm 1 (the reference semantics)."""
    return PairwisePlanTraversal(input_plan, repo_plan).run() is not None
