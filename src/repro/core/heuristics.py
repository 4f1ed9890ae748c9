"""Sub-job selection heuristics (paper §4).

* **Conservative (HC)** — materialize outputs of operators known to
  reduce their input size: Project and Filter.
* **Aggressive (HA)** — additionally materialize outputs of expensive
  operators: Join, Group, and CoGroup.
* **No heuristic (NH)** — materialize after *every* physical operator.

:data:`HEURISTICS` names each as the set of :func:`classify_operator`
categories it materializes (plus ``never``: whole jobs only).

The physical vocabulary maps onto the paper's operator names as:
Project = a POForEach with no bag/aggregate expressions (a map-side
projection); Filter = POFilter; Join = the flattening POForEach right
after a join POPackage; Group/CoGroup = the POPackage itself (the
paper's L6 discussion: "a Store operator is injected in the reducer
after an expensive Group operator").
"""

from __future__ import annotations

from repro.pig.physical.operators import (
    PhysicalOperator,
    POFilter,
    POForEach,
    POGlobalRearrange,
    POLimit,
    POLoad,
    POLocalRearrange,
    POPackage,
    POSplit,
    POStore,
    POUnion,
)
from repro.pig.physical.plan import PhysicalPlan
from repro.relational.expressions import AggCall, BagField, BagStar


def _is_group_all(op: POPackage, plan: PhysicalPlan) -> bool:
    """GROUP ALL: the rearrange key is a constant (one giant group).

    Materializing it would store the whole input as a single bag; with
    Hadoop combiners the reducer never sees that bag, which is why the
    paper's Table 1 shows HA == HC for L8 (GROUP ALL + algebraic
    aggregates).  We exclude it from HA accordingly.
    """
    from repro.relational.expressions import Const

    for gr in plan.predecessors(op):
        for lr in plan.predecessors(gr):
            if isinstance(lr, POLocalRearrange):
                if len(lr.key_exprs) == 1 and isinstance(lr.key_exprs[0], Const):
                    return True
    return False


def classify_operator(op: PhysicalOperator, plan: PhysicalPlan) -> str:
    """Paper-level operator category of a physical operator."""
    from repro.pig.physical.operators import POFRJoin

    if isinstance(op, POFRJoin):
        return "join"
    if isinstance(op, POFilter):
        return "filter"
    if isinstance(op, POPackage):
        if op.mode == "group" and _is_group_all(op, plan):
            return "group-all"
        return {
            "group": "group",
            "cogroup": "cogroup",
            "join": "join-package",
            "distinct": "distinct",
            "sort": "sort",
        }[op.mode]
    if isinstance(op, POForEach):
        preds = plan.predecessors(op)
        if (
            len(preds) == 1
            and isinstance(preds[0], POPackage)
            and preds[0].mode == "join"
        ):
            return "join"
        if any(isinstance(e, (AggCall, BagField, BagStar)) for e in op.exprs):
            return "aggregate"
        return "project"
    if isinstance(op, POUnion):
        return "union"
    if isinstance(op, POLimit):
        return "limit"
    if isinstance(op, (POLoad, POStore, POSplit, POLocalRearrange, POGlobalRearrange)):
        return "structural"
    return "other"


#: categories that can never anchor a sub-job (no materializable rows,
#: or materializing is meaningless)
_NEVER = frozenset({"structural", "join-package"})

#: every category :func:`classify_operator` returns (NH materializes
#: all but ``_NEVER``, so a new category belongs here too)
_CATEGORIES = frozenset(
    "join filter group-all group cogroup join-package distinct sort "
    "aggregate project union limit structural other".split()
)

#: heuristic name -> the operator categories whose outputs it
#: materializes as sub-jobs
HEURISTICS = {
    # HC: operators that reduce their input size (Project, Filter)
    "conservative": frozenset({"project", "filter"}),
    # HA: size-reducing plus expensive operators (the paper default)
    "aggressive": frozenset({"project", "filter", "join", "group", "cogroup"}),
    # NH: a Store after every materializable physical operator
    "no-heuristic": _CATEGORIES - _NEVER,
    # no sub-jobs at all (whole jobs only)
    "never": frozenset(),
}
