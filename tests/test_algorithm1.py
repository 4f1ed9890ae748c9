"""Fingerprint membership against the paper's Algorithm 1 as the oracle.

``algorithm1.py`` (in this directory) is a line-by-line port of the
paper's PairwisePlanTraversal.  The production matcher decides
containment by fingerprint membership instead (``repro.core.matcher``).
Over generated (job, stored plan) pairs the two must agree, except on a
named list of shapes where they differ on purpose and in one stated
direction:

* ``swapped-union`` — a stored UNION over the job's inputs in the other
  order.  The oracle's signature equivalence is blind to input order and
  accepts; membership refuses, because serving it changes the row order
  of the answer;
* ``self-join`` — a self-join whose LOAD of one path is shared (through a
  Split tee) in one plan: the oracle's mapping must be injective and
  cannot map a stored Split, and refuses; membership accepts, and the
  computation is the same;
* ``multi-store`` — a stored plan whose stores branch at a Split: the
  oracle maps every stored operator, non-primary branch included, and
  refuses; membership needs only what feeds the primary Store.

Every shape class must produce at least one accept and one reject.
``CHAOS_SEED`` seeds the property and raises its example budget (CI's
chaos-smoke job).
"""

import os
from collections import Counter
from typing import NamedTuple, Tuple

import pytest
from algorithm1 import PairwisePlanTraversal, algorithm1_contains
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.core.matcher import PlanMatcher
from repro.pig.physical.operators import (
    POFilter,
    POForEach,
    POGlobalRearrange,
    POLoad,
    POLocalRearrange,
    POPackage,
    POSplit,
    POStore,
    POUnion,
)
from repro.pig.physical.plan import PhysicalPlan, linear_plan
from repro.relational.expressions import BinaryOp, Column, Const
from repro.relational.schema import Schema
from repro.relational.types import DataType

SCHEMA = Schema.of(("u", DataType.CHARARRAY), ("r", DataType.DOUBLE))

CHAOS_SEED = os.environ.get("CHAOS_SEED")
EXAMPLES = 2000 if CHAOS_SEED else 300


def stage(name):
    if name == "filter":
        return POFilter(BinaryOp(">", Column(1), Const(1.0)), schema=SCHEMA)
    if name == "filter2":
        return POFilter(BinaryOp("<", Column(1), Const(9.0)), schema=SCHEMA)
    return POForEach([Column(0)], [False], ["u"], schema=SCHEMA.project([0]))


def pipeline(path, *stages, store="out"):
    ops = [POLoad(path, SCHEMA)] + [stage(name) for name in stages]
    return linear_plan(*ops, POStore(store, SCHEMA))


def join_job():
    plan = PhysicalPlan()
    la = plan.add(POLoad("a", SCHEMA))
    pa = plan.add(POForEach([Column(0)], [False], ["u"], schema=SCHEMA.project([0])))
    lb = plan.add(POLoad("b", SCHEMA))
    pb = plan.add(POForEach([Column(0)], [False], ["n"], schema=SCHEMA.project([0])))
    ra = plan.add(POLocalRearrange([Column(0)], branch=0))
    rb = plan.add(POLocalRearrange([Column(0)], branch=1))
    gr = plan.add(POGlobalRearrange(2))
    pk = plan.add(POPackage("join", 2))
    st_ = plan.add(POStore("out"))
    for src, dst in [
        (la, pa),
        (pa, ra),
        (lb, pb),
        (pb, rb),
        (ra, gr),
        (rb, gr),
        (gr, pk),
        (pk, st_),
    ]:
        plan.connect(src, dst)
    return plan


CASES = [
    # (input plan builder, repo plan builder, expected containment)
    (lambda: pipeline("p", "filter", "project"), lambda: pipeline("p", "filter"), True),
    (
        lambda: pipeline("p", "filter", "project"),
        lambda: pipeline("p", "filter", "project"),
        True,
    ),
    (
        lambda: pipeline("p", "filter"),
        lambda: pipeline("p", "filter", "project"),
        False,
    ),
    (lambda: pipeline("p", "filter"), lambda: pipeline("q", "filter"), False),
    (
        lambda: pipeline("p", "filter", "filter2"),
        lambda: pipeline("p", "filter2"),
        False,
    ),  # wrong order
    (lambda: join_job(), lambda: pipeline("a", "project"), True),
    (lambda: join_job(), lambda: pipeline("b", "project"), True),
    (lambda: join_job(), lambda: join_job(), True),
    (lambda: join_job(), lambda: pipeline("c", "project"), False),
]


class TestAgainstProductionMatcher:
    @pytest.mark.parametrize("case_index", range(len(CASES)))
    def test_agreement(self, case_index):
        make_input, make_repo, expected = CASES[case_index]
        input_plan, repo_plan = make_input(), make_repo()
        reference = algorithm1_contains(input_plan, repo_plan)
        production = PlanMatcher().match(input_plan, repo_plan) is not None
        assert reference == expected
        assert production == expected
        assert reference == production


class TestTraversalDetails:
    def test_returns_last_match(self):
        traversal = PairwisePlanTraversal(
            pipeline("p", "filter", "project"), pipeline("p", "filter")
        )
        result = traversal.run()
        assert result is not None
        assert isinstance(result, POFilter)

    def test_no_match_returns_none(self):
        traversal = PairwisePlanTraversal(
            pipeline("p", "filter"), pipeline("x", "filter")
        )
        assert traversal.run() is None

    def test_matched_repo_ids_cover_plan(self):
        repo = pipeline("p", "filter")
        traversal = PairwisePlanTraversal(pipeline("p", "filter", "project"), repo)
        traversal.run()
        repo_non_stores = {
            op.op_id for op in repo.operators if not isinstance(op, POStore)
        }
        assert repo_non_stores <= traversal.matched_repo_ids

    def test_empty_repo_sources(self):
        plan = pipeline("p", "filter")
        empty = PhysicalPlan()
        traversal = PairwisePlanTraversal(plan, empty)
        assert traversal.run() is None


# -- the property -------------------------------------------------------------

#: a plan recipe: (kind, *parameters) — see ``build``.  Branches are
#: (path, stages) pairs; stages are names for ``stage``.
Recipe = Tuple


class Pair(NamedTuple):
    shape: str
    job: Recipe
    stored: Recipe


def chain(plan, src, stages):
    """Append *stages* after *src*; returns the last operator."""
    for name in stages:
        op = plan.add(stage(name))
        plan.connect(src, op)
        src = op
    return src


def store(plan, src, path="out", side=False):
    plan.connect(src, plan.add(POStore(path, SCHEMA, side=side)))


def tee(plan, src):
    split = plan.add(POSplit())
    plan.connect(src, split)
    return split


def build(recipe: Recipe) -> PhysicalPlan:
    """The plan a recipe describes.

    * ``("chain", path, stages)`` — LOAD → stages → STORE;
    * ``("tee", path, before, after)`` — as an instrumented job: a Split
      after *before* feeds *after* → STORE and a side STORE;
    * ``("join", kind, branch_a, branch_b, after)`` — two LOADs, each
      through its stages into a JOIN/COGROUP, then *after* → STORE;
    * ``("shared", kind, path, stages_a, stages_b, after)`` — a self-join
      whose one LOAD feeds both branches through a Split;
    * ``("union", branch_a, branch_b, after, swapped)`` — a UNION of two
      branches, in the other input order when *swapped*;
    * ``("multi", path, before, primary, second)`` — a Split after
      *before* feeds the primary STORE and a second, non-side STORE.
    """
    kind, *params = recipe
    plan = PhysicalPlan()
    if kind == "chain":
        path, stages = params
        store(plan, chain(plan, plan.add(POLoad(path, SCHEMA)), stages))
    elif kind == "tee":
        path, before, after = params
        split = tee(plan, chain(plan, plan.add(POLoad(path, SCHEMA)), before))
        store(plan, chain(plan, split, after))
        store(plan, split, "side", side=True)
    elif kind in ("join", "shared"):
        if kind == "join":
            mode, (path_a, stages_a), (path_b, stages_b), after = params
            src_a = plan.add(POLoad(path_a, SCHEMA))
            src_b = plan.add(POLoad(path_b, SCHEMA))
        else:
            mode, path, stages_a, stages_b, after = params
            src_a = src_b = tee(plan, plan.add(POLoad(path, SCHEMA)))
        group = plan.add(POGlobalRearrange(2))
        for branch, (src, stages) in enumerate(((src_a, stages_a), (src_b, stages_b))):
            rearrange = plan.add(POLocalRearrange([Column(0)], branch=branch))
            plan.connect(chain(plan, src, stages), rearrange)
            plan.connect(rearrange, group)
        package = plan.add(POPackage(mode, 2))
        plan.connect(group, package)
        store(plan, chain(plan, package, after))
    elif kind == "union":
        branch_a, branch_b, after, swapped = params
        ends = [
            chain(plan, plan.add(POLoad(path, SCHEMA)), stages)
            for path, stages in (branch_a, branch_b)
        ]
        union = plan.add(POUnion(2))
        for end in reversed(ends) if swapped else ends:
            plan.connect(end, union)
        store(plan, chain(plan, union, after))
    else:
        path, before, primary, second = params
        split = tee(plan, chain(plan, plan.add(POLoad(path, SCHEMA)), before))
        store(plan, chain(plan, split, primary))
        store(plan, chain(plan, split, second), "second")
    plan.validate()
    return plan


def named_difference(pair: Pair):
    """The named shape *pair* is, with the direction the two verdicts
    may differ in there, as (name, oracle, membership); None outside."""
    job, stored = pair.job, pair.stored
    if job[0] == stored[0] == "union" and job[4] != stored[4]:
        return "swapped-union", True, False
    if "shared" in (job[0], stored[0]) and stored[0] in ("join", "shared"):
        return "self-join", False, True
    if stored[0] == "multi":
        return "multi-store", False, True
    return None


STAGES = st.lists(st.sampled_from(["filter", "filter2", "project"]), max_size=3)
MODES = ("join", "cogroup")
SHAPES = ("chain", "tee", "join", "union", "self-join", "multi-store")


def prefix(draw, stages):
    return stages[: draw(st.integers(0, len(stages)))]


@st.composite
def pairs(draw):
    """A (job, stored plan) pair of one shape class.  About half the
    stored plans are cut from the job (contained but for a swapped
    UNION); the rest read another path or package with another mode, or
    are drawn freely, so every class accepts as well as rejects."""
    shape = draw(st.sampled_from(SHAPES))
    cut = draw(st.booleans())
    path = "a" if cut else draw(st.sampled_from(["a", "c"]))
    before, after = draw(STAGES), draw(STAGES)
    mode = draw(st.sampled_from(MODES))
    other_mode = mode if cut else MODES[1 - MODES.index(mode)]
    if shape in ("chain", "tee"):
        job = ("chain", "a", before + after)
        if shape == "tee":
            job = ("tee", "a", before, after)
        stages = before + after
        stored = ("chain", path, prefix(draw, stages) if cut else draw(STAGES))
    elif shape in ("join", "union"):
        branches = (("a", draw(STAGES)), ("b", draw(STAGES)))
        if shape == "join":
            job = ("join", mode, *branches, after)
        else:
            job = ("union", *branches, after, draw(st.booleans()))
        if draw(st.booleans()):  # a branch prefix
            branch_path, stages = branches[draw(st.integers(0, 1))]
            stages = prefix(draw, stages) if cut else draw(STAGES)
            stored = ("chain", branch_path if cut else path, stages)
        elif shape == "join":
            stored = ("join", other_mode, *branches, prefix(draw, after))
        else:
            swapped = draw(st.booleans())
            stored = ("union", *branches, prefix(draw, after), swapped)
    elif shape == "self-join":
        branches = draw(STAGES), draw(STAGES)
        separate = tuple(("a", stages) for stages in branches)
        job = ("shared", mode, "a", *branches, after)
        if draw(st.booleans()):
            job = ("join", mode, *separate, after)
        stored = ("shared", other_mode, "a", *branches, prefix(draw, after))
        if draw(st.booleans()):
            stored = ("join", other_mode, *separate, stored[-1])
    else:
        job = draw(
            st.sampled_from(
                [
                    ("chain", "a", before + after),
                    ("tee", "a", before, after),
                    ("multi", "a", before, after, draw(STAGES)),
                ]
            )
        )
        stored = ("multi", path, before, prefix(draw, after), draw(STAGES))
    return Pair(shape, job, stored)


def pairs_of_the_cases():
    """``CASES`` as recipes: the hand-picked examples run first."""
    chains = [
        (["filter", "project"], "p", ["filter"]),
        (["filter", "project"], "p", ["filter", "project"]),
        (["filter"], "p", ["filter", "project"]),
        (["filter"], "q", ["filter"]),
        (["filter", "filter2"], "p", ["filter2"]),
    ]
    cases = [
        Pair("chain", ("chain", "p", job), ("chain", path, stored))
        for job, path, stored in chains
    ]
    join = ("join", "join", ("a", ["project"]), ("b", ["project"]), [])
    cases += [Pair("join", join, ("chain", path, ["project"])) for path in "abc"]
    return cases + [Pair("join", join, join)]


def seeded(test):
    return seed(int(CHAOS_SEED))(test) if CHAOS_SEED else test


def test_membership_agrees_with_algorithm_1_except_on_named_shapes():
    verdicts = Counter()

    # derandomized unless CHAOS_SEED is set: the same examples every
    # tier-1 run, so the non-vacuity checks below cannot flake
    @seeded
    @settings(
        max_examples=EXAMPLES, deadline=None, database=None, derandomize=not CHAOS_SEED
    )
    @given(pairs())
    def check(pair):
        job, stored = build(pair.job), build(pair.stored)
        oracle = algorithm1_contains(job, stored)
        membership = PlanMatcher().match(job, stored) is not None
        verdicts[pair.shape, membership] += 1
        named = named_difference(pair)
        if oracle != membership:
            assert named is not None and named[1:] == (oracle, membership), pair
            verdicts[named[0]] += 1

    for pair in pairs_of_the_cases():
        check = example(pair)(check)
    check()
    for shape in SHAPES:
        assert verdicts[shape, True] and verdicts[shape, False], shape
    for name in ("swapped-union", "self-join", "multi-store"):
        assert verdicts[name], f"no {name} difference was drawn"


def test_a_swapped_union_is_not_contained():
    branches = (("a", ["filter"]), ("b", []))
    job = build(("union", *branches, ["project"], False))
    stored = build(("union", *branches, [], True))
    assert algorithm1_contains(job, stored)
    assert PlanMatcher().match(job, stored) is None
    same_order = build(("union", *branches, [], False))
    assert PlanMatcher().match(job, same_order) is not None
