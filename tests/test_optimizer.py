"""Unit tests for the logical optimizer rules."""

from repro.pig.logical.builder import build_logical_plan
from repro.pig.logical.operators import LOFilter, LOForEach, LOLoad
from repro.pig.logical.optimizer import (
    LogicalOptimizer,
    MergeConsecutiveFilters,
    MergeForEach,
    PushFilterBeforeForEach,
    RemoveIdentityForEach,
)
from repro.pig.parser import parse
from repro.relational.expressions import BinaryOp, Column, Const


def build(source, optimize=True):
    plan = build_logical_plan(parse(source))
    if optimize:
        plan = LogicalOptimizer().optimize(plan)
    return plan


def chain(plan):
    """The operator chain above the single store (store first)."""
    out = []
    node = plan.stores[0]
    while node.inputs:
        node = node.inputs[0]
        out.append(node)
    return out


class TestMergeFilters:
    def test_merges_two_filters(self):
        plan = build(
            "A = load 'd' as (x:int); B = filter A by x > 1;"
            "C = filter B by x < 9; store C into 'o';"
        )
        ops = chain(plan)
        filters = [n for n in ops if isinstance(n, LOFilter)]
        assert len(filters) == 1
        assert filters[0].predicate.op == "and"

    def test_three_filters_collapse(self):
        plan = build(
            "A = load 'd' as (x:int); B = filter A by x > 1;"
            "C = filter B by x < 9; D = filter C by x != 5;"
            "store D into 'o';"
        )
        assert len([n for n in chain(plan) if isinstance(n, LOFilter)]) == 1


class TestMergeForEach:
    def test_composes_projections(self):
        plan = build(
            "A = load 'd' as (a, b, c); B = foreach A generate a, b;"
            "C = foreach B generate b; store C into 'o';"
        )
        ops = chain(plan)
        foreachs = [n for n in ops if isinstance(n, LOForEach)]
        assert len(foreachs) == 1
        assert foreachs[0].items[0].expr == Column(1)

    def test_does_not_merge_aggregates(self):
        plan = build(
            "A = load 'd' as (u, r:double); D = group A by u;"
            "E = foreach D generate group, SUM(A.r);"
            "F = foreach E generate group; store F into 'o';"
        )
        # E has aggregates -> F composes over E's *outputs* is unsafe
        # only when E isn't a pure projection; both must remain.
        foreachs = [n for n in chain(plan) if isinstance(n, LOForEach)]
        assert len(foreachs) == 2


class TestPushFilter:
    def test_filter_moves_below_projection(self):
        plan = build(
            "A = load 'd' as (x:int, y:int); B = foreach A generate y;"
            "C = filter B by y > 3; store C into 'o';"
        )
        ops = chain(plan)  # store -> foreach -> filter -> load expected
        assert isinstance(ops[0], LOForEach)
        assert isinstance(ops[1], LOFilter)
        assert isinstance(ops[2], LOLoad)
        # the pushed predicate references the *load* schema position
        assert ops[1].predicate == BinaryOp(">", Column(1), Const(3))

    def test_pushed_predicate_remapped(self):
        plan = build(
            "A = load 'd' as (x:int, y:int); B = foreach A generate y;"
            "C = filter B by y > 3; store C into 'o';"
        )
        filter_node = [n for n in chain(plan) if isinstance(n, LOFilter)][0]
        assert filter_node.predicate.references() == frozenset((1,))


class TestRemoveIdentity:
    def test_identity_projection_removed(self):
        plan = build(
            "A = load 'd' as (a, b); B = foreach A generate a, b;"
            "store B into 'o';"
        )
        assert not any(isinstance(n, LOForEach) for n in chain(plan))

    def test_reordering_projection_kept(self):
        plan = build(
            "A = load 'd' as (a, b); B = foreach A generate b, a;"
            "store B into 'o';"
        )
        assert any(isinstance(n, LOForEach) for n in chain(plan))

    def test_renaming_projection_kept(self):
        plan = build(
            "A = load 'd' as (a, b); B = foreach A generate a as z, b;"
            "store B into 'o';"
        )
        assert any(isinstance(n, LOForEach) for n in chain(plan))


class TestOptimizerMechanics:
    def test_fixpoint_terminates(self):
        optimizer = LogicalOptimizer(max_passes=3)
        plan = build_logical_plan(
            parse("A = load 'd' as (x:int); store A into 'o';")
        )
        assert optimizer.optimize(plan) is plan

    def test_rules_list_default(self):
        optimizer = LogicalOptimizer()
        kinds = {type(r) for r in optimizer.rules}
        assert kinds == {
            MergeConsecutiveFilters,
            MergeForEach,
            PushFilterBeforeForEach,
            RemoveIdentityForEach,
        }

    def test_canonicalization_improves_matching(self):
        """Two different spellings of the same query normalize to the
        same physical computation — the property ReStore match rates
        depend on."""
        from repro.pig.mrcompiler import MRCompiler

        source_a = (
            "A = load 'd' as (x:int, y:int); B = filter A by x > 1;"
            "C = filter B by y > 2; D = foreach C generate y;"
            "store D into 'o';"
        )
        source_b = (
            "A = load 'd' as (x:int, y:int);"
            "B = filter A by x > 1 and y > 2;"
            "D = foreach B generate y; store D into 'o';"
        )
        wf_a = MRCompiler("tmp/a", job_prefix="a").compile(build(source_a))
        wf_b = MRCompiler("tmp/b", job_prefix="b").compile(build(source_b))
        fp_a = wf_a.jobs[0].plan.fingerprint()
        fp_b = wf_b.jobs[0].plan.fingerprint()
        assert fp_a == fp_b
