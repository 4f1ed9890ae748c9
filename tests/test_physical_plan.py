"""Unit tests for physical operators and plan DAGs."""

import pytest

from repro.exceptions import PlanError
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
from repro.pig.physical.plan import PhysicalPlan, linear_plan
from repro.relational.expressions import BinaryOp, Column, Const
from repro.relational.schema import Schema
from repro.relational.types import DataType

SCHEMA = Schema.of(("a", DataType.CHARARRAY), ("n", DataType.INT))


def simple_plan():
    load = POLoad("data/in", SCHEMA)
    filt = POFilter(BinaryOp(">", Column(1), Const(1)), schema=SCHEMA)
    store = POStore("out", schema=SCHEMA)
    return linear_plan(load, filt, store), (load, filt, store)


class TestSignatures:
    def test_load_signature_includes_path(self):
        a = POLoad("x", SCHEMA)
        b = POLoad("y", SCHEMA)
        assert a.signature() != b.signature()

    def test_store_signature_excludes_path(self):
        assert POStore("x").signature() == POStore("y").signature()

    def test_foreach_signature_by_expression(self):
        a = POForEach([Column(0)], [False], ["a"])
        b = POForEach([Column(0)], [False], ["renamed"])
        c = POForEach([Column(1)], [False], ["a"])
        assert a.signature() == b.signature()
        assert a.signature() != c.signature()

    def test_lrearrange_branch_in_signature(self):
        a = POLocalRearrange([Column(0)], branch=0)
        b = POLocalRearrange([Column(0)], branch=1)
        assert a.signature() != b.signature()

    def test_package_mode_in_signature(self):
        a = POPackage("group", 1)
        b = POPackage("distinct", 1)
        assert a.signature() != b.signature()

    def test_invalid_package_mode(self):
        with pytest.raises(PlanError):
            POPackage("frobnicate", 1)

    def test_foreach_flattens_length_checked(self):
        with pytest.raises(PlanError):
            POForEach([Column(0)], [True, False])

    def test_operator_serialization_round_trip(self):
        ops = [
            POLoad("p", SCHEMA),
            POStore("q", SCHEMA, side=True),
            POForEach([Column(0)], [False], ["a"], schema=SCHEMA),
            POFilter(BinaryOp("==", Column(0), Const("x"))),
            POLocalRearrange([Column(0)], branch=2),
            POGlobalRearrange(2),
            POPackage("join", 2, [True, False]),
            POSplit(),
            POUnion(3),
            POLimit(10),
        ]
        for op in ops:
            restored = PhysicalOperator.from_dict(op.to_dict())
            assert restored.signature() == op.signature()

    def test_copy_gets_new_id(self):
        op = POLoad("p", SCHEMA)
        twin = op.copy()
        assert twin.op_id != op.op_id
        assert twin.signature() == op.signature()


class TestPlanStructure:
    def test_linear_plan(self):
        plan, (load, filt, store) = simple_plan()
        assert plan.sources() == [load]
        assert plan.sinks() == [store]
        assert plan.successors(load) == [filt]
        assert plan.predecessors(store) == [filt]

    def test_topo_order(self):
        plan, (load, filt, store) = simple_plan()
        order = plan.topo_order()
        assert order.index(load) < order.index(filt) < order.index(store)

    def test_cycle_detection(self):
        plan, (load, filt, store) = simple_plan()
        plan._succs[store.op_id].append(load.op_id)  # force a cycle
        plan._preds[load.op_id].append(store.op_id)
        with pytest.raises(PlanError):
            plan.topo_order()

    def test_remove_cleans_edges(self):
        plan, (load, filt, store) = simple_plan()
        plan.remove(filt)
        assert plan.successors(load) == []
        assert plan.predecessors(store) == []

    def test_insert_between(self):
        plan, (load, filt, store) = simple_plan()
        limit = POLimit(5)
        plan.insert_between(filt, store, limit)
        assert plan.successors(filt) == [limit]
        assert plan.successors(limit) == [store]

    def test_disconnect_missing_edge(self):
        plan, (load, filt, store) = simple_plan()
        with pytest.raises(PlanError):
            plan.disconnect(load, store)

    def test_upstream_closure(self):
        plan, (load, filt, store) = simple_plan()
        closure = plan.upstream_closure(store)
        assert closure == {load.op_id, filt.op_id, store.op_id}

    def test_downstream_closure(self):
        plan, (load, filt, store) = simple_plan()
        assert plan.downstream_closure(filt) == {filt.op_id, store.op_id}

    def test_contains(self):
        plan, (load, _, _) = simple_plan()
        assert load in plan
        assert POLoad("other", SCHEMA) not in plan


class TestValidation:
    def test_valid_plan(self):
        plan, _ = simple_plan()
        plan.validate()

    def test_multi_successor_requires_split(self):
        load = POLoad("in", SCHEMA)
        s1 = POStore("o1", SCHEMA)
        s2 = POStore("o2", SCHEMA)
        plan = PhysicalPlan()
        for op in (load, s1, s2):
            plan.add(op)
        plan.connect(load, s1)
        plan.connect(load, s2)
        with pytest.raises(PlanError):
            plan.validate()

    def test_split_allows_fanout(self):
        load = POLoad("in", SCHEMA)
        split = POSplit()
        s1 = POStore("o1", SCHEMA)
        s2 = POStore("o2", SCHEMA)
        plan = PhysicalPlan()
        for op in (load, split, s1, s2):
            plan.add(op)
        plan.connect(load, split)
        plan.connect(split, s1)
        plan.connect(split, s2)
        plan.validate()

    def test_two_shuffles_rejected(self):
        plan, (load, filt, store) = simple_plan()
        plan.insert_between(load, filt, POGlobalRearrange(1))
        plan.insert_between(filt, store, POGlobalRearrange(1))
        with pytest.raises(PlanError):
            plan.validate()

    def test_source_must_be_load(self):
        filt = POFilter(Const(True))
        store = POStore("o")
        plan = linear_plan(filt, store)
        with pytest.raises(PlanError):
            plan.validate()


class TestCloneAndSubplan:
    def test_clone_preserves_fingerprint(self):
        plan, _ = simple_plan()
        want = plan.fingerprint()
        clone = plan.restamped({})
        assert clone.fingerprint() == want
        assert clone.restamped({}).fingerprint() == want

    def test_subplan_upto(self):
        plan, (load, filt, store) = simple_plan()
        sub = plan.subplan_upto(filt)
        assert len(sub) == 2
        kinds = sorted(op.kind for op in sub)
        assert kinds == ["filter", "load"]

    def test_subplan_contracts_splits(self):
        load = POLoad("in", SCHEMA)
        split = POSplit()
        side = POStore("side", SCHEMA, side=True)
        filt = POFilter(Const(True), schema=SCHEMA)
        store = POStore("out", SCHEMA)
        plan = PhysicalPlan()
        for op in (load, split, side, filt, store):
            plan.add(op)
        plan.connect(load, split)
        plan.connect(split, side)
        plan.connect(split, filt)
        plan.connect(filt, store)
        sub = plan.subplan_upto(filt)
        kinds = sorted(op.kind for op in sub)
        assert kinds == ["filter", "load"]  # no split, no side store


def tied_plan():
    """Two sources that tie in a topological sort, added in the order
    their ids do not follow: load b, load a -> filter, union, store."""
    load_a = POLoad("in/a", SCHEMA)
    load_b = POLoad("in/b", SCHEMA)
    filt = POFilter(BinaryOp(">", Column(1), Const(1)), schema=SCHEMA)
    union = POUnion(2, schema=SCHEMA)
    store = POStore("out", schema=SCHEMA)
    plan = PhysicalPlan()
    for op in (load_b, load_a, filt, union, store):
        plan.add(op)
    plan.connect(load_a, filt)
    plan.connect(load_b, union)
    plan.connect(filt, union)
    plan.connect(union, store)
    return plan


def named(plan):
    """The operators of a :func:`tied_plan` (or of a copy), by role."""
    return dict(zip(("load_b", "load_a", "filt", "union", "store"), plan.operators))


#: each structural mutator, applied to a plan's operators by role
MUTATORS = {
    "add": lambda plan, ops: plan.add(POLimit(5, schema=SCHEMA)),
    "add_before": lambda plan, ops: plan.add(
        POLoad("in/c", SCHEMA), before=ops["load_a"]
    ),
    "connect": lambda plan, ops: plan.connect(ops["load_a"], ops["store"]),
    "disconnect": lambda plan, ops: plan.disconnect(ops["load_b"], ops["union"]),
    "remove": lambda plan, ops: plan.remove(ops["filt"]),
    "insert_between": lambda plan, ops: plan.insert_between(
        ops["filt"], ops["union"], POLimit(5, schema=SCHEMA)
    ),
    "move_edge": lambda plan, ops: plan.move_edge(
        ops["filt"], ops["union"], ops["load_a"]
    ),
    "replace": lambda plan, ops: plan.replace(
        ops["load_b"], POLoad("in/b2", SCHEMA)
    ),
}


def structure(plan):
    return (
        list(plan._ops.items()),
        {i: list(ends) for i, ends in plan._succs.items()},
        {i: list(ends) for i, ends in plan._preds.items()},
        dict(plan._seq),
    )


def positions(plan):
    """The topological order as places in the operator order: what two
    plans built alike share although their operators differ."""
    ops = plan.operators
    return [ops.index(op) for op in plan.topo_order()]


class TestRestampContract:
    """A re-stamped copy shares its template's operators but its own
    structure: it inherits the template's facts, and mutating it drops
    them on the copy alone."""

    def test_a_copy_shares_all_but_the_repathed_operators(self):
        template = tied_plan()
        template.validate()
        ops = named(template)
        clone = template.restamped({ops["load_a"].op_id: "in/z"})
        twins = named(clone)
        for role in ("load_b", "filt", "union", "store"):
            assert twins[role] is ops[role]
        assert twins["load_a"] is not ops["load_a"]
        assert twins["load_a"].path == "in/z"
        assert ops["load_a"].path == "in/a"
        # the template's facts, mapped onto the twin, with no recompute
        assert clone._valid and clone._order is not None
        assert positions(clone) == positions(template) == [0, 1, 2, 3, 4]
        assert clone.loads() == [twins["load_b"], twins["load_a"]]
        assert clone.stores() == [ops["store"]]

    def test_ties_break_by_rank_not_by_shared_op_id(self):
        template = tied_plan()
        ops = named(template)
        assert ops["load_a"].op_id < ops["load_b"].op_id
        # load b was added first, so it comes first, in a copy computing
        # its own order and in the template
        clone = template.restamped({})
        assert clone._order is None  # nothing cached to inherit
        assert clone.topo_order()[0] is ops["load_b"]
        assert template.topo_order()[0] is ops["load_b"]

    @pytest.mark.parametrize("mutator", sorted(MUTATORS))
    def test_mutating_a_copy_leaves_the_template_alone(self, mutator):
        template = tied_plan()
        template.validate()
        fingerprint = template.fingerprint()
        before, cached = structure(template), template._order
        order = list(cached)
        clone = template.restamped({})
        MUTATORS[mutator](clone, named(clone))
        assert structure(template) == before
        assert template.fingerprint() == fingerprint
        assert template._order is cached and cached == order
        assert template._valid

    @pytest.mark.parametrize("mutator", sorted(MUTATORS))
    def test_mutating_drops_the_facts_and_recomputes_a_fresh_order(self, mutator):
        template = tied_plan()
        template.validate()
        template.fingerprint()
        clone = template.restamped({named(template)["store"].op_id: "elsewhere"})
        clone.loads(), clone.stores()
        MUTATORS[mutator](clone, named(clone))
        assert clone._order is None and not clone._valid
        assert clone._loads is None and clone._stores is None
        assert clone._fp_plan is None and clone._fp_by_op == {}
        fresh = tied_plan()
        MUTATORS[mutator](fresh, named(fresh))
        assert positions(clone) == positions(fresh)
        assert [op.kind for op in clone.loads()] == [op.kind for op in fresh.loads()]
        assert len(clone.stores()) == len(fresh.stores())

    def test_a_failed_validation_is_not_cached(self):
        plan, (load, filt, store) = simple_plan()
        plan.validate()
        plan.connect(load, store)  # a second successor without a split
        with pytest.raises(PlanError):
            plan.validate()
        with pytest.raises(PlanError):
            plan.validate()


class TestFingerprints:
    def test_equal_plans_equal_fingerprints(self):
        plan_a, _ = simple_plan()
        plan_b, _ = simple_plan()
        assert plan_a.fingerprint() == plan_b.fingerprint()

    def test_different_filter_different_fingerprint(self):
        plan_a, _ = simple_plan()
        load = POLoad("data/in", SCHEMA)
        filt = POFilter(BinaryOp(">", Column(1), Const(99)), schema=SCHEMA)
        store = POStore("out", SCHEMA)
        plan_b = linear_plan(load, filt, store)
        assert plan_a.fingerprint() != plan_b.fingerprint()

    def test_store_path_not_in_fingerprint(self):
        load_a = POLoad("in", SCHEMA)
        load_b = POLoad("in", SCHEMA)
        plan_a = linear_plan(load_a, POStore("out1"))
        plan_b = linear_plan(load_b, POStore("out2"))
        assert plan_a.fingerprint() == plan_b.fingerprint()


class TestSerializationAndRendering:
    def test_plan_round_trip(self):
        plan, _ = simple_plan()
        restored = PhysicalPlan.from_dict(plan.to_dict())
        assert restored.fingerprint() == plan.fingerprint()
        restored.validate()

    def test_to_dot(self):
        plan, _ = simple_plan()
        dot = plan.to_dot("test")
        assert "digraph test" in dot
        assert dot.count("->") == 2

    def test_describe(self):
        plan, _ = simple_plan()
        text = plan.describe()
        assert "load" in text and "store" in text
