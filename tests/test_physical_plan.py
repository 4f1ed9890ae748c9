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
    def test_clone_is_deep(self):
        plan, (load, filt, store) = simple_plan()
        fingerprint = plan.fingerprint()
        clone = plan.restamped({})
        assert len(clone) == 3
        twins = clone.topo_order()
        assert [op.kind for op in twins] == ["load", "filter", "store"]
        assert not {op.op_id for op in twins} & {load.op_id, filt.op_id, store.op_id}
        clone.remove(twins[1])
        assert len(clone) == 2
        assert len(plan) == 3  # original untouched
        assert plan.successors(load) == [filt]
        assert plan.fingerprint() == fingerprint

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
