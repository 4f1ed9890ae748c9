"""Unit tests for sub-job heuristics (paper §4)."""

import pytest

from repro.core.heuristics import HEURISTICS, classify_operator
from repro.core.manager import ReStoreConfig

PV = "user, action:int, timestamp:int, est_revenue:double, page_info, page_links"
USERS = "name, phone, address, city"


def plan_for(server, source):
    workflow = server.compile(source)
    return workflow.jobs[0].plan


@pytest.fixture
def l3ish_plan(server):
    return plan_for(server, f"""
        A = load 'data/page_views' as ({PV});
        B = foreach A generate user, est_revenue;
        alpha = load 'data/users' as ({USERS});
        beta = foreach alpha generate name;
        C = join beta by name, B by user;
        store C into 'out';
    """)


class TestClassification:
    def test_projection_classified(self, l3ish_plan):
        kinds = {classify_operator(op, l3ish_plan) for op in l3ish_plan}
        assert "project" in kinds

    def test_join_foreach_classified(self, l3ish_plan):
        from repro.pig.physical.operators import POPackage

        package = [op for op in l3ish_plan if isinstance(op, POPackage)][0]
        flatten = l3ish_plan.successors(package)[0]
        assert classify_operator(flatten, l3ish_plan) == "join"

    def test_structural_ops(self, l3ish_plan):
        from repro.pig.physical.operators import POLoad, POStore

        for op in l3ish_plan:
            if isinstance(op, (POLoad, POStore)):
                assert classify_operator(op, l3ish_plan) == "structural"

    def test_filter_classified(self, server):
        plan = plan_for(server, f"""
            A = load 'data/page_views' as ({PV});
            B = filter A by est_revenue > 1.0;
            store B into 'out';
        """)
        kinds = [classify_operator(op, plan) for op in plan]
        assert "filter" in kinds

    def test_group_classified(self, server):
        plan = plan_for(server, f"""
            A = load 'data/page_views' as ({PV});
            D = group A by user;
            E = foreach D generate group, COUNT(A);
            store E into 'out';
        """)
        kinds = [classify_operator(op, plan) for op in plan]
        assert "group" in kinds
        assert "aggregate" in kinds

    def test_group_all_classified_separately(self, server):
        plan = plan_for(server, f"""
            A = load 'data/page_views' as ({PV});
            C = group A all;
            D = foreach C generate COUNT(A);
            store D into 'out';
        """)
        kinds = [classify_operator(op, plan) for op in plan]
        assert "group-all" in kinds
        assert "group" not in kinds

    def test_cogroup_classified(self, server):
        plan = plan_for(server, f"""
            A = load 'data/page_views' as ({PV});
            alpha = load 'data/users' as ({USERS});
            C = cogroup A by user, alpha by name;
            D = foreach C generate group, COUNT(A);
            store D into 'out';
        """)
        kinds = [classify_operator(op, plan) for op in plan]
        assert "cogroup" in kinds


class TestHeuristicSelection:
    def _kinds_selected(self, heuristic, plan):
        return {
            classify_operator(op, plan)
            for op in plan
            if classify_operator(op, plan) in HEURISTICS[heuristic]
        }

    def test_conservative_project_filter_only(self, l3ish_plan):
        selected = self._kinds_selected("conservative", l3ish_plan)
        assert selected <= {"project", "filter"}
        assert "project" in selected

    def test_aggressive_adds_join(self, l3ish_plan):
        selected = self._kinds_selected("aggressive", l3ish_plan)
        assert "join" in selected
        assert "project" in selected

    def test_aggressive_excludes_group_all(self, server):
        plan = plan_for(server, f"""
            A = load 'data/page_views' as ({PV});
            C = group A all;
            D = foreach C generate COUNT(A);
            store D into 'out';
        """)
        selected = self._kinds_selected("aggressive", plan)
        assert "group-all" not in selected

    def test_no_heuristic_includes_everything_materializable(self, l3ish_plan):
        selected = self._kinds_selected("no-heuristic", l3ish_plan)
        assert "project" in selected and "join" in selected

    def test_no_heuristic_skips_structural(self, l3ish_plan):
        from repro.pig.physical.operators import (
            POGlobalRearrange,
            POLoad,
            POLocalRearrange,
            POStore,
        )

        for op in l3ish_plan:
            if isinstance(
                op, (POLoad, POStore, POLocalRearrange, POGlobalRearrange)
            ):
                kind = classify_operator(op, l3ish_plan)
                assert kind not in HEURISTICS["no-heuristic"]

    def test_never(self, l3ish_plan):
        assert self._kinds_selected("never", l3ish_plan) == set()


class TestLookup:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown heuristic 'bogus'"):
            ReStoreConfig(heuristic="bogus")
