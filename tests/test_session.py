"""ReStoreSession facade: wiring invariants, builder, config paths."""

import weakref

import pytest
from golden_corpus import load_golden, repo_scale_record
from repo_stream import probe_config

from repro import ReStoreSession
from repro.core.eviction import EVICTION_POLICIES
from repro.core.heuristics import HEURISTICS
from repro.core.manager import WHOLE_JOB_POLICIES, ReStoreConfig
from repro.core.selector import SELECTORS, KeepAllSelector, RuleBasedSelector
from repro.costmodel.model import CostModel, estimate_standalone_time
from repro.dfs.filesystem import DistributedFileSystem
from repro.pig.engine import PigServer

PV = "user, action:int, timestamp:int, est_revenue:double, page_info, page_links"
USERS = "name, phone, address, city"

Q1 = f"""
A = load 'data/page_views' as ({PV});
B = foreach A generate user, est_revenue;
alpha = load 'data/users' as ({USERS});
beta = foreach alpha generate name;
C = join beta by name, B by user;
store C into 'q1_out';
"""

Q2 = Q1.replace("store C into 'q1_out';", """
D = group C by $0;
E = foreach D generate group, SUM(C.est_revenue);
store E into 'q2_out';
""")


class TestQuickstart:
    def test_readme_quickstart_end_to_end(self):
        with ReStoreSession() as session:
            session.write_file("data/users", "alice\t1\nbob\t2\n")
            result = session.run(
                "A = load 'data/users' as (name, uid:int);"
                "B = filter A by uid > 1; store B into 'out';"
            )
            assert result.outputs["out"] == [("bob", 2)]

    def test_reuse_flow_through_session(self, small_data):
        session = ReStoreSession(dfs=small_data)
        session.run(Q1)
        result = session.run(Q2)
        assert sorted(result.outputs["q2_out"]) == [
            ("alice", 4.5), ("bob", 4.0), ("carol", 8.0),
        ]
        assert session.manager.elimination_count == 1
        assert session.runs == 2


class TestMalformedInput:
    def test_schema_error_names_file_line_and_field(self):
        """A malformed input fails the submission with a typed error
        an operator can act on: which file, which (1-based) line,
        which schema field and type, which text."""
        from repro.exceptions import SchemaError

        with ReStoreSession() as session:
            session.write_file("in/t", "a\t1\nb\tx\nc\t3\n")
            with pytest.raises(SchemaError) as raised:
                session.run("A = load 'in/t' as (u, n:int); store A into 'o';")
            assert str(raised.value) == "in/t line 2 field n (int): cannot cast 'x'"
            # the file is not poisoned: a schema it does fit still loads
            result = session.run("A = load 'in/t' as (u, n); store A into 'o';")
            assert result.outputs["o"] == [("a", "1"), ("b", "x"), ("c", "3")]


class TestSharedCostModel:
    def test_manager_and_simulator_share_one_instance(self):
        session = ReStoreSession()
        assert session.manager.cost_model is session.cost_model
        assert session.server.cost_model is session.cost_model
        assert session.server.runner.cost_model is session.cost_model

    def test_selector_resolved_with_shared_model(self):
        session = (ReStoreSession.builder().selector("rules").build())
        assert isinstance(session.manager.selector, RuleBasedSelector)
        assert session.manager.selector.cost_model is session.cost_model

    def test_standalone_estimates_agree_with_simulator_model(self):
        """Regression: ReStoreManager(dfs) used to default to a
        cluster-less CostModel while PigServer built its own with the
        cluster attached, so the manager's estimate_standalone_time
        could silently disagree with the simulator's."""
        session = ReStoreSession()
        manager_estimate = estimate_standalone_time(
            session.manager.cost_model,
            input_bytes=10_000_000, output_bytes=1_000_000, records=5_000,
        )
        simulator_estimate = estimate_standalone_time(
            session.server.runner.cost_model,
            input_bytes=10_000_000, output_bytes=1_000_000, records=5_000,
        )
        assert manager_estimate == simulator_estimate

    def test_explicit_cost_model_propagates_everywhere(self):
        model = CostModel(data_scale=123.0)
        session = ReStoreSession(cost_model=model)
        assert session.manager.cost_model is model
        assert session.server.cost_model is model


class TestBuilder:
    def test_plugin_names_resolve(self, small_data):
        session = (
            ReStoreSession.builder()
            .dfs(small_data)
            .heuristic("conservative")
            .selector("keep-all")
            .evict("time-window:3", "input-modified")
            .build()
        )
        assert session.manager.enumerator.categories == HEURISTICS["conservative"]
        assert isinstance(session.manager.selector, KeepAllSelector)
        policies = session.manager.eviction_policies
        assert [p.name for p in policies] == ["time-window", "input-modified"]
        assert policies[0].window == 3

    def test_unknown_heuristic_lists_registry(self):
        with pytest.raises(ValueError, match="aggressive"):
            ReStoreSession.builder().heuristic("bogus").build()

    def test_unknown_eviction_spec(self):
        with pytest.raises(ValueError, match="time-window"):
            ReStoreSession.builder().evict("bogus:9").build()

    def test_without_restore(self):
        session = ReStoreSession.builder().without_restore().build()
        assert session.manager is None
        assert session.repository is None
        assert not session.restore_enabled
        # the inert bus still accepts subscriptions
        assert session.events.collect() == []


#: (ReStoreConfig field, builder setter, every valid name of the field)
POLICY_FIELDS = [
    ("heuristic", "heuristic", list(HEURISTICS)),
    ("selector", "selector", list(SELECTORS)),
    ("register_whole_jobs", "register_whole_jobs", list(WHOLE_JOB_POLICIES)),
    ("eviction_policies", "evict", list(EVICTION_POLICIES)),
]


class TestPolicyTables:
    """Every name of every policy table, set through the builder."""

    @pytest.mark.parametrize(
        "field,setter,name",
        [(f, setter, n) for f, setter, names in POLICY_FIELDS for n in names],
    )
    def test_each_name_builds_a_manager_running_it(self, field, setter, name):
        value = "capacity:1024" if name == "capacity" else name
        session = getattr(ReStoreSession.builder(), setter)(value).build()
        manager = session.manager
        if field == "heuristic":
            assert manager.enumerator.categories == HEURISTICS[name]
        elif field == "selector":
            assert manager.selector.name == name
            assert isinstance(manager.selector, SELECTORS[name])
        elif field == "eviction_policies":
            assert [p.name for p in manager.eviction_policies] == [name]
        else:
            assert manager.config.register_whole_jobs == name

    @pytest.mark.parametrize("field,setter,names", POLICY_FIELDS)
    def test_each_field_rejects_an_unknown_value(self, field, setter, names):
        value = ["bogus:3"] if field == "eviction_policies" else "bogus"
        with pytest.raises(ValueError) as raised:
            ReStoreConfig(**{field: value})
        message = str(raised.value)
        assert f"unknown {field} 'bogus'" in message
        assert all(repr(name) in message for name in names)

    def test_never_keeps_the_golden_match_decisions(self):
        """The probe stream runs under heuristic="never"; its decision
        log is still the recorded one."""
        assert probe_config().heuristic == "never"
        assert repo_scale_record(10, 8) == load_golden()["repo_scale"]["10x8"]


class TestLifecycle:
    def test_context_manager_closes(self):
        with ReStoreSession() as session:
            pass
        with pytest.raises(RuntimeError, match="closed"):
            session.run("A = load 'x' as (a); store A into 'o';")

    def test_closed_session_still_inspectable(self, small_data):
        with ReStoreSession(dfs=small_data) as session:
            session.run(Q1)
        assert len(session.repository) > 0  # state survives close
        assert "closed" in repr(session)

    def test_a_returned_result_is_freed_once_dropped(self, small_data):
        """The session keeps run totals, not results: what a run returned
        dies with the caller's last reference to it."""
        session = ReStoreSession(dfs=small_data)
        result = session.run(Q1)
        assert result.outputs["q1_out"]
        dropped = [weakref.ref(result), weakref.ref(result.stats)]
        del result
        assert [ref() for ref in dropped] == [None, None]
        assert session.runs == 1 and "1 run(s)" in session.report()

    def test_report_mentions_repository(self, small_data):
        session = ReStoreSession(dfs=small_data)
        session.run(Q1)
        text = session.report()
        assert "repository" in text
        assert "1 run(s)" in text

    def test_adopting_prebuilt_manager(self, small_data):
        from repro.core.manager import ReStoreManager

        manager = ReStoreManager(small_data)
        session = ReStoreSession(dfs=small_data, manager=manager)
        assert session.manager is manager
        assert session.cost_model is manager.cost_model
        session.run(Q1)
        assert len(manager.repository) > 0

    def test_adopted_manager_supplies_the_dfs(self, small_data):
        from repro.core.manager import ReStoreManager

        manager = ReStoreManager(small_data)
        session = ReStoreSession(manager=manager)  # no dfs argument
        assert session.dfs is small_data
        result = session.run(Q1)  # data is visible: same filesystem
        assert result.outputs["q1_out"]

    def test_adoption_rejects_conflicting_arguments(self, small_data):
        from repro.core.manager import ReStoreManager

        manager = ReStoreManager(small_data)
        with pytest.raises(ValueError, match="share one filesystem"):
            ReStoreSession(dfs=DistributedFileSystem(), manager=manager)
        with pytest.raises(ValueError, match="not both"):
            ReStoreSession(manager=manager, config=ReStoreConfig())
        with pytest.raises(ValueError, match="turns ReStore on"):
            ReStoreSession(manager=manager, restore_enabled=False)


class TestScriptIdScoping:
    """Script ids come from the DFS: deterministic per filesystem,
    collision-free between servers sharing one."""

    def test_fresh_dfs_restarts_numbering(self):
        src = "A = load 'x' as (a, b); store A into 'o';"
        assert PigServer(DistributedFileSystem()).compile(src).name == "script_1"
        # another process-lifetime server on a NEW dfs starts over
        assert PigServer(DistributedFileSystem()).compile(src).name == "script_1"

    def test_servers_sharing_a_dfs_never_collide(self):
        src = "A = load 'x' as (a, b); store A into 'o';"
        dfs = DistributedFileSystem()
        first = PigServer(dfs)
        assert first.compile(src).name == "script_1"
        assert first.compile(src).name == "script_2"
        second = PigServer(dfs)
        assert second.compile(src).name == "script_3"

    def test_temp_prefix_deterministic_per_session(self, small_data):
        workflow = PigServer(small_data).compile(Q2)
        temp_paths = [j.output_path for j in workflow.jobs if j.temporary]
        assert temp_paths
        assert all(p.startswith("tmp/s1/") for p in temp_paths)

    def test_fresh_server_per_run_does_not_corrupt_repository(self, small_data):
        """Regression: when every run builds a fresh server over a
        shared DFS + manager (the experiment-sandbox pattern), a new
        query's temp output must not overwrite a stored temp file the
        repository still points at — that silently corrupts later
        reuse."""
        from repro.core.manager import ReStoreManager

        # isolated ground truth for a MAX variant of Q2
        truth_server = PigServer(small_data)
        variant = Q2.replace("SUM", "MAX").replace("q2_out", "truth_out")
        truth = truth_server.run(variant)

        manager = ReStoreManager(small_data)
        ReStoreSession(manager=manager).run(Q2)
        # unrelated query from a *fresh* server: must not reuse Q2's
        # temp numbering
        other = f"""
        A = load 'data/page_views' as ({PV});
        U = load 'data/users' as ({USERS});
        J = join A by user, U by name;
        G = group J by $1;
        S = foreach G generate group, SUM(J.est_revenue);
        store S into 'other_out';
        """
        ReStoreSession(manager=manager).run(other)
        reused = ReStoreSession(manager=manager).run(
            variant.replace("truth_out", "reuse_out")
        )
        assert sorted(reused.outputs["reuse_out"]) == sorted(
            truth.outputs["truth_out"]
        )
