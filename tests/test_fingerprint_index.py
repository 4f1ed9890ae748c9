"""Fingerprint invariants and the repository's inverted index.

Covers the tentpole guarantees:

* plan fingerprints are Merkle digests of operator signatures — equal
  fingerprints ⇔ matcher equivalence (property-tested);
* fingerprint caches invalidate on every mutation path (structural
  edits, schema assignment, in-place load redirects);
* the indexes and the §3 order stay consistent through adds, removals,
  and evictions (checked against from-scratch oracles, including the
  historical two-pass sort over Algorithm 1's subsumption verdicts);
* the frontier index is exact — it keeps precisely the entries the
  matcher accepts, in scan order — and at N=1000 the scan asks the
  matcher about ≥10x fewer entries than there are to scan;
* entry ids are scoped per repository (deterministic across sessions
  in one process).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from algorithm1 import algorithm1_contains
from golden_corpus import load_golden, match_record
from repo_stream import (
    build_repository,
    generate_entry_specs,
    generate_probe_specs,
    probe_job,
    run_match_stream,
)

from repro.core.eviction import evict
from repro.core.manager import ReStoreManager
from repro.core.matcher import PlanMatcher
from repro.core.repository import EntryStats, Repository, RepositoryEntry
from repro.core.rewriter import PlanRewriter
from repro.dfs.filesystem import DistributedFileSystem
from repro.events import MatchScanned
from repro.mapreduce.job import MapReduceJob
from repro.pig.physical.operators import (
    POFilter,
    POForEach,
    POLoad,
    POSplit,
    POStore,
)
from repro.pig.physical.plan import linear_plan
from repro.relational.expressions import BinaryOp, Column, Const
from repro.relational.schema import Schema
from repro.relational.types import DataType
from repro.session import ReStoreSession

SCHEMA = Schema.of(("u", DataType.CHARARRAY), ("r", DataType.DOUBLE))

# -- generated linear plans -------------------------------------------

op_spec = st.tuples(
    st.sampled_from(["filter", "project"]), st.integers(0, 3)
)


def build_plan(specs, path="p", out="out"):
    schema = Schema.of(("a", DataType.INT), ("b", DataType.INT))
    ops = [POLoad(path, schema)]
    for kind, param in specs:
        if kind == "filter":
            ops.append(
                POFilter(BinaryOp(">", Column(0), Const(param)), schema=schema)
            )
        else:
            ops.append(
                POForEach(
                    [Column(param % 2), Column((param + 1) % 2)],
                    [False, False],
                    ["x", "y"],
                    schema=schema,
                )
            )
    ops.append(POStore(out, schema))
    return linear_plan(*ops)


def plans_equivalent(plan_a, plan_b) -> bool:
    """Matcher equivalence: mutual whole-job containment."""
    matcher = PlanMatcher()
    forward = matcher.match(plan_a, plan_b)
    backward = matcher.match(plan_b, plan_a)
    return bool(
        forward is not None
        and forward.whole_job
        and backward is not None
        and backward.whole_job
    )


class TestFingerprintEquivalenceProperty:
    @given(
        st.lists(op_spec, max_size=5),
        st.lists(op_spec, max_size=5),
        st.sampled_from(["p1", "p2"]),
        st.sampled_from(["p1", "p2"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_equal_fingerprints_iff_matcher_equivalent(
        self, specs_a, specs_b, path_a, path_b
    ):
        plan_a = build_plan(specs_a, path_a, "out_a")
        plan_b = build_plan(specs_b, path_b, "out_b")
        assert (plan_a.fingerprint() == plan_b.fingerprint()) == (
            plans_equivalent(plan_a, plan_b)
        )

    @given(st.lists(op_spec, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_fingerprint_stable_across_repeated_reads(self, specs):
        plan = build_plan(specs)
        assert plan.fingerprint() == plan.fingerprint()
        assert plan.frontier_fingerprint() == plan.frontier_fingerprint()
        assert plan.operator_fingerprints() == plan.operator_fingerprints()


class TestFingerprintCacheInvalidation:
    def test_structural_mutation_changes_fingerprint(self):
        plan = build_plan([("filter", 1)])
        before = plan.fingerprint()
        load, filt = plan.topo_order()[0], plan.topo_order()[1]
        extra = POForEach([Column(0)], [False], ["a"], schema=SCHEMA)
        plan.insert_between(load, filt, extra)
        after = plan.fingerprint()
        assert before != after
        plan.remove(extra)
        plan.connect(load, filt)
        assert plan.fingerprint() == before

    def test_redirect_swaps_in_a_new_load(self):
        """An operator is a value: pointing a Load elsewhere swaps a
        new Load in, which the plan sees as a structural edit."""
        plan = build_plan([("filter", 2)])
        old = plan.loads()[0]
        before = plan.fingerprint()
        job = MapReduceJob(plan=plan)
        assert PlanRewriter().redirect_loads([job], old.path, "elsewhere") == 1
        (load,) = plan.loads()
        assert load is not old and old.path != "elsewhere"
        assert (load.path, load.schema, load.loader) == (
            "elsewhere",
            old.schema,
            old.loader,
        )
        assert plan.fingerprint() != before
        assert plan.frontier_fingerprint() != build_plan(
            [("filter", 2)]
        ).frontier_fingerprint()
        # same place in the plan, same edges
        assert plan.operators[0] is load
        assert [type(op) for op in plan.successors(load)] == [POFilter]
        assert plan.predecessors(plan.successors(load)[0]) == [load]

    def test_operator_fingerprints_follow_mutation(self):
        plan = build_plan([("filter", 1)])
        load = plan.loads()[0]
        filt = [op for op in plan if isinstance(op, POFilter)][0]
        before = dict(plan.operator_fingerprints())
        plan.disconnect(load, filt)
        plan.connect(load, filt)  # structure same, cache redone
        assert dict(plan.operator_fingerprints()) == before
        extra = plan.insert_between(load, filt, POSplit())
        # a Split tee computes nothing: it is in no operator's input
        assert dict(plan.operator_fingerprints()) == before
        branch = POForEach([Column(0)], [False], ["a"], schema=SCHEMA)
        plan.connect(extra, plan.add(branch))
        assert set(plan.operator_fingerprints()) > set(before)


# -- repository index consistency -------------------------------------

#: where the generated plans' inputs live: written on first use, so
#: every entry records the extent a real registration would
_INPUTS = DistributedFileSystem()


def recorded_extents(path):
    if not _INPUTS.exists(path):
        _INPUTS.write_file(path, "1\t2\n")
    return {path: _INPUTS.input_extent(path, with_crc=True)}


def make_entry(specs, path, out, input_bytes=1000, output_bytes=100,
               exec_time=10.0):
    return RepositoryEntry(
        plan=build_plan(specs, path, out),
        output_path=out,
        output_schema=SCHEMA,
        stats=EntryStats(
            input_bytes=input_bytes,
            output_bytes=output_bytes,
            exec_time_s=exec_time,
        ),
        input_extents=recorded_extents(path),
    )


def assert_index_consistent(repo: Repository) -> None:
    """White-box invariant: every index references live entries only,
    and every live entry is fully indexed."""
    live = set(repo._entries)
    views = repo.merged_index_views()
    indexed = {
        name: {eid for holders in index.values() for eid in holders}
        for name, index in views.items()
    }
    assert indexed["by_fingerprint"] == live
    assert indexed["by_frontier"] == live
    assert indexed["by_operator"] == live
    assert indexed["by_input_path"] <= live
    assert set(repo._subsumes) == set(repo._subsumed_by) == live
    for a, subsumed in repo._subsumes.items():
        assert subsumed <= live
        for b in subsumed:
            assert a in repo._subsumed_by[b]


def legacy_two_pass_order(repo: Repository):
    """The historical O(n²) ordering over Algorithm 1's subsumption
    verdicts — the oracle the indexed order must reproduce exactly."""
    entries = sorted(
        repo._entries.values(), key=lambda e: repo._seq[e.entry_id]
    )
    entries.sort(
        key=lambda e: (e.stats.io_ratio, e.stats.exec_time_s),
        reverse=True,
    )
    scores = {
        e.entry_id: sum(
            1
            for other in entries
            if other is not e and algorithm1_contains(e.plan, other.plan)
        )
        for e in entries
    }
    entries.sort(key=lambda e: scores[e.entry_id], reverse=True)
    return [e.entry_id for e in entries]


def random_entries(rng, n):
    entries = []
    for i in range(n):
        specs = [("filter", rng.randint(0, 2))]
        if rng.random() < 0.6:
            specs.append(("project", rng.randint(0, 2)))
        if rng.random() < 0.4:
            specs.append(("filter", rng.randint(0, 2)))
        entries.append(make_entry(
            specs,
            path=f"ds{rng.randint(0, 2)}",
            out=f"stored/o{i}",
            input_bytes=rng.randrange(100, 10_000),
            output_bytes=rng.randrange(10, 1_000),
            exec_time=rng.uniform(1.0, 50.0),
        ))
    return entries


class TestIncrementalOrdering:
    def test_matches_legacy_two_pass_sort_under_churn(self):
        rng = random.Random(7)
        repo = Repository()
        alive = []
        for step in range(60):
            if alive and rng.random() < 0.35:
                victim = alive.pop(rng.randrange(len(alive)))
                repo.remove(victim.entry_id)
            else:
                entry = random_entries(rng, 1)[0]
                repo.add(entry)
                alive.append(entry)
            ordered = [e.entry_id for e in repo.ordered_entries()]
            assert ordered == legacy_two_pass_order(repo)
            assert_index_consistent(repo)


class TestIndexAfterEviction:
    def test_eviction_updates_index_in_place(self, dfs):
        rng = random.Random(11)
        repo = Repository()
        entries = random_entries(rng, 10)
        for entry in entries:
            repo.add(entry)
        repo.ordered_entries()
        manager = ReStoreManager(dfs, repository=repo)
        victim = entries[3]
        evict(manager, victim, "test")
        assert_index_consistent(repo)
        found = repo.find_equivalent(victim.plan)
        assert found is None or found.entry_id != victim.entry_id
        candidates, _ = repo.match_candidates(victim.plan)
        assert victim.entry_id not in {e.entry_id for e in candidates}
        # order still matches the from-scratch oracle
        assert [e.entry_id for e in repo.ordered_entries()] == (
            legacy_two_pass_order(repo)
        )

    def test_find_equivalent_uses_index(self):
        repo = Repository()
        entry = make_entry([("filter", 1)], "ds0", "stored/a")
        repo.add(entry)
        duplicate = make_entry([("filter", 1)], "ds0", "stored/b")
        assert repo.find_equivalent(duplicate.plan) is entry
        assert repo.index_stats.exact_hits == 1
        repo.remove(entry.entry_id)
        assert repo.find_equivalent(duplicate.plan) is None


class TestEntryIdScoping:
    def test_two_repositories_share_no_counter(self):
        repo_a, repo_b = Repository(), Repository()
        first_a = repo_a.add(make_entry([], "ds0", "stored/a1"))
        second_a = repo_a.add(make_entry([], "ds1", "stored/a2"))
        first_b = repo_b.add(make_entry([], "ds0", "stored/b1"))
        assert first_a.entry_id == "entry_000001"
        assert second_a.entry_id == "entry_000002"
        assert first_b.entry_id == "entry_000001"

    def test_same_id_re_add_keeps_insertion_position(self):
        repo = Repository()
        first = repo.add(make_entry([], "ds0", "stored/a"))
        repo.add(make_entry([("filter", 1)], "ds1", "stored/b"))
        replacement = make_entry([("project", 0)], "ds2", "stored/a2")
        replacement.entry_id = first.entry_id
        repo.add(replacement)
        # dict-replace semantics: still first in insertion order
        assert [e.entry_id for e in repo][0] == first.entry_id
        assert repo.get(first.entry_id) is replacement
        assert len(repo) == 2
        assert_index_consistent(repo)
        assert [e.entry_id for e in repo.ordered_entries()] == (
            legacy_two_pass_order(repo)
        )

    def test_loaded_ids_never_collide_with_generated(self):
        from repo_stream import checkpointed

        repo = Repository()
        repo.add(make_entry([], "ds0", "stored/a"))
        restored = checkpointed(repo).repository
        fresh = restored.add(make_entry([("filter", 1)], "ds0", "stored/b"))
        assert fresh.entry_id != "entry_000001"
        assert len(restored) == 2
        assert_index_consistent(restored)


def assert_pruning_sound(repository, plan):
    """``match_candidates`` keeps exactly the ordered entries the matcher
    accepts, in scan order."""
    ordered = repository.ordered_entries()
    candidates, _ = repository.match_candidates(plan)
    matcher = PlanMatcher()
    assert candidates == [
        entry for entry in ordered if matcher.match(plan, entry.plan) is not None
    ]


class TestCandidatePruningDecisions:
    def test_pruning_drops_only_entries_the_matcher_rejects(self, small_data):
        queries = [
            """
            A = load 'data/page_views' as (user, action:int, timestamp:int,
                est_revenue:double, page_info, page_links);
            B = filter A by action == 1;
            C = foreach B generate user, est_revenue;
            D = group C by user;
            E = foreach D generate group, SUM(C.est_revenue);
            store E into 'out/%d_rev';
            """,
            """
            A = load 'data/page_views' as (user, action:int, timestamp:int,
                est_revenue:double, page_info, page_links);
            B = filter A by action == 1;
            C = foreach B generate user, est_revenue;
            D = group C by user;
            E = foreach D generate group, COUNT(C.est_revenue);
            store E into 'out/%d_cnt';
            """,
        ]
        session = ReStoreSession(dfs=small_data)
        for i, template in enumerate(queries * 2):
            workflow = session.server.compile(template % i)
            for job in workflow.jobs:
                assert_pruning_sound(session.manager.repository, job.plan)
            session.run_workflow(workflow)
        assert session.match_stats.candidates_pruned > 0
        assert session.match_stats.traversals > 0

        entry_specs = generate_entry_specs(100, seed=13)
        repository = build_repository(entry_specs, seed=13)
        for spec in generate_probe_specs(entry_specs, 20, seed=13):
            assert_pruning_sound(repository, probe_job(spec)[0].plan)

    def test_match_scanned_events_on_bus_only(self, small_data):
        session = ReStoreSession(dfs=small_data)
        scans = session.events.collect(event_types=MatchScanned)
        first = session.run(
            "A = load 'data/users' as (name, phone, address, city);"
            "B = filter A by city == 'waterloo';"
            "store B into 'out/w1';"
        )
        second = session.run(
            "A = load 'data/users' as (name, phone, address, city);"
            "B = filter A by city == 'waterloo';"
            "C = foreach B generate name;"
            "store C into 'out/w2';"
        )
        assert not any(isinstance(e, MatchScanned) for e in first.events)
        assert not any(isinstance(e, MatchScanned) for e in second.events)
        assert scans  # repository was non-empty on the second run
        assert all(e.entries_total > 0 for e in scans)
        assert session.match_stats.jobs_scanned >= 2


class TestScaleGate:
    def test_1000_entries_tenfold_fewer_traversals(self):
        scale = run_match_stream(n_entries=1000, n_probes=20, seed=13)
        assert match_record(scale) == load_golden()["repo_scale"]["1000x20"]
        assert scale.rewrites > 0
        # the index is never worse than no index, and at this size it
        # leaves out at least nine entries in ten before the matcher
        assert scale.candidates_examined <= scale.entries_seen
        assert scale.traversals * 10 <= scale.entries_seen
