"""A candidate sub-job is the cut of the plan that ran.

A candidate sub-job is the plan from the job's Loads up to an anchored
operator plus a Store (paper §4).  The manager cuts it from the
instrumented job plan after the job runs
(:func:`repro.core.selector.sub_job_plan`).  These tests hold every
offered cut against an independent reference: a
``PhysicalPlan.from_dict(plan.to_dict())`` copy of the job plan taken
just before the enumerator injects its side stores, cut at the same
anchor with ``subplan_upto`` and completed with a Store at the side
store's path.  Cut and reference must agree in encoding, fingerprint,
index keys, anchor kind, schema and order, on a PigMix first-run
stream, a tenant stream with appends (delta rewrites among its jobs),
a job whose anchor already feeds a Pig split, and a job with two
equal-signature filters.

A cut shares the job's operators: the last test checks, with ``is``,
that registered sub-job and whole-job plans hold the job's own.
"""

import sys
from pathlib import Path

from repro.core import selector
from repro.core.enumerator import SubJobEnumerator
from repro.core.freshness import DELTA_TMP_PREFIX
from repro.core.heuristics import classify_operator
from repro.core.manager import ReStoreConfig, ReStoreManager
from repro.mapreduce.job import MapReduceJob, Workflow
from repro.pig.physical.operators import (
    POFilter,
    POForEach,
    POLoad,
    POSplit,
    POStore,
)
from repro.pig.physical.plan import PhysicalPlan, linear_plan
from repro.relational.expressions import BinaryOp, Column, Const
from repro.relational.schema import Schema
from repro.relational.types import DataType
from repro.session import ReStoreSession

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench_e2e"))
import inputs  # noqa: E402
from workloads import QUICK  # noqa: E402

SEED = 13


def facts(plan, kind, schema):
    """What a cut and its reference must agree in."""
    return (
        plan.to_json(),
        plan.fingerprint(),
        plan.match_keys(),
        kind,
        schema.to_dict(),
    )


class CutLedger:
    """Checks every sub-job ``after_job`` offers against the reference
    cut of a copy of its job plan taken before injection, in injection
    order, and counts the cases that make the check worth having."""

    def __init__(self, monkeypatch):
        #: id(job) -> (path, facts) per injected side store, in order
        self.expected = {}
        #: (path, facts) of each sub-job offered in the running after_job
        self.offered = []
        self.checked = 0
        #: cuts that pass through another anchor's tee
        self.contracted = 0
        #: side stores hung off a split the job plan already had
        self.reused_splits = 0
        #: jobs a delta rewrite had spliced a delta side store into
        self.delta_jobs = 0
        inject = SubJobEnumerator.enumerate_and_inject
        register = selector.register
        after_job = ReStoreManager.after_job

        def enumerate_and_inject(enumerator, job):
            plan = job.plan
            ids = [op.op_id for op in plan]
            copy = PhysicalPlan.from_dict(plan.to_dict())
            self.delta_jobs += any(
                s.path.startswith(DELTA_TMP_PREFIX) for s in plan.side_stores()
            )
            stores = inject(enumerator, job)
            expected = []
            for store in stores:
                (tee,) = plan.predecessors(store)
                (anchor,) = plan.predecessors(tee)
                self.reused_splits += tee.op_id in ids
                closure = plan.upstream_closure(anchor)
                self.contracted += any(
                    isinstance(op, POSplit) and op.op_id in closure for op in plan
                )
                twin = copy.operators[ids.index(anchor.op_id)]
                ref = copy.subplan_upto(twin)
                ref.connect(twin, ref.add(POStore(store.path, schema=twin.schema)))
                kind = classify_operator(twin, copy)
                expected.append((store.path, facts(ref, kind, twin.schema)))
            self.expected[id(job)] = expected
            return stores

        def offer(manager, plan, path, schema, stats, kind, workflow, **kw):
            if kind != "whole-job":
                self.offered.append((path, facts(plan, kind, schema)))
            return register(manager, plan, path, schema, stats, kind, workflow, **kw)

        def after(manager, job, stats, workflow):
            self.offered = []
            after_job(manager, job, stats, workflow)
            expected = self.expected.pop(id(job), [])
            assert self.offered == expected
            self.checked += len(expected)

        monkeypatch.setattr(
            SubJobEnumerator, "enumerate_and_inject", enumerate_and_inject
        )
        monkeypatch.setattr(selector, "register", offer)
        monkeypatch.setattr(ReStoreManager, "after_job", after)


def run_plan(session, plan):
    """A bench input plan's files, then its steps in order."""
    for path, payload in plan.files.items():
        session.write_file(path, payload)
    for step in plan.steps:
        if step.kind == "append":
            session.dfs.append(step.out, step.data)
        else:
            session.run(step.source)


def test_a_pigmix_first_run_stream(monkeypatch):
    ledger = CutLedger(monkeypatch)
    with ReStoreSession() as session:
        run_plan(session, inputs.pigmix_plan(SEED, QUICK["pigmix"]))
    assert ledger.checked >= 10
    assert ledger.contracted > 0


def test_a_tenant_stream_with_appends(monkeypatch):
    ledger = CutLedger(monkeypatch)
    sizes = QUICK["tenant_stream"]
    builder = ReStoreSession.builder().evict(f"time-window:{sizes['window']}")
    with builder.build() as session:
        run_plan(session, inputs.tenant_plan(SEED, sizes))
    assert ledger.checked >= 30
    assert ledger.contracted > 0
    assert ledger.delta_jobs > 0


def test_a_pig_split_job(monkeypatch):
    """load -> project -> Split -> {filter -> store, filter -> store}:
    the projection's side store hangs off the job's own Split."""
    ledger = CutLedger(monkeypatch)
    schema = Schema.of(("k", DataType.CHARARRAY), ("v", DataType.INT))
    plan = PhysicalPlan()
    load = plan.add(POLoad("d", schema))
    project = plan.add(
        POForEach([Column(0), Column(1)], [False, False], ["k", "v"], schema=schema)
    )
    split = plan.add(POSplit(schema))
    plan.connect(load, project)
    plan.connect(project, split)
    for n, op in enumerate((">", "<=")):
        keep = plan.add(POFilter(BinaryOp(op, Column(1), Const(3)), schema=schema))
        plan.connect(split, keep)
        plan.connect(keep, plan.add(POStore(f"o{n}", schema=schema)))
    with ReStoreSession() as session:
        session.write_file("d", "a\t1\nb\t5\nc\t9\n")
        session.run_workflow(Workflow([MapReduceJob(plan, job_id="split")]))
    assert ledger.checked == 1
    assert ledger.reused_splits == 1


def test_equal_signature_filters(monkeypatch):
    """load -> filter(a>5) -> project -> filter(a>5) -> project ->
    store, built physically so the optimizer cannot merge the equal
    filters: each cut ends at its own anchor."""
    ledger = CutLedger(monkeypatch)
    schema = Schema.of(
        ("u", DataType.CHARARRAY), ("a", DataType.INT), ("r", DataType.DOUBLE)
    )

    def filt():
        return POFilter(BinaryOp(">", Column(1), Const(5)), schema=schema)

    def project():
        columns = [Column(0), Column(1), Column(2)]
        return POForEach(columns, [False] * 3, ["u", "a", "r"], schema=schema)

    plan = linear_plan(
        POLoad("data/ev", schema),
        filt(),
        project(),
        filt(),
        project(),
        POStore("out", schema=schema),
    )
    config = ReStoreConfig(heuristic="conservative")
    with ReStoreSession(config=config) as session:
        session.write_file("data/ev", "u\t7\t1.0\nv\t3\t2.0\n")
        session.run_workflow(Workflow([MapReduceJob(plan, job_id="dup")]))
    assert ledger.checked == 3
    assert ledger.contracted == 2


def test_registered_plans_hold_the_job_s_own_operators(monkeypatch):
    ran = []
    after_job = ReStoreManager.after_job

    def after(manager, job, stats, workflow):
        ran.append(job)
        after_job(manager, job, stats, workflow)

    monkeypatch.setattr(ReStoreManager, "after_job", after)
    with ReStoreSession() as session:
        session.write_file("d", "x\t1\ny\t5\nx\t9\n")
        session.run(
            "A = load 'd' as (k, v:int); B = filter A by v > 2;"
            "C = group B by k; D = foreach C generate group, COUNT(B);"
            "store D into 'o';"
        )
        entries = session.repository.entries()
    (job,) = ran
    own = {op.op_id: op for op in job.plan}
    kinds = []
    for entry in entries:
        kinds.append(entry.anchor_kind)
        store = entry.plan.primary_store()
        if entry.anchor_kind == "whole-job":
            assert own[store.op_id] is store
        else:
            # the one operator a sub-job adds: a Store at the side
            # store's path that is not the side store
            assert store.op_id not in own and not store.side
        for op in entry.plan:
            if op is not store:
                assert own[op.op_id] is op
    assert sorted(kinds) == ["filter", "group", "whole-job"]
