"""The collector pause around ``PigServer.run_workflow``.

Contract: a submission runs with CPython's cyclic collector disabled;
the collector's state outside the submission is what the caller left
(whatever the submission did, raising included); the collection that
fell due meanwhile runs before the submission returns, unless the
caller had disabled the collector; overlapping submissions on threads
share one pause, and the last one out restores the state the first one
found.
"""

from __future__ import annotations

import gc
import sys
import threading
from pathlib import Path

import pytest

from repro import ReStoreSession
from repro.exceptions import FileNotFoundInDFS
from repro.faults import injector as faults
from repro.faults.injector import FaultInjector, InjectedFault
from repro.faults.plan import FaultPlan, FaultRule
from repro.mapreduce.runner import HadoopSimulator
from repro.pig import engine
from repro.service import JobService

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench_e2e"))
import inputs  # noqa: E402
from workloads import QUICK  # noqa: E402

QUERY = (
    "A = load '{src}' as (k, v:int);\n"
    "B = filter A by v > 0;\n"
    "store B into '{out}';"
)


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def caller_state(request):
    """Run the test with the collector enabled, then disabled, by its
    caller; put the process back as it was."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.fixture
def inside(monkeypatch):
    """``gc.isenabled()`` as seen by every workflow run, in order."""
    seen = []
    run = HadoopSimulator.run_workflow

    def observed(self, *args, **kwargs):
        seen.append(gc.isenabled())
        return run(self, *args, **kwargs)

    monkeypatch.setattr(HadoopSimulator, "run_workflow", observed)
    return seen


@pytest.fixture
def collections(monkeypatch):
    """Collections while a submission runs, as ``(kind, generation)``:
    kind ``"due"`` for the one the pause runs at exit, ``"automatic"``
    for any other."""
    record, state = [], {"depth": 0, "explicit": False}
    collect, run = gc.collect, engine.PigServer.run_workflow

    def explicit(*args):
        state["explicit"] = True
        try:
            return collect(*args)
        finally:
            state["explicit"] = False

    def submission(self, workflow):
        state["depth"] += 1
        try:
            return run(self, workflow)
        finally:
            state["depth"] -= 1

    def callback(phase, info):
        if phase == "start" and state["depth"]:
            kind = "due" if state["explicit"] else "automatic"
            record.append((kind, info["generation"]))

    monkeypatch.setattr(gc, "collect", explicit)
    monkeypatch.setattr(engine.PigServer, "run_workflow", submission)
    gc.callbacks.append(callback)
    yield record
    gc.callbacks.remove(callback)


def session_with(files):
    session = ReStoreSession()
    for path, payload in files.items():
        session.write_file(path, payload)
    return session


def test_a_raising_submission_restores_the_collector(caller_state, inside):
    with session_with({"d": "x\t1\n"}) as session:
        with pytest.raises(FileNotFoundInDFS):
            session.run(QUERY.format(src="missing", out="o"))
        assert gc.isenabled() is caller_state
        session.run(QUERY.format(src="d", out="o"))
        assert gc.isenabled() is caller_state
    assert inside == [False, False]  # the pause did run, both times


def test_a_fault_crashed_submission_restores_the_collector(caller_state, inside):
    with session_with({"d": "x\t1\ny\t2\n"}) as session:
        session.run(QUERY.format(src="d", out="o1"))
        session.dfs.append("d", "z\t3\n")
        # the delta refresh of the grown input reads its tail through
        # the "dfs.read" site, inside the workflow run
        rule = FaultRule(site="dfs.read", action="raise", sticky=True)
        faults.install(FaultInjector(FaultPlan(rules=(rule,))))
        try:
            with pytest.raises(InjectedFault):
                session.run(QUERY.format(src="d", out="o1"))
        finally:
            faults.uninstall()
        assert gc.isenabled() is caller_state
    assert inside == [False, False]


def test_a_callers_disabled_collector_is_left_alone(collections):
    sizes = QUICK["pigmix"]
    plan = inputs.pigmix_plan(0, sizes)
    gc.disable()
    try:
        with session_with(plan.files) as session:
            gc.collect()
            for step in plan.queries:
                session.run(step.source)
            # non-vacuity: enough was allocated that the collector
            # would have collected, had the caller left it on
            assert gc.get_count()[0] > gc.get_threshold()[0]
            assert not gc.isenabled()
    finally:
        gc.enable()
    assert collections == []


def test_a_submission_runs_no_automatic_collection(collections):
    sizes = QUICK["pigmix"]
    # two passes of the base queries and their variants (34 submissions,
    # not the 8 of the first-run stream): a submission allocates little
    # once its compile is a template lookup, so a short stream can end
    # before any collection falls due inside one
    plan = inputs.pigmix_plan(0, sizes, passes=2)
    with ReStoreSession(restore_enabled=False) as session:
        for path, payload in plan.files.items():
            session.write_file(path, payload)
        # the caller keeps its results (the session keeps none), so the
        # allocations the collector counts pile up across submissions
        results = [session.run(step.source) for step in plan.queries]
    assert len(results) == len(plan.queries)
    assert gc.isenabled()
    automatic = [gen for kind, gen in collections if kind == "automatic"]
    assert automatic == []
    # non-vacuity: collections fell due inside the submissions, and ran
    # at their end, at most generation 1 (2 is the collector's own)
    due = [gen for kind, gen in collections if kind == "due"]
    assert due and max(due) <= 1


def test_overlapping_thread_submissions_end_with_the_collector_enabled(
    inside, monkeypatch
):
    depths = []
    barrier = threading.Barrier(4, timeout=30)
    run = HadoopSimulator.run_workflow

    def overlapped(self, *args, **kwargs):
        barrier.wait()  # all four are inside the pause at once
        depths.append(engine._pause_depth)
        barrier.wait()  # and stay there until each has looked
        return run(self, *args, **kwargs)

    monkeypatch.setattr(HadoopSimulator, "run_workflow", overlapped)
    assert gc.isenabled()
    service = JobService(executor="threads", max_workers=4)
    try:
        service.dfs.write_file("d", "x\t1\ny\t2\n")
        tenants = [service.open_session(f"t{n}") for n in range(4)]
        futures = [
            tenant.submit(QUERY.format(src="d", out=f"o{n}"))
            for n, tenant in enumerate(tenants)
        ]
        for future in futures:
            future.result(timeout=60)
    finally:
        service.shutdown(wait=True)
    assert depths == [4, 4, 4, 4]
    assert inside == [False] * 4
    assert gc.isenabled()
    assert engine._pause_depth == 0


def test_many_threads_many_submissions_lose_no_pause_update():
    """Stress: more workers than cores, a shortened switch interval; a
    lost update of the shared depth would leave it nonzero or the
    collector off."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    service = JobService(executor="threads", max_workers=8)
    try:
        service.dfs.write_file("d", "x\t1\ny\t2\n")
        tenants = [service.open_session(f"t{n}") for n in range(8)]
        futures = [
            tenant.submit(QUERY.format(src="d", out=f"o{n}_{k}"))
            for k in range(10)
            for n, tenant in enumerate(tenants)
        ]
        for future in futures:
            future.result(timeout=60)
    finally:
        service.shutdown(wait=True)
        sys.setswitchinterval(previous)
    assert engine._pause_depth == 0
    assert gc.isenabled()
