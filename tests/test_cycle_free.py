"""The submission path forms no reference cycle.

A submission runs with CPython's cyclic collector paused
(``repro.pig.engine._pause_collector``); that is free only while nothing
a submission builds needs the collector to be freed.  This gate runs
real streams — the golden corpus, a PigMix first run plus a reuse pass,
a tenant stream with appends and evictions — under ``gc.DEBUG_SAVEALL``,
closes and drops each session, and asserts the collector finds nothing
to free: every object the streams made died by reference counting.

A failure names the functions whose closures sit in the cycles (a
recursive closure and a payload builder that holds its own filesystem
were the three there used to be) and the most common garbage types.
"""

from __future__ import annotations

import gc
import sys
import types
from collections import Counter
from pathlib import Path

import golden_corpus
import pytest

from repro import ReStoreSession

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench_e2e"))
import inputs  # noqa: E402
from workloads import QUICK  # noqa: E402


def cyclic_garbage(scenario):
    """Everything the collector finds unreachable after *scenario*
    ran and returned: ``(qualnames of functions, types)`` as counters,
    both empty when the scenario left no cycle."""
    flags = gc.get_debug()
    gc.collect()  # what earlier tests left is not this scenario's
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        del gc.garbage[:]
        scenario()
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        del gc.garbage[:]
        gc.set_debug(flags)
    functions = Counter(
        obj.__qualname__ for obj in garbage if isinstance(obj, types.FunctionType)
    )
    kinds = Counter(type(obj).__name__ for obj in garbage)
    del garbage
    return functions, kinds


def run_steps(session, plan_steps) -> Counter:
    """Run a bench stream's steps; returns the events it raised, by type."""
    events = Counter()
    for step in plan_steps:
        if step.kind == "append":
            session.dfs.append(step.out, step.data)
        else:
            result = session.run(step.source)
            events.update(type(event).__name__ for event in result.events)
    return events


def golden_streams():
    for prepare in golden_corpus.STREAMS.values():
        golden_corpus.run_stream(prepare)
        golden_corpus.run_stream(prepare, restore_enabled=False)


def pigmix_first_run_and_reuse():
    sizes = QUICK["pigmix"]
    plan = inputs.pigmix_plan(0, sizes, passes=1)
    session = ReStoreSession()
    for path, payload in plan.files.items():
        session.write_file(path, payload)
    events = run_steps(session, inputs.pigmix_stream(sizes) + plan.steps)
    assert events["JobEliminated"] and events["RewriteApplied"]
    session.close()


def tenant_stream():
    sizes = QUICK["tenant_stream"]
    plan = inputs.tenant_plan(0, sizes)
    assert any(step.kind == "append" for step in plan.steps)
    session = ReStoreSession.builder().evict(f"time-window:{sizes['window']}").build()
    for path, payload in plan.files.items():
        session.write_file(path, payload)
    events = run_steps(session, plan.steps)
    assert events["EntryEvicted"] and events["EntryRefreshed"]
    session.close()


@pytest.mark.parametrize(
    "scenario", [golden_streams, pigmix_first_run_and_reuse, tenant_stream]
)
def test_a_dropped_session_leaves_no_cyclic_garbage(scenario):
    functions, kinds = cyclic_garbage(scenario)
    assert not kinds, (
        f"{sum(kinds.values())} objects in reference cycles; closures: "
        f"{sorted(functions)}; commonest types: {kinds.most_common(8)}"
    )


def test_the_gate_sees_a_recursive_closure():
    """Non-vacuity: the shape the submission path used to have — a
    closure that calls itself — is found, and named."""

    def scenario():
        def countdown(n):
            return n and countdown(n - 1)

        countdown(3)

    functions, kinds = cyclic_garbage(scenario)
    owner = test_the_gate_sees_a_recursive_closure.__name__
    assert functions == {f"{owner}.<locals>.scenario.<locals>.countdown": 1}
    assert kinds["cell"] == 1
