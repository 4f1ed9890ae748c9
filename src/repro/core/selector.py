"""Enumerated sub-job selection (§6.2 component 3): which candidate
outputs to *keep* (§5), and the registration stage that puts them in
the repository.

The paper stores everything in its experiments ("we store the outputs
of all candidate jobs and sub-jobs") but proposes Rules 1–2 as keep
criteria; both policies ship here.

* Rule 1 — keep only if the output is smaller than the input (reduces
  ``T_load`` in Equation 2).
* Rule 2 — keep only if the cost model predicts workflows reusing the
  output run faster than recomputing it (Equation 1/2 check: loading
  the stored result must beat executing the producing job).

After a job runs, :func:`offer_sub_job` and :func:`offer_whole_job`
cut what they offer from the plan that ran (sharing its operators)
and offer it through :func:`register`, the one way into the
repository; each takes the manager as its first argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.freshness import DELTA_TMP_PREFIX
from repro.core.heuristics import classify_operator
from repro.core.repository import EntryStats, RepositoryEntry
from repro.costmodel.model import CostModel, estimate_standalone_time
from repro.dfs.namenode import InputExtent
from repro.events import SubJobDiscarded, SubJobStored
from repro.pig.physical.operators import POStore


@dataclass
class KeepDecision:
    keep: bool
    reason: str


class Selector:
    """Decides whether a freshly produced output enters the repository."""

    name = "abstract"

    def decide(self, entry: RepositoryEntry) -> KeepDecision:
        raise NotImplementedError


class KeepAllSelector(Selector):
    """The paper's experimental configuration: store everything."""

    name = "keep-all"

    def __init__(self, cost_model: Optional[CostModel] = None):
        self.cost_model = cost_model  # unused; every selector takes one

    def decide(self, entry: RepositoryEntry) -> KeepDecision:
        return KeepDecision(True, "keep-all policy")


class RuleBasedSelector(Selector):
    """Rules 1 and 2 of §5."""

    name = "rules"

    def __init__(self, cost_model: Optional[CostModel] = None):
        self.cost_model = cost_model or CostModel()

    def decide(self, entry: RepositoryEntry) -> KeepDecision:
        stats = entry.stats
        # Rule 1: output must be smaller than input.
        if stats.output_bytes >= stats.input_bytes:
            return KeepDecision(
                False,
                f"rule 1: output ({stats.output_bytes} B) is not smaller "
                f"than input ({stats.input_bytes} B)",
            )
        # Rule 2: reusing must be faster than recomputing.  Reuse cost
        # is a job that loads the stored output; recompute cost is the
        # producing job's estimated standalone time.
        reuse_time = estimate_standalone_time(
            self.cost_model,
            input_bytes=stats.output_bytes,
            output_bytes=0,
            records=stats.output_records,
        )
        recompute_time = stats.exec_time_s or estimate_standalone_time(
            self.cost_model,
            input_bytes=stats.input_bytes,
            output_bytes=stats.output_bytes,
            records=stats.output_records,
        )
        if reuse_time >= recompute_time:
            return KeepDecision(
                False,
                f"rule 2: reuse ({reuse_time:.1f}s) would not beat "
                f"recompute ({recompute_time:.1f}s)",
            )
        return KeepDecision(
            True,
            f"keeps {stats.input_bytes - stats.output_bytes} B of input "
            f"off future loads; saves ~{recompute_time - reuse_time:.1f}s",
        )


#: selector name -> class, built with the session's cost model so
#: Rule-2 estimates agree with the rest of the session
SELECTORS = {"keep-all": KeepAllSelector, "rules": RuleBasedSelector}


# -- the registration stage ---------------------------------------------------


def registrable(plan, anchor=None) -> bool:
    """Whether an output of *plan* — the rows *anchor* computes, or
    with no anchor the plan's own output — could enter the repository,
    judged from the plan alone.  :func:`register` asks it of every
    offer; the enumerator asks it of every anchor before it writes a
    side store, so no side store is written only to be deleted.

    * The output reads delta scratch (a load under
      :data:`~repro.core.freshness.DELTA_TMP_PREFIX` upstream of
      *anchor*): that file dies when the refresh lands, so the entry
      could never be recomputed.
    * The plan stores over one of its own loads: an extent read after
      the run is not of the bytes it read, so nothing it computes is
      registered (the manager's ``after_job`` refuses its whole-job
      offer on the same ground).
    """
    loads = plan.loads()
    written = {op.path for op in plan.stores() if not op.side}
    if any(op.path in written for op in loads):
        return False
    scratch = [op for op in loads if op.path.startswith(DELTA_TMP_PREFIX)]
    if scratch and anchor is not None:
        upstream = plan.upstream_closure(anchor)
        scratch = [op for op in scratch if op.op_id in upstream]
    return not scratch


def sub_job_plan(plan, side_store):
    """The candidate sub-job an injected *side_store* of the
    instrumented *plan* materializes (§4): the plan cut at the store's
    anchor, the input of its tee, plus a Store at the same path —
    "indistinguishable from other jobs in the repository".  The cut
    shares *plan*'s operators, and its frontier is the anchor."""
    (tee,) = plan.predecessors(side_store)
    (anchor,) = plan.predecessors(tee)
    sub_plan = plan.subplan_upto(anchor)
    store = sub_plan.add(POStore(side_store.path, schema=anchor.schema))
    sub_plan.connect(anchor, store)
    return sub_plan


def offer_sub_job(manager, plan, side_store, stats, workflow) -> None:
    """Offer the sub-job whose output *side_store* wrote, cut from
    *plan*, the job plan that ran (:func:`sub_job_plan`).  The file is
    the repository's own, so a refusal deletes it."""
    path = side_store.path
    store_stat = stats.store_for_path(path)
    if store_stat is None:
        return
    sub_plan = sub_job_plan(plan, side_store)
    anchor = sub_plan.frontier()
    input_bytes = sum(stats.load_bytes.get(op.path, 0) for op in sub_plan.loads())
    entry_stats = EntryStats(
        input_bytes=input_bytes,
        output_bytes=store_stat.bytes,
        output_records=store_stat.records,
        exec_time_s=estimate_standalone_time(
            manager.cost_model,
            input_bytes=input_bytes,
            output_bytes=store_stat.bytes,
            records=stats.input_records,
        ),
    )
    if not register(
        manager,
        sub_plan,
        path,
        anchor.schema,
        entry_stats,
        classify_operator(anchor, plan),
        workflow,
        owned=True,
    ):
        manager.dfs.delete_if_exists(path)


def offer_whole_job(manager, job, stats, workflow) -> None:
    """Offer the job's own output (§2.1 type 1).  A final output is
    the user's file: refused or not, it stays where they stored it;
    a temporary one becomes the repository's when it is kept."""
    policy = manager.config.register_whole_jobs
    if policy == "none":
        return
    if policy == "temporary-only" and not job.temporary:
        return
    primary = job.plan.primary_store()
    if primary is None:
        return
    sim_time = stats.sim.total_without_side_stores if stats.sim is not None else 0.0
    register(
        manager,
        job.plan.subplan_upto(primary),
        primary.path,
        primary.schema or job.plan.loads()[0].schema,
        EntryStats(
            input_bytes=stats.input_bytes,
            output_bytes=stats.output_bytes,
            output_records=stats.output_records,
            exec_time_s=sim_time,
        ),
        "whole-job",
        workflow,
        owned=job.temporary,
    )


def register(
    manager,
    plan,
    output_path: str,
    output_schema,
    stats: EntryStats,
    anchor_kind: str,
    workflow,
    *,
    owned: bool,
) -> bool:
    """The one way into the repository: probe, snapshot the inputs,
    build the entry, ask the selector, add atomically, keep and pin
    an *owned* file, emit.  Returns whether the output was stored.
    """
    if len(plan) <= 2 or not registrable(plan):
        return False  # a trivial copy, or refused by the plan alone
    load_paths = [op.path for op in plan.loads()]
    repository = manager.repository
    if repository.find_equivalent(plan) is not None:
        return False  # duplicate computation already stored
    entry = RepositoryEntry(
        plan=plan,
        output_path=output_path,
        output_schema=output_schema,
        stats=stats,
        anchor_kind=anchor_kind,
        created_at=manager.clock,
        last_used_at=manager.clock,
        input_extents=input_snapshot(manager.dfs, load_paths),
        output_extent=manager.dfs.input_extent(output_path),
    )
    refused_as = "whole-job" if anchor_kind == "whole-job" else "sub-job"

    def refuse(reason: str) -> bool:
        manager._emit(
            SubJobDiscarded(
                output_path=output_path, reason=reason, anchor_kind=refused_as
            )
        )
        return False

    decision = manager.selector.decide(entry)
    if not decision.keep:
        return refuse(decision.reason)
    # Atomic: a concurrent worker registering the same computation
    # loses the race here instead of storing a duplicate entry.
    # Entry insert and path ownership commit under one manager
    # lock, so an eviction pass can never observe the entry
    # without its kept path (which would orphan the stored file).
    with manager._lock:
        stored, added = repository.add_if_absent(entry)
        if added and owned:
            manager.kept_paths.add(output_path)
            # protect the fresh output from a concurrent tenant's
            # eviction until this workflow (whose rescan passes may
            # re-match it, whose later jobs may load it) is over
            manager._pin(workflow, output_path)
            if manager.persistence is not None:
                manager.persistence.note_kept_path(output_path, True)
    if not added:
        return refuse(f"duplicate of {stored.entry_id} (lost concurrent registration)")
    manager._emit(
        SubJobStored(
            entry_id=entry.entry_id,
            output_path=output_path,
            anchor_kind=anchor_kind,
        )
    )
    return True


def input_snapshot(dfs, paths) -> Dict[str, InputExtent]:
    """Each existing input's extent (identity, length, prefix
    checksum) at registration time — what the freshness classifier
    compares against the live file."""
    extents: Dict[str, InputExtent] = {}
    for path in paths:
        extent = dfs.input_extent(path, with_crc=True)
        if extent is not None:
            extents[path] = extent
    return extents
