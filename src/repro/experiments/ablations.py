"""Ablation studies for ReStore's design choices (beyond the paper's
figures; DESIGN.md commits to benching these).

* **Selector rules** (§5 rules 1-2) vs the paper's keep-all policy:
  how many bytes the rules save and what reuse benefit costs.
* **Logical optimizer** as match canonicalizer: two spellings of the
  same computation only share repository entries when plans normalize.
* **Workload stream**: cumulative benefit over an analyst query stream
  with overlapping prefixes (the §1 motivation).
"""

from __future__ import annotations

from typing import Optional

from repro.core.manager import ReStoreConfig, ReStoreManager
from repro.core.selector import KeepAllSelector, RuleBasedSelector
from repro.experiments.common import (
    ExperimentResult,
    PigMixSandbox,
    run_script,
)
from repro.pig.engine import PigServer
from repro.pigmix.datagen import PigMixConfig
from repro.workloads.generator import WorkloadConfig, WorkloadGenerator


def _manager(sandbox, selector=None):
    config = ReStoreConfig(
        heuristic="aggressive",
        register_whole_jobs="temporary-only",
        selector=selector or KeepAllSelector(),
    )
    return ReStoreManager(sandbox.dfs, sandbox.cost_model, config=config)


# -- selector ablation ----------------------------------------------------------------


def _wasteful_query(sandbox: PigMixSandbox, out: str) -> str:
    """A query whose filter keeps (nearly) everything: its sub-job
    output is as large as the input, so §5 Rule 1 must reject it."""
    pv = sandbox.dataset.paths["page_views"]
    return f"""
A = load '{pv}' as (user, action:int, timestamp:int, est_revenue:double,
    page_info, page_links);
B = filter A by action >= 0;
D = group B by user;
E = foreach D generate group, COUNT(B);
store E into '{out}';
"""


def run_selector_ablation(
    scale: str = "150GB",
    pigmix_config: Optional[PigMixConfig] = None,
    queries=("L2", "L6", "wasteful"),
) -> ExperimentResult:
    """Repository bytes and reuse benefit: keep-all vs §5 rules.

    PigMix's heuristic-chosen operators all reduce their input, so the
    rules mostly agree with keep-all there; the "wasteful" query (a
    filter that keeps everything) shows Rule 1 pruning a stored output
    as large as the source data.
    """
    rows = []
    for name in queries:
        row = {"query": name}
        for label, selector in (
            ("keep_all", KeepAllSelector()),
            ("rules", None),  # built per sandbox (needs its cost model)
        ):
            sandbox = PigMixSandbox(scale, pigmix_config)
            chosen = selector or RuleBasedSelector(sandbox.cost_model)
            manager = _manager(sandbox, selector=chosen)
            if name == "wasteful":
                prime = _wasteful_query(sandbox, f"o/{name}_p")
                rerun = _wasteful_query(sandbox, f"o/{name}_r")
            else:
                prime = sandbox.query(name, f"o/{name}_p")
                rerun = sandbox.query(name, f"o/{name}_r")
            run_script(sandbox, prime, manager)
            reused = run_script(sandbox, rerun, manager)
            row[f"stored_MB_{label}"] = (
                sandbox.scaled_gb(manager.repository.total_stored_bytes) * 1024
            )
            row[f"reuse_{label}_min"] = reused.sim_seconds / 60.0
        rows.append(row)
    return ExperimentResult(
        title=f"Ablation: §5 keep rules vs keep-all, {scale}",
        columns=[
            "query",
            "stored_MB_keep_all",
            "stored_MB_rules",
            "reuse_keep_all_min",
            "reuse_rules_min",
        ],
        rows=rows,
        paper_claim=(
            "rules 1-2 drop non-reducing/no-benefit outputs with little "
            "loss of reuse benefit"
        ),
        notes=(
            "rules save the wasteful query's ~2x-input storage bill, but "
            "because ReStore keeps no memory of rejected candidates the "
            "injection overhead recurs on every resubmission — a real "
            "design gap the paper's keep-all evaluation sidesteps"
        ),
    )


# -- optimizer ablation ------------------------------------------------------------------


SPELLING_A = """
A = load 'PV' as (user, action:int, timestamp:int, est_revenue:double,
    page_info, page_links);
B = filter A by action == 1;
C = filter B by est_revenue > 2.0;
D = foreach C generate user, est_revenue;
E = group D by user;
F = foreach E generate group, SUM(D.est_revenue);
store F into 'OUT';
"""

SPELLING_B = """
A = load 'PV' as (user, action:int, timestamp:int, est_revenue:double,
    page_info, page_links);
B = filter A by action == 1 and est_revenue > 2.0;
D = foreach B generate user, est_revenue;
E = group D by user;
F = foreach E generate group, SUM(D.est_revenue);
store F into 'OUT';
"""


def run_optimizer_ablation(
    scale: str = "150GB",
    pigmix_config: Optional[PigMixConfig] = None,
) -> ExperimentResult:
    """Does the optimizer let differently-spelled queries share work?"""
    rows = []
    for label, optimize in (("optimized", True), ("unoptimized", False)):
        sandbox = PigMixSandbox(scale, pigmix_config)
        manager = _manager(sandbox)
        server = PigServer(
            sandbox.dfs,
            cluster=sandbox.cluster,
            cost_model=sandbox.cost_model,
            restore=manager,
            optimize=optimize,
        )
        pv = sandbox.dataset.paths["page_views"]
        server.run(SPELLING_A.replace("PV", pv).replace("OUT", "o/a"))
        result = server.run(SPELLING_B.replace("PV", pv).replace("OUT", "o/b"))
        rows.append(
            {
                "mode": label,
                "rewrites_on_spelling_b": manager.rewrite_count
                + manager.elimination_count,
                "spelling_b_min": result.sim_seconds / 60.0,
            }
        )
    return ExperimentResult(
        title=f"Ablation: optimizer as plan canonicalizer, {scale}",
        columns=["mode", "rewrites_on_spelling_b", "spelling_b_min"],
        rows=rows,
        paper_claim=(
            "matching happens on physical plans, so canonicalization "
            "(filter merging) is what lets different spellings match"
        ),
    )


# -- workload stream ---------------------------------------------------------------------


def run_workload_stream(
    scale: str = "150GB",
    pigmix_config: Optional[PigMixConfig] = None,
    workload_config: Optional[WorkloadConfig] = None,
) -> ExperimentResult:
    """Cumulative time over an analyst stream, with vs without ReStore."""
    workload_config = workload_config or WorkloadConfig(n_queries=10)

    plain_sandbox = PigMixSandbox(scale, pigmix_config)
    plain_queries = WorkloadGenerator(
        plain_sandbox.dataset, workload_config
    ).generate()

    restore_sandbox = PigMixSandbox(scale, pigmix_config)
    manager = _manager(restore_sandbox)
    restore_queries = WorkloadGenerator(
        restore_sandbox.dataset, workload_config
    ).generate()

    rows = []
    cumulative_plain = 0.0
    cumulative_restore = 0.0
    for plain_q, restore_q in zip(plain_queries, restore_queries):
        plain_run = run_script(plain_sandbox, plain_q.source)
        restore_run = run_script(restore_sandbox, restore_q.source, manager)
        cumulative_plain += plain_run.sim_seconds
        cumulative_restore += restore_run.sim_seconds
        rows.append(
            {
                "query": plain_q.name,
                "plain_min": plain_run.sim_seconds / 60.0,
                "restore_min": restore_run.sim_seconds / 60.0,
                "cum_plain_min": cumulative_plain / 60.0,
                "cum_restore_min": cumulative_restore / 60.0,
            }
        )
    rows.append(
        {
            "query": "TOTAL",
            "cum_plain_min": cumulative_plain / 60.0,
            "cum_restore_min": cumulative_restore / 60.0,
        }
    )
    return ExperimentResult(
        title=f"Workload stream: cumulative benefit over {len(plain_queries)} queries ({scale})",
        columns=[
            "query",
            "plain_min",
            "restore_min",
            "cum_plain_min",
            "cum_restore_min",
        ],
        rows=rows,
        paper_claim=(
            "§1 motivation: shared load/filter/project prefixes across an "
            "analyst workload amortize quickly once stored"
        ),
    )
