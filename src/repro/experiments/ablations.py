"""Ablation study of a ReStore design choice (beyond the paper's
figures): the **selector rules** (§5 rules 1-2) vs the paper's keep-all
policy — how many bytes the rules save and what reuse benefit costs.
"""

from __future__ import annotations

from typing import Optional

from repro.core.manager import ReStoreConfig, ReStoreManager
from repro.experiments.common import (
    ExperimentResult,
    PigMixSandbox,
    run_script,
)
from repro.pigmix.datagen import PigMixConfig


def _manager(sandbox, selector):
    config = ReStoreConfig(
        heuristic="aggressive",
        register_whole_jobs="temporary-only",
        selector=selector,
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
        # the manager builds "rules" with the sandbox's cost model
        for label, selector in (("keep_all", "keep-all"), ("rules", "rules")):
            sandbox = PigMixSandbox(scale, pigmix_config)
            manager = _manager(sandbox, selector)
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
