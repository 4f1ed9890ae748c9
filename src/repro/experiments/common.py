"""Shared experiment harness.

Every figure/table module builds on the same three run modes the
paper's evaluation uses (§7):

* **no reuse** — the unmodified workflow, fresh cluster, no ReStore;
* **generating sub-jobs** — ReStore injects Stores (chosen by a
  heuristic) while the query runs against an empty repository; this
  measures the §4 overhead;
* **reusing** — the same query resubmitted (with a fresh output path)
  against the repository populated by the generating run; this
  measures the §3 benefit.

Whole-job reuse (§7.1) primes the repository with whole-job outputs
only (heuristic "never") and resubmits.

Each mode runs in an isolated sandbox (fresh DFS + data) so one cell's
stored results never leak into another's.  Execution times are the
cost model's simulated cluster seconds at the declared scale
(15 GB / 150 GB), as calibrated in ``repro.costmodel.calibration``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.heuristics import heuristic_by_name
from repro.core.manager import ReStoreConfig, ReStoreManager
from repro.costmodel.calibration import GB
from repro.costmodel.model import CostModel
from repro.dfs.filesystem import DistributedFileSystem
from repro.events import LOG_EVENTS, render_events
from repro.mapreduce.cluster import ClusterConfig
from repro.pig.engine import PigRunResult, PigServer
from repro.pigmix.datagen import PigMixConfig, PigMixDataGenerator, PigMixDataset
from repro.session import ReStoreSession
from repro.pigmix.queries import build_query
from repro.pigmix.synthetic import (
    SyntheticConfig,
    SyntheticDataGenerator,
    SyntheticDataset,
)


@dataclass
class ExperimentResult:
    """Uniform result shape every experiment returns and the CLI prints."""

    title: str
    columns: List[str]
    rows: List[Dict[str, object]]
    paper_claim: str = ""
    notes: str = ""

    def format_table(self) -> str:
        widths = {
            c: max(len(c), *(len(_fmt(r.get(c))) for r in self.rows))
            for c in self.columns
        } if self.rows else {c: len(c) for c in self.columns}
        header = "  ".join(c.ljust(widths[c]) for c in self.columns)
        lines = [self.title, "=" * len(self.title), header,
                 "  ".join("-" * widths[c] for c in self.columns)]
        for row in self.rows:
            lines.append(
                "  ".join(_fmt(row.get(c)).ljust(widths[c]) for c in self.columns)
            )
        if self.paper_claim:
            lines.append(f"paper: {self.paper_claim}")
        if self.notes:
            lines.append(f"note:  {self.notes}")
        return "\n".join(lines)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


# -- sandboxes -------------------------------------------------------------------------


class PigMixSandbox:
    """Isolated DFS + PigMix data + engine at a declared scale."""

    def __init__(
        self,
        scale: str = "150GB",
        pigmix_config: Optional[PigMixConfig] = None,
        cluster: Optional[ClusterConfig] = None,
    ):
        self.scale = scale
        self.cluster = cluster or ClusterConfig()
        self.dfs = DistributedFileSystem()
        generator = PigMixDataGenerator(pigmix_config)
        self.dataset: PigMixDataset = generator.generate(self.dfs)
        self.cost_model = CostModel(
            cluster=self.cluster,
            data_scale=self.dataset.data_scale(scale),
        )

    def session(
        self, restore: Optional[ReStoreManager] = None
    ) -> ReStoreSession:
        """A session over this sandbox's DFS/cluster/cost model, with
        ReStore attached when a manager is supplied."""
        return ReStoreSession(
            dfs=self.dfs,
            cluster=self.cluster,
            cost_model=self.cost_model,
            manager=restore,
            restore_enabled=restore is not None,
        )

    def server(self, restore: Optional[ReStoreManager] = None) -> PigServer:
        return self.session(restore).server

    def manager(
        self,
        heuristic: str = "aggressive",
        register_whole_jobs: str = "all",
        rewrite_enabled: bool = True,
        inject_enabled: bool = True,
    ) -> ReStoreManager:
        config = ReStoreConfig(
            heuristic=heuristic_by_name(heuristic),
            register_whole_jobs=register_whole_jobs,
            rewrite_enabled=rewrite_enabled,
            inject_enabled=inject_enabled,
        )
        return ReStoreManager(self.dfs, self.cost_model, config=config)

    def query(self, name: str, out: str) -> str:
        return build_query(name, self.dataset, out)

    def scaled_gb(self, raw_bytes: float) -> float:
        return raw_bytes * self.cost_model.data_scale / GB


class SyntheticSandbox:
    """Isolated DFS + §7.5 synthetic data + engine (declared 40 GB)."""

    def __init__(
        self,
        config: Optional[SyntheticConfig] = None,
        cluster: Optional[ClusterConfig] = None,
    ):
        self.cluster = cluster or ClusterConfig()
        self.dfs = DistributedFileSystem()
        generator = SyntheticDataGenerator(config)
        self.dataset: SyntheticDataset = generator.generate(self.dfs)
        self.cost_model = CostModel(
            cluster=self.cluster, data_scale=self.dataset.data_scale
        )

    def session(
        self, restore: Optional[ReStoreManager] = None
    ) -> ReStoreSession:
        return ReStoreSession(
            dfs=self.dfs,
            cluster=self.cluster,
            cost_model=self.cost_model,
            manager=restore,
            restore_enabled=restore is not None,
        )

    def server(self, restore: Optional[ReStoreManager] = None) -> PigServer:
        return self.session(restore).server

    def manager(self, heuristic: str = "conservative") -> ReStoreManager:
        config = ReStoreConfig(
            heuristic=heuristic_by_name(heuristic),
            register_whole_jobs="temporary-only",
        )
        return ReStoreManager(self.dfs, self.cost_model, config=config)


# -- measurements --------------------------------------------------------------------------


@dataclass
class QueryMeasurement:
    """All the numbers one query contributes across the figures."""

    query: str
    scale: str
    t_no_reuse: float
    t_generating: Optional[float] = None
    t_reusing: Optional[float] = None
    input_bytes: int = 0
    output_bytes: int = 0
    side_store_bytes: int = 0
    events: List[str] = field(default_factory=list)

    @property
    def overhead(self) -> Optional[float]:
        if self.t_generating is None or self.t_no_reuse == 0:
            return None
        return self.t_generating / self.t_no_reuse

    @property
    def speedup(self) -> Optional[float]:
        if self.t_reusing in (None, 0):
            return None
        return self.t_no_reuse / self.t_reusing


def run_script(
    sandbox, source: str, restore: Optional[ReStoreManager] = None, name: str = ""
) -> PigRunResult:
    return sandbox.session(restore).run(source, name=name)


def measure_no_reuse(
    query_name: str,
    scale: str,
    pigmix_config: Optional[PigMixConfig] = None,
) -> QueryMeasurement:
    sandbox = PigMixSandbox(scale, pigmix_config)
    result = run_script(sandbox, sandbox.query(query_name, f"out/{query_name}"))
    total_in = sum(
        s.input_bytes for s in result.stats.job_stats.values()
    )
    total_out = sum(
        s.output_bytes
        for job_id, s in result.stats.job_stats.items()
        if not result.workflow.job_by_id(job_id).temporary
    )
    return QueryMeasurement(
        query=query_name,
        scale=scale,
        t_no_reuse=result.sim_seconds,
        input_bytes=total_in,
        output_bytes=total_out,
    )


def measure_subjob_reuse(
    query_name: str,
    scale: str,
    heuristic: str = "aggressive",
    pigmix_config: Optional[PigMixConfig] = None,
) -> QueryMeasurement:
    """The full §7.2 protocol: no-reuse, generating, reusing."""
    measurement = measure_no_reuse(query_name, scale, pigmix_config)

    sandbox = PigMixSandbox(scale, pigmix_config)
    manager = sandbox.manager(
        heuristic=heuristic, register_whole_jobs="temporary-only"
    )
    generating = run_script(
        sandbox, sandbox.query(query_name, f"out/{query_name}_gen"), manager
    )
    measurement.t_generating = generating.sim_seconds
    measurement.side_store_bytes = generating.stats.total_side_store_bytes

    reusing = run_script(
        sandbox, sandbox.query(query_name, f"out/{query_name}_reuse"), manager
    )
    measurement.t_reusing = reusing.sim_seconds
    measurement.events = render_events(reusing.events, LOG_EVENTS)
    return measurement


def measure_whole_job_reuse(
    query_name: str,
    scale: str,
    pigmix_config: Optional[PigMixConfig] = None,
) -> QueryMeasurement:
    """The §7.1 protocol: prime whole-job outputs, resubmit."""
    measurement = measure_no_reuse(query_name, scale, pigmix_config)

    sandbox = PigMixSandbox(scale, pigmix_config)
    manager = sandbox.manager(heuristic="never", register_whole_jobs="all")
    run_script(
        sandbox, sandbox.query(query_name, f"out/{query_name}_prime"), manager
    )
    reusing = run_script(
        sandbox, sandbox.query(query_name, f"out/{query_name}_reuse"), manager
    )
    measurement.t_generating = measurement.t_no_reuse  # no injection overhead
    measurement.t_reusing = reusing.sim_seconds
    measurement.events = render_events(reusing.events, LOG_EVENTS)
    return measurement


def geometric_mean(values: List[float]) -> float:
    product = 1.0
    count = 0
    for v in values:
        if v and v > 0:
            product *= v
            count += 1
    return product ** (1.0 / count) if count else 0.0


def arithmetic_mean(values: List[float]) -> float:
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else 0.0
