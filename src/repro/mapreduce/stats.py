"""Execution statistics produced by the simulated MapReduce engine.

These are the statistics ReStore's repository keeps per stored output
(§5): input/output sizes, record counts, shuffle volume, and the cost
model's simulated time breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class StoreStat:
    """Bytes/records written by one POStore during a job."""

    path: str
    bytes: int = 0
    records: int = 0
    phase: str = "map"  # "map" | "reduce"
    side: bool = False  # True for ReStore-injected sub-job stores


@dataclass
class TimeBreakdown:
    """Equation 2 terms, in simulated seconds."""

    t_startup: float = 0.0
    t_load: float = 0.0
    t_ops: float = 0.0
    t_sort: float = 0.0
    t_store: float = 0.0
    t_side_stores: float = 0.0
    n_map_tasks: int = 1
    n_reduce_tasks: int = 0

    @property
    def total(self) -> float:
        return (
            self.t_startup
            + self.t_load
            + self.t_ops
            + self.t_sort
            + self.t_store
            + self.t_side_stores
        )

    @property
    def total_without_side_stores(self) -> float:
        return self.total - self.t_side_stores


@dataclass
class JobStats:
    """Everything measured while executing one MapReduce job."""

    job_id: str
    name: str = ""
    load_bytes: Dict[str, int] = field(default_factory=dict)
    input_records: int = 0
    map_output_records: int = 0
    shuffle_records: int = 0
    shuffle_bytes: int = 0
    reduce_groups: int = 0
    op_records: int = 0
    stores: List[StoreStat] = field(default_factory=list)
    sim: Optional[TimeBreakdown] = None
    wall_seconds: float = 0.0

    @property
    def input_bytes(self) -> int:
        return sum(self.load_bytes.values())

    @property
    def output_bytes(self) -> int:
        """Bytes written by the primary (non-side) stores."""
        return sum(s.bytes for s in self.stores if not s.side)

    @property
    def output_records(self) -> int:
        return sum(s.records for s in self.stores if not s.side)

    @property
    def side_store_bytes(self) -> int:
        """Bytes written by ReStore-injected stores (the §4 overhead)."""
        return sum(s.bytes for s in self.stores if s.side)

    @property
    def total_store_bytes(self) -> int:
        return sum(s.bytes for s in self.stores)

    def store_for_path(self, path: str) -> Optional[StoreStat]:
        for store in self.stores:
            if store.path == path:
                return store
        return None

    @property
    def sim_seconds(self) -> float:
        return self.sim.total if self.sim is not None else 0.0


@dataclass
class WorkflowStats:
    """Aggregate result of running one workflow."""

    name: str = "workflow"
    job_stats: Dict[str, JobStats] = field(default_factory=dict)
    eliminated_jobs: List[str] = field(default_factory=list)
    #: Equation 1 critical-path time over executed jobs (simulated s)
    sim_seconds: float = 0.0
    wall_seconds: float = 0.0

    @property
    def total_side_store_bytes(self) -> int:
        return sum(s.side_store_bytes for s in self.job_stats.values())

    @property
    def n_jobs_executed(self) -> int:
        return len(self.job_stats)

    @property
    def sim_minutes(self) -> float:
        return self.sim_seconds / 60.0
