"""Analytical cost model implementing the paper's Equations 1 and 2.

Equation 2 (per-job):
    ``ET(Job) = T_load + Σ ET(OP_i) + T_sort + T_store``
plus a fixed startup term (the paper folds it into ET; we keep it
explicit because it bounds best-case speedups).

Equation 1 (workflow):
    ``T_total(Job_n) = ET(Job_n) + max_{i∈deps} T_total(Job_i)``

The model consumes the *measured* byte/record counters of the
simulated execution and a ``data_scale`` factor that maps the bytes we
actually pushed through the engine to the instance size the experiment
declares (15 GB / 150 GB / 40 GB), so timing behaves as at paper scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping

from repro.costmodel.calibration import DEFAULT_PARAMS, CostParams
from repro.mapreduce.cluster import ClusterConfig
from repro.mapreduce.stats import JobStats, TimeBreakdown


@dataclass
class CostModel:
    """Turns measured job counters into simulated cluster seconds."""

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    params: CostParams = DEFAULT_PARAMS
    #: multiply measured bytes/records by this to reach declared scale
    data_scale: float = 1.0

    def scaled(self, value: float) -> float:
        return value * self.data_scale

    # -- Equation 2 ---------------------------------------------------------------

    def job_time(
        self, stats: JobStats, n_reducers_requested: int = 8
    ) -> TimeBreakdown:
        p = self.params
        cluster = self.cluster

        scaled_input = self.scaled(stats.input_bytes)
        n_map = cluster.n_map_tasks(scaled_input)
        map_parallel = min(n_map, cluster.total_map_slots)
        has_reduce = stats.shuffle_records > 0 or any(
            s.phase == "reduce" for s in stats.stores
        )
        n_reduce = cluster.n_reduce_tasks(n_reducers_requested) if has_reduce else 0
        reduce_parallel = max(1, min(n_reduce, cluster.total_reduce_slots))

        # T_load: aggregate-bandwidth bound — map tasks scan in
        # parallel up to the slot limit, so effective bandwidth is
        # per-task rate x concurrent tasks.
        t_load = scaled_input / (p.read_bw_per_task * map_parallel)

        # Σ ET(OP_i): per-record pipeline cost across the parallel tasks.
        scaled_records = self.scaled(stats.op_records)
        t_ops = scaled_records * p.cpu_per_record_s / max(1, map_parallel)

        # T_sort: shuffle + merge cost, parallel across reducers.
        scaled_shuffle = self.scaled(stats.shuffle_bytes)
        t_sort = (
            scaled_shuffle / (p.shuffle_bw_per_task * reduce_parallel)
            if scaled_shuffle
            else 0.0
        )

        # T_store: primary outputs written by the phase's tasks with
        # replication; injected stores add their fixed cost.
        t_store = 0.0
        t_side = 0.0
        for store in stats.stores:
            writers = n_reduce if store.phase == "reduce" and n_reduce else n_map
            writers = max(1, min(writers, cluster.total_map_slots))
            t_bytes = (
                self.scaled(store.bytes)
                * cluster.replication
                / (p.write_bw_per_task * writers)
            )
            if store.side:
                t_side += p.side_store_fixed_s + t_bytes
            else:
                t_store += t_bytes

        return TimeBreakdown(
            t_startup=p.job_startup_s,
            t_load=t_load,
            t_ops=t_ops,
            t_sort=t_sort,
            t_store=t_store,
            t_side_stores=t_side,
            n_map_tasks=n_map,
            n_reduce_tasks=n_reduce,
        )

    # -- Equation 1 -----------------------------------------------------------------

    def workflow_time(
        self,
        job_times: Mapping[str, float],
        deps: Mapping[str, Iterable[str]],
    ) -> float:
        """Critical-path total time of a workflow (Equation 1).

        ``job_times`` maps job id -> ET(job); ``deps`` maps job id ->
        ids of jobs it depends on.  Jobs absent from ``job_times``
        (e.g. eliminated by ReStore) contribute zero.
        """
        if not job_times:
            return 0.0
        memo: Dict[str, float] = {}
        return max(_total_time(job_id, job_times, deps, memo) for job_id in job_times)


def _total_time(
    job_id: str,
    job_times: Mapping[str, float],
    deps: Mapping[str, Iterable[str]],
    memo: Dict[str, float],
) -> float:
    """``T_total(job_id)``, memoised in *memo*.  A module function, not
    a recursive closure: the closure would reference itself, a cycle
    per call left for the cyclic collector."""
    if job_id in memo:
        return memo[job_id]
    et = job_times.get(job_id, 0.0)
    # a back edge adds nothing: a rewrite that read a stored copy can
    # leave two jobs loading each other's outputs after they ran
    memo[job_id] = et
    upstream = [
        _total_time(d, job_times, deps, memo)
        for d in deps.get(job_id, ())
        if d in job_times or d in deps
    ]
    value = et + (max(upstream) if upstream else 0.0)
    memo[job_id] = value
    return value


def estimate_standalone_time(
    model: CostModel,
    input_bytes: int,
    output_bytes: int,
    records: int = 0,
) -> float:
    """Rough ET for a hypothetical job (used by repository Rule 2).

    Approximates what executing a stored sub-job from scratch would
    cost: load its inputs, run its operators, store its output.
    """
    p = model.params
    cluster = model.cluster
    scaled_in = model.scaled(input_bytes)
    scaled_out = model.scaled(output_bytes)
    n_map = cluster.n_map_tasks(scaled_in)
    map_parallel = max(1, min(n_map, cluster.total_map_slots))
    t_load = scaled_in / (p.read_bw_per_task * map_parallel)
    t_ops = model.scaled(records) * p.cpu_per_record_s / max(
        1, min(n_map, cluster.total_map_slots)
    )
    writers = max(1, min(n_map, cluster.total_map_slots))
    t_store = scaled_out * cluster.replication / (p.write_bw_per_task * writers)
    return p.job_startup_s + t_load + t_ops + t_store
