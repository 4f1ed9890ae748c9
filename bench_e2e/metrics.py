"""From epochs (and spans) to the metrics ``BENCHMARK.json`` declares.

A value of ``None`` means "does not apply to this workload" or "its
trace target is gone"; the runner decides how to print that.
"""

from __future__ import annotations

import resource
import statistics
from typing import Dict, List, Optional

from tracer import Tracer, layer_seconds
from workloads import REFERENCE_LOOP_S, Epoch

LAYERS = ("pig", "core", "execution", "dfs", "mapreduce", "persistence",
          "service")


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _median(values) -> Optional[float]:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _ratio(num, den) -> Optional[float]:
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def timings(epochs: List[Epoch], scaled: bool) -> Dict[str, float]:
    """Medians over epochs; latencies are pooled over epochs first.
    ``scaled``: at the reference speed
    (see ``workloads.calibration_sample``)."""
    def speed(host) -> float:
        return REFERENCE_LOOP_S / host.loop_s() if scaled else 1.0

    pooled = [x * speed(e.speed) for e in epochs for x in e.latencies]
    return {
        "queries_per_s": _median(
            len(e.latencies) / (e.busy_s * speed(e.speed)) for e in epochs),
        "query_ms_p50": 1e3 * statistics.median(pooled),
        "query_ms_p90": 1e3 * percentile(pooled, 0.90),
        "cpu_ms_per_query": _median(
            1e3 * e.cpu_s * speed(e.speed) / len(e.latencies)
            for e in epochs),
        "setup_s": _median(
            e.setup_s * speed(e.setup_speed) for e in epochs),
    }


def end_to_end(epochs: List[Epoch]) -> Dict[str, Optional[float]]:
    """The user-visible numbers, from untraced epochs only."""
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted = sum(e.attempted for e in epochs)
    out = timings(epochs, scaled=True)
    out.update({
        "sim_s_per_query": _median(e.sim_s / len(e.latencies) for e in epochs),
        "peak_rss_mb": rss_kb / 1024.0,
        "stored_bytes_per_input_byte": _median(
            _ratio(e.stored_bytes, e.input_bytes) for e in epochs),
        "recover_s": _median(x for e in epochs for x in e.recover_s),
        "failed_fraction": sum(e.failed for e in epochs) / attempted,
    })
    return out


def per_layer(
    untraced: List[Epoch], traced: List[Epoch], tracer: Tracer
) -> Dict[str, Optional[float]]:
    """Layer metrics: times from the traced epochs' spans, counts as
    medians over every epoch of the run."""
    totals = tracer.totals()
    missing = tracer.missing
    epochs = untraced + traced
    n_traced = len(traced)
    queries = sum(len(e.latencies) for e in traced)
    jobs = sum(e.counts.jobs for e in traced)
    executed = sum(e.counts.jobs_executed for e in traced)
    busy = sum(e.busy_s for e in traced)

    def gone(span: str) -> bool:
        # read_rows is recorded under two names (cold parse / hit)
        return span.replace(".first", "").replace(".repeat", "") in missing

    def seconds(span: str, self_time: bool = False) -> Optional[float]:
        if gone(span):
            return None
        total = totals.get(span)
        if total is None:
            return 0.0
        return total.self_seconds if self_time else total.seconds

    def calls(*spans: str) -> Optional[float]:
        if any(gone(span) for span in spans):
            return None
        return sum(totals[s].calls for s in spans if s in totals) / n_traced

    def ms_per(span: str, denominator: int, self_time: bool = False):
        value = seconds(span, self_time)
        return None if value is None else 1e3 * _ratio(value, denominator)

    def mean_ms(span: str) -> Optional[float]:
        value = seconds(span)
        if value is None:
            return None
        return 1e3 * _ratio(value, totals[span].calls if span in totals else 0)

    def count(getter) -> Optional[float]:
        return _median(getter(e) for e in epochs)

    shares = layer_seconds(totals)
    layer_gone = {name.split(".")[0] for name in missing}

    def share(layer: str) -> Optional[float]:
        if layer in layer_gone:
            return None
        return _ratio(shares.get(layer, 0.0), busy)

    run_job = seconds("execution.run_job")
    snapshots = (
        totals["persistence.snapshot"].durations
        if "persistence.snapshot" in totals else []
    )
    traced_rows = sum(e.counts.input_records for e in traced)
    return {
        # pig: the front end and the output collection after the jobs
        "pig.parse_ms_per_query": ms_per("pig.parse", queries),
        "pig.logical_ms_per_query": ms_per("pig.logical", queries),
        "pig.optimize_ms_per_query": ms_per("pig.optimize", queries),
        "pig.mrcompile_ms_per_query": ms_per("pig.mrcompile", queries),
        "pig.collect_outputs_ms_per_query": ms_per(
            "pig.collect_outputs", queries, self_time=True),
        "pig.jobs_per_query": count(
            lambda e: _ratio(e.counts.jobs, len(e.latencies))),
        "pig.share": share("pig"),
        # core: the ReStore manager's hooks, per submitted job
        "core.before_job_ms_per_job": ms_per("core.before_job", jobs),
        "core.match_candidates_ms_per_job": ms_per(
            "core.match_candidates", jobs),
        "core.matcher_ms_per_job": ms_per("core.matcher", jobs),
        "core.enumerate_ms_per_job": ms_per("core.enumerate", jobs),
        "core.after_job_ms_per_job": ms_per("core.after_job", jobs),
        "core.evict_ms_per_query": ms_per("core.evict", queries),
        "core.traversals_per_probe": count(lambda e: _ratio(
            e.match.get("traversals", 0), e.match.get("jobs_scanned", 0))),
        "core.pruned_ratio": count(lambda e: e.match.get("prune_ratio", 0)),
        # every match ends in exactly one rewrite or elimination event
        "core.match_hit_ratio": count(lambda e: _ratio(
            e.counts.events["RewriteApplied"]
            + e.counts.events["JobEliminated"],
            e.match.get("traversals", 0))),
        "core.reuse_ratio": count(
            lambda e: _ratio(e.counts.jobs_reused, e.counts.jobs)),
        "core.jobs_eliminated": count(lambda e: e.counts.jobs_eliminated),
        "core.subjobs_stored": count(
            lambda e: e.counts.events["SubJobStored"]),
        "core.subjobs_discarded": count(
            lambda e: e.counts.events["SubJobDiscarded"]),
        "core.evictions": count(lambda e: e.counts.events["EntryEvicted"]),
        "core.delta_refreshes": count(
            lambda e: e.match.get("delta_refreshes", 0)),
        "core.delta_fallbacks": count(
            lambda e: e.match.get("delta_fallbacks", 0)),
        "core.entries_final": count(lambda e: e.entries_final or 0),
        "core.share": share("core"),
        # execution: the job interpreter, without its DFS reads/writes
        "execution.run_job_ms_per_job": ms_per("execution.run_job", executed),
        "execution.self_ms_per_job": ms_per(
            "execution.run_job", executed, self_time=True),
        "execution.jobs_executed": count(lambda e: e.counts.jobs_executed),
        "execution.input_records": count(lambda e: e.counts.input_records),
        "execution.rows_per_s": _ratio(traced_rows, run_job),
        "execution.shuffle_records": count(
            lambda e: e.counts.shuffle_records),
        "execution.share": share("execution"),
        # dfs: typed reads (cold text parse vs pinned dataset) and writes
        "dfs.first_read_ms": mean_ms("dfs.read_rows.first"),
        "dfs.repeat_read_ms": mean_ms("dfs.read_rows.repeat"),
        "dfs.read_rows_calls": calls(
            "dfs.read_rows.first", "dfs.read_rows.repeat"),
        "dfs.write_rows_ms": mean_ms("dfs.write_rows"),
        "dfs.write_rows_calls": calls("dfs.write_rows"),
        "dfs.bytes_read": count(lambda e: e.dfs.get("bytes_read")),
        "dfs.bytes_written": count(lambda e: e.dfs.get("bytes_written")),
        "dfs.bytes_written_per_output_byte": count(
            lambda e: _ratio(e.dfs.get("bytes_written"), e.output_bytes)),
        "dfs.share": share("dfs"),
        # mapreduce: the workflow loop and the simulated clock
        "mapreduce.sim_s_total": count(lambda e: e.sim_s),
        "mapreduce.workflow_self_ms_per_query": ms_per(
            "mapreduce.workflow", queries, self_time=True),
        "mapreduce.share": share("mapreduce"),
        # persistence: journal, block store, snapshot rotation, recovery
        "persistence.flush_ms_per_query": ms_per("persistence.flush", queries),
        "persistence.flush_calls": calls("persistence.flush"),
        "persistence.journal_bytes": count(
            lambda e: e.persistence.get("journal_bytes", 0)),
        "persistence.blockstore_bytes": count(
            lambda e: e.persistence.get("blockstore_bytes", 0)),
        "persistence.snapshots": count(
            lambda e: e.persistence.get("snapshots", 0)),
        "persistence.snapshot_ms_p50": (
            None if gone("persistence.snapshot")
            else 1e3 * statistics.median(snapshots) if snapshots else 0.0),
        "persistence.snapshot_ms_max": (
            None if gone("persistence.snapshot")
            else 1e3 * max(snapshots, default=0.0)),
        "persistence.bytes_written_per_stored_byte": count(lambda e: _ratio(
            e.persistence.get("journal_bytes", 0)
            + e.persistence.get("snapshot_bytes", 0)
            + e.persistence.get("blockstore_bytes", 0),
            e.stored_bytes or 0)),
        "persistence.space_per_stored_byte": count(lambda e: _ratio(
            e.persistence.get("space_bytes", 0), e.stored_bytes or 0)),
        "persistence.recover_ms": mean_ms("persistence.recover"),
        "persistence.share": share("persistence"),
        # service: what the request/outcome exchange adds per query
        "service.overhead_ms_per_query": count(lambda e: 1e3 * _ratio(
            e.service.get("overhead_s", 0.0), len(e.latencies))),
        "service.coordinator_cpu_s": count(
            lambda e: e.service.get("coordinator_cpu_s", 0.0)),
        "service.worker_cpu_s": count(
            lambda e: e.service.get("worker_cpu_s", 0.0)),
        "service.retried": count(lambda e: e.service.get("retried", 0)),
        "service.timeouts": count(lambda e: e.service.get("timeouts", 0)),
        "service.failed": count(lambda e: e.service.get("failed", 0)),
        "service.share": count(lambda e: _ratio(
            e.service.get("overhead_s", 0.0), sum(e.latencies))),
        # the host, and the end-to-end timings before scaling to it
        "host.calibration_ms": 1e3 * _median(
            e.speed.loop_s() for e in epochs),
        **{f"raw.{k}": v for k, v in timings(untraced, False).items()},
        # the tracer itself
        "trace_attributed_frac": _ratio(
            sum(v for k, v in shares.items() if k in LAYERS), busy),
        "trace_overhead_frac": _ratio(
            _median(e.busy_s / e.speed.loop_s() for e in traced),
            _median(e.busy_s / e.speed.loop_s() for e in untraced)) - 1.0,
    }
