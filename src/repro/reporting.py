"""Human-readable reports over runs, workflows and the repository.

Rendering helpers used by the CLI, the examples, and anyone embedding
the library who wants Pig-style job summaries without digging through
`JobStats` objects.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List

from repro.core.manager import ReStoreManager
from repro.core.repository import Repository
from repro.events import ReStoreEvent
from repro.mapreduce.job import Workflow
from repro.mapreduce.stats import JobStats, WorkflowStats
from repro.pig.engine import PigRunResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session import ReStoreSession


def format_bytes(n: float) -> str:
    """1536 -> '1.5 KB' (binary units, one decimal)."""
    value = float(n)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if value < 1024.0 or unit == "TB":
            if unit == "B":
                return f"{int(value)} {unit}"
            return f"{value:.1f} {unit}"
        value /= 1024.0
    return f"{value:.1f} TB"


def format_duration(seconds: float) -> str:
    if seconds < 60:
        return f"{seconds:.1f}s"
    minutes, rest = divmod(seconds, 60.0)
    return f"{int(minutes)}m{rest:04.1f}s"


def job_report(stats: JobStats) -> str:
    """One job's statistics, Hadoop job-summary style."""
    lines = [f"job {stats.job_id} ({stats.name or 'unnamed'})"]
    lines.append(
        f"  input:   {format_bytes(stats.input_bytes)} "
        f"/ {stats.input_records} records from {len(stats.load_bytes)} path(s)"
    )
    if stats.shuffle_records:
        lines.append(
            f"  shuffle: {format_bytes(stats.shuffle_bytes)} "
            f"/ {stats.shuffle_records} records "
            f"-> {stats.reduce_groups} groups"
        )
    lines.append(
        f"  output:  {format_bytes(stats.output_bytes)} "
        f"/ {stats.output_records} records"
    )
    if stats.side_store_bytes:
        side = [s for s in stats.stores if s.side]
        lines.append(
            f"  ReStore: {len(side)} injected store(s), "
            f"{format_bytes(stats.side_store_bytes)}"
        )
    if stats.sim is not None:
        bd = stats.sim
        lines.append(
            f"  time:    {format_duration(bd.total)} "
            f"(startup {bd.t_startup:.0f}s, load {bd.t_load:.0f}s, "
            f"ops {bd.t_ops:.0f}s, sort {bd.t_sort:.0f}s, "
            f"store {bd.t_store:.0f}s, injected {bd.t_side_stores:.0f}s; "
            f"{bd.n_map_tasks} maps / {bd.n_reduce_tasks} reduces)"
        )
    return "\n".join(lines)


def workflow_report(workflow: Workflow, stats: WorkflowStats) -> str:
    """Per-job breakdown plus the Equation 1 critical-path total."""
    lines = [
        f"workflow {workflow.name!r}: {len(workflow.jobs)} job(s), "
        f"{stats.n_jobs_executed} executed, "
        f"{len(stats.eliminated_jobs)} answered from the repository"
    ]
    for job in workflow.topo_order():
        if job.job_id in stats.job_stats:
            lines.append(job_report(stats.job_stats[job.job_id]))
        else:
            lines.append(
                f"job {job.job_id}: eliminated "
                f"(reused {job.eliminated_by or 'stored result'})"
            )
    lines.append(
        f"total simulated time (critical path): "
        f"{format_duration(stats.sim_seconds)}"
    )
    return "\n".join(lines)


def event_report(events: Iterable[ReStoreEvent]) -> str:
    """Typed event stream rendered one line per event, with the event
    class name as a prefix so streams are grep-able by type."""
    lines = [
        f"  [{event.seq:>3}] {type(event).__name__}: {event.render()}"
        for event in events
    ]
    return "\n".join(lines) if lines else "  (no events)"


def run_report(result: PigRunResult) -> str:
    """Full report for one script execution."""
    parts = [workflow_report(result.workflow, result.stats)]
    if result.events:
        parts.append("ReStore activity:")
        parts.append(event_report(result.events))
    for path, rows in result.outputs.items():
        parts.append(f"output {path}: {len(rows)} row(s)")
    return "\n".join(parts)


def repository_report(repository: Repository) -> str:
    """Scan-ordered repository inventory with statistics."""
    lines = [
        f"repository: {len(repository)} entr"
        f"{'y' if len(repository) == 1 else 'ies'}, "
        f"{format_bytes(repository.total_stored_bytes)} stored"
    ]
    for entry in repository.ordered_entries():
        stats = entry.stats
        lines.append(
            f"  {entry.entry_id} [{entry.anchor_kind}] "
            f"{format_bytes(stats.input_bytes)} -> "
            f"{format_bytes(stats.output_bytes)} "
            f"(ratio {stats.io_ratio:.1f}, est {stats.exec_time_s:.0f}s, "
            f"used {entry.use_count}x) @ {entry.output_path}"
        )
    return "\n".join(lines)


def match_pipeline_report(manager: ReStoreManager) -> str:
    """The fingerprint-index telemetry: how much of each repository
    scan the frontier index left out before the matcher ran."""
    totals = manager.match_totals
    repository = manager.repository
    index = repository.index_stats
    lines = [
        f"match pipeline: {totals.jobs_scanned} job(s) scanned in "
        f"{totals.passes} pass(es), {totals.traversals} membership "
        f"check(s)",
        f"  index: {totals.candidates_examined} candidate(s) examined, "
        f"{totals.candidates_pruned} pruned "
        f"({100.0 * totals.prune_ratio:.1f}% of {totals.entries_seen} "
        f"entries seen)",
        f"  exact index: {totals.exact_hits} whole-job hit(s) served at "
        f"match time without a candidate list",
        f"  exact-fingerprint lookups (match-time probes and registration "
        f"duplicate checks): {index.exact_hits}/"
        f"{index.exact_lookups} hit(s); subsumption pairs: "
        f"{len(repository.subsumption_pairs())}",
    ]
    return "\n".join(lines)


def manager_report(manager: ReStoreManager) -> str:
    """Repository inventory plus manager counters."""
    lines = [repository_report(manager.repository)]
    lines.append(match_pipeline_report(manager))
    lines.append(
        f"manager: {manager.rewrite_count} partial rewrite(s), "
        f"{manager.elimination_count} whole-job elimination(s), "
        f"{manager.quarantine_count} quarantined entr"
        f"{'y' if manager.quarantine_count == 1 else 'ies'}, "
        f"clock={manager.clock}"
    )
    return "\n".join(lines)


def session_report(session: "ReStoreSession") -> str:
    """Session summary: run totals, repository inventory, counters."""
    lines = [
        f"session: {session.runs} run(s), {session.jobs_executed} job(s) "
        f"executed, {session.jobs_eliminated} answered from the "
        f"repository, {format_duration(session.sim_seconds)} simulated",
    ]
    if session.manager is not None:
        lines.append(manager_report(session.manager))
    else:
        lines.append("ReStore: disabled")
    if session.persister is not None:
        persister = session.persister
        state = "open" if persister.breaker_open else "closed"
        lines.append(
            f"persistence: breaker {state}, "
            f"{persister.breaker_trips} trip(s), "
            f"{persister.buffered_records} buffered record(s)"
        )
    return "\n".join(lines)


def comparison_table(
    labels: List[str], times_seconds: List[float], baseline_index: int = 0
) -> str:
    """Small speedup table against a chosen baseline."""
    if len(labels) != len(times_seconds):
        raise ValueError("labels and times must align")
    baseline = times_seconds[baseline_index]
    width = max(len(label) for label in labels)
    lines = []
    for label, seconds in zip(labels, times_seconds):
        speedup = baseline / seconds if seconds else float("inf")
        lines.append(
            f"{label.ljust(width)}  {format_duration(seconds):>10}  "
            f"{speedup:6.2f}x"
        )
    return "\n".join(lines)
