"""Durability benchmark: snapshot cold start at repository scale.

A restarted service must reach "warm repository, identical decisions"
without re-registering anything.  This section restores a binary
snapshot through :meth:`Repository.restore` — positional rows rebuild
the inverted indexes directly and the persisted order is installed
verbatim — records how long that takes (``restore_s``,
``restore_entries_per_s``; recorded, not gated: end-to-end recovery
time is tracked by the ``durable_stream`` workload of ``bench_e2e``),
and gates what is deterministic (see
:func:`check_repo_persistence_gates`):

* a manager over the restored repository must produce **byte-identical
  rewrite decisions** (same entries, same order, same rewritten-plan
  fingerprints) to one over the original;
* restoring must spend **zero subsumption traversals** (the persisted
  order is trusted, not recomputed);
* a journal with a **torn tail** (mid-flush crash) must recover every
  intact record and drop only the torn bytes.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro.bench.repo_scale import (
    build_repository,
    generate_entry_specs,
    generate_probe_specs,
    _probe_job,
)
from repro.core.manager import ReStoreConfig, ReStoreManager
from repro.core.repository import Repository
from repro.dfs.filesystem import DistributedFileSystem
from repro.events import JobEliminated, RewriteApplied
from repro.persistence.journal import decode_journal, encode_record
from repro.persistence.snapshot import RepositorySnapshot, entry_record

#: quick mode keeps this scale and trims only the probe stream
DEFAULT_PERSISTENCE_SCALE = 10_000


@contextmanager
def _quiesced_gc():
    """Keep the collector out of the timed region: a restore allocates
    millions of short-lived objects, and a collection landing inside
    one run but not another would widen the recorded spread."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _restore_from_snapshot(data: bytes) -> Repository:
    repository = Repository.restore(data)
    repository.ordered_entries()
    return repository


def _decision_log(repository: Repository, probe_specs) -> List[Tuple]:
    """Match the probe stream against *repository*; the log is the
    equivalence oracle between the original and the restored state."""
    dfs = DistributedFileSystem(n_datanodes=2)
    manager = ReStoreManager(
        dfs,
        repository=repository,
        config=ReStoreConfig(inject_enabled=False, register_whole_jobs="none"),
    )
    log: List[tuple] = []
    decisions: List[Tuple] = []
    manager.events.subscribe(
        lambda e: log.append((type(e).__name__, e.entry_id, e.output_path)),
        event_types=(RewriteApplied, JobEliminated),
    )
    for spec in probe_specs:
        job, workflow = _probe_job(spec)
        log.clear()
        manager.before_job(job, workflow)
        decisions.append((spec.index, tuple(log), job.plan.fingerprint()))
        manager.drain()
        manager.on_workflow_end(workflow)
    return decisions


def _torn_tail_trial(snapshot_bytes: bytes, specs) -> Dict:
    """Simulate a mid-flush crash: journal three additions, tear the
    last record's frame in half, and recover.  Every intact record
    must survive; the torn bytes must be detected and dropped."""
    extra = build_repository(specs, seed=91)
    records = []
    for i, entry in enumerate(extra.entries()):
        record = entry_record(entry)
        # ids/paths past the snapshot's range: these journal records
        # must land as *new* entries, not same-id replacements
        record["entry_id"] = f"entry_{9_000_000 + i}"
        records.append(
            encode_record({"type": "entry_added", "entry": record})
        )
    intact, torn = records[:-1], records[-1]
    journal_bytes = b"".join(intact) + torn[: len(torn) // 2]
    scan = decode_journal(journal_bytes)
    base = RepositorySnapshot.from_bytes(snapshot_bytes)
    restored = Repository.restore(base, journal=journal_bytes)
    recovered = (
        scan.torn
        and len(scan.records) == len(intact)
        and scan.torn_bytes == len(journal_bytes) - scan.clean_bytes
        and len(restored) == len(base) + len(intact)
    )
    return {
        "journal_records": len(records),
        "intact_records": len(scan.records),
        "torn_bytes": scan.torn_bytes,
        "recovered_entries": len(restored),
        "torn_tail_recovered": bool(recovered),
    }


def run_persistence_scale(
    n_entries: int, n_probes: int, seed: int = 13
) -> Dict:
    """Measure one repository size: snapshot restore timing, decision
    equivalence, and torn-tail recovery."""
    specs = generate_entry_specs(n_entries, seed)
    probe_specs = generate_probe_specs(specs, n_probes, seed)
    original = build_repository(specs, seed)
    # flush the pending order before capturing, as a session quiescing
    # for a snapshot would: the persisted order is then complete and
    # the restore side owes zero subsumption traversals
    original.ordered_entries()

    snapshot_bytes = RepositorySnapshot.capture(original).to_bytes()

    restore_runs = []
    restored = None
    for _ in range(3):
        with _quiesced_gc():
            tick = time.perf_counter()
            restored = _restore_from_snapshot(snapshot_bytes)
            restore_runs.append(time.perf_counter() - tick)
    restore_s = min(restore_runs)

    torn_specs = generate_entry_specs(3, seed + 7)
    return {
        "n_entries": n_entries,
        "n_probes": n_probes,
        "snapshot_bytes": len(snapshot_bytes),
        "restore_s": round(restore_s, 4),
        "restore_runs_s": [round(r, 4) for r in restore_runs],
        "restore_entries_per_s": round(n_entries / restore_s),
        "restore_subsume_checks": restored.index_stats.subsume_checks,
        "restored_entries": len(restored),
        "decisions_identical": (
            _decision_log(restored, probe_specs)
            == _decision_log(original, probe_specs)
        ),
        "torn_tail": _torn_tail_trial(snapshot_bytes, torn_specs),
    }


def run_repo_persistence_benchmark(
    n_entries: Optional[int] = None,
    n_probes: int = 20,
    seed: int = 13,
    quick: bool = False,
) -> Dict:
    """The durability section of the benchmark payload."""
    if n_entries is None:
        n_entries = DEFAULT_PERSISTENCE_SCALE
    if quick:
        n_probes = min(n_probes, 8)
    return {
        "seed": seed,
        "scales": [run_persistence_scale(n_entries, n_probes, seed)],
    }


def check_repo_persistence_gates(section: Optional[Dict]) -> List[str]:
    """CI gates over a ``repo_persistence`` payload section."""
    if not section:
        return []
    failures = []
    for scale in section["scales"]:
        n = scale["n_entries"]
        if not scale["decisions_identical"]:
            failures.append(
                f"persistence N={n}: restored repository's rewrite "
                f"decisions diverge from the original"
            )
        if scale["restore_subsume_checks"] != 0:
            failures.append(
                f"persistence N={n}: restore spent "
                f"{scale['restore_subsume_checks']} subsumption "
                f"traversals; the persisted order must be trusted"
            )
        if not scale["torn_tail"]["torn_tail_recovered"]:
            failures.append(
                f"persistence N={n}: torn journal tail was not "
                f"detected/recovered cleanly"
            )
    return failures
