"""End-to-end execution-simulator benchmark.

This is the perf trajectory for the simulator itself — the substrate
every Figure 9–17 experiment and the ``service_throughput`` bench run
on.  It drives a PigMix-style query stream through a full
:class:`~repro.session.ReStoreSession` at two table sizes and records
absolute numbers: workflow wall time and rows/sec (host-dependent,
recorded but not gated) next to counts and digests that repeat
exactly.

The workload mirrors ReStore's target setting: a shared events table
is ingested once through the typed API (as an upstream job would have
produced it), then each of two filter thresholds gets one aggregation
producer and a fan-out of drill-down consumers whose plans share the
``load → filter → group`` prefix, so ReStore's sub-job reuse rewrites
the consumers to read the stored group output (and identical drill
queries degrade to whole-job copy rewrites — the payload-clone path).

Gates (see :func:`check_exec_sim_gates`, enforced by ``bench-smoke``):

* ``digests`` — the full DFS namespace (every file's bytes), every
  per-job :class:`JobStats` counter and simulated time, the DFS byte
  counters and the typed rewrite/elimination/registration event log
  must equal the committed golden record for the table size
  (:mod:`repro.bench.golden`; skipped for a size or seed the corpus
  does not hold);
* ``payload_clones`` — every whole-job copy rewrite must have cloned
  its producer's payload (zero re-serialization for copy-style
  stores), and the workload must produce such rewrites.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bench.golden import digests, golden_record, job_counters, observables
from repro.events import RewriteApplied
from repro.relational.schema import Schema
from repro.relational.types import DataType

EVENTS_PATH = "bench/events"
EVENTS_SCHEMA = Schema.of(
    ("u", DataType.CHARARRAY),
    ("a", DataType.INT),
    ("r", DataType.DOUBLE),
    ("info", DataType.CHARARRAY),
)

#: filter thresholds: each starts one producer + consumer fan-out chain
THRESHOLDS = (10, 35)
#: drill-down consumers per threshold (every third one aggregates)
CONSUMERS_PER_CHAIN = 5

DEFAULT_EXEC_SCALES = (6000, 20000)
#: quick mode keeps the full-size large scale, so the rows/sec a CI
#: smoke run records is comparable with a full run's
QUICK_EXEC_SCALES = (2000, 20000)


def generate_event_rows(n_rows: int, seed: int) -> List[tuple]:
    """A deterministic page_views-like table: skewed users, numeric
    measures, and a wide string payload (parsing it is the cost the
    typed-dataset cache removes)."""
    rng = random.Random(seed)
    n_users = max(50, n_rows // 40)
    rows = []
    for _ in range(n_rows):
        user = f"user{int(n_users * rng.random() ** 2):05d}"
        action = rng.randrange(100)
        revenue = round(rng.uniform(0.0, 10.0), 4)
        info = "info_" + "x" * (20 + rng.randrange(40))
        rows.append((user, action, revenue, info))
    return rows


def build_queries() -> List[Tuple[str, str]]:
    """(name, source) pairs: per threshold, one aggregation producer
    then drill-down consumers sharing the load→filter→group prefix."""
    queries = []
    for threshold in THRESHOLDS:
        prefix = (
            f"A = load '{EVENTS_PATH}' as "
            "(u:chararray, a:int, r:double, info:chararray);\n"
            f"B = filter A by a > {threshold};\n"
            "C = group B by u;\n"
        )
        queries.append(
            (
                f"agg_t{threshold}",
                prefix
                + "D = foreach C generate group, COUNT(B), SUM(B.r);\n"
                + f"store D into 'out/agg_t{threshold}';\n",
            )
        )
        for i in range(CONSUMERS_PER_CHAIN):
            tail = "group, MAX(B.r)" if i % 3 == 0 else "group"
            queries.append(
                (
                    f"drill_t{threshold}_{i}",
                    prefix
                    + f"D = foreach C generate {tail};\n"
                    + f"store D into 'out/drill_t{threshold}_{i}';\n",
                )
            )
    return queries


@dataclass
class ExecResult:
    """One run of the query stream: measurements plus its golden record."""

    workflow_wall_s: float = 0.0
    session_wall_s: float = 0.0
    input_records: int = 0
    jobs_run: int = 0
    jobs_eliminated: int = 0
    rewrites: int = 0
    #: whole-job matches degraded to copy jobs (the payload-clone shape)
    copy_rewrites: int = 0
    #: stores that cloned their producer's serialized payload
    payload_clones: int = 0
    #: DFS file digests, job counters, DFS byte counters, decision log
    #: (:func:`repro.bench.golden.observables`)
    record: dict = field(default_factory=dict)

    @property
    def rows_per_sec(self) -> float:
        if self.workflow_wall_s <= 0:
            return 0.0
        return self.input_records / self.workflow_wall_s

    def to_dict(self) -> dict:
        return {
            "workflow_wall_s": round(self.workflow_wall_s, 4),
            "session_wall_s": round(self.session_wall_s, 4),
            "input_records": self.input_records,
            "rows_per_sec": round(self.rows_per_sec, 1),
            "jobs_run": self.jobs_run,
            "jobs_eliminated": self.jobs_eliminated,
            "rewrites": self.rewrites,
            "copy_rewrites": self.copy_rewrites,
            "payload_clones": self.payload_clones,
        }


def run_exec_stream(
    rows: List[tuple], queries: List[Tuple[str, str]], reps: int = 1
) -> ExecResult:
    """Run the stream through *reps* fresh sessions; keep the first
    rep's artifacts (runs are deterministic, so counters/outputs are
    rep-invariant) with the minimum measured walls (standard
    best-of-N to shed scheduler noise)."""
    result = _run_exec_stream_once(rows, queries)
    for _ in range(reps - 1):
        again = _run_exec_stream_once(rows, queries)
        result.workflow_wall_s = min(result.workflow_wall_s, again.workflow_wall_s)
        result.session_wall_s = min(result.session_wall_s, again.session_wall_s)
    return result


def _run_exec_stream_once(
    rows: List[tuple], queries: List[Tuple[str, str]]
) -> ExecResult:
    """Run the whole stream through one fresh session and measure."""
    from repro.session import ReStoreSession

    result = ExecResult()
    counters: List[tuple] = []
    decisions: List[str] = []
    with ReStoreSession(datanodes=4) as session:
        # typed ingestion: the table enters through the same API an
        # upstream job's store would have used, so the dataset cache
        # starts warm
        session.dfs.write_rows(EVENTS_PATH, rows, EVENTS_SCHEMA)
        # read the ingested text once, outside the timer: the golden
        # records' DFS read counter includes this read
        session.dfs.read_file(EVENTS_PATH)
        started = time.perf_counter()
        for name, source in queries:
            run = session.run(source, name=name)
            result.workflow_wall_s += run.stats.wall_seconds
            result.jobs_eliminated += len(run.stats.eliminated_jobs)
            result.jobs_run += len(run.stats.job_stats)
            result.input_records += sum(
                stats.input_records for stats in run.stats.job_stats.values()
            )
            counters.extend(job_counters(run.stats))
            decisions.extend(repr(event) for event in run.events)
            result.copy_rewrites += sum(
                1
                for event in run.events
                if isinstance(event, RewriteApplied) and event.whole_job
            )
        result.session_wall_s = time.perf_counter() - started
        result.rewrites = sum(1 for d in decisions if d.startswith("RewriteApplied"))
        result.payload_clones = session.dfs.payload_clones
        result.record = observables(session.dfs, counters, decisions)
    return result


def run_exec_scale(n_rows: int, seed: int, reps: int = 4) -> Dict:
    """Measure one table size."""
    queries = build_queries()
    result = run_exec_stream(generate_event_rows(n_rows, seed), queries, reps)
    return {
        "n_rows": n_rows,
        "n_queries": len(queries),
        **result.to_dict(),
        "digests": digests(result.record),
    }


def run_exec_sim_benchmark(
    scales: Optional[Tuple[int, ...]] = None,
    seed: int = 13,
    quick: bool = False,
) -> Dict:
    """The full exec_sim section: every scale."""
    if scales is None:
        scales = QUICK_EXEC_SCALES if quick else DEFAULT_EXEC_SCALES
    return {
        "benchmark": "exec_sim",
        "quick": quick,
        "seed": seed,
        "scales": [run_exec_scale(n, seed) for n in scales],
    }


def check_exec_sim_gates(
    payload: Optional[Dict],
    golden: Optional[Dict] = None,
    skipped: Optional[Dict[str, str]] = None,
) -> List[str]:
    """CI regression gates over an exec_sim payload (empty = green):

    every observable's digest must equal the golden corpus record for
    the table size, and no copy-style store may re-serialize.  A scale
    the corpus holds no record for (another size or seed, or no corpus
    at all) lands in *skipped* as ``gate -> reason``.
    """
    if not payload:
        return []
    failures = []
    for scale in payload["scales"]:
        n = scale["n_rows"]
        record = golden_record(golden, "exec_sim", n, payload.get("seed"))
        if record is None:
            if skipped is not None:
                skipped[f"exec_sim.digests[N={n}]"] = "no golden record"
        else:
            for part, want in digests(record).items():
                if scale["digests"][part] != want:
                    failures.append(f"exec_sim N={n}: {part} differ from the golden")
        if scale["payload_clones"] < scale["copy_rewrites"]:
            failures.append(
                f"exec_sim N={n}: re-serialized "
                f"{scale['copy_rewrites'] - scale['payload_clones']} of "
                f"{scale['copy_rewrites']} copy-style stores"
            )
        if scale["copy_rewrites"] == 0:
            failures.append(
                f"exec_sim N={n}: workload produced no whole-job copy "
                "rewrites; the payload-clone path was not exercised"
            )
    return failures
