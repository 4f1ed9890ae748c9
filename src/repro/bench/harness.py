"""Benchmark orchestration shared by the CLI and scripts/run_benchmarks.py.

Assembles the full ``BENCH_repo_scale.json`` payload — the indexed
matching trajectory, the ``service_throughput`` section, the
``exec_sim`` data-plane section, the ``subjob_enum`` enumeration
section, the ``repo_persistence`` durability section, and the
``incremental`` delta-recomputation section — runs the
regression gates, writes the file, and prints the summary.  Both
entry points (``python -m repro bench`` and
``python scripts/run_benchmarks.py``) are thin argument parsers over
:func:`run_benchmark_suite`.
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Optional, Tuple

from repro.bench.exec_sim import run_exec_sim_benchmark
from repro.bench.fault_resilience import run_fault_resilience
from repro.bench.golden import load_golden
from repro.bench.incremental import run_incremental_benchmark
from repro.bench.payload_durability import run_payload_durability
from repro.bench.repo_persistence import run_repo_persistence_benchmark
from repro.bench.repo_scale import (
    check_gates,
    run_repo_scale_benchmark,
    run_service_benchmark,
)
from repro.bench.subjob_enum import run_subjob_enum_benchmark


def run_benchmark_suite(
    out: pathlib.Path,
    *,
    quick: bool = False,
    scales: Optional[Tuple[int, ...]] = None,
    n_probes: int = 20,
    seed: int = 13,
    service_scales: Optional[Tuple[int, ...]] = None,
    service_workers: Optional[Tuple[int, ...]] = None,
    service_jobs: Optional[int] = None,
    exec_scales: Optional[Tuple[int, ...]] = None,
    persistence_entries: Optional[int] = None,
    gate: bool = True,
) -> int:
    """Run everything, write *out*, print a summary; returns the
    process exit code (non-zero when a gate trips and *gate* is on)."""
    payload = run_repo_scale_benchmark(
        scales=scales,
        n_probes=n_probes,
        seed=seed,
        quick=quick,
    )
    payload["version"] = 11
    # exec_sim runs before the service benchmark, so its recorded
    # wall time and rows/sec come from the freshest process state
    payload["exec_sim"] = run_exec_sim_benchmark(
        scales=exec_scales,
        seed=seed,
        quick=quick,
    )
    payload["subjob_enum"] = run_subjob_enum_benchmark()
    payload["repo_persistence"] = run_repo_persistence_benchmark(
        n_entries=persistence_entries,
        n_probes=n_probes,
        seed=seed,
        quick=quick,
    )
    payload["payload_durability"] = run_payload_durability(
        seed=seed,
        quick=quick,
    )
    payload["incremental"] = run_incremental_benchmark(
        seed=seed,
        quick=quick,
    )
    payload["service_throughput"] = run_service_benchmark(
        scales=service_scales,
        n_jobs=service_jobs,
        workers=service_workers,
        seed=seed,
        quick=quick,
    )
    # the fault storm runs last: it spawns/kills worker processes and
    # sleeps through backoffs, so its noise must not land inside the
    # wall-time-gated sections above
    payload["fault_resilience"] = run_fault_resilience(seed=seed)
    payload["gates"] = check_gates(payload, load_golden())
    failures = payload["gates"]["failures"]
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")

    for scale in payload["scales"]:
        print(
            f"  N={scale['n_entries']:>5}: "
            f"{scale['traversals']:>6} traversals over "
            f"{scale['entries_seen']:>6} entries seen, "
            f"{scale['mean_match_ms']:.3f}ms per match"
        )
    for scale in payload["service_throughput"]["scales"]:
        runs = ", ".join(
            f"{run['workers']}w={run['jobs_per_sec']:.0f}/s"
            for run in scale["workers"]
        )
        print(
            f"  service N={scale['n_entries']:>5}: "
            f"serial={scale['serial']['jobs_per_sec']:.0f}/s, {runs}, "
            f"1-worker identical={scale['one_worker_decisions_identical']}"
        )
    process_lane = payload["service_throughput"].get("process_lane") or {}
    for scale in process_lane.get("scales", []):
        runs = ", ".join(
            f"{run['workers']}w={run['jobs_per_sec']:.0f}/s"
            for run in scale["workers"]
        )
        speedup = scale["speedup_4v1"]
        scaling = (
            f"{speedup}x 4v1" if speedup is not None else "4v1 not measured"
        )
        if scale["cpus"] < 4:
            scaling += f" ({scale['cpus']} cpu)"
        print(
            f"  processes N={scale['n_entries']:>5}: "
            f"serial={scale['serial']['jobs_per_sec']:.0f}/s, {runs}, "
            f"{scaling}, 1-worker-process identical="
            f"{scale['one_worker_decisions_identical']}"
        )
    for scale in payload["exec_sim"]["scales"]:
        print(
            f"  exec_sim N={scale['n_rows']:>6}: "
            f"{scale['workflow_wall_s']:.3f}s workflow wall, "
            f"{scale['rows_per_sec']:,.0f} rows/s, "
            f"{scale['payload_clones']} payload clones for "
            f"{scale['copy_rewrites']} copy rewrites"
        )
    for scale in payload["subjob_enum"]["scales"]:
        print(
            f"  subjob_enum N={scale['n_anchors']:>5} anchors: "
            f"{scale['wall_s']:.3f}s, "
            f"{scale['candidates_per_sec']:,.0f} candidates/s "
            f"({scale['candidates']} injected)"
        )
    for scale in payload["repo_persistence"]["scales"]:
        print(
            f"  persistence N={scale['n_entries']:>5}: "
            f"restore={scale['restore_s']:.3f}s "
            f"({scale['restore_entries_per_s']:,} entries/s), "
            f"decisions identical={scale['decisions_identical']}, "
            f"torn tail recovered="
            f"{scale['torn_tail']['torn_tail_recovered']}"
        )

    durability = payload["payload_durability"]
    sweep = durability["byte_sweep"]
    warm = durability["warm_restart"]
    print(
        f"  payload_durability: {sweep['boundaries']} crash boundaries "
        f"swept over {sweep['block_bytes']} block-store bytes, "
        f"{sweep['condemned_total']} condemnation(s), "
        f"{len(sweep['violations'])} violation(s); warm restart "
        f"{warm['warm_jobs']} job(s) executed "
        f"(cold {warm['cold_jobs']}), outputs identical="
        f"{warm['outputs_identical'] and warm['served_bytes_identical']}"
    )

    for scale in payload["incremental"]["scales"]:
        print(
            f"  incremental N={scale['n_rows']:>6} rows "
            f"(+{scale['tail_rows']}): "
            f"delta={scale['delta_s']:.3f}s vs "
            f"full={scale['full_s']:.3f}s "
            f"({scale['delta_speedup']}x), "
            f"{scale['delta_refreshes']} refresh(es), "
            f"outputs identical={scale['outputs_identical']}, "
            f"shuffle fallback ok={scale['group_fallbacks'] >= 1}"
        )

    faultline = payload["fault_resilience"]
    storm_stats = faultline["storm"]["stats"]
    print(
        f"  fault_resilience: {faultline['storm_fired']} fault(s) fired, "
        f"{storm_stats['retried']} retried, {storm_stats['timeouts']} "
        f"timeout(s), {storm_stats['quarantined_entries']} quarantined, "
        f"{storm_stats['promotions']} promotion(s), "
        f"{storm_stats['breaker_trips']} breaker trip(s); "
        f"p99 {faultline['storm']['p99_s']:.2f}s vs baseline "
        f"{faultline['baseline']['p99_s']:.2f}s "
        f"(bound {faultline['p99_bound_s']:.2f}s), "
        f"checks passed={all(faultline['checks'].values())}"
    )

    for name, status in payload["gates"]["status"].items():
        if status.startswith("skipped"):
            print(f"GATE SKIPPED: {name}: {status}")
    if failures:
        for failure in failures:
            print(f"GATE FAILED: {failure}", file=sys.stderr)
        if gate:
            return 1
    else:
        print("all gates that ran passed")
    return 0


def add_benchmark_arguments(parser) -> None:
    """Install the shared benchmark flags on an argparse parser."""
    from repro.bench.repo_scale import DEFAULT_SCALES, QUICK_SCALES

    def int_tuple(text: str) -> Tuple[int, ...]:
        return tuple(int(x) for x in text.split(","))

    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI smoke mode: scales {QUICK_SCALES}, fewer probes/jobs",
    )
    parser.add_argument(
        "--scales",
        type=int_tuple,
        default=None,
        help=f"comma-separated repository sizes (default {DEFAULT_SCALES})",
    )
    parser.add_argument("--probes", type=int, default=20)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument(
        "--service-scales",
        type=int_tuple,
        default=None,
        help="repository sizes for the service-throughput benchmark",
    )
    parser.add_argument(
        "--service-workers",
        type=int_tuple,
        default=None,
        help="worker-pool sizes to measure (default 1,4,8)",
    )
    parser.add_argument(
        "--service-jobs",
        type=int,
        default=None,
        help="probe jobs per service-throughput run "
        "(default 60, or 24 with --quick)",
    )
    parser.add_argument(
        "--exec-scales",
        type=int_tuple,
        default=None,
        help="events-table row counts for the exec_sim data-plane "
        "benchmark (default 6000,20000; 2000,20000 with --quick)",
    )
    parser.add_argument(
        "--persistence-entries",
        type=int,
        default=None,
        help="repository size for the repo_persistence cold-start "
        "benchmark (default 10000, also with --quick)",
    )
    parser.add_argument(
        "--no-gate",
        action="store_true",
        help="record results without failing on gate regressions",
    )


def run_from_args(args, out: pathlib.Path) -> int:
    """Bridge argparse namespaces onto :func:`run_benchmark_suite`."""
    return run_benchmark_suite(
        out,
        quick=args.quick,
        scales=args.scales,
        n_probes=args.probes,
        seed=args.seed,
        service_scales=args.service_scales,
        service_workers=args.service_workers,
        service_jobs=args.service_jobs,
        exec_scales=args.exec_scales,
        persistence_entries=args.persistence_entries,
        gate=not args.no_gate,
    )
