#!/usr/bin/env python
"""Run the implementation-scale benchmarks and emit BENCH_*.json.

Usage::

    PYTHONPATH=src python scripts/run_benchmarks.py [--quick]
        [--out BENCH_repo_scale.json] [--probes 20] [--seed 13]
        [--scales 10,100,1000] [--service-scales 1000,10000]
        [--service-workers 1,4,8] [--service-jobs 60]
        [--exec-scales 6000,20000] [--persistence-entries 10000]
        [--no-gate]

This is the repo's perf trajectory: ``BENCH_repo_scale.json`` records
match latency, candidates examined, and rewrites found for repository
sizes N ∈ {10, 100, 1000}, the shared-service throughput (jobs/sec at
1/4/8 workers over one sharded repository), the ``exec_sim``
data-plane trajectory (end-to-end workflow wall time and rows/sec
over PigMix-style chains at two table sizes), and the
``subjob_enum`` enumeration trajectory (wall time and candidates/sec
at N ∈ {100, 1000} heuristic anchors), the ``repo_persistence``
durability trajectory (snapshot cold-start time and entries/sec at a
10k-entry repository, plus torn-tail journal recovery), and the ``incremental`` delta-recomputation trajectory
(delta refresh over an appended tail vs a full no-reuse rerun).  The
process exits non-zero when a regression gate trips (CI's
``bench-smoke`` job relies on this); a gate that cannot run here is
recorded and printed as ``skipped``, never as passed:

* indexed matching must never examine more candidates than the
  entries it saw, and per scale its traversal and candidate counts
  and its rewrite decisions must equal the committed golden corpus
  (``tests/golden/corpus.json``);
* the 1-worker service run must reproduce the serial decision log
  byte for byte, and every pool size must clear 1 job/sec per worker;
  4 worker processes must deliver ≥2.5x the jobs/sec of 1 (skipped on
  hosts with fewer than 4 CPUs);
* the ``exec_sim`` DFS contents, job and DFS counters, and decisions
  must equal the golden corpus, with zero copy-store re-serialization;
* sub-job enumeration must inject every expected candidate;
* restoring from a snapshot must yield byte-identical rewrite
  decisions, spend zero subsumption traversals, and recover every
  intact journal record past a torn tail (restore time is recorded,
  not gated);
* the delta probe over an appended input must be ≥3x faster than the
  full-rerun oracle with byte-identical outputs, and a shuffle probe
  must fall back (typed ``DeltaFallback``) yet recompute correctly.

``python -m repro bench`` accepts the same flags.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.harness import add_benchmark_arguments, run_from_args


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ReStore implementation benchmarks")
    add_benchmark_arguments(parser)
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=REPO_ROOT / "BENCH_repo_scale.json",
        help="where to write the JSON trajectory",
    )
    args = parser.parse_args(argv)
    return run_from_args(args, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
