"""Repository-scale matching benchmark (implementation perf, not a
paper figure): fingerprint-indexed candidate pruning, with traversal
counts and rewrite decisions held to the golden corpus.

Run explicitly (benchmarks are not collected by the tier-1 suite)::

    PYTHONPATH=src python -m pytest benchmarks/bench_repo_scale.py -q
"""

import json

from repro.bench.golden import load_golden
from repro.bench.repo_scale import check_gates, run_repo_scale_benchmark

from benchmarks.conftest import RESULTS_DIR


def test_repo_scale_indexed(benchmark):
    payload = benchmark.pedantic(
        lambda: run_repo_scale_benchmark(n_probes=20),
        rounds=1,
        iterations=1,
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "repo_scale.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    gates = check_gates(payload, load_golden())
    assert gates["failures"] == []
    assert not any(s.startswith("skipped") for s in gates["status"].values())
    assert payload["scales"][-1]["n_entries"] == 1000
