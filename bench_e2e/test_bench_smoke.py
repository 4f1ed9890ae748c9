"""Smoke test of the benchmark itself (collected by tier-1).

Two ``--quick`` runs of every workload, side by side in separate
processes: the names they emit are the ones ``BENCHMARK.json``
declares, nothing fails verification, and every count that does not
depend on the clock is identical between the two processes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]

#: end-to-end metrics that only apply where their layer exists
OPTIONAL = {"stored_bytes_per_input_byte", "recover_s", "failed_fraction"}
#: the one workload whose interleaving (two client threads) is not fixed
CONCURRENT = "service_processes"


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _is_count(name: str, unit: str) -> bool:
    return unit in ("count", "bytes", "sim_s") or name in (
        "sim_s_per_query", "stored_bytes_per_input_byte",
        "core.pruned_ratio", "core.reuse_ratio", "core.match_hit_ratio",
    )


def test_quick_runs_emit_declared_names_and_repeat_counts(tmp_path):
    spec = _spec()
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    procs = [
        subprocess.Popen(
            RUN + ["--quick", "--out", str(out)], cwd=ROOT,
            stdout=subprocess.DEVNULL,
        )
        for out in outs
    ]
    for proc in procs:
        assert proc.wait(timeout=300) == 0
    first, second = (json.loads(out.read_text()) for out in outs)

    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]} - OPTIONAL
    assert list(first["workloads"]) == [w["name"] for w in spec["workloads"]]
    for name, record in first["workloads"].items():
        assert record["failed"] == 0 and record["attempted"] > 0
        emitted = set(record["end_to_end"])
        assert end_to_end <= emitted <= end_to_end | OPTIONAL, name
        assert set(record["per_layer"]) == per_layer, name
        assert record["end_to_end"]["failed_fraction"]["median"] == 0.0
        if name == CONCURRENT:
            continue
        other = second["workloads"][name]
        for metric, cell in record["end_to_end"].items():
            if _is_count(metric, cell["unit"]):
                assert cell["values"] == other["end_to_end"][metric]["values"]
        for metric, cell in record["per_layer"].items():
            if _is_count(metric, cell["unit"]):
                assert cell == other["per_layer"][metric], (name, metric)


def test_driver_protocol_line_carries_every_declared_metric():
    spec = _spec()
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        done = subprocess.run(
            RUN + ["--workload", "tenant_stream", "--quick", "--seed", "5",
                   "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert list(line["metrics"]) == [m["name"] for m in declared]
        for metric in declared:
            cell = line["metrics"][metric["name"]]
            assert cell["unit"] == metric["unit"]
            assert isinstance(cell["value"], (int, float))
