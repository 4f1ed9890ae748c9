#!/usr/bin/env python3
"""The repo benchmark: six workloads through the public API.

One run of one workload (the form the driver calls)::

    python3 bench_e2e/run.py --workload tenant_stream --seed 7 \\
        --seconds 15 --trace 0

prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

Every workload, three untraced repeats plus one traced repeat each, in
fresh child processes one at a time::

    python3 bench_e2e/run.py --seed 13 --out result.json

Two result files against the bounds in ``BENCHMARK.json``::

    python3 bench_e2e/run.py --compare parent.json change.json

See ``bench_e2e/README.md``.  This program claims no gain; it measures.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the checkout's own sources, never an installed copy
sys.path[:0] = [str(HERE), str(ROOT / "src")]

DEFAULT_SEED = 13
#: sums of simulator / repository decisions: on a serial workload two
#: runs of one commit on one seed give the same digits, and ``--compare``
#: treats any difference as a change of behaviour
EXACT_ON_SERIAL = ("sim_s_per_query", "stored_bytes_per_input_byte")
#: epochs a run holds at least, so that a median exists; a traced run
#: alternates untraced and traced epochs and needs two of each
MIN_EPOCHS = {0: 3, 1: 4}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _golden(name: str) -> str | None:
    path = HERE / "golden" / f"{name}.seed{DEFAULT_SEED}.sha256"
    return path.read_text().split()[0] if path.exists() else None


# -- one run of one workload --------------------------------------------------


def run_workload(name, seed, seconds, trace, *, quick=False,
                 verify_oracle=False, workdir=None, trace_out=None) -> dict:
    """Epochs of *name* until *seconds* have passed; returns every
    metric plus the per-epoch values they were taken from."""
    import metrics
    from tracer import Tracer
    from workloads import WORKLOADS, Verifier

    workload = WORKLOADS[name](seed, quick)
    golden = None
    if seed == DEFAULT_SEED and not quick and not verify_oracle:
        golden = _golden(name)
    verifier = Verifier(workload.plan(), golden)
    if golden is None:
        # before any epoch, so that the twin's memory is already
        # returned when the measured sessions reach their peak
        verifier.expected
    workdir = workdir or str(ROOT / ".bench_work" / f"{name}.{os.getpid()}")
    tracer = Tracer() if trace else None

    minimum = (2 if trace else 1) if quick else MIN_EPOCHS[trace]
    untraced, traced = [], []
    began = time.perf_counter()
    last = 0.0
    while (len(untraced) + len(traced) < minimum
           or time.perf_counter() - began + 0.5 * last < seconds):
        start = time.perf_counter()
        if trace and len(untraced) > len(traced):
            epoch = workload.epoch(verifier, workdir, tracer)
            traced.append(epoch)
        else:
            epoch = workload.epoch(verifier, workdir)
            untraced.append(epoch)
        last = time.perf_counter() - start
    if trace_out and tracer is not None:
        tracer.dump(trace_out)
    try:
        os.rmdir(ROOT / ".bench_work")
    except OSError:
        pass

    epochs = untraced + traced
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "sizes": workload.describe(),
        "serial": workload.serial,
        "verified_by": verifier.verified_by,
        "epochs": len(untraced),
        "epochs_traced": len(traced),
        "latency_samples": sum(len(e.latencies) for e in untraced),
        "attempted": sum(e.attempted for e in epochs),
        "failed": sum(e.failed for e in epochs),
        "end_to_end": metrics.end_to_end(untraced),
        "raw": metrics.timings(untraced, scaled=False),
        "per_epoch": {
            "calibration_s": [e.speed.loop_s() for e in untraced],
            "busy_s": [e.busy_s for e in untraced],
            "setup_s": [e.setup_s for e in untraced],
            "cpu_s": [e.cpu_s for e in untraced],
        },
    }
    if trace:
        detail["per_layer"] = metrics.per_layer(untraced, traced, tracer)
    return detail


def protocol_line(detail: dict, spec: dict, trace: int) -> str:
    """The driver's one-line result.  It must carry every declared
    metric as a number, so a metric that does not apply to the
    workload (or whose trace target is gone) reads 0 here; the result
    files of ``--out`` omit it instead."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = {**detail["end_to_end"], **detail.get("per_layer", {})}
    return json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {
            m["name"]: {"value": values.get(m["name"]) or 0, "unit": m["unit"]}
            for m in declared
        },
    })


# -- every workload, repeated -------------------------------------------------


def _host() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_at_start": os.getloadavg()[0],
        "commit": commit,
    }


def _child(name, args, trace, detail_path) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--detail-out", detail_path,
    ]
    if args.verify_oracle:
        command.append("--verify-oracle")
    if trace and args.trace_out:
        command += ["--trace-out", f"{args.trace_out}.{name}.jsonl"]
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    with open(detail_path) as handle:
        detail = json.load(handle)
    os.unlink(detail_path)
    return detail


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_all(args, spec: dict) -> dict:
    """Every workload: ``--repeats`` untraced runs and one traced run,
    each in a fresh child process, one at a time (the host has two
    cores and ``service_processes`` alone uses both).  ``--quick``
    runs in this process instead, one traced run per workload."""
    declared = spec["end_to_end"] + spec["per_layer"]
    units = {m["name"]: m["unit"] for m in declared}
    result = {
        "host": _host(), "seed": args.seed, "quick": args.quick,
        "repeats": args.repeats, "seconds": args.seconds, "workloads": {},
    }
    scratch = str(ROOT / f".bench_detail.{os.getpid()}.json")
    for entry in spec["workloads"]:
        name = entry["name"]
        if args.quick:
            traced = run_workload(name, args.seed, 0, 1, quick=True)
            runs = [traced]
        else:
            runs = [_child(name, args, 0, scratch) for _ in range(args.repeats)]
            traced = _child(name, args, 1, scratch)
        record = {
            "sizes": traced["sizes"],
            "serial": traced["serial"],
            "attempted": sum(r["attempted"] for r in runs + [traced]),
            "failed": sum(r["failed"] for r in runs + [traced]),
            "latency_samples": [r["latency_samples"] for r in runs],
            "epochs": [r["epochs"] for r in runs],
            "end_to_end": {},
            "raw": [r["raw"] for r in runs],
            "per_layer": {
                metric: {"unit": units[metric], "value": value}
                for metric, value in traced["per_layer"].items()
            },
        }
        for metric in runs[0]["end_to_end"]:
            values = [r["end_to_end"][metric] for r in runs]
            if values[0] is None:
                continue  # does not apply to this workload
            q1, q3 = _quartiles(values)
            record["end_to_end"][metric] = {
                "unit": units[metric], "median": statistics.median(values),
                "q1": q1, "q3": q3, "values": values,
            }
        result["workloads"][name] = record
    result["paper_ratios"] = paper_ratios(result["workloads"])
    return result


def paper_ratios(workloads: dict) -> dict:
    """The paper's two bars as ratios, each with its base.  Not
    claimable metrics: the three streams differ (``pigmix_reuse`` also
    submits the variants), so the basis is seconds per submission."""
    def per_query(name):
        e2e = workloads[name]["end_to_end"]
        return 1.0 / e2e["queries_per_s"]["median"], e2e["sim_s_per_query"]["median"]

    plain, first, reuse = (per_query(n) for n in
                           ("pigmix_plain", "pigmix_first_run", "pigmix_reuse"))
    return {
        "first_run_overhead_wall": {
            "value": first[0] / plain[0], "base": "pigmix_plain wall s/query"},
        "first_run_overhead_sim": {
            "value": first[1] / plain[1], "base": "pigmix_plain sim s/query"},
        "reuse_speedup_wall": {
            "value": plain[0] / reuse[0], "base": "pigmix_reuse wall s/query"},
        "reuse_speedup_sim": {
            "value": plain[1] / reuse[1], "base": "pigmix_reuse sim s/query"},
    }


def print_summary(result: dict) -> None:
    for name, record in result["workloads"].items():
        print(f"\n== {name}  sizes={record['sizes']}  "
              f"failed={record['failed']}/{record['attempted']}")
        for metric, cell in record["end_to_end"].items():
            print(f"  {metric:<36} {cell['median']:>14.6g} {cell['unit']:<8}"
                  f" q1={cell['q1']:.6g} q3={cell['q3']:.6g}")
        for metric, cell in record["per_layer"].items():
            value = cell["value"]
            shown = "null" if value is None else f"{value:.6g}"
            print(f"  {metric:<44} {shown:>14} {cell['unit']}")
    print("\n== paper ratios (derived, not claimable)")
    for name, cell in result["paper_ratios"].items():
        print(f"  {name:<28} {cell['value']:.4g}  (base: {cell['base']})")


# -- comparing two result files -----------------------------------------------


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Per (workload, end-to-end metric): ``same`` / ``better`` /
    ``worse`` / ``unresolved``.  Returns 1 if anything is worse."""
    with open(path_a) as a, open(path_b) as b:
        side_a, side_b = json.load(a), json.load(b)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    status = 0
    for name, rec_a in side_a["workloads"].items():
        rec_b = side_b["workloads"].get(name)
        if rec_b is None:
            print(f"{name}: missing from {path_b}")
            status = 1
            continue
        for metric, cell_a in rec_a["end_to_end"].items():
            cell_b = rec_b["end_to_end"].get(metric)
            if cell_b is None or metric == "failed_fraction":
                continue
            info = declared[metric]
            # the three conditional metrics carry no bound of their own
            bound = info.get("bound", 0.10)
            if rec_a["serial"] and metric in EXACT_ON_SERIAL:
                bound = 0.0
            sign = 1.0 if info["better"] == "lower" else -1.0
            a, b = cell_a["median"], cell_b["median"]
            worse_by = sign * (b - a) / a if a else 0.0
            spread = max(
                (c["q3"] - c["q1"]) / c["median"] if c["median"] else 0.0
                for c in (cell_a, cell_b)
            )
            worse = [sign * v for v in cell_b["values"]]
            base = [sign * v for v in cell_a["values"]]
            if spread > bound:
                if max(worse) < min(base):
                    verdict = "better"
                elif min(worse) > max(base) and worse_by > bound:
                    verdict = "worse"
                else:
                    verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
            elif worse_by < -bound or (bound == 0.0 and worse_by < 0.0):
                verdict = "better"
            else:
                verdict = "same"
            if verdict == "worse":
                status = 1
            print(f"{name:<20} {metric:<30} {verdict:<10} "
                  f"{a:.6g} -> {b:.6g} {info['unit']} "
                  f"({worse_by:+.2%} worse, spread {spread:.2%}, "
                  f"bound {bound:.0%})")
        if rec_b["failed"]:
            print(f"{name}: {rec_b['failed']} failed submissions in {path_b}")
            status = 1
    return status


def write_golden(spec: dict) -> None:
    """Digests of the default seed and sizes, from the restore-disabled
    twin — never from the system under test."""
    from workloads import WORKLOADS, Verifier, combined

    (HERE / "golden").mkdir(exist_ok=True)
    for entry in spec["workloads"]:
        name = entry["name"]
        plan = WORKLOADS[name](DEFAULT_SEED).plan()
        value = combined(Verifier(plan).expected)
        path = HERE / "golden" / f"{name}.seed{DEFAULT_SEED}.sha256"
        path.write_text(f"{value}  {len(plan.queries)} outputs\n")
        print(path.name, value)


def stop_children() -> None:
    """Leave no process behind: whatever this program started has
    ended, and has been waited for, when it returns.

    ``service_processes`` spawns its workers through
    ``multiprocessing``'s spawn context, which also starts a *resource
    tracker* process.  ``JobService.shutdown`` joins the workers, but
    the tracker only ends once this process has gone — after the
    caller already sees the run as finished, and as a zombie where
    nothing reaps orphans.  So it is stopped and reaped here."""
    for child in multiprocessing.active_children():  # also reaps the dead
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    from multiprocessing import resource_tracker

    # closes our end of the tracker's pipe (its signal to finish) and
    # waits for it; a no-op when no tracker was started
    resource_tracker._resource_tracker._stop()


def _terminated(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through main()'s finally


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminated)
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--verify-oracle", action="store_true",
                        help="check against the restore-off twin even where "
                             "a golden digest exists")
    parser.add_argument("--workdir", help="directory for durable_stream's "
                        "files (default: .bench_work/ in the checkout)")
    parser.add_argument("--trace-out", help="write spans as JSONL here")
    parser.add_argument("--detail-out", help=argparse.SUPPRESS)
    parser.add_argument("--out", help="all workloads: result JSON path")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = 0 if args.quick else spec["run_seconds"]

    if args.compare:
        return compare(*args.compare, spec)
    if args.write_golden:
        write_golden(spec)
        return 0
    if args.workload:
        detail = run_workload(
            args.workload, args.seed, args.seconds, args.trace,
            quick=args.quick, verify_oracle=args.verify_oracle,
            workdir=args.workdir, trace_out=args.trace_out,
        )
        if args.detail_out:
            with open(args.detail_out, "w") as handle:
                json.dump(detail, handle)
        print(protocol_line(detail, spec, args.trace))
        return 0
    result = run_all(args, spec)
    print_summary(result)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=1)
    failed = sum(r["failed"] for r in result["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
