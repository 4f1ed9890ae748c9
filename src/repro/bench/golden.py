"""The committed golden corpus: frozen answers the one data plane and
the one match path are held to.

``tests/golden/corpus.json`` records, per fixed stream, the sha256 of
every DFS file, the ``JobStats`` counter tuples, the three DFS byte
counters and the typed decision log (see ``tests/golden/README.md``
for where the answers came from and how to re-record them).  The
tier-1 tests compare whole records; the ``exec_sim`` and
``repo_scale`` bench sections carry one digest per observable and gate
on equality with the corpus.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Dict, Iterable, Optional

#: resolved against the checkout; an installed package has no corpus
#: and its golden gates report ``skipped``
GOLDEN_PATH = pathlib.Path(__file__).resolve().parents[3] / "tests/golden/corpus.json"


def load_golden(path: pathlib.Path = GOLDEN_PATH) -> Optional[dict]:
    if not path.is_file():
        return None
    return json.loads(path.read_text())


def golden_record(golden: Optional[dict], section: str, key, seed) -> Optional[dict]:
    """The corpus record for *key*, or None when there is no corpus or
    it holds none for this key and seed."""
    if not golden or golden.get("seed") != seed:
        return None
    return golden.get(section, {}).get(str(key))


def jsonable(value):
    """*value* through JSON once, so a fresh record compares equal to
    a loaded one (tuples become lists)."""
    return json.loads(json.dumps(value))


def job_counters(stats) -> list:
    """Every counter of one workflow run's executed jobs, in job-id
    order, then the ids of the jobs the repository eliminated."""
    out = []
    for job_id in sorted(stats.job_stats):
        job = stats.job_stats[job_id]
        out.append(
            (
                job_id,
                job.input_records,
                job.map_output_records,
                job.shuffle_records,
                job.shuffle_bytes,
                job.reduce_groups,
                job.op_records,
                tuple(sorted(job.load_bytes.items())),
                tuple(
                    (s.path, s.bytes, s.records, s.phase, s.side) for s in job.stores
                ),
                job.sim_seconds,
            )
        )
    out.append(tuple(sorted(stats.eliminated_jobs)))
    return out


def observables(dfs, counters: Iterable, decisions: Iterable[str]) -> dict:
    """One stream's golden record, taken from the session's *dfs* once
    the stream has run: digests and counters, no row data."""
    # the byte counters first: hashing reads every file, and those
    # reads (which also render still-lazy payloads) are not the stream's
    dfs_counters = [dfs.bytes_read, dfs.bytes_written, dfs.replica_bytes_written]
    return jsonable(
        {
            "dfs": {
                path: hashlib.sha256(dfs.read_file(path)).hexdigest()
                for path in sorted(dfs.list_paths())
            },
            "counters": list(counters),
            "dfs_counters": dfs_counters,
            "decisions": list(decisions),
        }
    )


def digests(record: dict) -> Dict[str, str]:
    """One sha256 per part of a golden record (what bench payloads carry)."""
    return {
        part: hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()
        for part, value in record.items()
    }
