"""The fixed streams behind ``tests/golden/corpus.json``, and its recorder.

Every stream runs through one :class:`ReStoreSession`; what it leaves
behind — DFS file digests, ``JobStats`` counters, DFS byte counters,
the typed decision log — is one golden record (see
:func:`observables`).  The ``repo_scale`` records are what
``repo_stream.run_match_stream`` decides.  ``golden/README.md`` says
which commit and configuration the committed records came from.

Re-record (from the sole remaining plane)::

    PYTHONPATH=src python tests/golden_corpus.py
"""

import hashlib
import json
import pathlib
import random

from repo_stream import GOLDEN_SCALES, run_match_stream

from repro.events import RewriteApplied
from repro.execution.interpreter import JobInterpreter
from repro.pigmix.datagen import PigMixConfig, PigMixDataGenerator
from repro.pigmix.queries import build_query
from repro.relational.schema import Schema
from repro.relational.types import DataType
from repro.session import ReStoreSession

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent / "golden/corpus.json"

#: the seed every golden record was taken at
SEED = 13
#: chunk lengths the plane must be invariant under: the row-major
#: route, a length that cuts every stream mid-chunk, and production's
CHUNK_LENGTHS = (1, 7, JobInterpreter.CHUNK_ROWS)

EVENTS = "u1\t5\t1.5\nu2\t2\t0.5\nu1\t9\t2.25\n\t4\t1.0\nu3\t7\t0.75\nu2\t8\t0.25\n"
NAMES = "u1\talice\nu9\tzed\n"
EV = "A = load 'data/ev' as (u:chararray, a:int, r:double);\n"
GROUPED = EV + "B = filter A by a > 3;\nC = group B by u;\n"


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


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


def observables(dfs, counters, decisions) -> dict:
    """One stream's golden record, taken from the session's *dfs* once
    the stream has run: digests and counters, no row data."""
    # the byte counters first: hashing reads every file, and those
    # reads (which also render still-lazy payloads) are not the stream's
    dfs_counters = [dfs.bytes_read, dfs.bytes_written]
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


def static_stream(payloads, scripts):
    def prepare(session):
        for path, text in payloads.items():
            session.write_file(path, text)
        return scripts

    return prepare


def _pigmix(session):
    """L2/L3 share the join prefix, L5 is an anti-join, L3 again for
    whole-job reuse."""
    dataset = PigMixDataGenerator(
        PigMixConfig(n_page_views=150, n_users=30, n_widerow=40)
    ).generate(session.dfs)
    return [
        build_query(query, dataset, out=f"out/{query}_{i}")
        for i, query in enumerate(["L2", "L3", "L5", "L3"])
    ]


#: name -> prepare(session) -> scripts
STREAMS = {
    "filter_group_aggregate_chain_with_reuse": static_stream(
        {"data/ev": EVENTS},
        [
            GROUPED + "D = foreach C generate group, COUNT(B), SUM(B.r);\n"
            "store D into 'out/agg';",
            GROUPED + "D = foreach C generate group, MAX(B.r);\nstore D into 'out/d0';",
            # identical computation, new path: whole-job copy rewrite
            GROUPED + "D = foreach C generate group, MAX(B.r);\nstore D into 'out/d1';",
        ],
    ),
    "left_outer_join_isolating_null_keys": static_stream(
        {"data/ev": EVENTS, "data/names": NAMES},
        [
            EV + "B = load 'data/names' as (u:chararray, n:chararray);\n"
            "C = join A by u left outer, B by u;\n"
            "store C into 'out/join';"
        ],
    ),
    # two isolating rearranges fed from one load: null keys are
    # numbered across both, in row-major order
    "full_outer_self_join": static_stream(
        {"data/ev": EVENTS},
        [
            EV + "B = load 'data/ev' as (u:chararray, a:int, r:double);\n"
            "C = join A by u full outer, B by u;\n"
            "store C into 'out/full';"
        ],
    ),
    "order_by_with_limit": static_stream(
        {"data/ev": EVENTS},
        [EV + "B = order A by r;\nC = limit B 3;\nstore C into 'out/top';"],
    ),
    "union_distinct_and_split_stores": static_stream(
        {"data/ev": EVENTS, "data/ev2": "u4\t1\t0.5\nu1\t5\t1.5\n"},
        [
            EV + "B = load 'data/ev2' as (u:chararray, a:int, r:double);\n"
            "C = union A, B;\n"
            "D = distinct C;\n"
            "store D into 'out/u';",
            EV + "B = filter A by a > 3;\n"
            "store B into 'out/s1';\n"
            "store B into 'out/s2';",
        ],
    ),
    "replicated_join": static_stream(
        {"data/ev": EVENTS, "data/names": NAMES},
        [
            EV + "B = load 'data/names' as (u:chararray, n:chararray);\n"
            "C = join A by u, B by u using 'replicated';\n"
            "store C into 'out/fr';"
        ],
    ),
    "empty_input_relation": static_stream(
        {"data/empty": ""},
        [
            "A = load 'data/empty' as (u:chararray, a:int, r:double);\n"
            "B = filter A by a > 3;\n"
            "C = group B by u;\n"
            "D = foreach C generate group, COUNT(B);\n"
            "store D into 'out/empty';"
        ],
    ),
    "pigmix_l2_l3_l5_l3": _pigmix,
}


def run_stream(prepare, restore_enabled=True):
    """Run one stream in a fresh session: (golden record, outputs)."""
    with ReStoreSession(restore_enabled=restore_enabled) as session:
        counters, decisions, outputs = [], [], []
        for i, source in enumerate(prepare(session)):
            result = session.run(source, name=f"q{i}")
            outputs.append(result.outputs)
            decisions.extend(repr(e) for e in result.events)
            counters.extend(job_counters(result.stats))
        return observables(session.dfs, counters, decisions), outputs


def assert_stream_matches_golden(name, monkeypatch):
    """The named stream reproduces its golden record, and returns the
    same outputs, at every chunk length."""
    golden = load_golden()["streams"][name]
    outputs = []
    for chunk_rows in CHUNK_LENGTHS:
        monkeypatch.setattr(JobInterpreter, "CHUNK_ROWS", chunk_rows)
        record, out = run_stream(STREAMS[name])
        assert record == golden, f"{name} diverged at chunk length {chunk_rows}"
        outputs.append(out)
    assert outputs[1:] == outputs[:-1]


# -- the exec_sim stream ------------------------------------------------------
#
# A shared events table is ingested once through the typed API (as an
# upstream job would have produced it), then each of two filter
# thresholds gets one aggregation producer and a fan-out of drill-down
# consumers sharing the ``load → filter → group`` prefix: sub-job reuse
# rewrites the consumers to read the stored group output, and identical
# drill queries degrade to whole-job copy rewrites (the payload-clone
# path).

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
#: events-table sizes the corpus holds a record for; tier-1 replays
#: the first and the last at every chunk length
EXEC_SCALES = (2000, 6000, 20000)


def generate_event_rows(n_rows: int, seed: int) -> list:
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


def build_queries() -> list:
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


def run_exec_stream(rows, queries):
    """Run the query stream through one fresh session: (golden record,
    whole-job copy rewrites, stores that cloned their producer's
    serialized payload)."""
    counters, decisions, copy_rewrites = [], [], 0
    with ReStoreSession() as session:
        # typed ingestion: the table enters through the same API an
        # upstream job's store would have used, so the dataset cache
        # starts warm
        session.dfs.write_rows(EVENTS_PATH, rows, EVENTS_SCHEMA)
        # the golden records' DFS read counter includes this read
        session.dfs.read_file(EVENTS_PATH)
        for name, source in queries:
            run = session.run(source, name=name)
            counters.extend(job_counters(run.stats))
            decisions.extend(repr(event) for event in run.events)
            copy_rewrites += sum(
                isinstance(event, RewriteApplied) and event.whole_job
                for event in run.events
            )
        record = observables(session.dfs, counters, decisions)
        return record, copy_rewrites, session.dfs.payload_clones


def exec_sim_record(n_rows):
    return run_exec_stream(generate_event_rows(n_rows, SEED), build_queries())[0]


def match_record(result):
    """The golden record of one ``repo_stream.MatchResult``."""
    return jsonable(
        {
            "decisions": result.decisions,
            "rewrites": result.rewrites,
            "eliminations": result.eliminations,
            "traversals": result.traversals,
            "candidates_examined": result.candidates_examined,
        }
    )


def repo_scale_record(n_entries, n_probes):
    return match_record(run_match_stream(n_entries, n_probes, SEED))


def record_corpus():
    return {
        "seed": SEED,
        "streams": {name: run_stream(STREAMS[name])[0] for name in STREAMS},
        "exec_sim": {str(n): exec_sim_record(n) for n in EXEC_SCALES},
        "repo_scale": {
            f"{n}x{probes}": repo_scale_record(n, probes)
            for n, probes in GOLDEN_SCALES
        },
    }


def encode(value):
    """JSON with one dict key or list element per line and compact
    elements: line-oriented diffs at well under ``indent=1``'s size."""
    if isinstance(value, dict) and value:
        body = (f"{json.dumps(k)}: {encode(value[k])}" for k in sorted(value))
        return "{\n" + ",\n".join(body) + "\n}"
    if isinstance(value, list) and value:
        return "[\n" + ",\n".join(json.dumps(v) for v in value) + "\n]"
    return json.dumps(value)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(encode(record_corpus()) + "\n")
    print(f"wrote {GOLDEN_PATH}")
