"""The fixed streams behind ``tests/golden/corpus.json``, and its recorder.

Every stream runs through one :class:`ReStoreSession`; what it leaves
behind — DFS file digests, ``JobStats`` counters, DFS byte counters,
the typed decision log — is one golden record (see
:func:`repro.bench.golden.observables`).  ``golden/README.md`` says
which commit and configuration the committed records came from.

Re-record (from the sole remaining plane)::

    PYTHONPATH=src python tests/golden_corpus.py
"""

import json

from repro.bench.exec_sim import (
    DEFAULT_EXEC_SCALES,
    QUICK_EXEC_SCALES,
    build_queries,
    generate_event_rows,
    run_exec_stream,
)
from repro.bench.golden import GOLDEN_PATH, job_counters, load_golden, observables
from repro.bench.repo_scale import (
    DEFAULT_SCALES,
    FULL_PROBES,
    QUICK_PROBES,
    QUICK_SCALES,
    generate_entry_specs,
    generate_probe_specs,
    run_match_stream,
)
from repro.core.manager import ReStoreConfig
from repro.execution.interpreter import JobInterpreter
from repro.pigmix.datagen import PigMixConfig, PigMixDataGenerator
from repro.pigmix.queries import build_query
from repro.session import ReStoreSession

#: the seed every bench golden was recorded at (the harness default)
SEED = 13
#: chunk lengths the plane must be invariant under: the row-major
#: route, a length that cuts every stream mid-chunk, and production's
CHUNK_LENGTHS = (1, 7, JobInterpreter.CHUNK_ROWS)

EVENTS = "u1\t5\t1.5\nu2\t2\t0.5\nu1\t9\t2.25\n\t4\t1.0\nu3\t7\t0.75\nu2\t8\t0.25\n"
NAMES = "u1\talice\nu9\tzed\n"
EV = "A = load 'data/ev' as (u:chararray, a:int, r:double);\n"
GROUPED = EV + "B = filter A by a > 3;\nC = group B by u;\n"


def static_stream(payloads, scripts):
    def prepare(session):
        for path, text in payloads.items():
            session.write_file(path, text)
        return scripts

    return 3, prepare


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


#: name -> (datanodes, prepare(session) -> scripts)
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
    "pigmix_l2_l3_l5_l3": (4, _pigmix),
}


def run_stream(datanodes, prepare, **config_kwargs):
    """Run one stream in a fresh session: (golden record, outputs)."""
    config = ReStoreConfig(**config_kwargs)
    with ReStoreSession(datanodes=datanodes, config=config) as session:
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
        record, out = run_stream(*STREAMS[name])
        assert record == golden, f"{name} diverged at chunk length {chunk_rows}"
        outputs.append(out)
    assert outputs[1:] == outputs[:-1]


def exec_sim_record(n_rows):
    return run_exec_stream(generate_event_rows(n_rows, SEED), build_queries()).record


def repo_scale_record(n_entries, n_probes):
    entry_specs = generate_entry_specs(n_entries, SEED)
    probe_specs = generate_probe_specs(entry_specs, n_probes, SEED)
    return run_match_stream(entry_specs, probe_specs, seed=SEED).record


def record_corpus():
    return {
        "seed": SEED,
        "streams": {name: run_stream(*STREAMS[name])[0] for name in STREAMS},
        "exec_sim": {
            str(n): exec_sim_record(n)
            for n in sorted({*QUICK_EXEC_SCALES, *DEFAULT_EXEC_SCALES})
        },
        "repo_scale": {
            f"{n}x{probes}": repo_scale_record(n, probes)
            for scales, probes in (
                (QUICK_SCALES, QUICK_PROBES),
                (DEFAULT_SCALES, FULL_PROBES),
            )
            for n in scales
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
