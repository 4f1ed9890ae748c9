"""A repeated script costs a lookup, not a compile.

Four cuts share one rule — the work a submission costs is proportional
to what is new in it — and each gets a check here that cannot pass
vacuously:

* the parse memo (``repro.pig.parser.parse``): statements are shared,
  scripts are not; only new text reaches the parser; errors are those of
  a whole-script parse and are never cached; the memo is bounded;
* the compile memo (``repro.pig.engine._template``): a re-stamped copy
  equals a direct compile, a repeated script reaches neither
  ``build_logical_plan``, the optimizer, the MR compiler nor a
  fingerprint digest, and the template is never written to;
* the hit path as a call budget (the method of ``test_row_frames.py``):
  over a miniature first run and two reuse passes, a job whose plan
  equals a stored entry's costs no candidate list and no matcher call;
* the exact probe decides what a full scan decides: the same stream
  through a manager with the probe and one without it, on fresh, stale,
  appended, evicted, re-added and corrupt entries.
"""

import itertools
import sys
import threading
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import golden_corpus
import pytest
from repo_stream import (
    FULL_GRID_ENTRIES,
    build_repository,
    generate_entry_specs,
    generate_probe_specs,
    lane_dir,
    prepare_service_dfs,
    probe_config,
    probe_job,
    seed_state,
)

from repro import ReStoreSession
from repro.core.enumerator import SubJobEnumerator
from repro.core.eviction import build_eviction_policy, condemn, evict, run_evictions
from repro.core.heuristics import HEURISTICS
from repro.core.manager import ReStoreManager
from repro.core.matcher import PlanMatcher
from repro.core.repository import Repository
from repro.dfs.filesystem import DistributedFileSystem
from repro.events import JobEliminated, MatchScanned, RewriteApplied
from repro.exceptions import CompilationError, PigParseError, SchemaError
from repro.faults import injector as faults
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultRule
from repro.mapreduce.job import JobConf, Workflow
from repro.persistence.durability import recover
from repro.pig import engine
from repro.pig import parser as pig_parser
from repro.pig.ast import StoreStmt
from repro.pig.engine import PigServer
from repro.pig.logical.builder import build_logical_plan
from repro.pig.logical.optimizer import LogicalOptimizer
from repro.pig.mrcompiler import MRCompiler
from repro.pig.parser import Parser, parse
from repro.pig.physical import plan as physical_plan
from repro.pig.physical.operators import PhysicalOperator
from repro.reporting import manager_report
from repro.service import JobService

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench_e2e"))
import inputs  # noqa: E402
from workloads import QUICK  # noqa: E402

SEED = 13

SCRIPT = """
A = load 'in/pv' as (user, action:int, revenue:double);
B = filter A by action > 2;
C = foreach B generate user, revenue;
D = group C by user;
E = foreach D generate group, SUM(C.revenue);
store E into '{out}';
"""


def cold_parse(source):
    """What a fresh interpreter does: the whole-script parse, no memo."""
    return Parser(source).parse_script()


def error_of(fn, source):
    with pytest.raises(PigParseError) as caught:
        fn(source)
    return str(caught.value), caught.value.line, caught.value.column


def count_calls(monkeypatch, owner, name, counter, key=None):
    """Count calls of ``owner.name`` in *counter* (under *key*)."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counter[key or name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def clear_memos():
    pig_parser._parse_statement.cache_clear()
    engine._template.cache_clear()


@pytest.fixture
def fresh_memo():
    clear_memos()
    yield pig_parser._parse_statement
    clear_memos()


# -- (i) the parse memo -------------------------------------------------------


class TestParseMemo:
    def test_scripts_are_new_statements_are_shared(self, fresh_memo):
        source = SCRIPT.format(out="out/a")
        first, second = parse(source), parse(source)
        assert first is not second
        assert first.statements is not second.statements
        assert len(first.statements) == 6
        for ours, theirs in zip(first.statements, second.statements):
            assert ours is theirs
        other = parse(SCRIPT.format(out="out/b"))
        shared = [
            a is b
            for a, b in zip(first.statements, other.statements)
            if not isinstance(a, StoreStmt)
        ]
        assert shared == [True] * 5
        assert other.statements[-1].path == "out/b"
        assert first.statements[-1].path == "out/a"

    def test_a_new_store_path_parses_exactly_one_statement(
        self, fresh_memo, monkeypatch
    ):
        calls = Counter()
        count_calls(monkeypatch, Parser, "parse_statement", calls)
        parse(SCRIPT.format(out="out/a"))
        assert calls["parse_statement"] == 6  # every one of them, once
        parse(SCRIPT.format(out="out/b"))
        assert calls["parse_statement"] == 7
        parse(SCRIPT.format(out="out/b"))
        assert calls["parse_statement"] == 7

    def test_a_memo_hit_equals_a_cold_parse(self, fresh_memo):
        sizes = QUICK["pigmix"]
        steps = inputs.pigmix_stream(sizes, passes=2)
        steps += inputs.tenant_plan(0, QUICK["tenant_stream"]).queries
        assert len(steps) > 60
        for step in steps:
            assert parse(step.source).statements == cold_parse(step.source).statements
        assert fresh_memo.cache_info().hits > len(steps)

    def test_errors_are_a_whole_script_parse_s_and_are_not_cached(self, fresh_memo):
        good = "A = load 'x' as (a, b);\nB = filter A by a > 1;\n"
        parse(good + "store B into 'o';")  # memoises the first two
        bad = good + "C = foreach B generate;\nstore C into 'o';"
        expected = error_of(cold_parse, bad)
        message = "unexpected token ';' in expression (line 3, col 23)"
        assert expected == (message, 3, 23)
        size = fresh_memo.cache_info().currsize
        for _ in range(2):
            assert error_of(parse, bad) == expected
        assert fresh_memo.cache_info().currsize == size

    @pytest.mark.parametrize(
        "source",
        [
            "A = load 'x' as (a)",  # no terminating ;
            "A = load 'x' as (a);\nstore A into 'o'",
            "A = load 'x' as (a);\nstore A into 'never closed;",
            "A = load 'x' as (a); /* never closed; store A into 'o';",
            "A = load 'x' as (a);\n@;",  # a later statement does not lex
            "A = load 'x' as (a) B = filter A by a > 1;",
            "A = load 'x' as (a);;",
            "A = load 'x' as (a); store A into 'o'; trailing",
        ],
    )
    def test_what_does_not_cut_cleanly_is_reported_by_the_one_parse(
        self, fresh_memo, source
    ):
        assert error_of(parse, source) == error_of(cold_parse, source)

    def test_a_semicolon_in_a_literal_or_a_comment_does_not_split(self, fresh_memo):
        source = (
            "A = load 'a;b' as (x); -- c;d\n"
            "/* e;f */ store A into 'o;p'; -- trailing; comment\n"
        )
        script = parse(source)
        assert script.statements == cold_parse(source).statements
        assert [type(s).__name__ for s in script.statements] == [
            "LoadStmt",
            "StoreStmt",
        ]
        assert script.statements[0].path == "a;b"
        assert script.statements[1].path == "o;p"

    def test_the_memo_is_bounded(self, fresh_memo):
        bound = pig_parser._MEMO_STATEMENTS
        for n in range(10 * bound):
            parse(f"store A into 'out/{n}';")
        info = fresh_memo.cache_info()
        assert info.maxsize == bound
        assert info.currsize == bound

    def test_two_threads_parsing_the_same_scripts_get_equal_asts(self, fresh_memo):
        scripts = [SCRIPT.format(out=f"out/{n % 50}") for n in range(200)]
        expected = [cold_parse(source).statements for source in scripts]
        results, errors = {}, []

        def work(name):
            try:
                results[name] = [parse(source).statements for source in scripts]
            except Exception as error:  # surfaced below, not swallowed
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(n,)) for n in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert not errors
        assert results[0] == expected
        assert results[1] == expected


# -- (ii) the hit path as a call budget ---------------------------------------


class TestHitPathBudget:
    def test_equal_plans_cost_a_probe_and_new_text_alone_is_parsed(
        self, fresh_memo, monkeypatch
    ):
        sizes = QUICK["pigmix"]
        plan = inputs.pigmix_plan(0, sizes, passes=2)
        per_pass = len(plan.queries) // 2
        calls = Counter()
        lexed = []
        count_calls(monkeypatch, PlanMatcher, "match", calls)
        count_calls(monkeypatch, Repository, "match_candidates", calls)
        count_calls(monkeypatch, PhysicalOperator, "copy", calls)
        tokenize = pig_parser.tokenize
        monkeypatch.setattr(
            pig_parser, "tokenize", lambda text: lexed.append(text) or tokenize(text)
        )
        # per job: match calls, match_candidates calls, whether it ended
        # in a whole-job hit, the exact hits of its MatchScanned
        jobs, scans = [], []
        before_job, after_job = ReStoreManager.before_job, ReStoreManager.after_job

        def before(manager, job, workflow):
            seen, scanned = Counter(calls), len(scans)
            proceed = before_job(manager, job, workflow)
            whole = job.eliminated_by is not None or len(job.plan) == 2
            spent = calls - seen
            exact = sum(scan.exact_hits for scan in scans[scanned:])
            jobs.append((spent["match"], spent["match_candidates"], whole, exact))
            return proceed

        copies_after_hits = []

        def after(manager, job, stats, workflow):
            seen = calls["copy"]
            after_job(manager, job, stats, workflow)
            if len(job.plan) == 2:  # what a whole-job hit leaves to run
                copies_after_hits.append(calls["copy"] - seen)

        monkeypatch.setattr(ReStoreManager, "before_job", before)
        monkeypatch.setattr(ReStoreManager, "after_job", after)

        with ReStoreSession() as session:
            session.events.subscribe(scans.append, event_types=MatchScanned)
            for path, payload in plan.files.items():
                session.write_file(path, payload)
            for step in inputs.pigmix_stream(sizes):
                session.run(step.source)
            first_run_exact = session.match_stats.exact_hits
            del scans[:]
            whole_job_hits = 0
            for n, step in enumerate(plan.queries):
                if n == per_pass:  # pass 2: everything was seen before
                    jobs.clear()
                    lexed.clear()
                result = session.run(step.source)
                decisions = [
                    e
                    for e in result.events
                    if isinstance(e, (RewriteApplied, JobEliminated))
                ]
                assert decisions, step.key
                whole_job_hits += sum(
                    isinstance(e, JobEliminated) or e.whole_job for e in decisions
                )
            totals = session.match_stats

        # no statement but the stores reached the lexer in pass 2
        assert len(lexed) == per_pass
        assert all(text.startswith("store ") for text in lexed)
        # a job equal to a stored entry as submitted: the probe alone
        as_submitted = [job for job in jobs if job == (0, 0, True, 1)]
        # one registered in rewritten form: one scan pass, one partial
        # rewrite, then the probe at the top of the rescan
        after_one_rewrite = [job for job in jobs if job == (1, 1, True, 1)]
        # L11d is L11 with its union's inputs swapped, and writes its rows
        # in another order: the fingerprint keeps a UNION's input order,
        # so L11's entry does not contain it and no scan finds it.  Its
        # own entry, stored when it first ran, answers it by the probe
        found_by_scan = [job for job in jobs if job == (1, 1, True, 0)]
        assert len(as_submitted) >= 10
        assert len(after_one_rewrite) >= 5
        assert len(found_by_scan) == 0
        assert len(as_submitted) + len(after_one_rewrite) == len(jobs)
        # the ledger, over both passes: every whole-job hit was an exact
        # one, booked as a pass with one candidate and no membership check
        exact_hits = totals.exact_hits - first_run_exact
        assert exact_hits == whole_job_hits > 0
        assert sum(scan.exact_hits for scan in scans) == exact_hits
        probe_alone = [s for s in scans if s.exact_hits and not s.traversals]
        assert len(probe_alone) >= len(as_submitted)  # pass 2's, and most of pass 1's
        for scan in probe_alone:
            assert (scan.passes, scan.candidates, scan.matches) == (1, 1, 1)
            assert scan.pruned == scan.entries_total - 1 > 0
        # after_job copies no operator of the copy job a hit leaves: a
        # whole-job cut shares the job's operators
        assert len(copies_after_hits) >= per_pass
        assert set(copies_after_hits) == {0}


# -- (ii b) the compile memo --------------------------------------------------

#: three jobs: the group stored, the group again into a temp file (an
#: alias read twice is recompiled per reader), a join reading the temp
TEMP_READER = SCRIPT + "F = join A by user, E by group;\nstore F into '{out}_j';\n"

#: each store feeds the other's load
CYCLE = (
    "A = load 'x' as (a:int);\nstore A into 'y';\n"
    "B = load 'y' as (a:int);\nstore B into 'x';\n"
)

#: a job the repository keeps whole
FILTER_X = "A = load 'x' as (a:int);\nB = filter A by a > 1;\nstore B into 'z';\n"


def direct_compile(source, script_id):
    """What ``PigServer.compile`` did before it had a memo."""
    plan = LogicalOptimizer().optimize(build_logical_plan(cold_parse(source)))
    compiler = MRCompiler(temp_prefix=f"tmp/s{script_id}", job_prefix=f"s{script_id}")
    return compiler.compile(plan, name=f"script_{script_id}")


def compiled_form(workflow):
    """All a compile decides but op ids: the wire form, each plan's run
    order and its fingerprints."""
    return [workflow.name] + [
        (
            job.to_dict(),
            [op.to_dict() for op in job.plan.topo_order()],
            job.plan.fingerprint(),
            job.plan.frontier_fingerprint(),
            sorted(job.plan.operator_fingerprints()),
            [job.plan.op_fingerprint(op) for op in job.plan.operators],
        )
        for job in workflow.jobs
    ]


def corpus_scripts():
    """The golden corpus's scripts, the PigMix base and variant queries
    and the tenant templates."""
    scripts = []
    for prepare in golden_corpus.STREAMS.values():
        with ReStoreSession(restore_enabled=False) as session:
            scripts += prepare(session)
    steps = inputs.pigmix_stream(QUICK["pigmix"], passes=1)
    steps += inputs.tenant_plan(0, QUICK["tenant_stream"]).queries
    return scripts + [step.source for step in steps]


def job_numbers(workflow):
    return [int(job.job_id.rsplit("_", 1)[1]) for job in workflow.jobs]


class TestCompileMemo:
    def test_a_restamped_copy_is_a_direct_compile(self, fresh_memo):
        server = PigServer(DistributedFileSystem())
        scripts = corpus_scripts()
        assert len(scripts) > 60
        absorbed = temp_loads = 0
        for n, source in enumerate(scripts):
            expected = compiled_form(direct_compile(source, n))
            for _ in range(2):  # the miss that builds the template, a hit
                workflow = server.compile(source, script_id=n)
                assert compiled_form(workflow) == expected, source
            absorbed += job_numbers(workflow) != list(range(1, len(workflow) + 1))
            temp_loads += any(
                load.path.startswith(f"tmp/s{n}/")
                for job in workflow.jobs
                for load in job.plan.loads()
            )
        assert engine._template.cache_info().hits >= len(scripts)
        # the cases a re-stamp can get wrong: job numbers after absorption
        # and temp paths between jobs
        assert absorbed > 0
        assert temp_loads > 0

    def test_a_repeated_script_reaches_no_compile_stage(self, fresh_memo, monkeypatch):
        oracle = direct_compile(TEMP_READER.format(out="out/b"), 2)
        expected = [job.plan.fingerprint() for job in oracle.jobs]
        calls = Counter()
        count_calls(monkeypatch, engine, "build_logical_plan", calls)
        count_calls(monkeypatch, LogicalOptimizer, "optimize", calls)
        count_calls(monkeypatch, MRCompiler, "compile", calls)
        blake2b = physical_plan.hashlib.blake2b

        def counted_blake2b(*args, **kwargs):
            calls["blake2b"] += 1
            return blake2b(*args, **kwargs)

        monkeypatch.setattr(
            physical_plan, "hashlib", SimpleNamespace(blake2b=counted_blake2b)
        )
        server = PigServer(DistributedFileSystem())
        first = server.compile(TEMP_READER.format(out="out/a"))
        stages = ("build_logical_plan", "optimize", "compile")
        assert [calls[stage] for stage in stages] == [1, 1, 1]
        assert calls["blake2b"] > 0  # the template's fingerprints
        calls.clear()
        again = server.compile(TEMP_READER.format(out="out/b"))
        assert not calls
        reads_temp = [
            load.path.startswith("tmp/s2/")
            for job in again.jobs
            for load in job.plan.loads()
        ]
        assert sum(reads_temp) == 1 and len(again) == 3
        for job, fingerprint in zip(again.jobs, expected):
            calls.clear()
            assert job.plan.fingerprint() == fingerprint
            moved = any(load.path.startswith("tmp/") for load in job.plan.loads())
            # inherited unless a load moved: a store's path is not hashed
            assert calls["blake2b"] == (len(job.plan) if moved else 0)

    def test_the_template_is_never_written(self, fresh_memo, monkeypatch):
        def state(template):
            return [
                (
                    job.to_dict(),
                    job.plan.fingerprint(),
                    [op._sig_hash for op in job.plan.operators],
                )
                for job in template.jobs
            ]

        first_seen = {}
        restamp = engine._restamp

        def recording(template, *args):
            first_seen.setdefault(id(template), (template, state(template)))
            return restamp(template, *args)

        monkeypatch.setattr(engine, "_restamp", recording)
        sizes = QUICK["pigmix"]
        plan = inputs.pigmix_plan(0, sizes, passes=2)
        events = Counter()
        with ReStoreSession() as session:
            for path, payload in plan.files.items():
                session.write_file(path, payload)
            for step in inputs.pigmix_stream(sizes) + plan.queries:
                result = session.run(step.source)
                events.update(type(event).__name__ for event in result.events)
        # the clones were rewritten, injected into and eliminated
        assert events["RewriteApplied"] and events["JobEliminated"]
        assert events["SubJobStored"]
        assert len(first_seen) >= 10
        for template, seen in first_seen.values():
            assert state(template) == seen

    def test_shared_template_operators_are_values(self, fresh_memo, monkeypatch):
        """A re-stamped copy shares the template's operators, so no stage
        may write to one: over a reuse pass and a thread-mode service run,
        every template operator keeps the very attributes it was built
        with."""
        first_seen, shared = {}, Counter()
        restamp = engine._restamp

        def recording(template, *args):
            for job in template.jobs:
                for op in job.plan.operators:
                    first_seen.setdefault(id(op), (op, dict(op.__dict__)))
            workflow = restamp(template, *args)
            ids = {id(op) for job in template.jobs for op in job.plan.operators}
            shared.update(
                id(op) in ids for job in workflow.jobs for op in job.plan.operators
            )
            return workflow

        monkeypatch.setattr(engine, "_restamp", recording)
        sizes = QUICK["pigmix"]
        plan = inputs.pigmix_plan(0, sizes, passes=1)
        steps = inputs.pigmix_stream(sizes) + plan.queries
        events = Counter()
        with ReStoreSession() as session:
            for path, payload in plan.files.items():
                session.write_file(path, payload)
            for step in steps:
                result = session.run(step.source)
                events.update(type(event).__name__ for event in result.events)
        service = JobService(executor="threads", max_workers=2)
        try:
            for path, payload in plan.files.items():
                service.dfs.write_file(path, payload)
            tenants = [service.open_session(f"t{n}") for n in range(2)]
            futures = [
                tenants[n % 2].submit(step.source) for n, step in enumerate(steps)
            ]
            for future in futures:
                events.update(
                    type(event).__name__ for event in future.result(timeout=120).events
                )
        finally:
            service.shutdown(wait=True)
        # the copies were rewritten, injected into and eliminated, and
        # most of their operators were the template's own
        assert events["RewriteApplied"] and events["JobEliminated"]
        assert events["SubJobStored"]
        assert shared[True] > shared[False] > 0
        assert len(first_seen) > 50
        for op, attributes in first_seen.values():
            assert op.__dict__ == attributes, op
            for name, value in attributes.items():
                assert op.__dict__[name] is value, (op, name)

    def test_two_threads_compiling_the_same_scripts_get_equal_workflows(
        self, fresh_memo
    ):
        steps = inputs.pigmix_stream(QUICK["pigmix"], passes=1)
        scripts = list(enumerate(step.source for step in steps)) * 3
        expected = [compiled_form(direct_compile(s, n)) for n, s in scripts]
        server = PigServer(DistributedFileSystem())
        results, errors = {}, []

        def work(name):
            try:
                results[name] = [
                    compiled_form(server.compile(s, script_id=n)) for n, s in scripts
                ]
            except Exception as error:  # surfaced below, not swallowed
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(n,)) for n in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert not errors
        assert results[0] == expected
        assert results[1] == expected

    def test_literals_that_compare_equal_are_different_scripts(self, fresh_memo):
        server = PigServer(DistributedFileSystem())
        source = "A = load 'x' as (a:int);\nB = foreach A generate a + {};\n"
        source += "store B into 'o';"
        for literal in ("1", "1.0", "1"):
            plan = server.compile(source.format(literal), script_id=9).jobs[0].plan
            expected = direct_compile(source.format(literal), 9).jobs[0].plan
            assert plan.to_dict() == expected.to_dict()
            assert plan.fingerprint() == expected.fingerprint()
        assert engine._template.cache_info()[:2] == (1, 2)  # hits, misses

    def test_parallel_does_not_split_the_template(self, fresh_memo):
        server = PigServer(DistributedFileSystem())
        source = (
            "A = load 'x' as (a:int, b:int);\nB = group A by a{};\n"
            "C = distinct A{};\nD = order A by b{};\nstore B into 'o';\n"
            "store C into 'p';\nstore D into 'q';\n"
        )
        reducers = set()
        for parallel in ("", " parallel 10"):
            workflow = server.compile(source.format(*[parallel] * 3))
            reducers |= {job.conf.n_reducers for job in workflow.jobs}
        assert engine._template.cache_info()[:2] == (1, 1)  # hits, misses
        assert reducers == {JobConf().n_reducers} == {28}

    def test_a_script_that_fails_to_build_fails_every_time(self, fresh_memo):
        server = PigServer(DistributedFileSystem())
        bad = "A = load 'x' as (a:int);\nB = filter A by nosuch > 1;\nstore B into 'o';"
        for _ in range(2):
            with pytest.raises(SchemaError, match="nosuch"):
                server.compile(bad)
        info = engine._template.cache_info()
        assert (info.misses, info.currsize) == (2, 0)

    def test_the_memo_is_bounded(self, fresh_memo):
        server = PigServer(DistributedFileSystem())
        bound = engine._MEMO_TEMPLATES
        for n in range(bound + 10):
            server.compile(
                f"A = load 'x' as (a:int);\nB = filter A by a > {n};\nstore B into 'o';"
            )
        info = engine._template.cache_info()
        assert info.maxsize == bound
        assert info.currsize == bound


def hook_state(manager):
    """What ``on_workflow_start`` moves: the clock, and (by eviction) the
    repository."""
    return manager.clock, sorted(e.entry_id for e in manager.repository.entries())


class TestPathCycle:
    """Stores that feed each other's loads are a compile error, raised
    before any listener hook: the clock and the repository stay where
    they were."""

    def test_a_session_rejects_it_before_any_hook(self):
        with ReStoreSession() as session:
            session.write_file("x", "1\n2\n")
            session.run(FILTER_X)
            manager = session.manager
            before = hook_state(manager)
            assert before[0] > 0 and before[1]
            for _ in range(2):  # the template is cached, the error is not
                with pytest.raises(CompilationError, match="'x', 'y'"):
                    session.run(CYCLE)
            assert hook_state(manager) == before

    def test_a_thread_mode_service_rejects_it_before_any_hook(self):
        service = JobService(max_workers=1)
        try:
            service.dfs.write_file("x", "1\n2\n")
            tenant = service.open_session("t")
            tenant.run(FILTER_X)
            manager = service.manager
            before = hook_state(manager)
            assert before[0] > 0 and before[1]
            with pytest.raises(CompilationError, match="'x', 'y'"):
                tenant.run(CYCLE)
            assert hook_state(manager) == before
        finally:
            service.shutdown()


# -- (iii) the exact probe decides what the scan decides ----------------------


def drive(repository, dfs, probe_specs, *, exact, before_probe=None):
    """Match the stream through one manager; returns (per-probe
    records, surviving (entry, use count) pairs, match totals).  With
    ``exact=False`` the probe never answers, which leaves exactly the
    scan the manager ran before it had one."""
    manager = ReStoreManager(dfs, repository=repository, config=probe_config())
    if not exact:
        manager._exact_hit = lambda job, workflow: None
    log = []
    manager.events.subscribe(
        lambda e: isinstance(e, MatchScanned)
        or log.append(
            (
                type(e).__name__,
                getattr(e, "entry_id", ""),
                getattr(e, "output_path", ""),
                getattr(e, "policy", getattr(e, "reason", "")),
            )
        )
    )
    records = []
    for spec in probe_specs:
        job, workflow = probe_job(spec)
        if before_probe is not None:
            before_probe(manager, spec, job)
        log.clear()
        manager.before_job(job, workflow)
        records.append(
            (spec.index, tuple(log), job.plan.fingerprint(), job.eliminated_by)
        )
        manager.drain()
        manager.on_workflow_end(workflow)
    survivors = sorted((e.entry_id, e.use_count) for e in repository.entries())
    return records, survivors, manager.match_totals


def both_ways(n_entries, n_probes, prepare=None, before_probe=None):
    """The same stream over two identically built repositories, with
    and without the probe; asserts they agree and returns the probed
    run's (records, totals)."""
    entry_specs = generate_entry_specs(n_entries, SEED)
    probe_specs = generate_probe_specs(entry_specs, n_probes, SEED)
    runs = []
    for exact in (True, False):
        dfs = DistributedFileSystem()
        repository = build_repository(entry_specs, SEED, dfs, probe_specs)
        if prepare is not None:
            prepare(repository, dfs, entry_specs, probe_specs)
        hook = before_probe(exact) if before_probe is not None else None
        runs.append(
            drive(repository, dfs, probe_specs, exact=exact, before_probe=hook)
        )
    (records, survivors, totals), (scan_records, scan_survivors, scan_totals) = runs
    assert records == scan_records
    assert survivors == scan_survivors
    assert scan_totals.exact_hits == 0
    assert totals.traversals <= scan_totals.traversals
    return records, totals


def events_named(records, name, policy=None):
    return [
        event
        for _, log, _, _ in records
        for event in log
        if event[0] == name and policy in (None, event[3])
    ]


def datasets_of_hits(entry_specs, probe_specs):
    """Datasets under the probes that have a fingerprint-equal entry."""
    stored = {(s.dataset, s.threshold) for s in entry_specs if s.shape == "aggregate"}
    hits = {
        p.dataset
        for p in probe_specs
        if p.kind == "hit" and (p.dataset, p.threshold) in stored
    }
    assert hits
    return sorted(hits)


class TestExactProbeDecidesWhatTheScanDecides:
    @pytest.mark.parametrize("n_entries", (10, 100, 1000))
    def test_on_fresh_repositories(self, n_entries):
        records, totals = both_ways(n_entries, 20)
        assert totals.exact_hits > 0
        assert events_named(records, "RewriteApplied")

    def test_a_stale_equal_entry_is_condemned_and_the_scan_goes_on(self):
        def rewrite_inputs(repository, dfs, entry_specs, probe_specs):
            for dataset in datasets_of_hits(entry_specs, probe_specs):
                dfs.write_file(dataset, "zed\t9\t9.5\n" * 3, overwrite=True)

        records, totals = both_ways(FULL_GRID_ENTRIES, 20, prepare=rewrite_inputs)
        assert events_named(records, "EntryEvicted", "stale-input")
        assert totals.exact_hits == 0  # every equal entry was stale

    def test_an_appended_equal_entry_takes_the_delta_path(self):
        def append_inputs(repository, dfs, entry_specs, probe_specs):
            for dataset in datasets_of_hits(entry_specs, probe_specs):
                dfs.append(dataset, b"dave\t4\t1.5\n")

        records, totals = both_ways(FULL_GRID_ENTRIES, 20, prepare=append_inputs)
        # the equal (aggregate) entry cannot be refreshed through its
        # shuffle and is condemned; a filter / project prefix can
        assert events_named(records, "DeltaFallback")
        assert events_named(records, "EntryEvicted", "stale-input")
        assert totals.exact_hits == 0

    def test_an_entry_evicted_between_probe_and_pin_is_a_miss(self):
        evicted = []

        def before_probe(exact):
            def hook(manager, spec, job):
                entry = manager.repository.find_equivalent(job.plan)
                if entry is None:
                    return
                if not exact:  # gone before the scan takes its snapshot
                    evict(manager, entry, "test")
                    return
                evicted.append(entry.entry_id)
                find = manager.repository.find_equivalent

                def find_then_lose(plan):  # gone once the probe has it
                    found = find(plan)
                    del manager.repository.find_equivalent
                    evict(manager, found, "test")
                    return found

                manager.repository.find_equivalent = find_then_lose

            return hook

        records, totals = both_ways(FULL_GRID_ENTRIES, 20, before_probe=before_probe)
        assert len(evicted) >= 3
        assert totals.exact_hits == 0
        # the scan went on to the next-best stored prefix, on both paths
        lost = set(evicted)
        rewrites = events_named(records, "RewriteApplied")
        assert len(rewrites) >= len(evicted)
        assert not lost & {event[1] for event in rewrites}

    def test_an_equal_entry_removed_and_re_added_is_served(self):
        re_added = []

        def before_probe(exact):
            def hook(manager, spec, job):
                repository = manager.repository
                entry = repository.find_equivalent(job.plan)
                if entry is None:
                    return
                # take it out and put it back: its subsumption pairs are
                # retired and recorded again, its sequence is new
                repository.remove(entry.entry_id)
                repository.add(entry)
                re_added.append(entry.entry_id)

            return hook

        records, totals = both_ways(FULL_GRID_ENTRIES, 20, before_probe=before_probe)
        assert re_added
        assert totals.exact_hits == len(re_added) // 2

    def test_a_corrupt_restored_plan_is_quarantined_not_served(self, tmp_path):
        entry_specs = generate_entry_specs(FULL_GRID_ENTRIES, SEED)
        probe_specs = [
            spec
            for spec in generate_probe_specs(entry_specs, 12, SEED)
            if spec.kind == "hit"
        ][:3]
        assert len(probe_specs) == 3
        seed_dir = seed_state(str(tmp_path), entry_specs, SEED)
        plan = FaultPlan(
            rules=(FaultRule(site="snapshot.materialize", action="raise", hits=(1,)),)
        )
        runs = {}
        for exact in (True, False):
            dfs = DistributedFileSystem()
            prepare_service_dfs(dfs, entry_specs, probe_specs)
            state = recover(lane_dir(str(tmp_path), f"lane-{exact}", seed_dir), dfs)
            faults.install(FaultInjector(plan))
            try:
                runs[exact] = drive(state.repository, dfs, probe_specs, exact=exact)
            finally:
                faults.uninstall()
        assert runs[True][:2] == runs[False][:2]
        records, _, totals = runs[True]
        # the first probe's equal entry is the first plan rebuilt on
        # either path: it is quarantined, never served, and the scan
        # goes on to the next-best stored prefix
        quarantined = events_named(records[:1], "EntryQuarantined")
        assert len(quarantined) == 1
        served = events_named(records[:1], "RewriteApplied")
        assert served and quarantined[0][1] not in {event[1] for event in served}
        assert len(events_named(records, "EntryQuarantined")) == 1
        assert totals.exact_hits == 2  # the other two probes

    def test_candidates_come_in_the_order_the_full_filter_gave(self):
        """``match_candidates`` sorts the ids its frontier index kept;
        the oracle filters every ordered entry through the matcher.
        Same list, same order — also after removals and refreshes have
        moved scan keys around."""
        entry_specs = generate_entry_specs(100, SEED)
        repository = build_repository(entry_specs, SEED)
        probes = generate_probe_specs(entry_specs, 200, SEED)
        matcher = PlanMatcher()
        compared = 0
        for spec in probes:
            if spec.index % 40 == 20:
                victim = repository.ordered_entries()[spec.index % 7]
                repository.remove(victim.entry_id)
                mover = repository.ordered_entries()[-1]
                repository.refresh_entry(mover.entry_id, input_bytes_delta=10**9)
            plan = probe_job(spec)[0].plan
            expected = [
                entry
                for entry in repository.ordered_entries()
                if matcher.match(plan, entry.plan) is not None
            ]
            candidates, stats = repository.match_candidates(plan)
            assert candidates == expected
            assert stats.entries_total == len(repository)
            assert stats.candidates + stats.pruned == stats.entries_total
            compared += len(candidates) > 1
        assert compared >= 50  # lists where an order exists to get wrong


def test_a_registered_plan_has_its_job_s_fingerprint_whatever_the_op_ids():
    """The probe can only hit if the sub-plan ``after_job`` registers
    hashes like the plan the next submission compiles.  Extraction used
    to connect edges in the iteration order of a *set* of op ids, so a
    UNION's or COGROUP's inputs came out permuted for some id ranges and
    the same stream hit or missed by how many operators the process had
    made before."""
    source = (
        "A = load 'in/a' as (u, n:int); B = load 'in/b' as (u, m:int);"
        "C = load 'in/c' as (u, k:int); D = union A, B, C;"
        "E = cogroup D by u, B by u; store E into 'out/e';"
    )
    with ReStoreSession(restore_enabled=False) as session:
        checked = 0
        for _ in range(70):  # op ids advance past several set-table sizes
            for job in session.server.compile(source).jobs:
                plan = job.plan
                extracted = plan.subplan_upto(plan.primary_store())
                assert extracted.fingerprint() == plan.fingerprint()
                checked += len(plan.predecessors(plan.primary_store())) > 0
    assert checked >= 70


# -- what rides along ---------------------------------------------------------


#: every way an entry can leave the repository; each must leave a file
#: an in-flight workflow reads on disk until that reader ends
WAYS_OUT = ("stale-input", "quarantined", "evict", "policy-victim")


def leave_repository(manager, entry, way_out):
    """Take *entry* out of *manager*'s repository by *way_out*."""
    if way_out == "stale-input":
        condemn(manager, entry, "stale-input")
    elif way_out == "quarantined":
        condemn(manager, entry, "quarantined", "plan fingerprint mismatch")
    elif way_out == "evict":
        evict(manager, entry, "test")
    else:  # the victim a configured policy chooses
        manager.eviction_policies = [build_eviction_policy("capacity:0")]
        assert run_evictions(manager) == [entry.entry_id]


class TestRidingDeletions:
    def _condemned_while_read(self, way_out="stale-input"):
        """A manager whose one owned entry left the repository by
        *way_out* while *workflow* still reads its file."""
        entry_specs = generate_entry_specs(10, SEED)
        dfs = DistributedFileSystem()
        repository = build_repository(entry_specs[:1], SEED, dfs)
        manager = ReStoreManager(dfs, repository=repository, config=probe_config())
        entry = repository.entries()[0]
        workflow = Workflow(jobs=[], name="reader")
        manager.kept_paths.add(entry.output_path)
        manager._pin(workflow, entry.output_path)
        leave_repository(manager, entry, way_out)
        assert len(repository) == 0
        assert dfs.exists(entry.output_path)  # deferred: still read
        return manager, entry, workflow

    @pytest.mark.parametrize("way_out", WAYS_OUT)
    def test_every_way_out_defers_the_delete_to_the_reader(self, way_out):
        manager, entry, workflow = self._condemned_while_read(way_out)
        assert manager.kept_paths == set()
        manager.on_workflow_end(workflow)
        assert not manager.dfs.exists(entry.output_path)

    def test_a_deferred_delete_lands_when_the_reader_ends(self):
        manager, entry, workflow = self._condemned_while_read()
        other = Workflow(jobs=[], name="other reader")
        manager._pin(other, entry.output_path)
        manager.on_workflow_end(workflow)
        assert manager.dfs.exists(entry.output_path)  # the other one reads it
        manager.on_workflow_end(other)
        assert not manager.dfs.exists(entry.output_path)

    def test_a_path_registered_again_is_not_deleted(self):
        manager, entry, workflow = self._condemned_while_read()
        entry.entry_id = ""
        manager.repository.add(entry)  # the rerun stored the same path
        manager.on_workflow_end(workflow)
        assert manager.dfs.exists(entry.output_path)

    def test_the_enumerator_has_no_numbering_of_its_own(self):
        with pytest.raises(TypeError):
            SubJobEnumerator(HEURISTICS["aggressive"])
        numbering = itertools.count(7).__next__
        enumerator = SubJobEnumerator(HEURISTICS["aggressive"], numbering)
        assert enumerator._new_path() == "restore/subjob/sj000007"

    def test_the_report_says_which_exact_lookups_are_which(self):
        entry_specs = generate_entry_specs(FULL_GRID_ENTRIES, SEED)
        probe_specs = generate_probe_specs(entry_specs, 8, SEED)
        dfs = DistributedFileSystem()
        repository = build_repository(entry_specs, SEED, dfs, probe_specs)
        manager = ReStoreManager(dfs, repository=repository, config=probe_config())
        for spec in probe_specs:
            job, workflow = probe_job(spec)
            manager.before_job(job, workflow)
            manager.on_workflow_end(workflow)
        served = manager.match_totals.exact_hits
        assert served > 0
        report = manager_report(manager)
        assert f"exact index: {served} whole-job hit(s)" in report
        assert "match-time probes and registration duplicate checks" in report
