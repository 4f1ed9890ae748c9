"""Reuse never changes an answer: one generative harness.

A Hypothesis state machine drives ReStore and a restore-off oracle
session through the same verbs: write, append, overwrite, delete,
rename or swap a file (outputs too: later queries read them); submit a
query from a small Pig grammar into a small pool of colliding output
paths, or one of the last few again, elsewhere or with its UNION's
inputs swapped; crash a submission at a seeded fault site; close and
recover (after a clean close, a checkpoint rotation, a crash, a
rotation torn by a crash, or a compaction).  After every step it
checks that

(i) every file of the pool holds the oracle's bytes, and every
    submission ended as the oracle's did (or raised the same error
    type): i2MapReduce's *incremental ≡ recomputation* (PAPERS.md);
(ii) nothing is left under the delta scratch prefix, no entry reads
     from it, every kept path and every sub-job file is some entry's
     output (recovery sweeps what a crashed submission left);
(iii) every submission ended in a result or a typed ``ReproError`` (or
      the injected fault, under an armed plan);

and (iv) the run fails unless, across its examples, the machine
rewrote, eliminated, refreshed, fell back, evicted, condemned and
reused a recovered entry, and recovered from a torn checkpoint and
from a compacted generation.  The eviction policy is drawn per example;
each executor runs its own budget (``CHAOS_SEED=<n>`` seeds it and
raises it).  A restart is a new process over the same files:
bytes survive, in-memory datasets do not.  What a crashed submission
leaves in a file of the pool is a write the oracle sees too; what a
restart adds is checked first: recovery writes a stored payload back
only into an empty path that a recovered entry or kept path claims,
and only the bytes last stored there.  A failure prints the shrunk
step list, which replays byte for byte.
"""

from __future__ import annotations

import os
from collections import Counter
from functools import partial
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, seed, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    get_state_machine_test,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.freshness import DELTA_TMP_PREFIX
from repro.core.manager import ReStoreConfig
from repro.dfs.filesystem import DistributedFileSystem
from repro import events
from repro.exceptions import ReproError
from repro.faults import injector as faults
from repro.faults.injector import InjectedFault
from repro.faults.plan import FaultPlan, FaultRule
from repro.persistence.durability import PersistenceConfig
from repro.persistence.framedlog import scan_frames
from repro.service import JobService
from repro.session import ReStoreSession

CHAOS_SEED = os.environ.get("CHAOS_SEED")
#: examples per executor, in tier-1 and under CHAOS_SEED: a process-mode
#: restart spawns a worker
BUDGET = {"serial": (90, 600), "threads": (15, 100), "processes": (2, 15)}
DURABLE = PersistenceConfig()
SCHEMA = "(u:chararray, a:int, r:double)"
INPUTS = ("i0", "i1")
OUTPUTS = ("o0", "o1", "o2")
FILES = INPUTS + OUTPUTS
#: coordinator-side sites a submission crosses: a payload or tail read,
#: and the log commit (its breaker parks the batch); a ``partial`` write
#: there lands a prefix of the commit, torn anywhere, even between its
#: segments and its records
CRASH_SITES = ("dfs.read", "journal.append")
RESTART_GAP = 3
#: how a restart ends the running system: a clean close, a close after a
#: checkpoint rotation, a crash mid-submission, a crash after a rotation
#: whose append tore, a close after a rotation that compacted
RESTARTS = ("close", "snapshot", "crash", "torn-rotation", "compacted")
#: the ledger key each event books (an ``EntryEvicted`` books by policy)
BOOKS = {
    events.RewriteApplied: "rewrite",
    events.JobEliminated: "elimination",
    events.EntryRefreshed: "refresh",
    events.DeltaFallback: "fallback",
}
#: the policies of the match stage's ``EntryEvicted``; the rest sweep
CONDEMNATIONS = ("stale-input", "output-modified", "quarantined")
#: what happened, across every example of one run (invariant (iv))
LEDGER: Counter = Counter()

#: query shapes over ``B = filter A by a > 2`` (``X`` is a second load)
SHAPES = {
    "filter": "store B into '{out}';",
    "project": "C = foreach A generate u, r; store C into '{out}';",
    "chain": "C = foreach B generate u, a; D = filter C by a<9; store D into '{out}';",
    "group": "C = group B by u; D = foreach C generate group, COUNT(B), {agg}(B.r);"
    " store D into '{out}';",
    "group2": "C = group B by (u, a); D = foreach C generate group, SUM(B.r) as s;"
    " store D into '{out}';",
    "flatten": "C = group B by (u, a); D = foreach C generate FLATTEN(group),"
    " SUM(B.r) as s; F = foreach D generate $0, $1 * 2, s; store F into '{out}';",
    "group2-order": "C = group B by (u, a); D = foreach C generate group,"
    " SUM(B.r) as s; O = order D by group; store O into '{out}';",
    "join": "J = join B by u, X by u; store J into '{out}';",
    "cogroup": "C = cogroup B by u, X by u; D = foreach C generate group, COUNT(B),"
    " COUNT(X); store D into '{out}';",
    "split": "split A into P if a > 2, Q if a <= 2; store P into '{out}';"
    " store Q into '{out2}';",
    "multi-store": "store B into '{out}'; C = foreach B generate u, r;"
    " store C into '{out2}';",
    "union": "C = union B, X; store C into '{out}';",
    "union-swapped": "C = union X, B; store C into '{out}';",
    "distinct": "C = foreach B generate u; D = distinct C; store D into '{out}';",
    "order": "C = order B by r; store C into '{out}';",
    "top": "C = order B by r; D = limit C {n}; store D into '{out}';",
}

#: a null key is an empty field
rows = st.lists(
    st.tuples(
        st.sampled_from(("u1", "u2", "u3", "")),
        st.sampled_from(("", "1", "3", "5", "10")),
        st.sampled_from(("", "0.5", "1.0", "2.25")),
    ),
    min_size=1,
    max_size=5,
).map(lambda fields: "".join("\t".join(row) + "\n" for row in fields))


@st.composite
def queries(draw):
    """``(script, stored paths)`` for one drawn shape."""
    shape = SHAPES[draw(st.sampled_from(sorted(SHAPES)))]
    out = draw(st.sampled_from(OUTPUTS))
    fields = {
        "src": draw(st.sampled_from(INPUTS)),
        "other": draw(st.sampled_from(FILES)),
        "agg": draw(st.sampled_from(("SUM", "AVG", "MAX", "MIN"))),
        "n": draw(st.sampled_from((1, 2))),
        "out": out,
        "out2": draw(st.sampled_from([o for o in OUTPUTS if o != out])),
    }
    script = (
        f"A = load '{{src}}' as {SCHEMA}; B = filter A by a > 2; "
        f"X = load '{{other}}' as {SCHEMA}; " + shape
    ).format(**fields)
    return script, (out, fields["out2"]) if "{out2}" in shape else (out,)


def outcome(run, source: str, armed: bool = False):
    """``("ok", result)`` or ``("raised", type name)``; others fail."""
    try:
        return "ok", run(source)
    except (ReproError, InjectedFault) as exc:
        assert armed or not isinstance(exc, InjectedFault), exc
        return "raised", type(exc).__name__


class System:
    """ReStore under test over *dfs*: a durable session, or one tenant
    of a durable ``JobService``."""

    def __init__(self, executor: str, config: ReStoreConfig, dfs) -> None:
        self.executor, self.dfs = executor, dfs
        durable = {"config": config, "persistence": DURABLE}
        if executor == "serial":
            self.host = ReStoreSession(dfs, **durable)
            self.run = self.host.run
        else:
            self.host = JobService(dfs, executor=executor, max_workers=1, **durable)
            self.run = self.host.open_session("tenant").run
        self.manager = self.host.manager

    def stop(self, crash: bool) -> None:
        """Close cleanly, or die: a crashed process flushes nothing."""
        if self.executor != "serial":
            self.host.shutdown(wait=not crash)
        elif not crash:
            self.host.close()


class ReuseMachine(RuleBasedStateMachine):
    def __init__(self, executor: str = "serial") -> None:
        super().__init__()
        self.executor = executor
        self.oracle = ReStoreSession(restore_enabled=False)
        self.system = None
        self.history = []
        self.since_restart = 0
        #: path → the bytes the system's last submission stored there
        self.stored = {}
        #: entries the running system recovered
        self.restored = set()

    @initialize(
        policy=st.sampled_from(
            ("none", "time-window:5", "input-modified", "capacity:2000")
        ),
        inputs=st.tuples(rows, rows),
    )
    def deploy(self, policy, inputs):
        policies = [] if policy == "none" else [policy]
        self.config = ReStoreConfig(eviction_policies=policies)
        self.system = System(self.executor, self.config, DistributedFileSystem())
        for path, data in zip(INPUTS, inputs):
            self._both("write_file", path, data)

    def teardown(self) -> None:
        faults.uninstall()
        if self.system is not None:
            self.system.stop(crash=False)
        self.oracle.close()

    # -- the filesystem verbs, on both sides ---------------------------------------

    def _both(self, verb: str, *args) -> None:
        for dfs in (self.system.dfs, self.oracle.dfs):
            getattr(dfs, verb)(*args)

    @rule(path=st.sampled_from(INPUTS + FILES), data=rows)
    def append(self, path, data):
        """Grow a file (or write it): the delta-refresh path."""
        verb = "append" if self.oracle.dfs.exists(path) else "write_file"
        self._both(verb, path, data)

    @rule(
        verb=st.sampled_from(("write", "delete", "rename", "swap")),
        path=st.sampled_from(FILES),
        other=st.sampled_from(FILES),
        data=rows,
    )
    def mutate(self, verb, path, other, data):
        """Write (or overwrite), delete, rename onto *other*, or swap
        with *other*, one file; a verb that cannot apply writes."""
        exists = self.oracle.dfs.exists
        if verb == "delete":
            self._both("delete_if_exists", path)
        elif verb == "rename" and path != other and exists(path):
            self._both("delete_if_exists", other)
            self._both("rename", path, other)
        elif verb == "swap" and path != other and exists(path) and exists(other):
            self._both("rename", path, "swap")
            self._both("rename", other, path)
            self._both("rename", "swap", other)
        else:
            self._both("write_file", path, data, True)

    # -- submissions ---------------------------------------------------------------

    def _submit(self, script, stores, fault=None):
        expected = outcome(self.oracle.run, script)
        before = [self._bytes(path) for path in stores]
        if fault is not None:
            site, hit, cut = fault
            action = "partial" if cut is not None else "raise"
            rule = FaultRule(site, action, hits=(hit,), arg=cut or 0)
            faults.install(FaultPlan(rules=(rule,)))
        try:
            got = outcome(self.system.run, script, armed=fault is not None)
        finally:
            faults.uninstall()
        for event in got[1].events if got[0] == "ok" else ():
            if isinstance(event, events.EntryEvicted):
                condemned = event.policy in CONDEMNATIONS
                LEDGER["condemnation" if condemned else "eviction"] += 1
            elif type(event) in BOOKS:
                LEDGER[BOOKS[type(event)]] += 1
                LEDGER["recovery"] += event.entry_id in self.restored
        if fault is None:
            assert got[0] == expected[0] and (got[0] == "ok" or got == expected)
        else:
            for path in stores:  # whatever the crashed submission stored
                self._mirror(path)
        for path, old in zip(stores, before):
            new = self._bytes(path)  # stored, if it succeeded or moved
            if new is not None and (got[0] == "ok" or new != old):
                self.stored[path] = new
        self.history.append((script, stores))
        self.since_restart += 1

    @rule(query=queries())
    def submit(self, query):
        self._submit(*query)

    @precondition(lambda self: self.history)
    @rule(
        pick=st.integers(min_value=0),
        how=st.sampled_from(("again", "elsewhere", "swapped")),
        out=st.sampled_from(OUTPUTS),
    )
    def resubmit(self, pick, how, out):
        """One of the last four queries again: as it was, into *out*, or
        with its UNION's inputs swapped."""
        script, stores = self.history[-1 - pick % min(len(self.history), 4)]
        if how == "elsewhere":
            script = script.replace(f"into '{stores[0]}'", f"into '{out}'")
            stores = (out,) + stores[1:]
        elif how == "swapped":
            unions = ("union B, X", "union X, B")
            script = script.replace(*unions if unions[0] in script else unions[::-1])
        self._submit(script, stores)

    @precondition(lambda self: self.since_restart >= RESTART_GAP)
    @rule(
        how=st.sampled_from(RESTARTS),
        query=queries(),
        site=st.sampled_from(CRASH_SITES),
        hit=st.integers(min_value=1, max_value=3),
        cut=st.one_of(st.none(), st.integers(min_value=0, max_value=4000)),
    )
    def restart(self, how, query, site, hit, cut):
        """Close (after a checkpoint rotation, or not) and recover; or
        submit *query* with a fault armed at *site*'s *hit*-th
        crossing (at the log, a write torn after *cut* bytes, if
        drawn), die, and recover; or tear a rotation's append after
        *cut* bytes, die, and recover from the checkpoint before it; or
        compact on a rotation, then close and recover the new
        generation."""
        persister = self.system.host.persister
        if how == "crash":
            torn = cut if site == "journal.append" else None
            self._submit(*query, fault=(site, hit, torn))
        elif how == "snapshot":
            persister.take_snapshot()
        elif how == "torn-rotation":
            persister.flush(force=True)  # so the first append is the checkpoint's
            rule = FaultRule("journal.append", "partial", hits=(1,), arg=cut or 0)
            faults.install(FaultPlan(rules=(rule,)))
            try:
                failed = persister.take_snapshot() is None
            finally:
                faults.uninstall()
            # counted only when the checkpoint's own append tore mid-frame:
            # nothing stayed staged, and what follows the last commit is
            # a frame's prefix (a rotation can still capture a moved file)
            log = persister.log
            torn = failed and log.storage.exists()
            tail = log.storage.read()[log.end :] if torn else b""
            LEDGER[how] += not persister.buffered_records and scan_frames(tail).torn
        elif how == "compacted":
            gen = persister.log.gen
            persister.COMPACT_DEAD_PER_LIVE = 0  # this rotation compacts
            persister.take_snapshot()
            LEDGER[how] += persister.log.gen > gen
        old = self.system
        old.stop(crash=how in ("crash", "torn-rotation"))
        dfs = DistributedFileSystem()
        for path in old.dfs.list_paths():
            dfs.write_file(path, old.dfs.read_file(path))
        self.system = System(old.executor, self.config, dfs)
        self.since_restart = 0
        manager = self.system.manager
        self.restored = {e.entry_id for e in manager.repository.entries()}
        claimed = {e.output_path for e in manager.repository.entries()}
        for path in FILES:  # what the recovery scrub wrote back
            if self.system.dfs.exists(path) and not self.oracle.dfs.exists(path):
                assert path in claimed or path in manager.kept_paths, path
                data = self.system.dfs.read_file(path)
                assert data == self.stored.get(path), path
                self.oracle.dfs.write_file(path, data)

    def _bytes(self, path: str):
        dfs = self.system.dfs
        return dfs.read_file(path) if dfs.exists(path) else None

    def _mirror(self, path: str) -> None:
        """Make the oracle's *path* the system's, byte for byte."""
        dfs = self.system.dfs
        if dfs.exists(path):
            self.oracle.dfs.write_file(path, dfs.read_file(path), overwrite=True)
        else:
            self.oracle.dfs.delete_if_exists(path)

    # -- invariants ------------------------------------------------------------------

    @invariant()
    def answers_agree(self):
        """(i): every file of the pool holds the oracle's bytes."""
        mine, theirs = self.system.dfs, self.oracle.dfs
        for path in FILES:
            assert mine.exists(path) == theirs.exists(path), path
            if theirs.exists(path):
                assert mine.read_file(path) == theirs.read_file(path), path

    @invariant()
    def repository_is_tidy(self):
        """(ii): no delta scratch, no stray sub-job file or kept path."""
        dfs, manager = self.system.dfs, self.system.manager
        assert not dfs.list_paths(DELTA_TMP_PREFIX)
        entries = manager.repository.entries()
        assert not any(
            p.startswith(DELTA_TMP_PREFIX) for e in entries for p in e.input_extents
        )
        outputs = {entry.output_path for entry in entries}
        assert manager.kept_paths <= outputs
        assert set(dfs.list_paths("restore/subjob/")) <= outputs


def test_reuse_never_changes_an_answer():
    LEDGER.clear()
    for executor, examples in BUDGET.items():
        test = get_state_machine_test(
            partial(ReuseMachine, executor),
            settings=settings(
                max_examples=examples[bool(CHAOS_SEED)],
                stateful_step_count=30,
                deadline=None,
                database=None,
                derandomize=not CHAOS_SEED,
                suppress_health_check=[HealthCheck.too_slow],
            ),
        )
        test = seed(int(CHAOS_SEED))(test) if CHAOS_SEED else test
        test()
    # (iv): no invariant above held vacuously
    happened = {*BOOKS.values(), "eviction", "condemnation", "recovery"}
    happened |= {"torn-rotation", "compacted"}
    assert happened <= {key for key, n in LEDGER.items() if n}, dict(LEDGER)


# -- what the machine found, as the steps it shrank to --------------------------------


class Torn(NamedTuple):
    """A step: run *script*; with reuse on, the log write of its first
    commit tears after *cut* bytes and the process dies (a new session
    over a copy of the files takes over)."""

    script: str
    cut: int


def differential(*steps):
    """Every user file (either run's) after *steps* (scripts, ``Torn``
    ones, filesystem verbs or ``"restart"``), with reuse on, durable,
    and off."""
    worlds = []
    for on in (True, False):
        dfs = DistributedFileSystem()
        durable = {"persistence": DURABLE} if on else {"restore_enabled": False}
        session = ReStoreSession(dfs, **durable)
        for step in steps:
            if step == "restart":
                session.close()
                session = ReStoreSession(dfs, **durable)
            elif isinstance(step, Torn):
                rule = FaultRule("journal.append", "partial", hits=(1,), arg=step.cut)
                faults.install(FaultPlan(rules=(rule,) if on else ()))
                try:
                    session.run(step.script)
                finally:
                    faults.uninstall()
                if on:
                    old, dfs = dfs, DistributedFileSystem()
                    for path in old.list_paths():
                        dfs.write_file(path, old.read_file(path))
                    session = ReStoreSession(dfs, **durable)
            elif callable(step):
                step(dfs)
            else:
                session.run(step)
        session.close()
        worlds.append(dfs)
    paths = {p for w in worlds for p in w.list_paths() if not p.startswith("restore/")}
    return [{p: w.read_file(p) if w.exists(p) else None for p in paths} for w in worlds]


def write(path, data):
    return lambda dfs: dfs.write_file(path, data, overwrite=True)


A = "A = load '%s' as (u:chararray, a:int, r:double); "
Y = write("y", "u2\t5\t0.5\nu3\t10\t2.25\nu1\t1\t1.0\n")
L = A % "y" + "B = filter A by a > 3; "
X = L + "store B into 'x';"
FINAL = L + "C = order B by r; store C into 'final';"
U = A % "y" + "B = filter A by a > 2; X = load 'x' as (u:chararray, a:int, r:double); "
P = "A = load 'y' as (u:chararray, n:int); B = filter A by n > 0; store B into '%s';"
S = A % "o1" + "split A into P if a > 2, Q if a <= 2; store P into '%s';"
O = "B = foreach A generate u; store B into 'x';"
W = write("x", "u9\t9\t9.0\n")
G = A + "C = group A by u; D = foreach C generate group, COUNT(A); store D into '%s';"
B2 = A % "i0" + "B = filter A by a > 2; "
F = B2 + "C = foreach B generate u, a; D = filter C by a<9; store D into 'o0';"
COG = B2 + "X = load 'i0' as (u, a:int, r:double); C = cogroup B by u, X by u;"
FLAT = B2 + "C = group B by (u, a); D = foreach C generate FLATTEN(group), SUM(B.r);"
FOUND = {
    "a refresh appends to a user's output": (
        write("y", "a\t1\nb\t2\n"),
        P % "outA",
        lambda dfs: dfs.append("y", "c\t3\n"),
        P % "outB",
    ),
    "a refresh appends to an output another query stores": (
        Y,
        X,
        lambda dfs: dfs.append("y", "u4\t7\t3.0\n"),
        L + "C = group B by u; D = foreach C generate group, COUNT(B);"
        " store D into 'x';",
        FINAL,
    ),
    "an entry's output stored over": (Y, X, A % "y" + O, FINAL),
    "an entry's output overwritten": (Y, X, W, FINAL),
    "an entry's output deleted": (Y, X, lambda dfs: dfs.delete("x"), FINAL),
    "an entry's output renamed": (Y, X, lambda dfs: dfs.rename("x", "x2"), FINAL),
    "an entry's output overwritten, then a recovery": (Y, X, W, "restart", FINAL),
    "an entry's output stored over by a later-condemned entry, then a recovery": (
        Y,
        write("z", "u1\t5\t1.0\n"),
        X,
        G % ("z", "x"),
        lambda dfs: dfs.append("z", "u2\t7\t2.0\n"),
        G % ("z", "x2"),
        "restart",
        FINAL,
    ),
    "a rewrite moves a union's input": (
        write("x", "\t2\t3\n"),
        write("y", "u2\t10\t1.5\nu1\t\t\n"),
        U + "C = group B by u; D = foreach C generate group, COUNT(B);"
        " store D into 'g';",
        U + "C = union X, B; store C into 'u1';",
        U + "C = union B, X; store C into 'final';",
    ),
    "a job registers what it read of a file it overwrote": (
        write("o2", "u3\t5\t1.0\n\t1\t1.0\n\t10\t2.25\n"),
        A % "o2" + "B = filter A by a > 2; store B into 'final';"
        " C = foreach B generate u, r; store C into 'o2';",
    ),
    "an unregistered job stores over an output, then a delete and a recovery": (
        write("i0", "u1\t\t\n"),
        COG + " D = foreach C generate group, COUNT(B), COUNT(X); store D into 'o0';",
        lambda dfs: dfs.append("i0", "u1\t\t\n"),
        FLAT + " store D into 'o0';",
        lambda dfs: dfs.delete("o0"),
        "restart",
    ),
    "a commit torn between a refresh's payload and its entry, then a recovery": (
        write("i0", "u1\t\t\n"),
        F,
        lambda dfs: dfs.append("i0", "u1\t3\t\n"),
        Torn(F, 190),
        F,
    ),
    "a copy job reads an output a later job stores": (
        write("o1", "u2\t10\t\nu1\t\t1.0\nu2\t5\t\nu1\t1\t0.5\n"),
        S % "o0" + " store Q into 'o1';",
        S % "o1" + " store Q into 'o0';",
    ),
}


@pytest.mark.parametrize("name", sorted(FOUND))
def test_what_the_machine_found(name):
    on, off = differential(*FOUND[name])
    assert on == off


def test_a_restored_birth_names_no_live_file(tmp_path):
    """A birth is a tick of one process's clock: a successor's file can
    carry the very number a recovered extent recorded."""
    config = PersistenceConfig(
        snapshot_path=str(tmp_path / "snap"),
        journal_path=str(tmp_path / "journal"),
        backend="local",
    )
    with ReStoreSession(persistence=config) as first:
        Y(first.dfs)
        first.run(X)
    dfs = DistributedFileSystem()
    write("y", "u2\t7\t0.5\nu3\t10\t2.25\nu1\t1\t1.0\n")(dfs)  # birth 1 again
    with ReStoreSession(dfs, persistence=config) as second:
        second.run(X)
    assert dfs.read_file("x") == b"u2\t7\t0.5\nu3\t10\t2.25\n"
