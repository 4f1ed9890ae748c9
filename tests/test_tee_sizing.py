"""A tee'd rearrange's shuffle bytes come from its side store's write.

A rearrange whose only input is a split receives the very chunks every
store on that split writes, so the interpreter leaves those rows
unsized in the shuffle and takes their bytes from the store's write
(``JobInterpreter._tee_row_bytes``).  Each case here runs one job twice
over the same input: once as compiled, once with a split and a side
store spliced in front of every rearrange (what the sub-job enumerator
injects), and both must report the same shuffle counters, at several
chunk lengths.  Every case also asserts which path sized the rows, so
a run that never took the derived path cannot pass.
"""

import pytest

from repro import ReStoreSession
from repro.execution.interpreter import JobInterpreter
from repro.pig.physical.operators import POLocalRearrange, POSplit, POStore
from repro.relational.schema import Schema

COLUMNS = "u:chararray, a:int, r:double"
SCHEMA = Schema.parse(COLUMNS)
NAMES = "n:chararray, m:chararray"


def events(n_rows: int, user=lambda i: f"user{i % 5}") -> str:
    return "".join(f"{user(i)}\t{i % 9}\t{i * 0.25}\n" for i in range(n_rows))


def names(n_rows: int) -> str:
    return "".join(f"user{i % 7}\tname{i}\n" for i in range(n_rows))


def with_null_users(i: int) -> str:
    return "" if i % 4 == 0 else f"user{i % 5}"


def with_non_ascii_users(i: int) -> str:
    return "héllo" if i % 3 == 0 else f"user{i % 5}"


GROUP = (
    f"A = load 'd' as ({COLUMNS});\n"
    "B = filter A by a > 0;\n"
    "C = group B by u;\n"
    "D = foreach C generate group, COUNT(B);\n"
    "store D into 'o';"
)
INNER_JOIN = (
    f"A = load 'd' as ({COLUMNS});\n"
    f"B = load 'n' as ({NAMES});\n"
    "C = join A by u, B by n;\n"
    "store C into 'o';"
)
#: the rearrange's input is the load itself
GROUP_LOADED = (
    f"A = load 'd' as ({COLUMNS});\n"
    "C = group A by u;\n"
    "D = foreach C generate group, COUNT(A);\n"
    "store D into 'o';"
)
OUTER_JOIN = (
    f"A = load 'd' as ({COLUMNS});\n"
    f"B = load 'n' as ({NAMES});\n"
    "C = join A by u left outer, B by n;\n"
    "store C into 'o';"
)


def shuffle_job(session, script: str):
    """The one shuffling job of *script*'s workflow, freshly compiled."""
    workflow = session.server.compile(script)
    return next(job for job in workflow.topo_order() if job.has_shuffle)


def tee_every_rearrange(plan) -> int:
    """Splice a split and a side store in front of every rearrange;
    returns how many were tee'd."""
    rearranges = [op for op in plan.topo_order() if isinstance(op, POLocalRearrange)]
    for index, rearrange in enumerate(rearranges):
        (anchor,) = plan.predecessors(rearrange)
        split = plan.insert_between(anchor, rearrange, POSplit(anchor.schema))
        store = POStore(f"side/{index}", schema=anchor.schema, side=True)
        plan.add(store)
        plan.connect(split, store)
    plan.validate()
    return len(rearranges)


def run_both(session, script: str, monkeypatch):
    """(twin stats, tee'd stats, tee'd interpreter, row-sized flag of
    every side store's write) for *script*'s shuffling job."""
    twin = JobInterpreter(shuffle_job(session, script), session.dfs).run()
    job = shuffle_job(session, script)
    assert tee_every_rearrange(job.plan) >= 1
    sized = {}
    write_rows = session.dfs.write_rows

    def recording(path, rows, *args, **kwargs):
        status = write_rows(path, rows, *args, **kwargs)
        sized[path] = status.sized_from_rows
        return status

    monkeypatch.setattr(session.dfs, "write_rows", recording)
    interpreter = JobInterpreter(job, session.dfs)
    teed = interpreter.run()
    side = {path: flag for path, flag in sized.items() if path.startswith("side/")}
    return twin, teed, interpreter, side


@pytest.fixture(params=[1, 7, 1024], ids=lambda n: f"chunk{n}")
def chunk_rows(request, monkeypatch):
    monkeypatch.setattr(JobInterpreter, "CHUNK_ROWS", request.param)
    return request.param


@pytest.fixture
def session():
    with ReStoreSession(restore_enabled=False) as session:
        yield session


def assert_same_shuffle(twin, teed):
    assert twin.shuffle_records > 0
    assert teed.shuffle_records == twin.shuffle_records
    assert teed.shuffle_bytes == twin.shuffle_bytes


class TestTeedRearrangeSizing:
    def test_group_keeps_every_row(self, session, chunk_rows, monkeypatch):
        session.write_file("d", events(40))
        twin, teed, interpreter, side = run_both(session, GROUP, monkeypatch)
        assert_same_shuffle(twin, teed)
        assert len(interpreter._tees) == 1
        assert side == {"side/0": True}  # the derived path, not the fallback

    def test_inner_join_drops_null_keys(self, session, chunk_rows, monkeypatch):
        session.write_file("d", events(40, with_null_users))
        session.write_file("n", names(12) + "\tnobody\n")
        twin, teed, interpreter, side = run_both(session, INNER_JOIN, monkeypatch)
        assert_same_shuffle(twin, teed)
        assert len(interpreter._tees) == 2
        assert set(side.values()) == {True}
        assert interpreter._tee_dropped > 0  # both sides' null keys

    def test_outer_join_isolates_null_keys(self, session, chunk_rows, monkeypatch):
        session.write_file("d", events(40, with_null_users))
        session.write_file("n", names(12) + "\tnobody\n")
        twin, teed, interpreter, side = run_both(session, OUTER_JOIN, monkeypatch)
        assert_same_shuffle(twin, teed)
        assert len(interpreter._tees) == 2
        assert set(side.values()) == {True}
        assert interpreter._tee_dropped > 0  # the inner side's null key

    def test_a_non_ascii_value_falls_back(self, session, chunk_rows, monkeypatch):
        """A canonical non-ASCII write is exact, but its size counts
        UTF-8 bytes: the rows are sized from the store's row list."""
        session.write_file("d", events(40, with_non_ascii_users))
        twin, teed, interpreter, side = run_both(session, GROUP, monkeypatch)
        assert_same_shuffle(twin, teed)
        assert len(interpreter._tees) == 1
        assert side == {"side/0": False}
        exact = session.dfs.namenode.lookup("side/0").datasets
        assert [dataset.exact for dataset in exact.values()] == [True]

    def test_a_payload_clone_falls_back(self, session, chunk_rows, monkeypatch):
        """A side store straight off the load shares the load's payload:
        its size was never counted from the rows."""
        rows = [(f"user{i % 5}", i % 9, i * 0.25) for i in range(40)]
        session.dfs.write_rows("d", rows, SCHEMA)
        clones = session.dfs.payload_clones
        twin, teed, interpreter, side = run_both(session, GROUP_LOADED, monkeypatch)
        assert_same_shuffle(twin, teed)
        assert len(interpreter._tees) == 1
        assert side == {"side/0": False}
        assert session.dfs.payload_clones == clones + 1
