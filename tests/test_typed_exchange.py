"""Process mode's file exchange ships typed rows, not text.

A file crosses the worker pipe as one image
(``DistributedFileSystem.export_file`` / ``import_file``): the pickle of
its exact dataset when it is one write whose rows are pinned, its text
otherwise.  These tests drive :func:`repro.service.procpool.worker_main`
on threads over ``multiprocessing.Pipe()`` — both ends in this process —
with the PigStorage render and parse wrapped and counted per side, so
no check can pass without the exchange having happened:

* a typed file is neither rendered nor parsed on either side; a raw
  input is parsed once, where it is read;
* a sub-job output forwarded to a second worker travels as the pickle
  the coordinator received and is never unpickled there;
* a raw input, a non-ASCII store and a non-canonical store cross as
  text;
* the byte counters and job statistics equal a text exchange's;
* the ``dfs.read`` fault site still fires on an export;
* at a workflow's end a worker forgets every path the coordinator no
  longer has, not only temps.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.core.manager import ReStoreConfig
from repro.dfs import dataset as dataset_module
from repro.dfs import filesystem as fs_module
from repro.dfs.filesystem import DistributedFileSystem, RowsImage
from repro.faults import injector as faults
from repro.faults.injector import FaultInjector, InjectedFault
from repro.faults.plan import FaultPlan, FaultRule
from repro.mapreduce.runner import HadoopSimulator
from repro.relational.schema import Schema
from repro.relational.tuples import Bag
from repro.service import JobService
from repro.service import procpool
from repro.service.procpool import ProcessWorkerPool, WorkerHandle, worker_main
from repro.session import ReStoreSession

PV = "alice\t1\t1.5\nbob\t1\t4.0\ncarol\t2\t8.0\nalice\t1\t0.5\ndave\t2\t3.0\n"
LOAD = "A = load 'data/pv' as (user, action:int, revenue:double);"
#: GROUP then ORDER: the first job's output holds bag columns
GROUP_ORDER = LOAD + (
    "B = group A by user; C = order B by group; store C into 'out/sorted';"
)
FILTER = LOAD + "B = filter A by action == 1;"
SCHEMA = Schema.parse("u:chararray, n:int, r:double")
ROWS = [("alice", 1, 1.5), ("bob", 2, 4.0)]


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    faults.uninstall()
    yield
    faults.uninstall()


@pytest.fixture
def counted(monkeypatch):
    """Every render, parse, pickle and unpickle, by the thread that did
    it: ``MainThread`` is the coordinator, ``worker-<n>`` a worker."""
    calls = Counter()

    def counting(kind, fn):
        def wrapper(*args, **kwargs):
            calls[kind, threading.current_thread().name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        fs_module, "_render_rows", counting("render", fs_module._render_rows)
    )
    monkeypatch.setattr(
        fs_module, "deserialize_rows", counting("parse", fs_module.deserialize_rows)
    )
    monkeypatch.setattr(
        dataset_module,
        "pickle",
        SimpleNamespace(
            dumps=counting("pickle", pickle.dumps),
            loads=counting("unpickle", pickle.loads),
            HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL,
        ),
    )
    return calls


def side(calls: Counter, kind: str, coordinator: bool) -> int:
    who = "MainThread" if coordinator else "worker-"
    return sum(
        n for (k, thread), n in calls.items() if k == kind and thread.startswith(who)
    )


class LoggedConn:
    """A pipe end that keeps every message sent and reply received."""

    def __init__(self, conn, log: list):
        self._conn = conn
        self._log = log

    def send(self, message) -> None:
        self._log.append(("send", message))
        self._conn.send(message)

    def recv(self):
        reply = self._conn.recv()
        self._log.append(("recv", reply))
        return reply

    def __getattr__(self, name):
        return getattr(self._conn, name)


class ThreadWorkers:
    """*n* ``worker_main`` loops on threads, each over its own pipe, and
    the private filesystem each one built."""

    def __init__(self, n: int, server, monkeypatch):
        self.pool = ProcessWorkerPool(0, {})
        self.log: list = []
        self.dfs = {}
        built = DistributedFileSystem

        def recording():
            dfs = built()
            self.dfs[threading.current_thread().name] = dfs
            return dfs

        monkeypatch.setattr(procpool, "DistributedFileSystem", recording)
        context = {"cluster": server.cluster, "cost_model": server.cost_model}
        self.handles, self.threads = [], []
        for ordinal in range(1, n + 1):
            parent, child = multiprocessing.Pipe()
            name = f"worker-{ordinal}"
            thread = threading.Thread(
                target=worker_main, args=(child, context, ordinal), name=name
            )
            thread.start()
            process = SimpleNamespace(pid=None, is_alive=lambda: True)
            conn = LoggedConn(parent, self.log)
            self.handles.append(WorkerHandle(process, conn, name, ordinal))
            self.threads.append(thread)

    def sent_files(self) -> list:
        return [f for kind, m in self.log if kind == "send" for f in m["files"]]

    def stored_images(self) -> list:
        return [s for kind, m in self.log if kind == "recv" for s in m["stores"]]

    def stop(self) -> None:
        for handle in self.handles:
            handle.conn.send(None)
        for thread in self.threads:
            thread.join(timeout=10)


class PipeRunner(HadoopSimulator):
    """Runs each job on the next worker of a :class:`ThreadWorkers`,
    round robin, through :meth:`ProcessWorkerPool.run`."""

    def __init__(self, server, workers: ThreadWorkers):
        super().__init__(server.dfs, server.cluster, server.cost_model)
        self.workers = workers
        self.turn = 0

    def run_job(self, job):
        handles = self.workers.handles
        handle = handles[self.turn % len(handles)]
        self.turn += 1
        return self.workers.pool.run(handle, job, self.dfs, None)


@pytest.fixture
def piped(monkeypatch):
    """``piped(n, **session_kwargs)``: a session over data/pv whose jobs
    run on *n* thread workers; every one is stopped at teardown."""
    started = []

    def build(n: int = 1, data: str = PV, **kwargs):
        dfs = DistributedFileSystem()
        dfs.write_file("data/pv", data)
        session = ReStoreSession(dfs=dfs, **kwargs)
        workers = ThreadWorkers(n, session.server, monkeypatch)
        started.append(workers)
        session.server.runner = PipeRunner(session.server, workers)
        return session, workers

    yield build
    for workers in started:
        workers.stop()


def serial_outputs(script: str, data: str = PV, **kwargs) -> dict:
    dfs = DistributedFileSystem()
    dfs.write_file("data/pv", data)
    return ReStoreSession(dfs=dfs, **kwargs).run(script).outputs


class TestImages:
    """``export_file`` / ``import_file`` between two filesystems."""

    def typed_file(self) -> DistributedFileSystem:
        dfs = DistributedFileSystem()
        dfs.write_rows("f", ROWS, SCHEMA)
        return dfs

    def test_a_typed_file_ships_as_its_rows(self, counted):
        src, dst = self.typed_file(), DistributedFileSystem()
        image = src.export_file("f")
        assert isinstance(image, RowsImage)
        assert image.size == src.file_size("f")
        status = dst.import_file("f", image)
        assert status.size == image.size
        assert counted["pickle", "MainThread"] == 1
        assert not counted["render", "MainThread"] + counted["parse", "MainThread"]
        (dataset,) = dst.namenode.lookup("f").datasets.values()
        assert dataset.exact and dataset._rows is None, "held as its pickle"
        assert dst.read_rows("f", SCHEMA) == tuple(ROWS)
        assert counted["unpickle", "MainThread"] == 1
        assert not counted["parse", "MainThread"]
        assert dst.read_file("f") == src.read_file("f")
        assert counted["render", "MainThread"] == 2  # one per side, on demand

    def test_a_forwarded_image_is_the_pickle_received(self, counted):
        first, second = DistributedFileSystem(), DistributedFileSystem()
        image = self.typed_file().export_file("f")
        first.import_file("f", image)
        again = first.export_file("f")
        assert isinstance(again, RowsImage) and again.pickled is image.pickled
        second.import_file("f", again)
        assert counted["pickle", "MainThread"] == 1
        assert not counted["unpickle", "MainThread"]
        assert second.read_rows("f", SCHEMA) == tuple(ROWS)

    def test_counters_move_as_read_file_and_write_file(self):
        typed, text = self.typed_file(), self.typed_file()
        src_read, text_read = typed.bytes_read, text.bytes_read
        image, data = typed.export_file("f"), text.read_file("f")
        assert typed.bytes_read - src_read == text.bytes_read - text_read == len(data)
        by_image, by_text = DistributedFileSystem(), DistributedFileSystem()
        by_image.import_file("f", image)
        by_text.write_file("f", data, overwrite=True)
        assert by_image.bytes_written == by_text.bytes_written == len(data)
        assert by_image.stat("f").size == by_text.stat("f").size

    @pytest.mark.parametrize(
        "kind", ["raw-input", "non-ascii", "non-canonical", "appended"]
    )
    def test_other_files_ship_as_text(self, kind):
        dfs = DistributedFileSystem()
        if kind == "raw-input":
            dfs.write_file("f", "x\t1\t0.5\n")
        elif kind == "non-ascii":
            dfs.write_rows("f", [("zoë", 1, 0.5)], SCHEMA)
        elif kind == "non-canonical":
            dfs.write_rows("f", [("x", 1, 2)], SCHEMA)  # an int as a double
        else:
            dfs.write_rows("f", ROWS, SCHEMA)
            dfs.append("f", "y\t2\t1.0\n")
        image = dfs.export_file("f")
        assert isinstance(image, bytes) and image == dfs.read_file("f")
        other = DistributedFileSystem()
        other.import_file("f", image)
        assert other.read_file("f") == image

    def test_the_pickle_lives_and_dies_with_the_dataset(self):
        dfs = self.typed_file()
        inode = dfs.namenode.lookup("f")
        (dataset,) = inode.datasets.values()
        pickled = dfs.export_file("f").pickled
        assert dataset.pickled() is pickled, "kept, not made again"
        dfs.append("f", "z\t3\t0.25\n")
        assert not inode.datasets
        assert isinstance(dfs.export_file("f"), bytes)

    def test_an_imported_file_records_no_crc(self):
        dfs = DistributedFileSystem()
        dfs.import_file("f", self.typed_file().export_file("f"))
        assert dfs.input_extent("f", with_crc=True).crc is None
        dfs.read_file("f")  # rendered now: the checksum is cheap again
        assert dfs.input_extent("f", with_crc=True).crc is not None

    @pytest.mark.parametrize("typed", [True, False], ids=["rows", "text"])
    def test_the_dfs_read_fault_site_fires_on_an_export(self, typed):
        dfs = self.typed_file()
        if not typed:
            dfs.write_file("f", "x\t1\t0.5\n", overwrite=True)
        before = dfs.bytes_read
        rule = FaultRule("dfs.read", "raise", hits=(1,))
        faults.install(FaultInjector(FaultPlan(rules=(rule,))))
        with pytest.raises(InjectedFault):
            dfs.export_file("f")
        assert dfs.bytes_read == before


class TestPipeExchange:
    """``worker_main`` over a real pipe, on threads."""

    def test_a_typed_file_is_never_rendered_or_parsed(self, piped, counted):
        session, workers = piped(1)
        result = session.run(GROUP_ORDER)
        assert result.stats.n_jobs_executed >= 2
        assert any(type(v) is Bag for row in result.outputs["out/sorted"] for v in row)
        stores = workers.stored_images()
        assert stores and all(isinstance(image, RowsImage) for _, image in stores)
        ((path, image),) = workers.sent_files()
        assert path == "data/pv" and isinstance(image, bytes)
        # the raw input is parsed once, on the worker; nothing else is
        # rendered or parsed anywhere
        assert side(counted, "parse", coordinator=False) == 1
        assert side(counted, "parse", coordinator=True) == 0
        assert side(counted, "render", coordinator=False) == 0
        assert side(counted, "render", coordinator=True) == 0
        # the coordinator unpickles what it collects, and nothing else
        assert side(counted, "unpickle", coordinator=True) == 1
        assert side(counted, "pickle", coordinator=True) == 0
        assert result.outputs == serial_outputs(GROUP_ORDER)

    def test_a_forwarded_sub_job_output_is_never_unpickled_here(
        self, piped, counted
    ):
        session, workers = piped(2)
        session.run(FILTER + "C = group B by user; store C into 'out/g';")
        reuse = session.run(FILTER + "C = foreach B generate user; store C into 'o';")
        assert reuse.stats.n_jobs_executed == 1
        (second,) = [m for kind, m in workers.log if kind == "send"][1:]
        shipped = dict(second["files"])
        forwarded = [p for p in shipped if p.startswith("restore/subjob/")]
        assert forwarded, "the second worker reads the first one's sub-job output"
        (path,) = forwarded
        assert isinstance(shipped[path], RowsImage)
        (dataset,) = session.dfs.namenode.lookup(path).datasets.values()
        assert dataset._rows is None, "the coordinator never unpickled it"
        stored = dict(workers.stored_images())[path]
        assert shipped[path].pickled == stored.pickled
        assert side(counted, "pickle", coordinator=True) == 0
        assert side(counted, "parse", coordinator=False) == 1  # data/pv, once
        assert side(counted, "render", coordinator=False) == 0
        assert reuse.outputs == serial_outputs(
            FILTER + "C = foreach B generate user; store C into 'o';"
        )

    @pytest.mark.parametrize(
        "script, data",
        [
            pytest.param(
                FILTER + "store B into 'out/u';",
                PV.replace("bob", "zoë"),
                id="non-ascii",
            ),
            pytest.param(
                LOAD + "B = foreach A generate user, ''; store B into 'out/u';",
                PV,
                id="non-canonical",
            ),
        ],
    )
    def test_a_rendered_store_crosses_as_text(self, piped, counted, script, data):
        config = ReStoreConfig(heuristic="never", register_whole_jobs="none")
        session, workers = piped(1, data=data, config=config)
        result = session.run(script)
        assert result.outputs == serial_outputs(script, data=data, config=config)
        images = dict(workers.stored_images())
        assert isinstance(images["out/u"], bytes)
        assert images["out/u"] == session.dfs.read_file("out/u")
        assert side(counted, "render", coordinator=False) >= 1

    def test_counters_equal_a_text_exchange(self, piped, monkeypatch):
        script = GROUP_ORDER + "F = filter A by action == 1; store F into 'out/f';"
        runs = []
        for text in (False, True):
            if text:
                monkeypatch.setattr(
                    DistributedFileSystem,
                    "export_file",
                    DistributedFileSystem.read_file,
                )
            session, workers = piped(1)
            result = session.run(script)
            images = [image for _, image in workers.stored_images()]
            assert images and all(isinstance(i, bytes) == text for i in images)
            dfs = session.dfs
            (worker,) = workers.dfs.values()
            stats = [
                (job.job_id, job.load_bytes, [vars(store) for store in job.stores])
                for job in result.stats.job_stats.values()
            ]
            runs.append(
                (
                    result.outputs,
                    stats,
                    result.stats.sim_seconds,
                    (dfs.bytes_read, dfs.bytes_written),
                    (worker.bytes_read, worker.bytes_written),
                )
            )
        assert runs[0] == runs[1]

    def test_a_dfs_read_fault_stops_the_shipping(self, piped):
        session, workers = piped(1)
        rule = FaultRule("dfs.read", "raise", hits=(1,))
        faults.install(FaultInjector(FaultPlan(rules=(rule,))))
        with pytest.raises(InjectedFault):
            session.run(GROUP_ORDER)
        assert not [m for kind, m in workers.log if kind == "send"]


class TestWorkersForgetDeletedPaths:
    def test_no_synced_path_outlives_its_coordinator_file(self, monkeypatch):
        """An eviction stream: after one more exchange no worker map
        names a path the coordinator deleted, and an evicted output
        (not only temps) was among those dropped."""
        dfs = DistributedFileSystem()
        dfs.write_file("data/pv", PV)
        service = JobService(
            dfs=dfs,
            executor="processes",
            max_workers=1,
            config=ReStoreConfig(eviction_policies=["time-window:2"]),
        )
        (handle,) = service._pool._idle
        log: list = []
        monkeypatch.setattr(handle, "conn", LoggedConn(handle.conn, log))
        tenant = service.open_session("t")
        tails = [
            "D = group B by user; C = foreach D generate group, COUNT(B);",
            "C = foreach B generate user, revenue * 2;",
            "C = order B by revenue;",
        ]
        try:
            for i in range(12):
                head = LOAD + f"B = filter A by revenue > 0.{i:02d};"
                tenant.run(head + tails[i % len(tails)] + f"store C into 'out/{i}';")
            tenant.run(LOAD + "store A into 'out/last';")
        finally:
            service.shutdown()
        dropped = {p for kind, m in log if kind == "send" and m for p in m["drop"]}
        assert any(p.startswith("restore/") for p in dropped), dropped
        assert handle.synced
        assert all(service.dfs.exists(path) for path in handle.synced)
        assert not any(service.dfs.exists(path) for path in handle.drop)
