"""ReStore: reusing results of MapReduce jobs in Pig — reproduction.

A full-system reproduction of Elghandour & Aboulnaga, *ReStore:
Reusing Results of MapReduce Jobs*, PVLDB 5(6) / SIGMOD 2012.

Quick start::

    from repro import ReStoreSession

    with ReStoreSession() as session:
        session.write_file("data/users", "alice\\t1\\nbob\\t2\\n")
        result = session.run(
            "A = load 'data/users' as (name, uid:int);"
            "B = filter A by uid > 1; store B into 'out';"
        )
        print(result.outputs["out"])

The session wires the whole stack (simulated DFS, cluster, one shared
cost model, repository, ReStore manager, Pig server) and publishes
every reuse decision as typed events on ``session.events``.  The
pre-session entry points (``PigServer``, ``ReStoreManager``) remain
available for piecewise wiring.

See README.md for the architecture; ``python -m repro experiment <name>``
prints a figure's paper-vs-measured table, and ``bench_e2e/README.md``
("Paper ratios") holds the measured wall-time ratios.
"""

from repro.core.manager import ReStoreConfig, ReStoreManager
from repro.core.repository import Repository, RepositoryEntry
from repro.costmodel.model import CostModel
from repro.dfs.filesystem import DistributedFileSystem
from repro.events import (
    EntryEvicted,
    EventBus,
    JobEliminated,
    MatchScanned,
    ReStoreEvent,
    RewriteApplied,
    SubJobDiscarded,
    SubJobStored,
)
from repro.mapreduce.cluster import ClusterConfig
from repro.mapreduce.runner import HadoopSimulator
from repro.pig.engine import PigRunResult, PigServer
from repro.service import JobService, ServiceSession, WorkloadDriver
from repro.session import ReStoreSession, SessionBuilder

__version__ = "1.1.0"

__all__ = [
    "ClusterConfig",
    "CostModel",
    "DistributedFileSystem",
    "EntryEvicted",
    "EventBus",
    "HadoopSimulator",
    "JobEliminated",
    "JobService",
    "MatchScanned",
    "PigRunResult",
    "PigServer",
    "Repository",
    "RepositoryEntry",
    "ReStoreConfig",
    "ReStoreEvent",
    "ReStoreManager",
    "ReStoreSession",
    "RewriteApplied",
    "ServiceSession",
    "SessionBuilder",
    "SubJobDiscarded",
    "WorkloadDriver",
    "SubJobStored",
    "__version__",
]
