"""ReStoreSession: the one-object facade over the whole stack.

The paper's system is one coherent pipeline — Pig compiler, Hadoop
executor, and the ReStore manager wired into the job-submission loop
(§6) — and this module makes the public API match: one session owns
the simulated DFS, the cluster description, **one shared**
:class:`~repro.costmodel.model.CostModel`, the repository, the
manager, and the Pig server, all wired consistently.

Quick start::

    from repro import ReStoreSession

    with ReStoreSession() as session:
        session.write_file("data/users", "alice\\t1\\nbob\\t2\\n")
        result = session.run(
            "A = load 'data/users' as (name, uid:int);"
            "B = filter A by uid > 1; store B into 'out';"
        )
        print(result.outputs["out"])

Every run returns the engine's :class:`~repro.pig.engine.PigRunResult`,
and the caller owns it: the session keeps only run totals for
:meth:`~ReStoreSession.report`.  A :class:`~repro.service.JobService`
tenant is such a session, and its submissions are calls to
:meth:`~ReStoreSession.run` / :meth:`~ReStoreSession.run_workflow`.

ReStore's policies are a :class:`~repro.core.manager.ReStoreConfig` of
names (``ReStoreSession(config=ReStoreConfig(heuristic="conservative"))``),
or the same settings through the fluent :meth:`ReStoreSession.builder`.
The constructor validates every combination of arguments.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Optional

from repro.core.manager import (
    MatchPipelineTotals,
    ReStoreConfig,
    ReStoreManager,
)
from repro.core.repository import Repository
from repro.costmodel.model import CostModel
from repro.dfs.filesystem import DistributedFileSystem
from repro.events import EventBus
from repro.mapreduce.cluster import ClusterConfig
from repro.persistence.durability import (
    PersistenceConfig,
    RepositoryPersister,
    adopt_recovered,
    recover,
)
from repro.pig.engine import PigRunResult, PigServer


class ReStoreSession:
    """Owns and wires DFS + cluster + cost model + repository +
    manager + server; exposes ``run`` / ``explain`` / ``report``.

    The session guarantees the single-cost-model invariant: the
    manager's standalone-time estimates, the selector's Rule-2 checks,
    and the Hadoop simulator all consult the *same* ``CostModel``
    instance, so repository statistics can never disagree with the
    simulated execution they describe.
    """

    def __init__(
        self,
        dfs: Optional[DistributedFileSystem] = None,
        *,
        cluster: Optional[ClusterConfig] = None,
        cost_model: Optional[CostModel] = None,
        repository: Optional[Repository] = None,
        config: Optional[ReStoreConfig] = None,
        manager: Optional[ReStoreManager] = None,
        persistence: Optional[PersistenceConfig] = None,
        restore_enabled: bool = True,
        session_id: str = "",
    ):
        #: tenant identity for multi-session deployments.  When several
        #: sessions share one manager (e.g. under a JobService), each
        #: session's runs execute inside ``manager.session_scope`` so
        #: its events are stamped and drained without cross-talk.  The
        #: default "" keeps single-session behaviour unchanged.
        self.session_id = session_id
        self.cluster = cluster or ClusterConfig()
        if manager is not None:
            # Adopt a pre-built manager (e.g. restored from persisted
            # state): inherit its DFS and cost model, and reject
            # arguments the adoption would silently override.
            if repository is not None or config is not None:
                raise ValueError(
                    "manager= already carries a repository and config; "
                    "pass either a manager or repository=/config=, not both"
                )
            if dfs is not None and dfs is not manager.dfs:
                raise ValueError(
                    "dfs= differs from manager.dfs; the session and its "
                    "manager must share one filesystem"
                )
            if not restore_enabled:
                raise ValueError(
                    "manager= turns ReStore on; don't also pass "
                    "restore_enabled=False"
                )
            dfs = manager.dfs
        if dfs is None:
            dfs = DistributedFileSystem()
        self.dfs = dfs
        #: the attached RepositoryPersister when persistence= is given
        self.persister: Optional[RepositoryPersister] = None
        recovered = None
        if persistence is not None:
            if manager is not None:
                raise ValueError(
                    "persistence= builds its own durable manager state; "
                    "attach a RepositoryPersister to the manager directly "
                    "instead of passing both"
                )
            if repository is not None:
                raise ValueError(
                    "persistence= recovers its own repository from the "
                    "snapshot/journal; don't also pass repository="
                )
            if not restore_enabled:
                raise ValueError("persistence= requires restore_enabled=True")
            # recover before the manager exists: the restored
            # repository becomes the manager's repository, and the id
            # floors land in the DFS before any job allocates
            recovered = recover(persistence, self.dfs)
            repository = recovered.repository
        if manager is not None:
            self.cost_model = cost_model or manager.cost_model
            self.config = manager.config
            self.manager: Optional[ReStoreManager] = manager
        else:
            self.cost_model = cost_model or CostModel(cluster=self.cluster)
            self.config = config or ReStoreConfig()
            self.manager = (
                ReStoreManager(
                    self.dfs,
                    cost_model=self.cost_model,
                    repository=repository,
                    config=self.config,
                )
                if restore_enabled
                else None
            )
        if recovered is not None:
            self.persister = adopt_recovered(self.manager, recovered, persistence)
        self.server = PigServer(
            self.dfs,
            cluster=self.cluster,
            cost_model=self.cost_model,
            restore=self.manager,
        )
        self._events = self.manager.events if self.manager else EventBus()
        self._closed = False
        #: run totals for :meth:`report`; the results themselves belong
        #: to the caller, so the session keeps none of them alive
        self._totals_lock = threading.Lock()
        self.runs = 0
        self.jobs_executed = 0
        self.jobs_eliminated = 0
        self.sim_seconds = 0.0

    # -- construction helpers ---------------------------------------------------

    @classmethod
    def builder(cls) -> "SessionBuilder":
        return SessionBuilder()

    # -- component access --------------------------------------------------------

    @property
    def events(self) -> EventBus:
        """The manager's typed event bus (an inert bus when ReStore is
        disabled, so subscriptions never need guarding)."""
        return self._events

    @property
    def repository(self) -> Optional[Repository]:
        return self.manager.repository if self.manager else None

    @property
    def match_stats(self) -> Optional["MatchPipelineTotals"]:
        """Cumulative match-pipeline telemetry (candidates pruned,
        membership checks run, whole-job hits the exact index served); None
        when ReStore is disabled.  Per-job figures stream live as
        :class:`repro.events.MatchScanned` events on :attr:`events`."""
        return self.manager.match_totals if self.manager else None

    @property
    def restore_enabled(self) -> bool:
        return self.manager is not None

    # -- lifecycle ----------------------------------------------------------------

    def __enter__(self) -> "ReStoreSession":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """End the session.  Subsequent ``run``/``explain`` calls
        raise; the DFS and repository objects stay readable so state
        can be inspected or persisted after closing.  A durable
        session flushes its journal and detaches the persister."""
        if self.persister is not None:
            self.persister.close()
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("session is closed")

    # -- operations ----------------------------------------------------------------

    def write_file(self, path: str, payload, overwrite: bool = True) -> None:
        """Load data into the session's DFS (convenience passthrough)."""
        self._check_open()
        self.dfs.write_file(path, payload, overwrite=overwrite)

    @contextmanager
    def _scope(self):
        if self.manager is not None:
            with self.manager.session_scope(self.session_id):
                yield
        else:
            yield

    def run(self, source: str, name: str = "") -> PigRunResult:
        """Compile and execute a Pig Latin script.  A
        :class:`~repro.service.JobService` tenant's submissions run
        here too, on either executor."""
        self._check_open()
        with self._scope():
            result = self.server.run(source, name=name)
        return self._count(result)

    def run_workflow(self, workflow) -> PigRunResult:
        """Execute a pre-compiled workflow (service/benchmark path)."""
        self._check_open()
        with self._scope():
            result = self.server.run_workflow(workflow)
        return self._count(result)

    def _count(self, result: PigRunResult) -> PigRunResult:
        with self._totals_lock:  # runs may overlap on several threads
            self.runs += 1
            self.jobs_executed += result.stats.n_jobs_executed
            self.jobs_eliminated += len(result.stats.eliminated_jobs)
            self.sim_seconds += result.sim_seconds
        return result

    def explain(self, source: str) -> str:
        """Render the compiled workflow like Pig's EXPLAIN."""
        self._check_open()
        return self.server.explain(source)

    def report(self) -> str:
        """Human-readable session summary: runs, repository inventory,
        and manager counters."""
        from repro.reporting import session_report

        return session_report(self)

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        entries = len(self.repository) if self.repository is not None else 0
        return (
            f"ReStoreSession({state}, runs={self.runs}, "
            f"restore={'on' if self.manager else 'off'}, entries={entries})"
        )


class SessionBuilder:
    """Fluent construction of a :class:`ReStoreSession`::

        session = (ReStoreSession.builder()
                   .heuristic("conservative")
                   .selector("rules")
                   .evict("time-window:4", "input-modified")
                   .build())

    Each setter records one constructor argument (the four policy
    setters one :class:`ReStoreConfig` field); ``build()`` hands them
    to :class:`ReStoreSession`, which validates them.
    """

    def __init__(self):
        self._kwargs: dict = {}
        self._config: dict = {}

    def _set(self, **kwargs) -> "SessionBuilder":
        self._kwargs.update(kwargs)
        return self

    # -- infrastructure ---------------------------------------------------------

    def dfs(self, dfs: DistributedFileSystem) -> "SessionBuilder":
        return self._set(dfs=dfs)

    def cluster(self, cluster: ClusterConfig) -> "SessionBuilder":
        return self._set(cluster=cluster)

    def cost_model(self, cost_model: CostModel) -> "SessionBuilder":
        return self._set(cost_model=cost_model)

    def repository(self, repository: Repository) -> "SessionBuilder":
        return self._set(repository=repository)

    def manager(self, manager: ReStoreManager) -> "SessionBuilder":
        """Adopt a pre-built manager (e.g. a JobService's): the session
        inherits its DFS, cost model, repository, and config."""
        return self._set(manager=manager)

    def persistence(self, config: PersistenceConfig) -> "SessionBuilder":
        """Make the repository durable: recover from the configured
        snapshot/journal at build time and journal every mutation."""
        return self._set(persistence=config)

    def session_id(self, session_id: str) -> "SessionBuilder":
        """Name this session for multi-tenant event isolation."""
        return self._set(session_id=session_id)

    def without_restore(self) -> "SessionBuilder":
        return self._set(restore_enabled=False)

    # -- ReStore policies (ReStoreConfig fields) ----------------------------------

    def heuristic(self, name: str) -> "SessionBuilder":
        self._config["heuristic"] = name
        return self

    def selector(self, name: str) -> "SessionBuilder":
        self._config["selector"] = name
        return self

    def register_whole_jobs(self, policy: str) -> "SessionBuilder":
        self._config["register_whole_jobs"] = policy
        return self

    def evict(self, *specs: str) -> "SessionBuilder":
        self._config.setdefault("eviction_policies", []).extend(specs)
        return self

    # -- terminal ----------------------------------------------------------------

    def build(self) -> ReStoreSession:
        kwargs = dict(self._kwargs)
        if self._config:
            kwargs["config"] = ReStoreConfig(**self._config)
        return ReStoreSession(**kwargs)
