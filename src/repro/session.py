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

Construction alternatives: the fluent :meth:`ReStoreSession.builder`,
or JSON-shaped config via :meth:`ReStoreSession.from_dict` (plugin
names resolve through the heuristic/selector/eviction registries).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Mapping, Optional, Union

from repro.core.eviction import EvictionPolicy
from repro.core.heuristics import Heuristic
from repro.core.manager import (
    MatchPipelineTotals,
    ReStoreConfig,
    ReStoreManager,
)
from repro.core.repository import Repository
from repro.core.selector import Selector
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
        optimize: bool = True,
        default_parallel: int = 28,
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
            optimize=optimize,
            default_parallel=default_parallel,
        )
        self._events = self.manager.events if self.manager else EventBus()
        self._closed = False
        self.results: List[PigRunResult] = []

    # -- construction helpers ---------------------------------------------------

    @classmethod
    def builder(cls) -> "SessionBuilder":
        return SessionBuilder()

    @classmethod
    def from_dict(cls, data: Mapping) -> "ReStoreSession":
        """Build a session from JSON-shaped configuration::

            ReStoreSession.from_dict({
                "default_parallel": 14,
                "restore": {"heuristic": "conservative",
                            "eviction_policies": ["time-window:4"]},
            })

        Top-level keys: ``restore`` (a
        :meth:`ReStoreConfig.from_dict` mapping, or ``False`` to
        disable ReStore), ``optimize``, ``default_parallel``.
        """
        known = {"restore", "optimize", "default_parallel"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown session keys {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        restore = data.get("restore", {})
        if restore is False:
            config, enabled = None, False
        else:
            config, enabled = ReStoreConfig.from_dict(restore or {}), True
        return cls(
            config=config,
            restore_enabled=enabled,
            optimize=data.get("optimize", True),
            default_parallel=data.get("default_parallel", 28),
        )

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
        traversals run, whole-job hits the exact index served); None
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

    def execute(self, request) -> "JobOutcome":
        """Run one typed :class:`~repro.service.api.JobRequest`
        in-process — the single submission surface every ``run`` /
        ``run_workflow`` call (and the thread-mode service) converges
        on.  Returns a :class:`~repro.service.api.JobOutcome`."""
        from repro.service.api import JobOutcome

        self._check_open()
        if request.session_id and request.session_id != self.session_id:
            raise ValueError(
                f"request is addressed to session {request.session_id!r} "
                f"but this session is {self.session_id!r}"
            )
        with self._scope():
            if request.source is not None:
                result = self.server.run(request.source, name=request.name)
            else:
                result = self.server.run_workflow(request.workflow)
        self.results.append(result)
        return JobOutcome.from_result(result, session_id=self.session_id)

    def run(self, source: str, name: str = "") -> PigRunResult:
        """Compile and execute a Pig Latin script."""
        from repro.service.api import JobRequest

        return self.execute(
            JobRequest.from_source(
                source, session_id=self.session_id, name=name
            )
        ).to_result()

    def run_workflow(self, workflow) -> PigRunResult:
        """Execute a pre-compiled workflow (service/benchmark path)."""
        from repro.service.api import JobRequest

        return self.execute(
            JobRequest.from_workflow(workflow, session_id=self.session_id)
        ).to_result()

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
            f"ReStoreSession({state}, runs={len(self.results)}, "
            f"restore={'on' if self.manager else 'off'}, entries={entries})"
        )


class SessionBuilder:
    """Fluent construction of a :class:`ReStoreSession`::

        session = (ReStoreSession.builder()
                   .heuristic("conservative")
                   .selector("rules")
                   .evict("time-window:4", "input-modified")
                   .build())

    Plugin setters accept registry names (resolved at ``build()``, so
    unknown names fail with the full list of valid entries) or
    instances.
    """

    def __init__(self):
        self._dfs: Optional[DistributedFileSystem] = None
        self._cluster: Optional[ClusterConfig] = None
        self._cost_model: Optional[CostModel] = None
        self._repository: Optional[Repository] = None
        self._manager: Optional[ReStoreManager] = None
        self._persistence: Optional[PersistenceConfig] = None
        self._config: Optional[ReStoreConfig] = None
        self._config_kwargs: dict = {}
        self._eviction: List[Union[str, EvictionPolicy]] = []
        self._restore_enabled = True
        self._optimize = True
        self._default_parallel = 28
        self._session_id = ""

    # -- infrastructure ---------------------------------------------------------

    def dfs(self, dfs: DistributedFileSystem) -> "SessionBuilder":
        self._dfs = dfs
        return self

    def cluster(self, cluster: ClusterConfig) -> "SessionBuilder":
        self._cluster = cluster
        return self

    def cost_model(self, cost_model: CostModel) -> "SessionBuilder":
        self._cost_model = cost_model
        return self

    def repository(self, repository: Repository) -> "SessionBuilder":
        self._repository = repository
        return self

    def manager(self, manager: ReStoreManager) -> "SessionBuilder":
        """Adopt a pre-built manager (e.g. a JobService's): the session
        inherits its DFS, cost model, repository, and config."""
        self._manager = manager
        return self

    def persistence(self, config: PersistenceConfig) -> "SessionBuilder":
        """Make the repository durable: recover from the configured
        snapshot/journal at build time and journal every mutation."""
        self._persistence = config
        return self

    def optimizer(self, enabled: bool) -> "SessionBuilder":
        self._optimize = enabled
        return self

    def default_parallel(self, n: int) -> "SessionBuilder":
        self._default_parallel = n
        return self

    def session_id(self, session_id: str) -> "SessionBuilder":
        """Name this session for multi-tenant event isolation."""
        self._session_id = session_id
        return self

    # -- ReStore behaviour -------------------------------------------------------

    def config(self, config: ReStoreConfig) -> "SessionBuilder":
        """Use a complete config (mutually exclusive with the
        per-field setters below)."""
        self._config = config
        return self

    def heuristic(self, heuristic: Union[str, Heuristic]) -> "SessionBuilder":
        self._config_kwargs["heuristic"] = heuristic
        return self

    def selector(self, selector: Union[str, Selector]) -> "SessionBuilder":
        self._config_kwargs["selector"] = selector
        return self

    def evict(
        self, *policies: Union[str, EvictionPolicy]
    ) -> "SessionBuilder":
        self._eviction.extend(policies)
        return self

    def register_whole_jobs(self, policy: str) -> "SessionBuilder":
        self._config_kwargs["register_whole_jobs"] = policy
        return self

    def rewrite(self, enabled: bool) -> "SessionBuilder":
        self._config_kwargs["rewrite_enabled"] = enabled
        return self

    def inject(self, enabled: bool) -> "SessionBuilder":
        self._config_kwargs["inject_enabled"] = enabled
        return self

    def without_restore(self) -> "SessionBuilder":
        self._restore_enabled = False
        return self

    # -- terminal ----------------------------------------------------------------

    def build(self) -> ReStoreSession:
        self._validate()
        config = self._config
        if config is None and (self._config_kwargs or self._eviction):
            kwargs = dict(self._config_kwargs)
            if self._eviction:
                kwargs["eviction_policies"] = list(self._eviction)
            config = ReStoreConfig(**kwargs)
        session = ReStoreSession(
            dfs=self._dfs,
            cluster=self._cluster,
            cost_model=self._cost_model,
            repository=self._repository,
            manager=self._manager,
            config=config,
            persistence=self._persistence,
            restore_enabled=self._restore_enabled,
            optimize=self._optimize,
            default_parallel=self._default_parallel,
            session_id=self._session_id,
        )
        return session

    def _validate(self) -> None:
        """Reject conflicting setter combinations here, at build time,
        with messages naming both offending builder calls."""
        if self._config is not None and (self._config_kwargs or self._eviction):
            raise ValueError(
                "pass either a complete config() or individual "
                "heuristic()/selector()/evict()/... setters, not both"
            )
        if self._persistence is not None:
            if self._repository is not None:
                raise ValueError(
                    "persistence() and repository() conflict: "
                    "persistence() recovers its own repository from the "
                    "snapshot/journal, so a repository() it would "
                    "silently discard is a configuration error — drop "
                    "one of the two calls"
                )
            if self._manager is not None:
                raise ValueError(
                    "persistence() and manager() conflict: the adopted "
                    "manager already owns live repository state; attach "
                    "a RepositoryPersister to that manager directly "
                    "instead of calling persistence()"
                )
            if not self._restore_enabled:
                raise ValueError(
                    "persistence() and without_restore() conflict: a "
                    "durable repository needs the ReStore manager that "
                    "owns it — drop one of the two calls"
                )
        if self._manager is not None:
            if self._repository is not None:
                raise ValueError(
                    "manager() and repository() conflict: the adopted "
                    "manager already carries its repository — drop one "
                    "of the two calls"
                )
            if self._config is not None or self._config_kwargs or self._eviction:
                raise ValueError(
                    "manager() and config()/heuristic()/selector()/"
                    "evict()/... conflict: the adopted manager already "
                    "carries its ReStoreConfig — configure that manager "
                    "instead"
                )
            if self._dfs is not None and self._dfs is not self._manager.dfs:
                raise ValueError(
                    "dfs() and manager() conflict: the dfs() instance "
                    "differs from manager().dfs, and a session must "
                    "share its manager's filesystem — drop the dfs() "
                    "call or pass the manager's own filesystem"
                )
            if not self._restore_enabled:
                raise ValueError(
                    "manager() and without_restore() conflict: adopting "
                    "a manager turns ReStore on — drop one of the two "
                    "calls"
                )
