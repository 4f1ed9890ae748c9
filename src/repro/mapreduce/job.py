"""MapReduce jobs: a physical plan plus execution configuration.

A :class:`MapReduceJob` is the unit the paper's ReStore operates on —
"each job is represented by its physical plan" (§6.1).  The plan runs
from POLoad sources to POStore sinks and contains at most one shuffle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.exceptions import PlanError
from repro.pig.physical.operators import POLoad, POStore
from repro.pig.physical.plan import PhysicalPlan

_JOB_COUNTER = itertools.count(1)


@dataclass
class JobConf:
    """Per-job execution knobs (mirrors Hadoop's JobConf)."""

    name: str = ""
    #: reducers requested: the paper cluster's 14 nodes x 2 reduce
    #: slots.  The parser drops a statement's ``PARALLEL n``, so every
    #: compiled job asks for this.
    n_reducers: int = 28


class MapReduceJob:
    """One MapReduce job in a workflow."""

    def __init__(
        self,
        plan: PhysicalPlan,
        conf: Optional[JobConf] = None,
        output_path: Optional[str] = None,
        temporary: bool = False,
        job_id: Optional[str] = None,
    ):
        self.job_id = job_id or f"job_{next(_JOB_COUNTER):06d}"
        self.plan = plan
        self.conf = conf or JobConf(name=self.job_id)
        self._output_path = output_path
        #: True when the primary output is a workflow-internal temp file
        #: (deleted after the workflow in stock Pig; kept by ReStore)
        self.temporary = temporary
        #: Filled by ReStore when the whole job was answered from the
        #: repository and therefore never runs.
        self.eliminated_by: Optional[str] = None

    # -- plan accessors -----------------------------------------------------------

    @property
    def output_path(self) -> str:
        if self._output_path is not None:
            return self._output_path
        store = self.plan.primary_store()
        return store.path if store is not None else ""

    @property
    def load_paths(self) -> List[str]:
        return [op.path for op in self.plan.loads()]

    @property
    def store_paths(self) -> List[str]:
        return [op.path for op in self.plan.stores()]

    @property
    def has_shuffle(self) -> bool:
        return self.plan.global_rearrange() is not None

    def loads(self) -> List[POLoad]:
        return self.plan.loads()

    def stores(self) -> List[POStore]:
        return self.plan.stores()

    def validate(self) -> None:
        self.plan.validate()

    # -- serialization ------------------------------------------------------------

    def to_dict(self) -> dict:
        """Wire form of this job: the snapshot codec's plan JSON plus
        execution configuration — what a process-mode worker receives
        (:mod:`repro.service.procpool`).  ``from_dict`` rebuilds a job
        whose plan fingerprint is identical to the original's."""
        data = {
            "job_id": self.job_id,
            "plan": self.plan.to_dict(),
            "conf": {"name": self.conf.name, "n_reducers": self.conf.n_reducers},
            "temporary": self.temporary,
        }
        if self._output_path is not None:
            data["output_path"] = self._output_path
        if self.eliminated_by is not None:
            data["eliminated_by"] = self.eliminated_by
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "MapReduceJob":
        conf = data.get("conf", {})
        job = cls(
            PhysicalPlan.from_dict(data["plan"]),
            conf=JobConf(
                name=conf.get("name", ""),
                n_reducers=int(conf.get("n_reducers", 28)),
            ),
            output_path=data.get("output_path"),
            temporary=bool(data.get("temporary", False)),
            job_id=data["job_id"],
        )
        job.eliminated_by = data.get("eliminated_by")
        return job

    def __repr__(self) -> str:
        kind = "MR" if self.has_shuffle else "map-only"
        return (
            f"MapReduceJob({self.job_id}, {kind}, ops={len(self.plan)}, "
            f"out={self.output_path!r})"
        )


@dataclass
class Workflow:
    """A DAG of MapReduce jobs linked by produced/consumed DFS paths.

    Dependencies are derived from the data: job B depends on job A when
    B loads a path that A stores (the paper's Figure 1 arrows).
    """

    jobs: List[MapReduceJob] = field(default_factory=list)
    name: str = "workflow"

    def add(self, job: MapReduceJob) -> MapReduceJob:
        self.jobs.append(job)
        return job

    def remove(self, job: MapReduceJob) -> None:
        self.jobs.remove(job)

    def producers(self) -> Dict[str, MapReduceJob]:
        """Map of output path -> producing job."""
        out: Dict[str, MapReduceJob] = {}
        for job in self.jobs:
            for path in job.store_paths:
                out[path] = job
        return out

    def dependencies(
        self,
        job: MapReduceJob,
        producers: Optional[Dict[str, MapReduceJob]] = None,
    ) -> List[MapReduceJob]:
        if producers is None:
            producers = self.producers()
        deps = []
        for path in job.load_paths:
            producer = producers.get(path)
            if producer is not None and producer is not job:
                deps.append(producer)
        return deps

    def dependency_ids(self) -> Dict[str, List[str]]:
        producers = self.producers()
        return {
            job.job_id: [d.job_id for d in self.dependencies(job, producers)]
            for job in self.jobs
        }

    def topo_order(self) -> List[MapReduceJob]:
        """Jobs in dependency order (Kahn); raises :class:`PlanError`
        naming the paths when jobs wait on each other's outputs."""
        producers = self.producers()
        deps = {job: self.dependencies(job, producers) for job in self.jobs}
        remaining = list(self.jobs)
        done: set = set()
        order: List[MapReduceJob] = []
        while remaining:
            progressed = False
            for job in list(remaining):
                if all(d.job_id in done for d in deps[job]):
                    order.append(job)
                    done.add(job.job_id)
                    remaining.remove(job)
                    progressed = True
            if not progressed:
                paths = {
                    path
                    for job in remaining
                    for path in job.load_paths
                    if producers.get(path) in remaining
                }
                raise PlanError(
                    "workflow contains a dependency cycle through "
                    + ", ".join(map(repr, sorted(paths)))
                )
        return order

    def final_jobs(self) -> List[MapReduceJob]:
        """Jobs whose outputs nothing else in the workflow consumes."""
        consumed = {p for job in self.jobs for p in job.load_paths}
        return [
            job
            for job in self.jobs
            if not any(p in consumed for p in job.store_paths)
        ]

    def job_by_id(self, job_id: str) -> MapReduceJob:
        for job in self.jobs:
            if job.job_id == job_id:
                return job
        raise KeyError(job_id)

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self):
        return iter(self.jobs)

    def __repr__(self) -> str:
        return f"Workflow({self.name!r}, jobs={len(self.jobs)})"
