"""The shared-service deployment of ReStore (§1, Figure 1).

``JobService`` runs many tenants' jobs against one shared repository;
every submission runs on the coordinator as a typed ``JobRequest`` and
comes back as a ``JobOutcome`` (see :mod:`repro.service.api`), and its
jobs execute on a thread pool or a spawn-based worker-process pool.
``WorkloadDriver`` is the differential harness that drives job
streams through it.
"""

from repro.service.api import JobOutcome, JobRequest, ServiceConfig
from repro.service.driver import (
    DriverResult,
    WorkloadDriver,
    WorkloadItem,
    decision_log,
)
from repro.service.jobservice import JobService, ServiceSession, ServiceStats
from repro.service.procpool import (
    ProcessWorkerPool,
    WorkerCrashed,
    WorkerJobError,
)

__all__ = [
    "DriverResult",
    "JobOutcome",
    "JobRequest",
    "JobService",
    "ProcessWorkerPool",
    "ServiceConfig",
    "ServiceSession",
    "ServiceStats",
    "WorkloadDriver",
    "WorkloadItem",
    "WorkerCrashed",
    "WorkerJobError",
    "decision_log",
]
