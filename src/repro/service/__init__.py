"""The shared-service deployment of ReStore (§1, Figure 1).

``JobService`` runs many tenants' jobs against one shared repository
on either a thread pool or a spawn-based worker-process pool; every
submission travels as a typed, serializable ``JobRequest`` and comes
back as a ``JobOutcome`` (see :mod:`repro.service.api`).
``WorkloadDriver`` is the load/differential harness that drives job
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
