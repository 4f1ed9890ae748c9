"""The shared-service deployment of ReStore (§1, Figure 1).

``JobService`` runs many tenants' jobs against one shared repository.
A submission is the tenant's own ``ReStoreSession.run`` queued on the
service; it runs on the coordinator and its future holds the engine's
``PigRunResult``, while its jobs execute on a thread pool or a
spawn-based worker-process pool.  ``WorkloadDriver`` is the
differential harness that drives job streams through it.
"""

from repro.service.driver import DriverResult, WorkloadDriver, WorkloadItem
from repro.service.jobservice import JobService, ServiceSession, ServiceStats
from repro.service.procpool import (
    ProcessWorkerPool,
    WorkerCrashed,
    WorkerJobError,
)

__all__ = [
    "DriverResult",
    "JobService",
    "ProcessWorkerPool",
    "ServiceSession",
    "ServiceStats",
    "WorkloadDriver",
    "WorkloadItem",
    "WorkerCrashed",
    "WorkerJobError",
]
