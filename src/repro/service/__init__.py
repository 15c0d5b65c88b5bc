"""The serving layer: an in-process batch simulation service.

The paper amortizes fusion, conversion, and launch overhead by batching
many inputs through one compiled circuit *within* a single ``run()``
call; this package moves that opportunity up a layer.  Independently
submitted jobs that share a circuit structure (the same
:func:`~repro.ell.persist.plan_fingerprint`) are coalesced into one BQCS
mega-batch and executed by a single simulator call — the inverse of the
one-process-per-input Qiskit Aer baseline the paper beats.

The parts, one per module:

* :mod:`repro.service.jobs` — the job model and its strict
  ``PENDING → QUEUED → COALESCED → RUNNING →
  DONE/FAILED/CANCELLED/QUARANTINED`` lifecycle (including the
  ``RUNNING → QUEUED`` at-least-once redelivery edge), with durable
  content-addressed ids;
* :mod:`repro.service.queue` — bounded admission with typed
  :class:`~repro.errors.AdmissionError` backpressure;
* :mod:`repro.service.scheduler` — weighted-fair priority aging (no
  starvation) with a bounded earliest-deadline-first urgent lane;
* :mod:`repro.service.coalesce` — plan-fingerprint grouping, mega-batch
  packing under the device memory budget, bit-identical scatter;
* :mod:`repro.service.workers` — the service orchestrator: one dispatch
  loop and one finalize for both execution modes, plus redelivery,
  quarantine and cancellation policy;
* :mod:`repro.service.pool` — the two executors of one task protocol
  (per-mega-batch resilience, per-job-isolation degradation):
  :class:`~repro.service.pool.InlinePool` runs tasks in the serving
  process (``parallelism="none"``), and the spawn-safe, *supervised*
  :class:`~repro.service.pool.ProcessWorkerPool` runs them on N OS
  processes (``parallelism="process"``) with shared-memory state
  shipping from a leak-audited segment set, one shared on-disk plan
  cache with compile-once file locking, and crash/hang supervision
  (dead workers reaped and respawned under a restart budget, overdue
  tasks killed);
* :mod:`repro.service.client` — the synchronous submit/result API and
  the scripted saturation workload behind ``repro serve``.
"""

from .coalesce import CoalescedGroup, Coalescer, column_budget
from .client import ServiceClient, saturation_workload
from .jobs import Job, JobStatus, TERMINAL_STATES, make_job
from .pool import (
    DEFAULT_MAX_RESTARTS,
    DEFAULT_SHM_THRESHOLD,
    InlinePool,
    ProcessWorkerPool,
)
from .queue import DEFAULT_MAX_DEPTH, JobQueue
from .scheduler import FairScheduler, SchedulerPolicy
from .workers import DEFAULT_MAX_DELIVERIES, BatchSimulationService

__all__ = [
    "BatchSimulationService",
    "CoalescedGroup",
    "Coalescer",
    "column_budget",
    "DEFAULT_MAX_DELIVERIES",
    "DEFAULT_MAX_DEPTH",
    "DEFAULT_MAX_RESTARTS",
    "DEFAULT_SHM_THRESHOLD",
    "FairScheduler",
    "InlinePool",
    "Job",
    "JobQueue",
    "JobStatus",
    "make_job",
    "ProcessWorkerPool",
    "saturation_workload",
    "SchedulerPolicy",
    "ServiceClient",
    "TERMINAL_STATES",
]
