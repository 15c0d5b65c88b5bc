"""Shard failover: rescuing queued work off a dead service.

When a :class:`~repro.service.workers.BatchSimulationService` running in
process mode spends its restart budget, its next step would terminal-fail
the queued backlog (``no live pool workers``) — correct for a standalone
service, wasteful for a gateway fleet where sibling shards are healthy.
:func:`rescue_queued` is the policy the shard router applies *before*
that happens: it cancels every still-queued job on the dead shard
(accounted — the lifecycle log shows a clean ``cancelled`` exit, not a
lost job) and returns the respecification each job needs to be
resubmitted elsewhere, with its delivery evidence carried along.

In-flight jobs are deliberately left alone: the service's own
crash-redelivery machinery (PR 8) already owns them — they will be
redelivered, quarantined, or failed by the shard that dispatched them,
and only *then* does the queue rescue pick up whatever was requeued.

Every rescue appends one ``shard_failover`` record to the resilience
event log, so operators can correlate a latency blip with the shard that
died under it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .events import get_resilience_log


def shard_is_dead(service) -> bool:
    """True when ``service`` can never run another mega-batch.

    A service is dead once its executor has zero live workers (a process
    pool's restart budget is spent) and nothing is in flight that could
    still land.  The in-process executor always reports its workers
    alive, so a serial service is never dead.  A service with no
    executor yet (nothing dispatched) is alive: it is built on first use.
    """
    pool = service._pool
    if pool is None:
        return False
    return pool.alive_workers == 0 and not service._inflight


@dataclass
class RescuedJob:
    """Everything needed to resubmit one rescued job on another shard.

    ``batch`` carries the exact input amplitudes (bit-identical replay);
    ``evidence`` is the crash history the job accumulated on its dead
    home shard, so a job that kept killing workers arrives at its new
    shard with its delivery record intact for quarantine accounting.
    """

    job_id: str
    circuit: object
    batch: object
    priority: int = 0
    deadline: float | None = None
    timeout_s: float | None = None
    max_deliveries: int | None = None
    options: tuple = ()
    #: requested fidelity budget — preserved across failover so the job
    #: re-homes into the same fidelity class it was submitted under
    fidelity: float = 1.0
    evidence: list = field(default_factory=list)


def rescue_queued(service, shard: str = "") -> list[RescuedJob]:
    """Cancel every queued job on a dead shard; return their respecs.

    The caller (the gateway's shard router) resubmits each
    :class:`RescuedJob` on a surviving shard.  Jobs already in flight or
    terminal are untouched.  Emits one ``shard_failover`` resilience
    record naming the shard and the rescue count.  Returns ``[]`` when
    nothing was queued — safe to call repeatedly.
    """
    rescued: list[RescuedJob] = []
    for job in list(service.queue.jobs()):
        service.queue.cancel(job.job_id)
        rescued.append(
            RescuedJob(
                job_id=job.job_id,
                circuit=job.circuit,
                batch=job.batch,
                priority=job.priority,
                deadline=job.deadline,
                timeout_s=job.timeout_s,
                max_deliveries=job.max_deliveries,
                options=job.options,
                fidelity=job.fidelity,
                evidence=list(job.evidence),
            )
        )
    if rescued:
        get_resilience_log().record(
            "shard_failover",
            site="gateway",
            shard=shard,
            rescued=len(rescued),
            jobs=[r.job_id for r in rescued],
        )
    return rescued
