"""Synchronous client API and the scripted saturation workload.

:class:`ServiceClient` is the friendly face of the serving layer: it owns
(or wraps) a :class:`~repro.service.workers.BatchSimulationService` and
exposes the two calls an application needs — :meth:`ServiceClient.submit`
returns a job id immediately, :meth:`ServiceClient.result` drives the
service until that job is terminal and returns its amplitudes.  Because
the service is in-process and synchronous, "waiting" means stepping the
dispatch loop; the scheduling order is still the fair scheduler's, so a
low-priority job's ``result()`` call may well execute other jobs first.

:func:`saturation_workload` is the scripted load generator behind ``repro
serve``: a seeded stream of mixed-priority, mixed-size, partly
deadline-carrying jobs over several circuit families, submitted faster
than they drain so admission control, aging, and coalescing all engage.
"""

from __future__ import annotations

import numpy as np

from ..circuit import Circuit, InputBatch
from ..circuit.generators import make_circuit
from ..errors import AdmissionError, ServiceError
from .jobs import Job, JobStatus
from .workers import BatchSimulationService


class ServiceClient:
    """Blocking submit/result API over an in-process service.

    Owns a fresh :class:`BatchSimulationService` built from
    ``service_kwargs`` (or wraps one passed in).  Typical use::

        with ServiceClient(num_workers=2) as client:
            job_id = client.submit(make_circuit("qft", 5), num_inputs=8)
            amplitudes = client.result(job_id)  # (32, 8) complex matrix
    """

    def __init__(
        self, service: BatchSimulationService | None = None, **service_kwargs
    ) -> None:
        self.service = service or BatchSimulationService(**service_kwargs)

    def close(self) -> None:
        """Release the service's execution resources (process pool)."""
        self.service.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def submit(
        self,
        circuit: Circuit,
        batch: InputBatch | None = None,
        *,
        num_inputs: int = 1,
        priority: int = 0,
        deadline: float | None = None,
        timeout_s: float | None = None,
        max_deliveries: int | None = None,
        options: tuple = (),
        fidelity: float = 1.0,
    ) -> str:
        """Enqueue a job and return its durable id (non-blocking).

        ``timeout_s`` bounds execution once dispatched (process mode: a
        hung worker is killed and the job fails with timeout evidence);
        ``max_deliveries`` overrides the service's redelivery budget;
        ``fidelity`` is the end-to-end fidelity budget in ``(0, 1]``
        (1.0 = exact tier, see docs/approximation.md).
        """
        job = self.service.submit(
            circuit, batch,
            num_inputs=num_inputs, priority=priority,
            deadline=deadline, timeout_s=timeout_s,
            max_deliveries=max_deliveries, options=options,
            fidelity=fidelity,
        )
        return job.job_id

    def status(self, job_id: str) -> JobStatus:
        return self.service.job(job_id).status

    def wait(self, job_id: str, max_rounds: int = 10_000) -> Job:
        """Drive dispatch rounds until the job is terminal; returns it."""
        job = self.service.job(job_id)
        rounds = 0
        while not job.is_terminal:
            if rounds >= max_rounds:
                raise ServiceError(
                    f"job {job_id} still {job.status.value} after "
                    f"{max_rounds} dispatch rounds"
                )
            if self.service.step() == 0 and not job.is_terminal:
                raise ServiceError(
                    f"service idle but job {job_id} is {job.status.value}"
                )
            rounds += 1
        return job

    def result(self, job_id: str) -> np.ndarray:
        """Block (drive the service) until done; the job's amplitudes.

        Delivers the job (:meth:`BatchSimulationService.deliver`), so it
        stays addressable only inside the service's re-fetch window.
        Raises :class:`ServiceError` when the job failed or was cancelled,
        carrying the per-job error message.
        """
        job = self.wait(job_id)
        if self.service.deliver(job_id) is JobStatus.DONE:
            return job.result
        raise ServiceError(
            f"job {job_id} finished {job.status.value}"
            + (f": {job.error}" if job.error else "")
        )

    def cancel(self, job_id: str) -> Job:
        """Cancel a job (see :meth:`BatchSimulationService.cancel`).

        Queued jobs return CANCELLED immediately; an in-flight job comes
        back still RUNNING with ``cancel_requested`` set and transitions
        to CANCELLED when its mega-batch lands — no
        :class:`~repro.errors.JobNotCancellable` leaks to callers of this
        wrapper (going straight at :meth:`JobQueue.cancel` does raise
        it).  Unknown or already-terminal ids raise
        :class:`~repro.errors.ServiceError`.
        """
        return self.service.cancel(job_id)

    def stats(self) -> dict:
        return self.service.stats()


def saturation_workload(
    service: BatchSimulationService,
    families: list[str],
    num_qubits: int = 6,
    num_jobs: int = 24,
    seed: int = 0,
    max_inputs: int = 16,
    deadline_fraction: float = 0.2,
    submit_burst: int = 4,
) -> dict:
    """Scripted saturation: seeded mixed-priority load against a service.

    Submits ``num_jobs`` jobs in bursts of ``submit_burst`` — random family,
    random batch size in ``[1, max_inputs]``, priority in ``0..3``, and a
    ``deadline_fraction`` slice carrying tight deadlines — running one
    dispatch round between bursts so submission races execution.  Rejected
    jobs (backpressure) drain one round and retry once; a second rejection
    sheds the job.  Returns the service stats plus workload accounting.
    This is the load the CLI (``repro serve``) and the CI smoke job run.
    Example::

        service = BatchSimulationService(num_workers=2)
        report = saturation_workload(service, ["qft", "ghz"], num_jobs=12)
        workload = report["workload"]
        assert workload["jobs_done"] + workload["jobs_shed"] <= 12
    """
    rng = np.random.default_rng(seed)
    circuits = {
        family: make_circuit(family, num_qubits, seed=seed)
        for family in families
    }
    submitted, shed = [], 0
    for i in range(num_jobs):
        family = families[int(rng.integers(len(families)))]
        inputs = int(rng.integers(1, max_inputs + 1))
        priority = int(rng.integers(0, 4))
        deadline = None
        if rng.random() < deadline_fraction:
            deadline = service.clock() + float(rng.uniform(0.0, 0.1))
        for attempt in (0, 1):
            try:
                job = service.submit(
                    circuits[family],
                    num_inputs=inputs,
                    priority=priority,
                    deadline=deadline,
                )
                submitted.append(job.job_id)
                break
            except AdmissionError:
                if attempt:  # drained once already: shed this job
                    shed += 1
                else:  # backpressure: drain one round, then retry
                    service.step()
        if (i + 1) % submit_burst == 0:
            service.step()
    stats = service.drain()
    done = [service.job(job_id) for job_id in submitted]
    stats["workload"] = {
        "families": sorted(circuits),
        "num_qubits": num_qubits,
        "jobs_requested": num_jobs,
        "jobs_submitted": len(submitted),
        "jobs_shed": shed,
        "jobs_done": sum(1 for j in done if j.status is JobStatus.DONE),
        "jobs_failed": sum(1 for j in done if j.status is JobStatus.FAILED),
        "solo_retries": sum(1 for j in done if j.solo_retry),
        "seed": seed,
    }
    return stats
