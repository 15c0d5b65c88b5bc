"""The job model of the batch simulation service.

A :class:`Job` is one independently submitted unit of work: a circuit, a
batch of input states, and scheduling attributes (priority, deadline,
coalescing options).  Jobs move through a strict lifecycle::

    PENDING -> QUEUED -> COALESCED -> RUNNING -> DONE
                  ^          |           |
                  +----------+-----------+  (requeue / redelivery)
                  |          |           |
                  +----------+-----------+---> FAILED / CANCELLED
                                         |
                                         +---> QUARANTINED

``PENDING`` is the freshly constructed job before admission; ``QUEUED``
means admitted and waiting; ``COALESCED`` means grouped into a mega-batch
awaiting a worker; ``RUNNING`` covers the single simulator call that
executes the group; the four terminal states never transition again.
``RUNNING -> QUEUED`` is the at-least-once *redelivery* edge — a job whose
worker process died is returned to the queue with its ``delivery_count``
intact, and a job that exhausts ``max_deliveries`` is moved to
``QUARANTINED`` (a terminal poison state carrying the per-delivery crash
``evidence``) instead of cycling the fleet forever.
Illegal transitions raise :class:`~repro.errors.ServiceError`, so a bug in
the scheduler or worker pool surfaces as a typed error instead of a job
silently stuck in the wrong state.

Job ids are *durable*: ``job-<seq>-<digest>`` where the digest hashes the
circuit structure and the exact input bytes.  The same submission sequence
against the same service therefore names jobs identically across runs,
which is what lets saturation scripts and tests refer to jobs by id.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ..circuit import Circuit, InputBatch
from ..errors import ServiceError


class JobStatus(str, Enum):
    """Lifecycle states of a service job.

    String-valued so statuses serialize naturally into stats JSON and
    queue-metrics records.  Legal transitions are enforced by
    :meth:`Job.transition`; ``DONE``/``FAILED``/``CANCELLED``/
    ``QUARANTINED`` are terminal (see :data:`TERMINAL_STATES`).
    Example::

        assert JobStatus.DONE.value == "done"
        assert JobStatus.DONE in TERMINAL_STATES
    """

    PENDING = "pending"
    QUEUED = "queued"
    COALESCED = "coalesced"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    QUARANTINED = "quarantined"


#: states a job never leaves
TERMINAL_STATES = frozenset(
    {JobStatus.DONE, JobStatus.FAILED, JobStatus.CANCELLED,
     JobStatus.QUARANTINED}
)

#: legal lifecycle edges (see the module docstring diagram);
#: RUNNING -> QUEUED is redelivery after a worker death, RUNNING ->
#: CANCELLED is an honoured in-flight cancel, RUNNING/QUEUED ->
#: QUARANTINED is the poison exit after ``max_deliveries`` crashes
_TRANSITIONS: dict[JobStatus, frozenset[JobStatus]] = {
    JobStatus.PENDING: frozenset(
        {JobStatus.QUEUED, JobStatus.FAILED, JobStatus.CANCELLED}
    ),
    JobStatus.QUEUED: frozenset(
        {JobStatus.COALESCED, JobStatus.RUNNING, JobStatus.FAILED,
         JobStatus.CANCELLED, JobStatus.QUARANTINED}
    ),
    JobStatus.COALESCED: frozenset(
        {JobStatus.RUNNING, JobStatus.QUEUED, JobStatus.FAILED,
         JobStatus.CANCELLED}
    ),
    JobStatus.RUNNING: frozenset(
        {JobStatus.DONE, JobStatus.FAILED, JobStatus.QUEUED,
         JobStatus.CANCELLED, JobStatus.QUARANTINED}
    ),
    JobStatus.DONE: frozenset(),
    JobStatus.FAILED: frozenset(),
    JobStatus.CANCELLED: frozenset(),
    JobStatus.QUARANTINED: frozenset(),
}


def job_id_for(seq: int, circuit: Circuit, batch: InputBatch) -> str:
    """Durable job id: sequence number + content digest.

    The digest covers the circuit *structure* (via
    :meth:`Circuit.fingerprint`) and the exact input amplitudes, so the id
    both orders jobs (``seq``) and identifies their content across
    processes.
    """
    hasher = hashlib.sha256()
    hasher.update(circuit.fingerprint().encode())
    hasher.update(np.ascontiguousarray(batch.states).tobytes())
    return f"job-{seq}-{hasher.hexdigest()[:12]}"


@dataclass
class Job:
    """One submitted simulation request and its full lifecycle record.

    Bundles a circuit, an input batch, and scheduling attributes
    (priority, optional deadline) with a validated state machine: every
    transition is checked against :class:`JobStatus` rules and appended
    to ``history`` with a timestamp, so a finished job is its own audit
    trail.  A service drops ``batch`` when the job turns terminal;
    ``num_inputs`` and ``num_qubits`` stay.  Example::

        job = make_job(0, circuit, batch, priority=5)
        assert job.status is JobStatus.PENDING
        assert job.num_inputs == batch.batch_size
    """

    job_id: str
    seq: int
    circuit: Circuit
    #: the input states; ``None`` once the job is terminal (the service
    #: drops them then, so a finished job holds only its result)
    batch: InputBatch | None
    #: input state vectors (mega-batch columns) this job contributes
    num_inputs: int
    num_qubits: int
    priority: int = 0
    deadline: float | None = None  # absolute service-clock time
    timeout_s: float | None = None  # execution deadline once dispatched
    max_deliveries: int | None = None  # None = the service's default
    options: tuple = ()  # extra coalescing compatibility settings
    #: requested end-to-end fidelity budget in (0, 1]; 1.0 = exact tier.
    #: Part of the coalescing group key (via the plan fingerprint), so an
    #: exact job never lands in an approximate mega-batch.
    fidelity: float = 1.0
    #: measured plan fidelity of the run that produced ``result`` (from
    #: ``stats["approx"]["achieved"]``); always >= ``fidelity``
    achieved_fidelity: float | None = None
    status: JobStatus = JobStatus.PENDING
    submitted_at: float = 0.0  # set at admission
    started_at: float | None = None
    finished_at: float | None = None
    group_key: str = ""  # plan fingerprint, set at admission
    attempts: int = 0  # mega-batch runs this job took part in
    delivery_count: int = 0  # times handed to a worker process
    cancel_requested: bool = False  # async cancel of an in-flight job
    solo_retry: bool = False  # finished via per-job isolation fallback
    error: str | None = None
    result: np.ndarray | None = None
    history: list[str] = field(default_factory=list)
    #: one JSON-safe record per crash/timeout this job witnessed — the
    #: triage payload a quarantined job carries out of the system
    evidence: list[dict] = field(default_factory=list)

    # -- inspection ----------------------------------------------------------

    @property
    def is_terminal(self) -> bool:
        return self.status in TERMINAL_STATES

    def wait_time(self, now: float | None = None) -> float:
        """Seconds from admission to start (or to ``now`` while waiting)."""
        if self.started_at is not None:
            return self.started_at - self.submitted_at
        return 0.0 if now is None else max(0.0, now - self.submitted_at)

    # -- lifecycle -----------------------------------------------------------

    def transition(self, new: JobStatus) -> "Job":
        """Move to ``new``, validating the edge against the lifecycle."""
        if new not in _TRANSITIONS[self.status]:
            raise ServiceError(
                f"job {self.job_id} cannot go {self.status.value} -> "
                f"{new.value}"
            )
        self.history.append(new.value)
        self.status = new
        return self

    def finish(self, result: np.ndarray, at: float) -> "Job":
        self.transition(JobStatus.DONE)
        self.result = result
        self.finished_at = at
        return self

    def fail(self, error: str, at: float) -> "Job":
        self.transition(JobStatus.FAILED)
        self.error = error
        self.finished_at = at
        return self

    def quarantine(self, error: str, at: float) -> "Job":
        """Terminal poison exit: too many crashed deliveries.

        The job keeps its accumulated ``evidence`` (one record per crash)
        so an operator can triage what kept killing workers.
        """
        self.transition(JobStatus.QUARANTINED)
        self.error = error
        self.finished_at = at
        return self

    def describe(self) -> dict:
        """JSON-safe summary (no amplitudes) for logs and CLI output."""
        return {
            "job_id": self.job_id,
            "status": self.status.value,
            "circuit": self.circuit.name,
            "num_qubits": self.num_qubits,
            "num_inputs": self.num_inputs,
            "priority": self.priority,
            "deadline": self.deadline,
            "group_key": self.group_key[:12],
            "attempts": self.attempts,
            "delivery_count": self.delivery_count,
            "timeout_s": self.timeout_s,
            "fidelity": self.fidelity,
            "achieved_fidelity": self.achieved_fidelity,
            "solo_retry": self.solo_retry,
            "wait_s": self.wait_time(),
            "error": self.error,
            "evidence": list(self.evidence),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"<Job {self.job_id} {self.status.value} "
            f"{self.circuit.name} x{self.num_inputs}>"
        )


def make_job(
    seq: int,
    circuit: Circuit,
    batch: InputBatch,
    priority: int = 0,
    deadline: float | None = None,
    timeout_s: float | None = None,
    max_deliveries: int | None = None,
    options: tuple = (),
    fidelity: float = 1.0,
    id_prefix: str = "",
) -> Job:
    """Construct a PENDING job with a durable content-addressed id.

    The id is ``job-<seq>-<sha256(circuit fingerprint ‖ batch
    bytes)[:12]>`` — ``seq`` orders jobs within a service, the digest
    identifies their content across processes.  A sharded service passes
    ``id_prefix`` (e.g. ``"s1/"``) so ids stay unique fleet-wide and name
    their home shard.  Validates that the batch width matches the circuit
    before accepting.  Example::

        job = make_job(0, make_circuit("ghz", 3), zero_state_batch(3, 4))
        assert job.job_id.startswith("job-0-")
    """
    if batch.num_qubits != circuit.num_qubits:
        raise ServiceError(
            f"input batch is {batch.num_qubits}-qubit but circuit "
            f"{circuit.name!r} has {circuit.num_qubits}"
        )
    if batch.batch_size < 1:
        raise ServiceError("job needs at least one input state")
    if timeout_s is not None and timeout_s <= 0:
        raise ServiceError("timeout_s must be > 0 when given")
    if max_deliveries is not None and max_deliveries < 1:
        raise ServiceError("max_deliveries must be >= 1 when given")
    fidelity = float(fidelity)
    if not 0.0 < fidelity <= 1.0:
        raise ServiceError(
            f"fidelity budget must be in (0, 1], got {fidelity}"
        )
    return Job(
        job_id=id_prefix + job_id_for(seq, circuit, batch),
        seq=seq,
        circuit=circuit,
        batch=batch,
        num_inputs=batch.batch_size,
        num_qubits=batch.num_qubits,
        priority=priority,
        deadline=deadline,
        timeout_s=timeout_s,
        max_deliveries=max_deliveries,
        options=tuple(options),
        fidelity=fidelity,
    )
