"""The batch simulation service: one dispatch loop over two executors.

:class:`BatchSimulationService` wires the other service parts together:
jobs are admitted through the bounded
:class:`~repro.service.queue.JobQueue`, ordered by the
:class:`~repro.service.scheduler.FairScheduler`, merged by the
:class:`~repro.service.coalesce.Coalescer`, and handed as tasks to an
executor from :mod:`repro.service.pool` — the in-process
:class:`~repro.service.pool.InlinePool` (``parallelism="none"``) or the
:class:`~repro.service.pool.ProcessWorkerPool`
(``parallelism="process"``).  Both run the same task protocol, so
:meth:`BatchSimulationService.step` and the one finalize that scatters a
result back to its jobs serve both modes; the modes differ only in where
a task runs.

Resilience composes per mega-batch: the simulator's own fault injection,
retries, OOM splitting, health guard, and checkpoints all apply to the
coalesced run exactly as to a solo one.  When a mega-batch still fails
(retries exhausted, health ``fail``, memory fault past the split limit),
the executor **degrades to per-job isolation**: every member is re-run
alone on the same simulator, so one poisoned job fails alone instead of
failing its cohort.

In ``parallelism="process"`` mode the failure domain widens from
exceptions to *dying processes*, and the service owns the policy side of
the pool's supervision: each dispatch increments the member jobs'
``delivery_count``; a crash result (worker SIGKILLed) **redelivers** the
members — requeued with their aging credit intact — until a job has been
delivered ``max_deliveries`` times, at which point it is **quarantined**
(terminal, carrying per-crash evidence) instead of crashing workers
forever; a timeout result fails the deadline-carrying members with
``TimeoutError`` evidence and redelivers the innocent cohort members;
and an in-flight cancel is honoured cooperatively when the result (or
crash) lands.  ``close(drain=True)`` stops admission, finishes in-flight
work, and accounts every job — the lifecycle log's ``unaccounted()`` is
empty after any shutdown, crashy or clean.

Every dispatch round appends one JSON-safe record to
:attr:`BatchSimulationService.events` (the queue-metrics stream ``repro
serve --queue-metrics`` writes as JSONL) and emits metrics — queue depth,
wait time, coalesce factor, batch occupancy — plus ``service.*`` tracer
spans, so Perfetto traces show request-level lanes above the modeled GPU
engine lanes.
"""

from __future__ import annotations

import time

import numpy as np

from ..circuit import Circuit, InputBatch
from ..circuit.inputs import random_batch
from ..ell.persist import plan_fingerprint
from ..errors import AdmissionError, JobNotCancellable, ServiceError
from ..gpu.spec import GpuSpec
from ..obs import get_metrics, get_tracer
from ..obs.lifecycle import JobLifecycleLog
from ..obs.slo import SLOTracker
from ..resilience import get_resilience_log
from ..sim.bqsim import BQSimSimulator
from .coalesce import DEFAULT_MAX_COLUMNS, CoalescedGroup, Coalescer
from .jobs import Job, JobStatus, make_job
from .pool import (
    DEFAULT_MAX_RESTARTS,
    DEFAULT_SHM_THRESHOLD,
    InlinePool,
    ProcessWorkerPool,
    _Executor,
)
from .queue import DEFAULT_MAX_DEPTH, JobQueue
from .scheduler import FairScheduler, SchedulerPolicy

#: default at-least-once delivery budget: a job whose worker died is
#: redelivered until it has been handed to a worker this many times, then
#: quarantined as poison
DEFAULT_MAX_DELIVERIES = 3


class BatchSimulationService:
    """In-process serving layer over :class:`BQSimSimulator`.

    Synchronous by design: :meth:`submit` admits jobs, :meth:`step` runs
    one dispatch round (schedule, coalesce, execute, scatter), and
    :meth:`drain` steps until the queue is empty.  Determinism: with an
    injected ``clock`` the whole schedule is a pure function of the
    submission sequence, which is what the fairness tests rely on.

    ``parallelism`` selects where mega-batches run:

    * ``"none"`` (default) — inside this process, on an
      :class:`~repro.service.pool.InlinePool` of ``num_workers``
      simulators taken round-robin; each :meth:`step` runs one group;
    * ``"process"`` — on an N-process
      :class:`~repro.service.pool.ProcessWorkerPool` whose workers share
      one on-disk plan cache; :meth:`step` fills every idle worker, then
      blocks for at least one completion.  Results are bit-identical to
      serial mode for any worker count.

    ``max_deliveries``, ``default_timeout_s``, ``max_restarts``, and
    ``chaos`` configure the crash-safety policy of process mode (see the
    module docstring).  Serial mode runs in this very interpreter: there
    is no process to kill, so execution deadlines and redelivery cannot
    be enforced there — a ``timeout_s`` on a serial job is recorded but
    inert, exactly like a chaos schedule.

    Example::

        service = BatchSimulationService(num_workers=2)
        job = service.submit(make_circuit("ghz", 4), num_inputs=8)
        service.drain()
        amplitudes = job.result  # (16, 8) complex matrix
    """

    def __init__(
        self,
        num_workers: int = 1,
        max_depth: int = DEFAULT_MAX_DEPTH,
        max_columns: int = DEFAULT_MAX_COLUMNS,
        max_jobs_per_batch: int | None = None,
        policy: SchedulerPolicy | None = None,
        clock=time.monotonic,
        gpu: GpuSpec | None = None,
        simulator_kwargs: dict | None = None,
        parallelism: str = "none",
        shm_threshold: int = DEFAULT_SHM_THRESHOLD,
        max_deliveries: int = DEFAULT_MAX_DELIVERIES,
        default_timeout_s: float | None = None,
        max_restarts: int = DEFAULT_MAX_RESTARTS,
        chaos=None,
        shard: str | None = None,
    ) -> None:
        if num_workers < 1:
            raise ServiceError("service needs at least one worker")
        if parallelism not in ("none", "process"):
            raise ServiceError(
                f"unknown parallelism {parallelism!r}"
                " (expected 'none' or 'process')"
            )
        if max_deliveries < 1:
            raise ServiceError("max_deliveries must be >= 1")
        if default_timeout_s is not None and default_timeout_s <= 0:
            raise ServiceError("default_timeout_s must be > 0 when given")
        self.max_deliveries = max_deliveries
        self.default_timeout_s = default_timeout_s
        #: when this service is one shard of a gateway fleet: the shard
        #: name prefixes job ids (``s1/job-0-…``) and labels the mirrored
        #: SLO metric families (``{shard="s1"}``)
        self.shard = shard
        self.max_restarts = max_restarts
        #: a :class:`~repro.testing.chaos_pool.ChaosSchedule` handed to the
        #: pool (process mode only; inert in serial mode)
        self.chaos = chaos
        self.clock = clock
        self.gpu = gpu or GpuSpec()
        self.parallelism = parallelism
        self.num_workers = num_workers
        kwargs = dict(simulator_kwargs or {})
        kwargs.setdefault("gpu", self.gpu)
        self._simulator_kwargs = kwargs
        self._shm_threshold = shm_threshold
        #: the executor, built on first use by :meth:`_ensure_pool`
        self._pool: InlinePool | ProcessWorkerPool | None = None
        #: tasks dispatched but not yet collected:
        #: task_id -> (group, event record, dispatch perf_counter)
        self._inflight: dict[int, tuple] = {}
        #: fingerprints group keys; never runs anything
        self._template = BQSimSimulator(**kwargs)
        #: private per-service lifecycle log + SLO fold (concurrent services
        #: never mix their jobs); shared with queue/scheduler/coalescer
        self.lifecycle = JobLifecycleLog(clock=clock)
        self.slo = SLOTracker(
            labels={"shard": shard} if shard is not None else None
        ).attach(self.lifecycle)
        self.queue = JobQueue(
            max_depth=max_depth, clock=clock, lifecycle=self.lifecycle
        )
        self.scheduler = FairScheduler(policy, lifecycle=self.lifecycle)
        self.coalescer = Coalescer(
            self.gpu, max_columns=max_columns, max_jobs=max_jobs_per_batch,
            lifecycle=self.lifecycle,
        )
        #: every job ever admitted, by id (terminal jobs stay addressable)
        self.jobs: dict[str, Job] = {}
        #: JSON-safe queue-metrics records, one per dispatch round/rejection
        self.events: list[dict] = []
        self._seq = 0
        self._completed = 0
        self._failed = 0
        self._degraded_groups = 0
        self._modeled_s = 0.0
        self._wall_s = 0.0
        self._inputs_done = 0
        #: crash-safety accounting
        self._quarantined = 0
        self._cancelled_inflight = 0
        #: approximation-tier accounting (fed from run stats["approx"])
        self._approx_runs = 0
        self._pruned_gates = 0
        self._pruned_nodes = 0
        self._pruned_edges = 0
        self._draining = False
        self._closed = False
        #: per-slot pool restart counts already mirrored into lifecycle
        #: ``worker_restart`` events
        self._seen_restarts: dict[int, int] = {}

    # -- submission ----------------------------------------------------------

    def _group_key(
        self, circuit: Circuit, options: tuple, fidelity: float = 1.0
    ) -> str:
        """Coalescing compatibility key: the worker simulators' plan
        fingerprint (identical across the pool) plus per-job options.

        The fingerprint covers the circuit structure, the simulator's
        compilation settings, the job's ``options`` tuple, and — below
        1.0 — the job's fidelity budget, so jobs of different fidelity
        classes never share a key (an exact job never coalesces into an
        approximate mega-batch).  Thread-safe: the per-job budget is
        passed through to ``_cache_extra`` rather than written onto the
        shared template simulator (the gateway fingerprints concurrently
        from executor threads)."""
        extra = self._template._cache_extra(fidelity) + tuple(options)
        return plan_fingerprint(circuit, extra)

    def group_key_for(
        self, circuit: Circuit, options: tuple = (), fidelity: float = 1.0
    ) -> str:
        """Public view of the coalescing key :meth:`submit` would assign.

        The shard router hashes this fingerprint to pick a home shard, so
        jobs that would coalesce also co-locate (and hit the same plan
        cache).  Pure: computes the key without submitting anything.
        """
        return self._group_key(circuit, tuple(options), fidelity)

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
    ) -> Job:
        """Admit one job; raises :class:`AdmissionError` on backpressure.

        ``batch`` defaults to ``num_inputs`` seeded random states (seeded
        by the submission sequence, so a replayed script submits identical
        jobs).  ``deadline`` is absolute service-clock time; ``timeout_s``
        is the *execution* deadline once dispatched to a pool worker (the
        service default applies when None); ``max_deliveries`` overrides
        the service-wide delivery budget for this job.  ``fidelity`` is
        the job's end-to-end fidelity budget in (0, 1]: 1.0 (default)
        runs exact, lower budgets run through the approximation tier and
        coalesce only with jobs of the same fidelity class.  A draining
        or closed service admits nothing.
        """
        if self._draining or self._closed:
            depth = self.queue.depth()
            self.events.append(
                {
                    "event": "reject",
                    "t": self.clock(),
                    "job": None,
                    "reason": "closed" if self._closed else "draining",
                    "queue_depth": depth,
                }
            )
            raise AdmissionError(
                "service is "
                + ("closed" if self._closed else "draining")
                + "; not accepting new jobs",
                depth=depth,
                max_depth=self.queue.max_depth,
            )
        if batch is None:
            batch = random_batch(circuit.num_qubits, num_inputs, self._seq)
        job = make_job(
            self._seq, circuit, batch,
            priority=priority, deadline=deadline,
            timeout_s=(
                timeout_s if timeout_s is not None else self.default_timeout_s
            ),
            max_deliveries=max_deliveries,
            options=options,
            fidelity=fidelity,
            id_prefix=f"{self.shard}/" if self.shard is not None else "",
        )
        job.group_key = self._group_key(circuit, job.options, job.fidelity)
        self.lifecycle.emit(
            "submitted", job.job_id, t=self.clock(),
            priority=priority, circuit=circuit.name,
            inputs=job.num_inputs, deadline=deadline,
        )
        with get_tracer().span(
            "service.submit",
            job=job.job_id,
            circuit=circuit.name,
            inputs=job.num_inputs,
            priority=priority,
        ):
            try:
                self.queue.admit(job)
            except Exception:
                self.events.append(
                    {
                        "event": "reject",
                        "t": self.clock(),
                        "job": job.job_id,
                        "queue_depth": self.queue.depth(),
                    }
                )
                raise
        self._seq += 1
        self.jobs[job.job_id] = job
        return job

    def cancel(self, job_id: str) -> Job:
        """Cancel a job: synchronously while queued, cooperatively in flight.

        A queued job is removed and returned CANCELLED.  A job already
        taken into a mega-batch cannot be yanked out of a worker process
        mid-run; instead ``cancel_requested`` is set and the returned job
        is still RUNNING — it transitions to CANCELLED (result discarded)
        when its mega-batch lands or crashes.  Unknown or terminal ids
        raise :class:`ServiceError`.
        """
        try:
            return self.queue.cancel(job_id)
        except JobNotCancellable:
            job = self.job(job_id)
            if job.is_terminal:  # raced to terminal: nothing to cancel
                raise
            job.cancel_requested = True
            self.lifecycle.emit(
                "cancel_requested", job.job_id, t=self.clock(),
                priority=job.priority, status=job.status.value,
            )
            return job

    def _cancel_inflight(self, job: Job, at: float) -> None:
        """Honour a cooperative cancel when the job's mega-batch lands."""
        job.transition(JobStatus.CANCELLED)
        job.finished_at = at
        self._cancelled_inflight += 1
        get_metrics().inc("service.cancelled")
        self.lifecycle.emit(
            "cancelled", job.job_id, t=at, priority=job.priority,
            queue_age_s=job.wait_time(at), inflight=True,
        )
        self.queue.settle([job.job_id])

    def job(self, job_id: str) -> Job:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise ServiceError(f"unknown job id {job_id!r}") from None

    # -- dispatch ------------------------------------------------------------

    def step(self) -> int:
        """One dispatch round; returns the number of jobs finished (0 when
        idle).

        Collects any finished results, fills every idle executor slot
        with a freshly coalesced group, and — when nothing had finished
        but work is in flight — blocks for at least one completion so
        callers polling ``step() == 0`` still mean "service idle".  The
        in-process executor has one slot and runs the group inside its
        ``submit``, so a serial step dispatches and finishes one group.
        """
        pool = self._ensure_pool()
        finished = sum(self._finalize(r) for r in pool.poll())
        self._note_restarts(pool)
        if pool.alive_workers == 0 and not self._inflight:
            # the restart budget is spent and nothing can ever run again:
            # fail the queued backlog so drain/close terminate with every
            # job accounted instead of waiting on a dead fleet
            return finished + self._fail_queued(
                "no live pool workers (restart budget exhausted)"
            )
        while pool.idle_workers > 0:
            now = self.clock()
            queued = self.queue.jobs()
            head = self.scheduler.select(queued, now)
            if head is None:
                break
            ranked = self.scheduler.rank(queued, now)
            group = self.coalescer.build_group(head, ranked)
            self.queue.take(list(group.jobs))
            self._dispatch(pool, group)
        if finished == 0 and self._inflight:
            finished = sum(self._finalize(r) for r in pool.poll(block=True))
            self._note_restarts(pool)
        return finished

    def drain(self, max_rounds: int | None = None) -> dict:
        """Step until the queue (and any in-flight pool work) is empty;
        returns :meth:`stats`."""
        rounds = 0
        while self.queue.depth() > 0 or self._inflight:
            if max_rounds is not None and rounds >= max_rounds:
                break
            self.step()
            rounds += 1
        return self.stats()

    def close(self, drain: bool = False) -> None:
        """Shut down, leaving every job in exactly one terminal state.

        ``drain=True`` first stops admission and finishes all queued and
        in-flight work (graceful drain); ``drain=False`` stops admission
        and *cancels* whatever has not finished.  Either way the
        lifecycle log accounts every submitted job —
        ``lifecycle.unaccounted()`` is empty after close — and the
        executor is closed (a process pool stops its workers and releases
        its shared-memory segments).  Idempotent: a second close is a no-op.
        """
        if self._closed:
            return
        self._draining = True
        if drain:
            self.drain()
        self._shutdown_pending()
        self._closed = True
        if self._pool is not None:
            self._pool.close()

    def _shutdown_pending(self) -> None:
        """Cancel every non-terminal job so shutdown never loses track.

        Queued jobs cancel through the queue (normal path); jobs caught
        in flight — possible when ``drain=False`` or a drain gave up —
        are cancelled cooperatively, exactly as an honoured in-flight
        cancel would have been.
        """
        for job in self.queue.jobs():
            self.queue.cancel(job.job_id)
        now = self.clock()
        for group, _record, _wall0 in self._inflight.values():
            for job in group.jobs:
                if not job.is_terminal:
                    self._cancel_inflight(job, now)
        self._inflight.clear()
        # jobs parked in a non-terminal state outside the queue and the
        # inflight map: a KeyboardInterrupt that escaped a serial step
        # mid-run leaves its cohort RUNNING here
        for job in self.jobs.values():
            if not job.is_terminal:
                job.transition(JobStatus.CANCELLED)
                job.finished_at = now
                self.lifecycle.emit(
                    "cancelled", job.job_id, t=now, priority=job.priority,
                    inflight=False, shutdown=True,
                )
                self.queue.settle([job.job_id])

    def __enter__(self) -> "BatchSimulationService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- execution -----------------------------------------------------------

    def _emit_terminal(
        self,
        job: Job,
        *,
        worker: int | None = None,
        wall_s: float | None = None,
        modeled_s: float | None = None,
    ) -> None:
        """One ``done``/``failed`` lifecycle event carrying everything the
        :class:`~repro.obs.slo.SLOTracker` folds: latency, queue age,
        deadline verdict, degradation flag, and run durations."""
        stage = "done" if job.status is JobStatus.DONE else "failed"
        latency = (
            job.finished_at - job.submitted_at
            if job.finished_at is not None else None
        )
        missed = (
            job.deadline is not None
            and job.finished_at is not None
            and job.finished_at > job.deadline
        )
        self.lifecycle.emit(
            stage, job.job_id, t=job.finished_at,
            priority=job.priority,
            latency_s=latency,
            queue_age_s=job.wait_time(),
            deadline=job.deadline,
            deadline_miss=missed,
            solo_retry=job.solo_retry,
            attempts=job.attempts,
            worker=worker,
            wall_s=wall_s,
            modeled_s=modeled_s,
            fidelity=job.fidelity,
            achieved_fidelity=job.achieved_fidelity,
            error=job.error,
        )
        self.queue.settle([job.job_id])

    def _quarantine(self, job: Job, worker: int | None, at: float) -> None:
        """Poison exit: the delivery budget is spent; stop redelivering.

        Emits the ``quarantined`` lifecycle event (the SLO tracker counts
        it in a dedicated failure bucket — it never feeds the latency
        histograms) and records a resilience ``quarantine`` event with the
        evidence depth for operators.
        """
        job.quarantine(
            f"quarantined after {job.delivery_count} failed deliveries"
            + (f": {job.evidence[-1]['detail']}" if job.evidence else ""),
            at,
        )
        self._quarantined += 1
        self.lifecycle.emit(
            "quarantined", job.job_id, t=at,
            priority=job.priority,
            delivery=job.delivery_count,
            attempts=job.attempts,
            worker=worker,
            error=job.error,
            evidence=list(job.evidence),
        )
        get_resilience_log().record(
            "quarantine",
            site="service",
            job=job.job_id,
            deliveries=job.delivery_count,
            evidence=len(job.evidence),
        )
        self.queue.settle([job.job_id])

    def _note_approx(self, block: dict | None) -> float | None:
        """Fold one run's ``stats["approx"]`` ledger summary into the
        service counters; returns the run's achieved fidelity (``None``
        when the run carried no ledger)."""
        if not block:
            return None
        if block.get("pruned_gates"):
            self._approx_runs += 1
            self._pruned_gates += block.get("pruned_gates", 0)
            self._pruned_nodes += block.get("nodes_removed", 0)
            self._pruned_edges += block.get("edges_removed", 0)
        return block.get("achieved")

    def _ensure_pool(self) -> InlinePool | ProcessWorkerPool:
        """The executor ``parallelism`` names, built on first use, so a
        ``chaos`` schedule set after construction still reaches a process
        pool."""
        if self._pool is None:
            if self.parallelism == "process":
                self._pool = ProcessWorkerPool(
                    self.num_workers,
                    simulator_kwargs=self._simulator_kwargs,
                    shm_threshold=self._shm_threshold,
                    max_restarts=self.max_restarts,
                    chaos=self.chaos,
                )
            else:
                self._pool = InlinePool(
                    self.num_workers, self._simulator_kwargs
                )
        return self._pool

    def _note_restarts(self, pool: InlinePool | ProcessWorkerPool) -> None:
        """Mirror pool worker respawns into the lifecycle stream.

        One ``worker_restart`` event per respawn, stamped with the pseudo
        id ``worker-<wid>`` — fleet events ride the same JSONL stream as
        jobs without touching the unaccounted-jobs bookkeeping (only
        ``submitted`` populates that set)."""
        for summary in pool.worker_summaries():
            wid, restarts = summary["wid"], summary["restarts"]
            seen = self._seen_restarts.get(wid, 0)
            for nth in range(seen + 1, restarts + 1):
                self.lifecycle.emit(
                    "worker_restart", f"worker-{wid}", t=self.clock(),
                    wid=wid, restart=nth, crashes=summary["crashes"],
                )
            self._seen_restarts[wid] = restarts

    def _fail_queued(self, reason: str) -> int:
        """Terminal-fail every queued job (the fleet cannot serve them)."""
        jobs = self.queue.jobs()
        if not jobs:
            return 0
        self.queue.take(jobs)
        metrics = get_metrics()
        now = self.clock()
        for job in jobs:
            job.fail(reason, now)
            self._failed += 1
            metrics.inc("service.failed")
            self._emit_terminal(job)
        metrics.gauge("service.queue_depth", self.queue.depth())
        return len(jobs)

    def _dispatch(
        self, pool: InlinePool | ProcessWorkerPool, group: CoalescedGroup
    ) -> None:
        """Hand one coalesced group to an idle executor slot."""
        now = self.clock()
        metrics = get_metrics()
        waits = [job.wait_time(now) for job in group.jobs]
        for job in group.jobs:
            job.transition(JobStatus.RUNNING)
            job.started_at = now
            job.attempts += 1
            job.delivery_count += 1
            metrics.observe("service.wait_s", job.wait_time())
        #: the task deadline is the strictest member deadline; a task with
        #: no deadline-carrying member runs unsupervised (crash-only)
        timeouts = [
            job.timeout_s for job in group.jobs if job.timeout_s is not None
        ]
        timeout_s = min(timeouts) if timeouts else None
        #: redelivered cohorts may resume a crash checkpoint on the worker
        resume = any(job.delivery_count > 1 for job in group.jobs)
        spec, mega, pad = self.coalescer.mega_block(group)
        job_ids = [job.job_id for job in group.jobs]
        fidelity = group.jobs[0].fidelity
        # taken before submit: the in-process executor runs inside it
        wall0 = time.perf_counter()
        with get_tracer().span(
            "service.dispatch",
            group=group.key[:12],
            circuit=group.circuit.name,
            jobs=group.coalesce_factor,
            job_ids=job_ids,
            columns=group.total_columns,
        ):
            task_id, wid = pool.submit(
                group.circuit,
                spec,
                mega,
                group.total_columns,
                [job.num_inputs for job in group.jobs],
                job_ids=job_ids,
                timeout_s=timeout_s,
                resume=resume,
                delivery=max(job.delivery_count for job in group.jobs),
                fidelity=fidelity,
            )
        for job in group.jobs:
            self.lifecycle.emit(
                "executing", job.job_id, t=now,
                priority=job.priority,
                worker=wid,
                queue_age_s=job.wait_time(),
                coalesce_factor=group.coalesce_factor,
            )
        record = {
            "event": "megabatch",
            "t": now,
            "worker": wid,
            "group": group.key[:12],
            "circuit": group.circuit.name,
            "jobs": group.coalesce_factor,
            "columns": group.total_columns,
            "batches": spec.num_batches,
            "batch_size": spec.batch_size,
            "pad": pad,
            "coalesce_factor": group.coalesce_factor,
            "occupancy": group.total_columns / spec.num_inputs,
            "wait_mean_s": float(np.mean(waits)),
            "wait_max_s": float(np.max(waits)),
            "fidelity": fidelity,
        }
        self._inflight[task_id] = (group, record, wall0)

    def _finalize(self, raw: dict) -> int:
        """Scatter one collected task result back to its member jobs;
        returns how many reached a terminal state.

        One loop serves clean and degraded results: a member whose
        outcome is ok finishes with its slice of the outputs
        (``solo_retry`` when the group degraded), the others fail with
        their own error, and an in-flight cancel discards the output.  A
        *crash* result (a pool worker died or blew the task deadline)
        carries no outcomes and goes to :meth:`_handle_crash`.
        """
        group, record, wall0 = self._inflight.pop(raw["task_id"])
        if raw.get("crash") is not None:
            return self._handle_crash(group, record, wall0, raw)
        metrics = get_metrics()
        done_at = self.clock()
        wall_s = time.perf_counter() - wall0
        achieved = self._note_approx(raw.get("approx"))
        degraded = raw["degraded"]
        record["degraded"] = degraded
        if degraded:
            record["error"] = raw["cause"]
            self._degraded_groups += 1
            metrics.inc("service.degraded_groups")
            get_resilience_log().record(
                "degrade",
                site="service",
                group=group.key[:12],
                jobs=group.coalesce_factor,
                reason=raw["cause"] or "",
            )
        else:
            record["modeled_s"] = raw["modeled_s"]
        outputs = (
            Coalescer.scatter(group, [raw["outputs"]])
            if raw["outputs"] is not None
            else {}
        )
        done = 0
        for job, outcome in zip(group.jobs, raw["per_job"], strict=True):
            if job.cancel_requested:
                self._cancel_inflight(job, done_at)
                continue
            if outcome["ok"]:
                job.solo_retry = degraded
                job.achieved_fidelity = achieved
                job.finish(outputs[job.job_id], done_at)
                done += 1
                self._inputs_done += job.num_inputs
            else:
                job.fail(
                    outcome["error"] or raw["cause"] or "megabatch failed",
                    done_at,
                )
                self._failed += 1
                metrics.inc("service.failed")
            self._emit_terminal(
                job, worker=raw["wid"], wall_s=wall_s,
                modeled_s=None if degraded else raw["modeled_s"],
            )
        self._completed += done
        self._modeled_s += raw["modeled_s"]
        if done:
            metrics.inc("service.completed", done)
        self._log_round(record, wall0)
        return len(group.jobs)

    def _log_round(self, record: dict, wall0: float) -> None:
        """Close one dispatch round's event record and book its wall time."""
        metrics = get_metrics()
        record["wall_s"] = time.perf_counter() - wall0
        record["queue_depth"] = self.queue.depth()
        self._wall_s += record["wall_s"]
        metrics.inc("service.megabatches")
        metrics.gauge("service.queue_depth", self.queue.depth())
        self.events.append(record)

    def _handle_crash(
        self, group: CoalescedGroup, record: dict, wall0: float, raw: dict
    ) -> int:
        """Route one crash/timeout result to its members; returns how many
        reached a terminal state (redelivered members do not count).

        Per member, in precedence order:

        1. ``cancel_requested`` → CANCELLED (the crash obliged early);
        2. a *timeout* crash and the member carries ``timeout_s`` →
           FAILED with ``TimeoutError`` evidence (its own deadline was
           the one the supervisor enforced);
        3. delivery budget spent → QUARANTINED with the accumulated
           evidence (poison: it has now killed ``max_deliveries``
           deliveries' worth of workers);
        4. otherwise → requeued for redelivery, aging credit intact.

        Members caught in a cohort-mate's timeout (no ``timeout_s`` of
        their own) fall through to 3/4: innocent work is redelivered,
        never failed for someone else's deadline.
        """
        crash = raw["crash"]
        metrics = get_metrics()
        done_at = self.clock()
        wall_s = time.perf_counter() - wall0
        record["degraded"] = True
        record["error"] = raw["cause"]
        record["crash"] = {
            "kind": crash["kind"],
            "wid": crash["wid"],
            "exitcode": crash["exitcode"],
        }
        finished = 0
        redeliver: list[Job] = []
        for job in group.jobs:
            job.evidence.append(
                {
                    "kind": crash["kind"],
                    "task_id": crash["task_id"],
                    "wid": crash["wid"],
                    "exitcode": crash["exitcode"],
                    "delivery": job.delivery_count,
                    "detail": crash["detail"],
                }
            )
            if job.cancel_requested:
                self._cancel_inflight(job, done_at)
                finished += 1
            elif crash["kind"] == "timeout" and job.timeout_s is not None:
                job.fail(f"TimeoutError: {crash['detail']}", done_at)
                self._failed += 1
                metrics.inc("service.failed")
                self._emit_terminal(
                    job, worker=crash["wid"], wall_s=wall_s
                )
                finished += 1
            elif job.delivery_count >= (
                job.max_deliveries or self.max_deliveries
            ):
                self._quarantine(job, crash["wid"], done_at)
                finished += 1
            else:
                redeliver.append(job)
        if redeliver:
            self.queue.requeue(redeliver)
            for job in redeliver:
                get_resilience_log().record(
                    "redelivery",
                    site="service",
                    job=job.job_id,
                    delivery=job.delivery_count,
                    reason=crash["kind"],
                )
        record["redelivered"] = len(redeliver)
        self._log_round(record, wall0)
        return finished

    # -- reporting -----------------------------------------------------------

    def stats(self) -> dict:
        """JSON-safe service-level summary (the serve CLI prints this)."""
        mega = [e for e in self.events if e["event"] == "megabatch"]
        factors = [e["coalesce_factor"] for e in mega]
        occupancy = [e["occupancy"] for e in mega]
        waits = [e["wait_max_s"] for e in mega]
        # before the first step, report what an idle executor would
        pool = self._pool or _Executor(self.num_workers)
        stats = {
            "submitted": self.queue.admitted,
            "rejected": self.queue.rejected,
            "completed": self._completed,
            "failed": self._failed,
            "cancelled": sum(
                1 for j in self.jobs.values()
                if j.status is JobStatus.CANCELLED
            ),
            "quarantined": self._quarantined,
            "requeued": self.queue.requeued_total,
            "cancelled_inflight": self._cancelled_inflight,
            "queue_depth": self.queue.depth(),
            "megabatches": len(mega),
            "degraded_groups": self._degraded_groups,
            "scheduler_rounds": self.scheduler.rounds,
            "coalesce_factor_mean": float(np.mean(factors)) if factors else 0.0,
            "coalesce_factor_max": max(factors, default=0),
            "occupancy_mean": float(np.mean(occupancy)) if occupancy else 0.0,
            "wait_max_s": max(waits, default=0.0),
            "inputs_done": self._inputs_done,
            "modeled_time_s": self._modeled_s,
            "wall_time_s": self._wall_s,
            "modeled_throughput_inputs_per_s": (
                self._inputs_done / self._modeled_s if self._modeled_s else 0.0
            ),
            "parallelism": self.parallelism,
            "workers": pool.worker_summaries(),
            "plan_cache": pool.plan_cache_totals(),
        }
        approx_jobs = [
            j for j in self.jobs.values() if j.fidelity < 1.0
        ]
        done_approx = [
            j for j in approx_jobs
            if j.status is JobStatus.DONE and j.achieved_fidelity is not None
        ]
        attained = [
            j for j in done_approx if j.achieved_fidelity >= j.fidelity
        ]
        stats["approx"] = {
            "approx_jobs": len(approx_jobs),
            "exact_jobs": len(self.jobs) - len(approx_jobs),
            "approx_done": len(done_approx),
            "attained": len(attained),
            "attainment_rate": (
                len(attained) / len(done_approx) if done_approx else 1.0
            ),
            "min_achieved_fidelity": (
                min(j.achieved_fidelity for j in done_approx)
                if done_approx else None
            ),
            "approx_megabatches": self._approx_runs,
            "pruned_gates": self._pruned_gates,
            "pruned_nodes": self._pruned_nodes,
            "pruned_edges": self._pruned_edges,
        }
        slo = self.slo.summary()
        slo["unaccounted_jobs"] = len(self.lifecycle.unaccounted())
        stats["slo"] = slo
        if isinstance(pool, ProcessWorkerPool):
            stats["pool"] = pool.stats()
        return stats

    def write_queue_metrics(self, path) -> int:
        """Write the per-round event stream as JSONL; returns the count."""
        import json

        with open(path, "w", encoding="utf-8") as fh:
            for event in self.events:
                fh.write(json.dumps(event) + "\n")
        return len(self.events)

    def write_lifecycle(self, path) -> int:
        """Write the per-job lifecycle event log as JSONL; returns count."""
        return self.lifecycle.write_jsonl(path)
