"""The two executors of the serving layer's task protocol.

:class:`~repro.service.workers.BatchSimulationService` hands each
coalesced mega-batch to an executor as one **task**: the padded column
block, the per-job column counts and ids, and the group's fidelity
budget.  :func:`_run_task` is the one code path that executes a task —
group run, per-job isolation when it raises
:class:`~repro.errors.ReproError`, approximation ledger — and both
executors call it:

* :class:`InlinePool` (``parallelism="none"``) runs each task inside the
  serving process, on N simulators taken round-robin;
* :class:`ProcessWorkerPool` (``parallelism="process"``) runs tasks
  concurrently on **N OS processes** (spawn-safe :mod:`multiprocessing`)
  that each own a :class:`~repro.sim.bqsim.BQSimSimulator` and share one
  on-disk plan cache, whose ``flock``-based
  :meth:`~repro.sim.base.PlanCache.build_lock` compiles each plan
  fingerprint once fleet-wide.

Results are bit-identical either way: every task runs the same padded
block through the same simulator code, and spMM computes each output
column from its input column alone (property-tested in
``tests/test_service_pool.py``).

State vectors cross the process boundary via
:mod:`multiprocessing.shared_memory` once they exceed
:data:`DEFAULT_SHM_THRESHOLD` bytes (below it, pickling through the task
queue is cheaper than two segment syscalls).  The parent creates *both*
the input and the output segment, tracks every created name in a live
set, and unlinks when the result (or the crash evidence) lands, so
segment lifetime never depends on worker exit order and
:meth:`ProcessWorkerPool.leaked_segments` can prove the set is empty.

**Supervision.**  Worker processes die — the OOM killer SIGKILLs them,
a wedged native kernel hangs them.  The pool supervises on every
:meth:`~ProcessWorkerPool.poll`: a dead worker's task is reaped as a
crash result carrying evidence (``exitcode``, member job ids), an
overdue task's worker is killed and reaped as a timeout, and the slot is
respawned under a pool-wide restart budget
(:class:`~repro.resilience.retry.RetryPolicy`; backoff is *modeled*, not
slept).  Once every slot is lost, :meth:`~ProcessWorkerPool.submit`
raises so the service can fail queued work instead of waiting forever.
Crash results carry ``result["crash"]``; the service turns that into
redelivery or quarantine, and the pool itself stays policy-free.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import shutil
import tempfile
import time
from multiprocessing import shared_memory

import numpy as np

from ..circuit import InputBatch
from ..errors import CheckpointError, ReproError, ServiceError
from ..obs import get_metrics, get_tracer
from ..obs.tracer import Tracer, set_tracer
from ..resilience.events import get_resilience_log
from ..resilience.retry import RetryPolicy, RetrySession
from ..sim.base import PLAN_CACHE_ENV, BatchSpec
from ..sim.bqsim import BQSimSimulator

#: arrays at or above this many bytes ship via ``shared_memory``; smaller
#: ones are pickled inline through the task queue (two segment syscalls
#: plus a mmap cost more than copying a few KiB through a pipe)
DEFAULT_SHM_THRESHOLD = 1 << 16

#: default pool-wide worker-restart budget: total respawns across all
#: slots before further deaths mark their slot lost
DEFAULT_MAX_RESTARTS = 8

#: seconds a blocking :meth:`ProcessWorkerPool.poll` waits between
#: worker-liveness checks
_POLL_TICK_S = 0.25

#: seconds :meth:`ProcessWorkerPool.close` waits for a worker to exit
#: before terminating it
_JOIN_TIMEOUT_S = 5.0

#: plan-cache snapshot reported for a worker that died before its first
#: result
_EMPTY_PLAN_CACHE = {"hits": 0, "disk_hits": 0, "misses": 0, "quarantined": 0}


def _task(
    task_id: int, circuit, spec: BatchSpec, inputs, total_columns: int,
    job_columns: list[int], job_ids: list[str] | None, *, out_shm=None,
    trace=False, resume=False, fidelity: float = 1.0, chaos=None,
) -> dict:
    """The task record :func:`_run_task` executes, as both executors build
    it.  ``inputs`` is an array descriptor (see :func:`_receive_array`)."""
    return {
        "task_id": task_id,
        "circuit": circuit,
        "spec": (spec.num_batches, spec.batch_size, spec.seed),
        "inputs": inputs,
        "out_shm": out_shm,
        "total_columns": total_columns,
        "job_columns": list(job_columns),
        "job_ids": list(job_ids or []),
        "trace": bool(trace),
        "resume": bool(resume),
        "fidelity": float(fidelity),
        "chaos": chaos,
    }


def _receive_array(desc) -> np.ndarray:
    """Materialize an array descriptor produced by ``_ship_array``.

    Workers only ever *attach* (``create=False``), which registers
    nothing with the resource tracker — segment lifetime and tracker
    bookkeeping belong solely to the creating parent, which unlinks
    after collecting the result.
    """
    kind = desc[0]
    if kind == "inline":
        return desc[1]
    _, name, shape, dtype = desc
    seg = shared_memory.SharedMemory(name=name)
    try:
        return np.ndarray(shape, dtype=np.dtype(dtype), buffer=seg.buf).copy()
    finally:
        seg.close()


def _group_run(sim, task: dict, spec: BatchSpec, batches: list):
    """The mega-batch group run, resuming a crash checkpoint when one fits.

    On a redelivered task (``task["resume"]``) whose simulator checkpoints
    to disk, the previous delivery may have left a batch-boundary archive
    before its worker died.  Candidates are matched on the batch spec and
    validated (plan fingerprint included) by ``run(resume=...)`` itself;
    a mismatched archive is skipped, never trusted.
    """
    if task.get("resume") and sim.checkpoint_dir is not None:
        from ..resilience.checkpoint import find_checkpoints

        for candidate in find_checkpoints(
            sim.checkpoint_dir, spec.num_batches, spec.batch_size, spec.seed
        ):
            try:
                return sim.run(
                    task["circuit"], spec, batches=batches, execute=True,
                    resume=candidate,
                )
            except CheckpointError:
                continue
    return sim.run(task["circuit"], spec, batches=batches, execute=True)


def _run_task(sim, wid: int, task: dict) -> dict:
    """Execute one dispatched mega-batch on ``sim``: the task protocol.

    Returns a picklable result record.  A :class:`ReproError` from the
    group run triggers per-job solo re-runs on the same simulator, so a
    poisoned job fails alone; any other exception fails every member
    with ``"<type>: <message>"`` — neither a pool worker nor a serving
    process may strand the cohort.  Only :class:`Exception` is caught:
    a ``KeyboardInterrupt`` still stops a serial server, and a pool
    worker it hits dies and is reaped as a crash.

    The ``service.megabatch`` and ``service.solo_retry`` spans go on the
    ambient tracer; a task with ``trace`` set (sent to a pool worker)
    records onto its own tracer and ships the spans back in the result.
    """
    chaos = task.get("chaos")
    if chaos:
        from ..testing.chaos_pool import apply_chaos_action

        apply_chaos_action(chaos, "before_run")
    wall0 = time.perf_counter()
    tracer = Tracer(enabled=True) if task["trace"] else None
    previous = set_tracer(tracer) if tracer is not None else None
    # the simulator is long-lived and serves every fidelity class; point
    # it at this task's budget before running (the plan-cache key
    # includes the budget, so classes never share compiled plans)
    sim.fidelity = task.get("fidelity", 1.0)
    mega = _receive_array(task["inputs"])
    spec = BatchSpec(*task["spec"])
    total = task["total_columns"]
    job_columns = task["job_columns"]
    job_ids = task["job_ids"]
    width = spec.batch_size
    batches = [
        InputBatch(mega[:, i * width : (i + 1) * width])
        for i in range(spec.num_batches)
    ]
    merged = None
    per_job: list[dict] = []
    degraded = False
    cause = None
    modeled = 0.0
    plan_source = ""
    solo_runs = 0
    resumed_batches = 0
    approx = None
    try:
        try:
            with get_tracer().span(
                "service.megabatch",
                worker=wid,
                circuit=task["circuit"].name,
                jobs=len(job_columns),
                job_ids=list(job_ids),
                columns=total,
            ):
                result = _group_run(sim, task, spec, batches)
        except ReproError as exc:
            degraded = True
            cause = str(exc)
            merged = np.zeros((mega.shape[0], total), dtype=np.complex128)
            offset = 0
            for idx, cols in enumerate(job_columns):
                solo_batch = InputBatch(mega[:, offset : offset + cols])
                jid = job_ids[idx] if idx < len(job_ids) else ""
                try:
                    with get_tracer().span(
                        "service.solo_retry", worker=wid, job=jid, columns=cols
                    ):
                        solo = sim.run(
                            task["circuit"],
                            BatchSpec(num_batches=1, batch_size=cols, seed=0),
                            batches=[solo_batch],
                            execute=True,
                        )
                except ReproError as solo_exc:
                    per_job.append({"ok": False, "error": str(solo_exc)})
                else:
                    merged[:, offset : offset + cols] = solo.outputs[0]
                    modeled += solo.modeled_time
                    solo_runs += 1
                    # the group is fidelity-homogeneous, so any solo run's
                    # ledger stands in for the mega-batch's (keeps
                    # achieved_fidelity alive through degradation)
                    approx = solo.stats.get("approx") or approx
                    per_job.append({"ok": True, "error": None})
                offset += cols
        else:
            out = (
                result.outputs[0]
                if len(result.outputs) == 1
                else np.hstack(result.outputs)
            )
            merged = np.ascontiguousarray(out[:, :total])
            modeled = result.modeled_time
            plan_source = result.stats.get("plan_source", "")
            resumed_batches = result.stats.get("resumed_batches", 0)
            approx = result.stats.get("approx")
            per_job = [{"ok": True, "error": None} for _ in job_columns]
    except Exception as exc:  # noqa: BLE001 - the cohort must be accounted
        degraded = True
        cause = f"{type(exc).__name__}: {exc}"
        merged = None
        per_job = [{"ok": False, "error": cause} for _ in job_columns]
    finally:
        if previous is not None:
            set_tracer(previous)

    outputs = None
    if merged is not None:
        if task["out_shm"] is not None:
            name, shape = task["out_shm"]
            seg = shared_memory.SharedMemory(name=name)
            try:
                view = np.ndarray(
                    shape, dtype=np.complex128, buffer=seg.buf
                )
                view[:] = merged
            finally:
                seg.close()
            outputs = ("shm",)
        else:
            outputs = ("inline", merged)
    if chaos:
        # "after_run": the work is done but the report never leaves the
        # process — the redelivery must be able to recompute (or resume)
        apply_chaos_action(chaos, "after_run")
    return {
        "task_id": task["task_id"],
        "wid": wid,
        "degraded": degraded,
        "cause": cause,
        "per_job": per_job,
        "outputs": outputs,
        "modeled_s": modeled,
        "plan_source": plan_source,
        "solo_runs": solo_runs,
        "resumed_batches": resumed_batches,
        "approx": approx,
        "plan_cache": sim._plans.stats_dict(),
        "spans": (
            [span.to_dict() for span in tracer.spans()] if tracer else []
        ),
        "wall_s": time.perf_counter() - wall0,
        "crash": None,
    }


def _worker_main(wid: int, task_q, result_q, simulator_kwargs: dict) -> None:
    """Entry point of one pool worker process (module-level: spawn pickles
    it by qualified name)."""
    sim = BQSimSimulator(**simulator_kwargs)
    while True:
        task = task_q.get()
        if task is None:
            break
        result_q.put(_run_task(sim, wid, task))


class _Executor:
    """Task ids and the per-worker accounting both executors report."""

    def __init__(self, num_workers: int) -> None:
        if num_workers < 1:
            raise ServiceError("an executor needs at least one worker")
        self.num_workers = num_workers
        self._task_ids = itertools.count(1)
        #: per-worker tallies, and each worker's last plan-cache snapshot
        self._worker_stats = [
            {"wid": wid, "megabatches": 0, "solo_runs": 0, "jobs_done": 0,
             "crashes": 0, "restarts": 0}
            for wid in range(num_workers)
        ]
        self._plan_cache: dict[int, dict] = {}

    def _count(self, wid: int, raw: dict) -> None:
        """Fold one :func:`_run_task` result into worker ``wid``'s tally."""
        tally = self._worker_stats[wid]
        tally["megabatches"] += 1
        tally["solo_runs"] += raw["solo_runs"]
        tally["jobs_done"] += sum(1 for out in raw["per_job"] if out["ok"])
        self._plan_cache[wid] = raw["plan_cache"]

    def worker_summaries(self) -> list[dict]:
        """Per-worker tallies, the entries of ``service.stats()["workers"]``."""
        return list(self._worker_stats)

    def plan_cache_totals(self) -> dict[str, int]:
        """Plan-cache counters summed over each worker's last snapshot."""
        return {
            key: sum(snap[key] for snap in self._plan_cache.values())
            for key in _EMPTY_PLAN_CACHE
        }


class ProcessWorkerPool(_Executor):
    """N spawn-safe, supervised worker processes executing mega-batches.

    The pool is deliberately dumb: it knows nothing about jobs, queues,
    or scheduling — :meth:`submit` takes one packed mega-block and hands
    it to an idle worker, which runs it through :func:`_run_task`;
    :meth:`poll` collects finished results and supervises the fleet
    (reap crashed workers, kill overdue ones, respawn under the restart
    budget).  The :class:`~repro.service.workers.BatchSimulationService`
    drives it in ``parallelism="process"`` mode and keeps all policy
    (fairness, coalescing, redelivery, quarantine) in the parent: a
    crashed or timed-out task surfaces as a result whose ``crash`` key
    holds the evidence, never as a lost job.

    Example — two workers sharing one on-disk plan cache::

        pool = ProcessWorkerPool(num_workers=2, cache_dir="/tmp/plans")
        tid, wid = pool.submit(circuit, spec, mega, total, [total])
        (result,) = pool.poll(block=True)
        pool.close()
    """

    def __init__(
        self,
        num_workers: int,
        simulator_kwargs: dict | None = None,
        cache_dir: str | None = None,
        shm_threshold: int = DEFAULT_SHM_THRESHOLD,
        max_restarts: int = DEFAULT_MAX_RESTARTS,
        restart_policy: RetryPolicy | None = None,
        chaos=None,
    ) -> None:
        super().__init__(num_workers)
        if max_restarts < 0:
            raise ServiceError("max_restarts must be >= 0")
        self.shm_threshold = shm_threshold
        self.max_restarts = max_restarts
        #: attempts bounds restarts per slot, run_budget bounds the fleet;
        #: backoff is modeled (reported, not slept) so supervision never
        #: stalls the poll loop
        self.restart_policy = restart_policy or RetryPolicy(
            max_attempts=max_restarts + 1,
            base_backoff=0.05,
            run_budget=max_restarts,
        )
        self._restart_session = RetrySession(self.restart_policy, seed=0)
        #: a :class:`~repro.testing.chaos_pool.ChaosSchedule` (or None);
        #: its encoded action ships inside the task payload
        self.chaos = chaos
        kwargs = dict(simulator_kwargs or {})
        #: the shared disk tier every worker compiles into; precedence:
        #: explicit argument > simulator kwargs > $REPRO_PLAN_CACHE > a
        #: pool-owned temp dir removed at close()
        self._owns_cache_dir = False
        resolved = (
            cache_dir
            or kwargs.get("cache_dir")
            or os.environ.get(PLAN_CACHE_ENV)
        )
        if not resolved:
            resolved = tempfile.mkdtemp(prefix="repro-pool-plans-")
            self._owns_cache_dir = True
        kwargs["cache_dir"] = str(resolved)
        self.cache_dir = str(resolved)
        self.simulator_kwargs = kwargs
        self._ctx = mp.get_context("spawn")
        self._procs: dict[int, mp.process.BaseProcess] = {}
        self._task_qs: dict[int, object] = {}
        self._result_q = None
        self._idle: set[int] = set()
        self._lost: set[int] = set()
        self._pending: dict[int, dict] = {}
        self._started = False
        self._closed = False
        #: names of every parent-created shm segment not yet unlinked —
        #: the live set :meth:`leaked_segments` audits
        self._segment_names: set[str] = set()
        #: transport + throughput counters (also mirrored to metrics)
        self.dispatched = 0
        self.completed = 0
        self.shm_tasks = 0
        self.pickle_tasks = 0
        self.shm_bytes = 0
        #: supervision counters
        self.crashes = 0
        self.timeouts = 0
        self.restarts = 0
        self.resumed_batches = 0
        self._worker_restarts: dict[int, int] = {
            wid: 0 for wid in range(num_workers)
        }

    # -- lifecycle -----------------------------------------------------------

    def _spawn(self, wid: int) -> None:
        """Start (or replace) the worker process for slot ``wid`` with a
        fresh task queue — a SIGKILLed worker may leave its old queue's
        feeder thread in an undefined state, so queues are never reused
        across process generations."""
        task_q = self._ctx.Queue()
        generation = self._worker_restarts[wid]
        proc = self._ctx.Process(
            target=_worker_main,
            args=(wid, task_q, self._result_q, self.simulator_kwargs),
            name=f"repro-pool-{wid}"
            + (f"-r{generation}" if generation else ""),
            daemon=True,
        )
        proc.start()
        old_q = self._task_qs.get(wid)
        if old_q is not None:
            try:
                old_q.close()
            except Exception:  # pragma: no cover - feeder already dead
                pass
        self._task_qs[wid] = task_q
        self._procs[wid] = proc
        self._idle.add(wid)

    def start(self) -> None:
        """Spawn the worker processes (idempotent; ``submit`` calls it)."""
        if self._started:
            return
        if self._closed:
            raise ServiceError("pool is closed")
        self._result_q = self._ctx.Queue()
        for wid in range(self.num_workers):
            self._spawn(wid)
        self._started = True
        get_metrics().gauge("service.pool.workers", self.num_workers)

    def close(self) -> None:
        """Stop every worker and release all pool-owned resources.

        Idempotent: a second (or concurrent-with-crash) close is a no-op.
        Workers that ignore the poison pill are terminated, then killed;
        every pending task's segments are released and the live-segment
        set is swept so :meth:`leaked_segments` is empty afterwards.
        """
        if self._closed:
            return
        self._closed = True
        for wid, task_q in self._task_qs.items():
            if wid in self._lost:
                continue
            try:
                task_q.put(None)
            except Exception:  # pragma: no cover - feeder already dead
                pass
        for proc in self._procs.values():
            proc.join(timeout=_JOIN_TIMEOUT_S)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
            if proc.is_alive():  # pragma: no cover - ignores SIGTERM
                proc.kill()
                proc.join(timeout=1.0)
        for pending in self._pending.values():
            self._release_segments(pending)
        self._pending.clear()
        # sweep stragglers (there should be none: release is tied to
        # result/crash collection) so a crashed run cannot leak segments
        for name in sorted(self._segment_names):
            try:
                seg = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                pass
            else:  # pragma: no cover - indicates an accounting bug
                seg.close()
                seg.unlink()
            self._segment_names.discard(name)
        if self._result_q is not None:
            self._result_q.close()
        for task_q in self._task_qs.values():
            try:
                task_q.close()
            except Exception:  # pragma: no cover - already closed
                pass
        if self._owns_cache_dir:
            shutil.rmtree(self.cache_dir, ignore_errors=True)

    def __enter__(self) -> "ProcessWorkerPool":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def idle_workers(self) -> int:
        """Workers currently without a dispatched task."""
        if not self._started:
            return self.num_workers
        return len(self._idle)

    @property
    def alive_workers(self) -> int:
        """Workers whose process is currently running (lost slots excluded)."""
        if not self._started:
            return self.num_workers
        return sum(
            1
            for wid, proc in self._procs.items()
            if wid not in self._lost and proc.is_alive()
        )

    @property
    def lost_workers(self) -> list[int]:
        """Slots whose restart budget is exhausted (never respawned)."""
        return sorted(self._lost)

    @property
    def inflight(self) -> int:
        """Tasks dispatched but not yet collected by :meth:`poll`."""
        return len(self._pending)

    # -- dispatch ------------------------------------------------------------

    def _ship_array(self, array: np.ndarray, handles: list):
        """Descriptor for ``array``: a parent-owned shm segment when it
        clears the threshold, the pickled array itself otherwise."""
        if array.nbytes >= self.shm_threshold:
            seg = shared_memory.SharedMemory(create=True, size=array.nbytes)
            np.ndarray(array.shape, dtype=array.dtype, buffer=seg.buf)[:] = (
                array
            )
            handles.append(seg)
            self._segment_names.add(seg.name)
            self.shm_tasks += 1
            self.shm_bytes += array.nbytes
            get_metrics().inc("service.pool.shm_tasks")
            get_metrics().inc("service.pool.shm_bytes", array.nbytes)
            return ("shm", seg.name, array.shape, array.dtype.str)
        self.pickle_tasks += 1
        get_metrics().inc("service.pool.pickle_tasks")
        return ("inline", array)

    def submit(
        self,
        circuit,
        spec: BatchSpec,
        mega: np.ndarray,
        total_columns: int,
        job_columns: list[int],
        trace: bool | None = None,
        job_ids: list[str] | None = None,
        timeout_s: float | None = None,
        resume: bool = False,
        delivery: int | None = None,
        fidelity: float = 1.0,
    ) -> tuple[int, int]:
        """Dispatch one packed mega-block to an idle worker.

        ``mega`` is the padded ``(2**n, spec.num_inputs)`` block from
        :meth:`~repro.service.coalesce.Coalescer.mega_block`;
        ``job_columns`` are the unpadded per-job column counts (summing to
        ``total_columns``); ``job_ids`` (optional, same order) are stamped
        onto the worker's ``service.megabatch``/``service.solo_retry``
        spans so a merged trace correlates one job across processes.
        ``timeout_s`` arms the supervisor's execution deadline (the
        strictest member deadline); ``resume`` marks a redelivered task
        whose worker may resume a crash checkpoint; ``delivery`` is echoed
        into crash evidence; ``fidelity`` is the group's (homogeneous)
        fidelity budget, applied to the worker simulator before the run.
        Returns ``(task_id, wid)``.  Raises
        :class:`ServiceError` when no worker is idle — callers poll first
        — or when every slot's restart budget is exhausted.
        """
        self.start()
        if not self._idle:
            if self.alive_workers == 0:
                raise ServiceError(
                    "no live pool workers (restart budget exhausted: "
                    f"{self.restarts}/{self.max_restarts} restarts used, "
                    f"lost slots {self.lost_workers})"
                )
            raise ServiceError("no idle pool worker (poll for results first)")
        if trace is None:
            trace = get_tracer().enabled
        wid = min(self._idle)
        self._idle.discard(wid)
        task_id = next(self._task_ids)
        handles: list[shared_memory.SharedMemory] = []
        inputs = self._ship_array(mega, handles)
        out_bytes = mega.shape[0] * total_columns * 16
        out_shm = None
        out_seg = None
        if out_bytes >= self.shm_threshold:
            out_seg = shared_memory.SharedMemory(create=True, size=out_bytes)
            handles.append(out_seg)
            self._segment_names.add(out_seg.name)
            out_shm = (out_seg.name, (mega.shape[0], total_columns))
            self.shm_bytes += out_bytes
            get_metrics().inc("service.pool.shm_bytes", out_bytes)
        task = _task(
            task_id, circuit, spec, inputs, total_columns, job_columns,
            job_ids, out_shm=out_shm, trace=trace, resume=resume,
            fidelity=fidelity,
            chaos=(
                self.chaos.action_for(task_id)
                if self.chaos is not None
                else None
            ),
        )
        self._pending[task_id] = {
            "wid": wid,
            "handles": handles,
            "out_seg": out_seg,
            "out_shape": (mega.shape[0], total_columns),
            "dispatched_at": time.perf_counter() - get_tracer().epoch,
            "job_ids": list(job_ids or []),
            "timeout_s": timeout_s,
            "deadline": (
                time.monotonic() + timeout_s if timeout_s is not None else None
            ),
            "delivery": delivery,
        }
        self._task_qs[wid].put(task)
        self.dispatched += 1
        get_metrics().inc("service.pool.dispatched")
        get_metrics().gauge("service.pool.inflight", self.inflight)
        return task_id, wid

    # -- collection ----------------------------------------------------------

    def _release_segments(self, pending: dict) -> None:
        for seg in pending["handles"]:
            self._segment_names.discard(seg.name)
            try:
                seg.close()
                seg.unlink()
            except Exception:  # pragma: no cover - already gone
                pass

    def leaked_segments(self) -> list[str]:
        """Names of shm segments that outlived their task (should be ``[]``).

        A segment is leaked when the pool created it, no pending task
        references it anymore, and it still exists in the OS — the
        invariant the chaos tests assert after every crash/redeliver
        cycle and after :meth:`close`.
        """
        live = {
            seg.name
            for pending in self._pending.values()
            for seg in pending["handles"]
        }
        leaked = []
        for name in sorted(self._segment_names - live):
            try:
                seg = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                self._segment_names.discard(name)
            else:
                seg.close()
                leaked.append(name)
        return leaked

    def _finalize(self, raw: dict) -> dict | None:
        """Account one worker-produced result (None = stale duplicate).

        A result can race the supervisor: the worker finishes in the gap
        between deadline expiry and the kill, so its report arrives after
        the task was already reaped as a timeout.  Such a result's task
        id is no longer pending — drop it; the synthesized crash result
        is the one the service already acted on.
        """
        pending = self._pending.pop(raw["task_id"], None)
        if pending is None:
            return None
        wid = pending["wid"]
        self._idle.add(wid)
        outputs = None
        if raw["outputs"] is not None:
            if raw["outputs"][0] == "shm":
                seg = pending["out_seg"]
                outputs = np.ndarray(
                    pending["out_shape"], dtype=np.complex128, buffer=seg.buf
                ).copy()
            else:
                outputs = raw["outputs"][1]
        self._release_segments(pending)
        self.completed += 1
        self.resumed_batches += raw.get("resumed_batches", 0)
        self._count(wid, raw)
        metrics = get_metrics()
        metrics.inc("service.pool.completed")
        metrics.observe("service.pool.task_wall_s", raw["wall_s"])
        metrics.gauge("service.pool.inflight", self.inflight)
        if raw["spans"]:
            get_tracer().absorb(
                raw["spans"],
                thread=f"pool-worker-{wid}",
                offset=pending["dispatched_at"],
            )
        raw["outputs"] = outputs
        raw.setdefault("crash", None)
        return raw

    def _crash_result(
        self, task_id: int, kind: str, detail: str, exitcode
    ) -> dict:
        """Reap one pending task whose worker died or blew its deadline.

        Releases the task's segments immediately (the worker is gone;
        nothing will write the output block) and synthesizes a result
        whose ``crash`` key carries the evidence the service attaches to
        the member jobs.  Deliberately does **not** mark the slot idle or
        bump completion tallies — the slot re-enters service only through
        :meth:`_respawn`.
        """
        pending = self._pending.pop(task_id)
        wid = pending["wid"]
        self._release_segments(pending)
        self._idle.discard(wid)
        self.crashes += 1
        self._worker_stats[wid]["crashes"] += 1
        metrics = get_metrics()
        metrics.inc("service.pool.worker_deaths")
        metrics.gauge("service.pool.inflight", self.inflight)
        return {
            "task_id": task_id,
            "wid": wid,
            "degraded": True,
            "cause": detail,
            "per_job": None,  # no per-member verdict: the worker is gone
            "outputs": None,
            "modeled_s": 0.0,
            "plan_source": "",
            "solo_runs": 0,
            "resumed_batches": 0,
            "plan_cache": self._plan_cache.get(wid, dict(_EMPTY_PLAN_CACHE)),
            "spans": [],
            "wall_s": 0.0,
            "crash": {
                "kind": kind,
                "wid": wid,
                "exitcode": exitcode,
                "task_id": task_id,
                "job_ids": pending["job_ids"],
                "timeout_s": pending["timeout_s"],
                "delivery": pending["delivery"],
                "detail": detail,
            },
        }

    def _respawn(self, wid: int) -> bool:
        """Replace a dead worker under the restart budget (False = slot lost).

        Restart pacing reuses :class:`~repro.resilience.retry.RetrySession`:
        per-slot attempts bound one flapping worker, the session's run
        budget bounds the fleet, and the exponential backoff is *modeled*
        — accumulated into ``restart_backoff_s`` for operators rather
        than slept, so supervision never blocks the poll loop.
        """
        attempt = self._worker_restarts[wid] + 1
        backoff = self._restart_session.next_backoff(
            f"pool.worker{wid}", attempt
        )
        if backoff is None:
            self._lost.add(wid)
            self._idle.discard(wid)
            get_metrics().gauge("service.pool.workers", self.alive_workers)
            get_resilience_log().record(
                "worker_lost",
                site="pool",
                wid=wid,
                restarts=self._worker_restarts[wid],
                budget=self.max_restarts,
            )
            return False
        self._worker_restarts[wid] = attempt
        self._worker_stats[wid]["restarts"] += 1
        self.restarts += 1
        self._spawn(wid)
        metrics = get_metrics()
        metrics.inc("service.pool.restarts")
        metrics.gauge("service.pool.workers", self.alive_workers)
        get_resilience_log().record(
            "worker_restart",
            site="pool",
            wid=wid,
            restart=attempt,
            backoff_s=round(backoff, 9),
        )
        return True

    def _supervise(self) -> list[dict]:
        """One supervision pass: reap the dead, kill the overdue, respawn.

        Runs on *every* poll (blocking or not), so crash detection never
        depends on a caller choosing ``block=True``.
        """
        if not self._started or self._closed:
            return []
        now = time.monotonic()
        reaped: list[dict] = []
        for task_id in list(self._pending):
            pending = self._pending[task_id]
            wid = pending["wid"]
            proc = self._procs[wid]
            if not proc.is_alive():
                reaped.append(
                    self._crash_result(
                        task_id,
                        kind="worker_crash",
                        detail=(
                            f"pool worker {wid} died (exitcode "
                            f"{proc.exitcode}) while running task {task_id}"
                        ),
                        exitcode=proc.exitcode,
                    )
                )
            elif pending["deadline"] is not None and now > pending["deadline"]:
                # a hung worker holds its slot forever; only a kill frees it
                proc.kill()
                proc.join(timeout=_JOIN_TIMEOUT_S)
                self.timeouts += 1
                get_metrics().inc("service.pool.task_timeouts")
                reaped.append(
                    self._crash_result(
                        task_id,
                        kind="timeout",
                        detail=(
                            f"task {task_id} exceeded its "
                            f"{pending['timeout_s']}s deadline on worker "
                            f"{wid} (killed)"
                        ),
                        exitcode=proc.exitcode,
                    )
                )
        for wid, proc in list(self._procs.items()):
            if wid in self._lost or proc.is_alive():
                continue
            self._respawn(wid)
        return reaped

    def _timeout_error(self, timeout: float) -> ServiceError:
        """Poll-timeout diagnostics: which tasks are stuck on which workers,
        and whether those workers are even alive."""
        stuck = ", ".join(
            f"task {tid} (worker {p['wid']}, jobs {p['job_ids'] or '?'})"
            for tid, p in sorted(self._pending.items())
        )
        liveness = ", ".join(
            f"w{wid}="
            + (
                "lost"
                if wid in self._lost
                else "alive" if proc.is_alive() else "dead"
            )
            for wid, proc in sorted(self._procs.items())
        )
        return ServiceError(
            f"pool poll timed out after {timeout}s with {self.inflight} "
            f"task(s) in flight: {stuck}; workers: {liveness}"
        )

    def poll(self, block: bool = False, timeout: float = 60.0) -> list[dict]:
        """Collect finished results and supervise (empty list when idle).

        Every call — blocking or not — drains ready results, reaps tasks
        whose worker died or blew its deadline (synthesizing crash
        results), and respawns dead workers under the restart budget.
        ``block=True`` additionally waits up to ``timeout`` seconds for
        at least one result while anything is in flight.
        """
        import queue as _queue

        results: list[dict] = []
        if self._result_q is None:
            return results
        while True:
            try:
                raw = self._result_q.get_nowait()
            except _queue.Empty:
                break
            done = self._finalize(raw)
            if done is not None:
                results.append(done)
        results.extend(self._supervise())
        if results or not block or not self._pending:
            return results
        deadline = time.monotonic() + timeout
        while not results:
            try:
                raw = self._result_q.get(timeout=_POLL_TICK_S)
            except _queue.Empty:
                pass
            else:
                done = self._finalize(raw)
                if done is not None:
                    results.append(done)
            results.extend(self._supervise())
            if results or not self._pending:
                break
            if time.monotonic() > deadline:
                raise self._timeout_error(timeout)
        return results

    # -- reporting -----------------------------------------------------------

    def stats(self) -> dict:
        """JSON-safe pool summary for ``service.stats()["pool"]``."""
        return {
            "workers": self.num_workers,
            "alive": self.alive_workers,
            "idle": self.idle_workers,
            "inflight": self.inflight,
            "dispatched": self.dispatched,
            "completed": self.completed,
            "shm_tasks": self.shm_tasks,
            "pickle_tasks": self.pickle_tasks,
            "shm_bytes": self.shm_bytes,
            "crashes": self.crashes,
            "timeouts": self.timeouts,
            "restarts": self.restarts,
            "max_restarts": self.max_restarts,
            "lost_workers": self.lost_workers,
            "restart_backoff_s": round(
                self._restart_session.backoff_total, 9
            ),
            "resumed_batches": self.resumed_batches,
            "leaked_segments": len(self.leaked_segments()),
            "cache_dir": self.cache_dir,
        }


class InlinePool(_Executor):
    """:class:`ProcessWorkerPool`'s interface, run inside this process.

    The ``parallelism="none"`` executor: :meth:`submit` runs the task
    through :func:`_run_task` at once, on one of ``num_workers``
    simulators taken round-robin, and holds the result for the next
    :meth:`poll`.  It reports one idle slot while no result is held, so a
    service step dispatches exactly one group.  Spans go on the ambient
    tracer; with no process to supervise, ``timeout_s``, ``delivery`` and
    chaos do not apply and no crash result is produced.  Example::

        pool = InlinePool(num_workers=2)
        tid, wid = pool.submit(circuit, spec, mega, total, [total])
        (result,) = pool.poll()
    """

    def __init__(
        self, num_workers: int, simulator_kwargs: dict | None = None
    ) -> None:
        super().__init__(num_workers)
        self.simulators = [
            BQSimSimulator(**(simulator_kwargs or {}))
            for _ in range(num_workers)
        ]
        self._next_wid = itertools.cycle(range(num_workers))
        self._ready: list[dict] = []

    @property
    def idle_workers(self) -> int:
        """One free slot while no result is held, none until it is polled."""
        return 0 if self._ready else 1

    @property
    def alive_workers(self) -> int:
        """Every simulator: nothing in this process can die alone."""
        return len(self.simulators)

    def submit(self, circuit, spec: BatchSpec, mega: np.ndarray,
               total_columns: int, job_columns: list[int], trace=None,
               job_ids=None, timeout_s=None, resume: bool = False,
               delivery=None, fidelity: float = 1.0) -> tuple[int, int]:
        """Run one packed mega-block now; returns ``(task_id, wid)``.

        Takes :meth:`ProcessWorkerPool.submit`'s arguments (``trace``,
        ``timeout_s`` and ``delivery`` are ignored).  Raises
        :class:`ServiceError` while an earlier result is unpolled.
        """
        if self._ready:
            raise ServiceError("no idle inline worker (poll for results first)")
        wid, task_id = next(self._next_wid), next(self._task_ids)
        task = _task(
            task_id, circuit, spec, ("inline", mega), total_columns,
            job_columns, job_ids, resume=resume, fidelity=fidelity,
        )
        raw = _run_task(self.simulators[wid], wid, task)
        if raw["outputs"] is not None:
            raw["outputs"] = raw["outputs"][1]
        self._count(wid, raw)
        self._ready.append(raw)
        return task_id, wid

    def poll(self, block: bool = False, timeout: float = 60.0) -> list[dict]:
        """The held result, if any (never waits: ``submit`` ran the task)."""
        ready, self._ready = self._ready, []
        return ready

    def close(self) -> None:
        """Drop any unpolled result (there is nothing else to release)."""
        self._ready.clear()
