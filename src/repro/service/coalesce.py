"""BQCS request coalescing: many jobs, one simulator run.

The paper's speedup comes from pushing *batches* of inputs through one
compiled circuit (amortizing fusion, conversion, and launch overhead);
the coalescer moves that opportunity up a layer, to independently
submitted jobs.  Queued jobs whose circuits compile to the same plan are
concatenated column-wise into one **mega-batch**, executed by a single
:meth:`BQSimSimulator.run` call, and scattered back to per-job results.

A mega-batch is partitioned by the job **group key** — the
:func:`~repro.ell.persist.plan_fingerprint` over *all* of:

* the circuit structure (gates, parameters, qubit count);
* the simulator's compilation settings (fusion algorithm, cost cap,
  sparsity threshold, ELL on/off — the ``_cache_extra()`` tuple);
* the per-job coalescing ``options``;
* the **fidelity class**: a job's requested fidelity budget joins the
  fingerprint whenever it is below 1.0, so exact jobs never share a
  mega-batch (or a compiled plan) with approximate jobs, and two
  different budgets never share either;
* in a gateway fleet, the **shard**: routing assigns each group key to
  one home shard, so a group never spans services.

Two jobs coalesce iff every one of these attributes matches.

Correctness invariant (tested property-style): every ELL spMM backend
computes each output column from its input column alone, so coalescing,
padding, and batch slicing are all *bit-identical* to running each job
solo.  The coalescer may therefore merge aggressively; the only limits
are the device memory budget (four rotating state buffers must fit, the
same bound stage 3 enforces) and a configurable column cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ServiceError
from ..gpu.spec import GpuSpec, state_block_bytes
from ..obs import get_metrics
from ..obs.lifecycle import JobLifecycleLog, get_lifecycle_log
from ..sim.base import BatchSpec
from ..sim.bqsim import NUM_BUFFERS
from .jobs import Job, JobStatus

#: hard cap on mega-batch columns, independent of device memory — keeps a
#: single run's numpy working set (and scatter latency) bounded
DEFAULT_MAX_COLUMNS = 4096


def column_budget(
    gpu: GpuSpec, num_qubits: int, cap: int = DEFAULT_MAX_COLUMNS
) -> int:
    """Widest state block stage 3 can rotate for ``num_qubits`` qubits.

    Mirrors the simulator's own guard: ``NUM_BUFFERS`` buffers of the
    block must fit device memory.  At least one column is always allowed;
    a single over-wide *job* is then the simulator's (splitting/OOM)
    problem, not the coalescer's.  Example::

        budget = column_budget(GpuSpec(), num_qubits=10)
        assert budget >= 1
    """
    per_column = NUM_BUFFERS * state_block_bytes(num_qubits, 1)
    return max(1, min(cap, int(gpu.memory_bytes // per_column)))


@dataclass(frozen=True)
class CoalescedGroup:
    """An ordered cohort of compatible jobs bound for one simulator run.

    Every member shares one plan fingerprint, so the group executes as a
    single mega-batch; :meth:`offsets` records each job's column span so
    results scatter back bit-identically.  Example::

        group = CoalescedGroup(key, jobs=(job_a, job_b))
        assert group.coalesce_factor == 2
        (job_a, 0, a_cols), (job_b, _, _) = group.offsets()
    """

    key: str
    jobs: tuple[Job, ...]

    def __post_init__(self) -> None:
        if not self.jobs:
            raise ServiceError("a coalesced group needs at least one job")

    @property
    def circuit(self):
        """The structural representative (all members fingerprint equally)."""
        return self.jobs[0].circuit

    @property
    def num_qubits(self) -> int:
        return self.jobs[0].num_qubits

    @property
    def total_columns(self) -> int:
        return sum(job.num_inputs for job in self.jobs)

    @property
    def coalesce_factor(self) -> int:
        """Jobs sharing this run — the quantity the service exists to raise."""
        return len(self.jobs)

    def offsets(self) -> list[tuple[Job, int, int]]:
        """Per-job ``(job, start, stop)`` column spans in the mega-batch."""
        spans, cursor = [], 0
        for job in self.jobs:
            spans.append((job, cursor, cursor + job.num_inputs))
            cursor += job.num_inputs
        return spans


class Coalescer:
    """Groups compatible queued jobs and packs/unpacks mega-batches.

    :meth:`build_group` collects ranked jobs matching the head-of-line
    job's plan fingerprint (up to the device-memory column budget and
    ``max_jobs_per_batch``); :meth:`mega_block` packs their inputs into
    one column block of ``spec.num_batches`` uniform-width batches,
    padding the tail with norm-1 copies of the first column;
    :meth:`scatter` undoes the packing exactly.  Example::

        coalescer = Coalescer(GpuSpec())
        group = coalescer.build_group(head_job, ranked_jobs)
        spec, mega, pad = coalescer.mega_block(group)
    """

    def __init__(
        self,
        gpu: GpuSpec,
        max_columns: int = DEFAULT_MAX_COLUMNS,
        max_jobs: int | None = None,
        lifecycle: JobLifecycleLog | None = None,
    ) -> None:
        if max_columns < 1:
            raise ServiceError("max_columns must be >= 1")
        self.gpu = gpu
        self.max_columns = max_columns
        #: optional cap on jobs per group (None = column budget decides)
        self.max_jobs = max_jobs
        # explicit None test: an empty log is falsy (it defines __len__)
        self.lifecycle = (
            lifecycle if lifecycle is not None else get_lifecycle_log()
        )

    # -- grouping ------------------------------------------------------------

    def build_group(self, head: Job, ranked: list[Job]) -> CoalescedGroup:
        """Coalesce ``head`` with every compatible job in ``ranked`` order.

        Compatibility is exactly "same group key", stamped at admission.
        The key is the plan fingerprint over circuit structure,
        compilation settings, per-job options, and — when below 1.0 —
        the fidelity budget (see the module docstring for the full
        attribute list; ``tests/test_approx.py`` regression-tests that
        this documented list matches
        :meth:`~repro.service.workers.BatchSimulationService.group_key_for`).
        The group grows until the column budget for its qubit count — or
        ``max_jobs`` — is exhausted.  Members are marked COALESCED.
        """
        budget = column_budget(self.gpu, head.num_qubits, self.max_columns)
        members = [head]
        columns = head.num_inputs
        for job in ranked:
            if job is head or job.group_key != head.group_key:
                continue
            if columns + job.num_inputs > budget:
                continue
            if self.max_jobs is not None and len(members) >= self.max_jobs:
                break
            members.append(job)
            columns += job.num_inputs
        for job in members:
            job.transition(JobStatus.COALESCED)
        group = CoalescedGroup(key=head.group_key, jobs=tuple(members))
        metrics = get_metrics()
        metrics.observe("service.coalesce_factor", group.coalesce_factor)
        metrics.observe("service.megabatch_columns", group.total_columns)
        for job in group.jobs:
            self.lifecycle.emit(
                "coalesced", job.job_id,
                priority=job.priority,
                group_key=group.key[:12],
                coalesce_factor=group.coalesce_factor,
                columns=group.total_columns,
            )
        return group

    # -- packing -------------------------------------------------------------

    def mega_block(
        self, group: CoalescedGroup
    ) -> tuple[BatchSpec, np.ndarray, int]:
        """Pack a group into one contiguous padded column block.

        Returns ``(spec, mega, pad)``: the concatenated columns of every
        member as a single ``(2**n, spec.num_inputs)`` array, padded with
        ``pad`` copies of the first column so it splits into
        ``spec.num_batches`` equal batches no wider than the column
        budget.  Padding is norm-1 (the health guard stays quiet) and
        provably inert — spMM columns are independent — and dropped at
        scatter.  This is the block every executor task carries (the
        process worker pool ships it through shared memory).
        """
        budget = column_budget(self.gpu, group.num_qubits, self.max_columns)
        mega = np.hstack([job.batch.states for job in group.jobs])
        total = mega.shape[1]
        width = min(total, budget)
        num_batches = -(-total // width)  # ceil
        pad = num_batches * width - total
        if pad:
            mega = np.hstack([mega, np.repeat(mega[:, :1], pad, axis=1)])
        occupancy = total / (num_batches * width)
        get_metrics().observe("service.batch_occupancy", occupancy)
        spec = BatchSpec(num_batches=num_batches, batch_size=width, seed=0)
        return spec, mega, pad

    # -- unpacking -----------------------------------------------------------

    @staticmethod
    def scatter(
        group: CoalescedGroup, outputs: list[np.ndarray]
    ) -> dict[str, np.ndarray]:
        """Slice a run's output batches back into per-job result blocks.

        Inverse of :meth:`mega_block`: concatenate, drop padding, split
        at the group's column offsets.  Bit-identical to what each job
        would have produced alone.
        """
        merged = outputs[0] if len(outputs) == 1 else np.hstack(outputs)
        if merged.shape[1] < group.total_columns:
            raise ServiceError(
                f"scatter expected >= {group.total_columns} output columns, "
                f"got {merged.shape[1]}"
            )
        return {
            job.job_id: merged[:, start:stop]
            for job, start, stop in group.offsets()
        }
