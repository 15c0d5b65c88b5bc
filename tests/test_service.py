"""Tests for the serving layer: jobs, queue, scheduler, coalescer, service.

The acceptance-critical property — coalesced execution is *bit-identical*
to running each job alone — is exercised property-style over random
circuit/job mixes across three circuit families, plus targeted tests for
admission backpressure, starvation-freedom under sustained high-priority
load, deadline ordering, and per-job-isolation degradation.
"""

import warnings

import numpy as np
import pytest

from repro import BQSimSimulator, BatchSpec, make_circuit
from repro.circuit.inputs import InputBatch, random_batch
from repro.errors import AdmissionError, ServiceError
from repro.gpu.spec import GpuSpec
from repro.service import (
    BatchSimulationService,
    Coalescer,
    FairScheduler,
    JobQueue,
    JobStatus,
    SchedulerPolicy,
    ServiceClient,
    column_budget,
    make_job,
)


class ManualClock:
    """Deterministic service clock the fairness tests advance by hand."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> float:
        self.t += dt
        return self.t


def make_service(**kwargs):
    kwargs.setdefault("clock", ManualClock())
    return BatchSimulationService(**kwargs)


# ---------------------------------------------------------------------------
# job model
# ---------------------------------------------------------------------------

def test_job_lifecycle_happy_path():
    job = make_job(0, make_circuit("ghz", 4), random_batch(4, 2, 0))
    assert job.status is JobStatus.PENDING and not job.is_terminal
    job.transition(JobStatus.QUEUED)
    job.transition(JobStatus.COALESCED)
    job.transition(JobStatus.RUNNING)
    job.finish(np.zeros((16, 2)), at=1.0)
    assert job.status is JobStatus.DONE and job.is_terminal
    assert job.history == ["queued", "coalesced", "running", "done"]


def test_job_illegal_transitions_raise():
    job = make_job(0, make_circuit("ghz", 4), random_batch(4, 2, 0))
    with pytest.raises(ServiceError):
        job.transition(JobStatus.RUNNING)  # PENDING cannot skip the queue
    job.transition(JobStatus.QUEUED)
    job.transition(JobStatus.CANCELLED)
    with pytest.raises(ServiceError):
        job.transition(JobStatus.RUNNING)  # terminal states are final


def test_job_ids_are_durable_and_content_addressed():
    circuit = make_circuit("qft", 5)
    batch = random_batch(5, 3, 7)
    a = make_job(4, circuit, batch)
    b = make_job(4, make_circuit("qft", 5), InputBatch(batch.states.copy()))
    assert a.job_id == b.job_id  # same sequence + same content => same id
    assert a.job_id.startswith("job-4-")
    c = make_job(4, circuit, random_batch(5, 3, 8))
    assert c.job_id != a.job_id  # different inputs => different id


def test_job_rejects_mismatched_batch():
    with pytest.raises(ServiceError):
        make_job(0, make_circuit("ghz", 4), random_batch(5, 2, 0))


# ---------------------------------------------------------------------------
# queue: admission control and backpressure
# ---------------------------------------------------------------------------

def test_queue_admits_until_depth_bound_then_rejects():
    clock = ManualClock()
    queue = JobQueue(max_depth=3, clock=clock)
    circuit = make_circuit("ghz", 4)
    for seq in range(3):
        queue.admit(make_job(seq, circuit, random_batch(4, 1, seq)))
    assert queue.depth() == 3
    overflow = make_job(3, circuit, random_batch(4, 1, 3))
    with pytest.raises(AdmissionError) as excinfo:
        queue.admit(overflow)
    assert excinfo.value.depth == 3 and excinfo.value.max_depth == 3
    assert overflow.status is JobStatus.PENDING  # client may retry later
    assert queue.rejected == 1 and queue.admitted == 3


def test_queue_cancel_queued_job():
    queue = JobQueue(max_depth=4, clock=ManualClock())
    job = queue.admit(make_job(0, make_circuit("ghz", 4), random_batch(4, 1, 0)))
    cancelled = queue.cancel(job.job_id)
    assert cancelled.status is JobStatus.CANCELLED
    assert queue.depth() == 0
    with pytest.raises(ServiceError):
        queue.cancel(job.job_id)  # no longer queued


def test_queue_requeue_preserves_aging_credit():
    clock = ManualClock()
    queue = JobQueue(max_depth=4, clock=clock)
    job = queue.admit(make_job(0, make_circuit("ghz", 4), random_batch(4, 1, 0)))
    submitted_at = job.submitted_at
    queue.take([job])
    job.transition(JobStatus.COALESCED)
    clock.advance(5.0)
    queue.requeue([job])
    assert job.status is JobStatus.QUEUED
    assert job.submitted_at == submitted_at  # seniority survives


# ---------------------------------------------------------------------------
# scheduler: fairness and deadlines
# ---------------------------------------------------------------------------

def test_policy_rejects_zero_aging():
    with pytest.raises(ServiceError):
        SchedulerPolicy(aging_rate=0.0)


def test_scheduler_orders_by_effective_priority_with_aging():
    scheduler = FairScheduler(SchedulerPolicy(aging_rate=1.0))
    circuit = make_circuit("ghz", 4)
    old_low = make_job(0, circuit, random_batch(4, 1, 0))
    old_low.priority, old_low.submitted_at = 0, 0.0
    old_low.transition(JobStatus.QUEUED)
    new_high = make_job(1, circuit, random_batch(4, 1, 1))
    new_high.priority, new_high.submitted_at = 3, 10.0
    new_high.transition(JobStatus.QUEUED)
    # at t=10: low has aged to 10 effective, beating static 3
    assert scheduler.select([new_high, old_low], now=10.0) is old_low
    # at t=1: the high static priority still wins
    new_high.submitted_at = 1.0
    assert scheduler.select([new_high, old_low], now=1.0) is new_high


def test_scheduler_deadline_urgent_lane_beats_priority():
    scheduler = FairScheduler(SchedulerPolicy(aging_rate=1.0, urgent_window=5.0))
    circuit = make_circuit("ghz", 4)
    high = make_job(0, circuit, random_batch(4, 1, 0))
    high.priority = 100
    high.transition(JobStatus.QUEUED)
    urgent = make_job(1, circuit, random_batch(4, 1, 1))
    urgent.priority, urgent.deadline = 0, 3.0
    urgent.transition(JobStatus.QUEUED)
    assert scheduler.select([high, urgent], now=0.0) is urgent
    # a distant deadline is not urgent: priority decides again
    urgent.deadline = 100.0
    assert scheduler.select([high, urgent], now=0.0) is high


def test_starvation_freedom_under_sustained_high_priority_load():
    """A priority-0 job completes despite a continuous priority-9 stream."""
    clock = ManualClock()
    service = make_service(
        clock=clock, max_depth=64,
        policy=SchedulerPolicy(aging_rate=1.0),
    )
    low_circuit = make_circuit("ghz", 4)
    high_circuit = make_circuit("qft", 4)
    low = service.submit(low_circuit, num_inputs=1, priority=0)
    rounds_until_done = None
    for round_no in range(30):
        service.submit(high_circuit, num_inputs=1, priority=9)
        clock.advance(1.0)
        service.step()
        if low.status is JobStatus.DONE:
            rounds_until_done = round_no + 1
            break
    # aging_rate=1: after ~9 seconds of wait the low job outranks fresh
    # priority-9 arrivals, so it must complete within a bounded number of
    # rounds — never starve
    assert rounds_until_done is not None and rounds_until_done <= 12


# ---------------------------------------------------------------------------
# coalescer: grouping, budget, packing
# ---------------------------------------------------------------------------

def test_column_budget_respects_device_memory():
    # n=6: one column needs 4 buffers x 64 amplitudes x 16 B = 4096 B
    gpu = GpuSpec(memory_bytes=8 * 4096)
    assert column_budget(gpu, 6) == 8
    assert column_budget(gpu, 6, cap=4) == 4  # explicit cap wins
    assert column_budget(GpuSpec(memory_bytes=1), 6) == 1  # never zero


def test_structurally_equal_circuits_coalesce():
    service = make_service()
    a = service.submit(make_circuit("qft", 5), num_inputs=2)
    b = service.submit(make_circuit("qft", 5), num_inputs=3)
    c = service.submit(make_circuit("ghz", 5), num_inputs=2)
    assert a.group_key == b.group_key  # separate objects, same structure
    assert c.group_key != a.group_key
    service.step()
    assert a.status is JobStatus.DONE and b.status is JobStatus.DONE
    assert c.status is JobStatus.QUEUED  # different plan: different batch
    stats = service.stats()
    assert stats["megabatches"] == 1 and stats["coalesce_factor_max"] == 2


def test_incompatible_options_do_not_coalesce():
    service = make_service()
    a = service.submit(make_circuit("qft", 5), num_inputs=2, options=("hi",))
    b = service.submit(make_circuit("qft", 5), num_inputs=2, options=("lo",))
    assert a.group_key != b.group_key


def test_mega_batch_packing_pads_and_slices_under_budget():
    gpu = GpuSpec(memory_bytes=8 * 4096)  # 8-column budget at n=6
    service = make_service(gpu=gpu, max_depth=32)
    # a 12-column job exceeds the budget alone: packed as 2 slices of 8
    # with 4 pad columns; the 3-column job cannot join (12 + 3 > budget)
    jobs = [
        service.submit(make_circuit("qft", 6), random_batch(6, k, k))
        for k in (12, 3)
    ]
    solo = BQSimSimulator()
    service.drain()
    assert all(job.status is JobStatus.DONE for job in jobs)
    mega = [e for e in service.events if e["event"] == "megabatch"]
    assert all(e["batch_size"] <= 8 for e in mega)
    assert sum(e["columns"] for e in mega) == 15
    padded = [e for e in mega if e["pad"] > 0]
    assert padded, "uneven totals must exercise the padding path"
    # slicing + padding must stay bit-identical to the solo run
    for job in jobs:
        reference = solo.run(
            job.circuit, BatchSpec(1, job.num_inputs), batches=[job.batch]
        ).outputs[0]
        assert np.array_equal(job.result, reference)


def test_scatter_requires_enough_columns():
    service = make_service()
    job = service.submit(make_circuit("ghz", 4), num_inputs=3)
    ranked = service.scheduler.rank(service.queue.jobs(), 0.0)
    group = service.coalescer.build_group(job, ranked)
    with pytest.raises(ServiceError):
        Coalescer.scatter(group, [np.zeros((16, 2))])


# ---------------------------------------------------------------------------
# the acceptance property: coalesced == solo, bit for bit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_coalesced_outputs_bit_identical_to_solo(seed):
    """Random job mixes across three circuit families: every coalesced
    result must equal the solo run of the same job exactly (no tolerance).
    """
    rng = np.random.default_rng(seed)
    families = ["qft", "ghz", "vqe"]
    service = make_service(num_workers=2, max_depth=64)
    jobs = []
    for i in range(9):
        family = families[int(rng.integers(len(families)))]
        batch = random_batch(5, int(rng.integers(1, 6)), int(rng.integers(1000)))
        jobs.append(
            service.submit(
                make_circuit(family, 5),
                batch,
                priority=int(rng.integers(0, 3)),
            )
        )
    service.drain()
    solo = BQSimSimulator()
    coalesced = 0
    for job in jobs:
        assert job.status is JobStatus.DONE
        reference = solo.run(
            job.circuit,
            BatchSpec(num_batches=1, batch_size=job.num_inputs),
            batches=[job.batch],
        ).outputs[0]
        assert np.array_equal(job.result, reference), (
            f"{job.job_id} ({job.circuit.name}) diverged from solo execution"
        )
        coalesced += job.attempts
    stats = service.stats()
    assert stats["coalesce_factor_max"] >= 2  # the mix must actually coalesce
    assert stats["completed"] == len(jobs)


def test_bit_identical_even_when_budget_forces_padding():
    gpu = GpuSpec(memory_bytes=8 * 4096)  # 8-column budget at n=6
    service = make_service(gpu=gpu)
    batches = [random_batch(6, k, 10 + k) for k in (3, 3, 1)]  # 7 of 8 cols
    jobs = [
        service.submit(make_circuit("qaoa", 6), batch) for batch in batches
    ]
    service.drain()
    solo = BQSimSimulator()
    for job in jobs:
        reference = solo.run(
            job.circuit, BatchSpec(1, job.num_inputs), batches=[job.batch]
        ).outputs[0]
        assert np.array_equal(job.result, reference)


# ---------------------------------------------------------------------------
# degradation: one poisoned job cannot fail its cohort
# ---------------------------------------------------------------------------

def test_poisoned_job_fails_alone_after_degradation():
    service = make_service(simulator_kwargs={"health": "fail"})
    circuit = make_circuit("qft", 5)
    good_a = service.submit(circuit, random_batch(5, 2, 1))
    poison = service.submit(
        circuit, InputBatch(np.full((32, 2), np.nan, dtype=np.complex128))
    )
    good_b = service.submit(circuit, random_batch(5, 3, 2))
    service.drain()
    assert good_a.status is JobStatus.DONE and good_a.solo_retry
    assert good_b.status is JobStatus.DONE and good_b.solo_retry
    assert poison.status is JobStatus.FAILED
    assert "non-finite" in poison.error
    stats = service.stats()
    assert stats["degraded_groups"] == 1
    assert stats["completed"] == 2 and stats["failed"] == 1
    # solo outputs are still bit-identical to a standalone run
    solo = BQSimSimulator(health="fail")
    reference = solo.run(
        circuit, BatchSpec(1, 2), batches=[good_a.batch]
    ).outputs[0]
    assert np.array_equal(good_a.result, reference)


def test_injected_oom_degrades_but_everyone_completes():
    """A one-shot injected OOM fails the mega-batch (no splitting allowed);
    the per-job fallback then completes every member.

    The plan is installed process-wide (not per simulator) so its
    one-fire budget persists across the fallback runs — a
    simulator-scoped plan would re-arm per ``run()`` and fail the solo
    retries too.
    """
    from repro.resilience import set_fault_plan

    set_fault_plan("seed=5,oom=1:1")
    try:
        service = make_service(simulator_kwargs={"max_splits": 0})
        circuit = make_circuit("ghz", 5)
        jobs = [
            service.submit(circuit, random_batch(5, 2, i)) for i in range(3)
        ]
        service.drain()
    finally:
        set_fault_plan(None)
    assert all(job.status is JobStatus.DONE for job in jobs)
    assert all(job.solo_retry for job in jobs)
    assert service.stats()["degraded_groups"] == 1


def test_non_repro_error_fails_the_cohort_instead_of_stranding_it(
    monkeypatch,
):
    """A simulator exception outside the ReproError family fails every
    member with its type and message: the step returns, nothing is left
    RUNNING.  A KeyboardInterrupt is not swallowed — it still stops a
    serial server, and close() accounts the interrupted cohort."""

    def boom(self, *args, **kwargs):
        raise ValueError("boom")

    service = make_service()
    job = service.submit(make_circuit("ghz", 4), num_inputs=2)
    monkeypatch.setattr(BQSimSimulator, "run", boom)
    assert service.step() == 1
    assert job.status is JobStatus.FAILED
    assert job.error == "ValueError: boom"
    assert service.lifecycle.unaccounted() == []

    def interrupt(self, *args, **kwargs):
        raise KeyboardInterrupt

    stopped = service.submit(make_circuit("ghz", 4), num_inputs=1)
    monkeypatch.setattr(BQSimSimulator, "run", interrupt)
    with pytest.raises(KeyboardInterrupt):
        service.step()
    service.close()
    assert stopped.status is JobStatus.CANCELLED
    assert service.lifecycle.unaccounted() == []


# ---------------------------------------------------------------------------
# client API and service stats
# ---------------------------------------------------------------------------

def test_client_submit_result_roundtrip():
    client = ServiceClient(clock=ManualClock())
    circuit = make_circuit("qft", 5)
    batch = random_batch(5, 3, 0)
    job_id = client.submit(circuit, batch)
    assert client.status(job_id) is JobStatus.QUEUED
    amplitudes = client.result(job_id)
    reference = BQSimSimulator().run(
        circuit, BatchSpec(1, 3), batches=[batch]
    ).outputs[0]
    assert np.array_equal(amplitudes, reference)
    assert client.status(job_id) is JobStatus.DONE


def test_client_result_raises_for_failed_job():
    client = ServiceClient(
        clock=ManualClock(), simulator_kwargs={"health": "fail"}
    )
    job_id = client.submit(
        make_circuit("ghz", 4),
        InputBatch(np.full((16, 1), np.nan, dtype=np.complex128)),
    )
    with pytest.raises(ServiceError, match="failed"):
        client.result(job_id)


def test_client_unknown_job_raises():
    client = ServiceClient(clock=ManualClock())
    with pytest.raises(ServiceError, match="unknown job"):
        client.status("job-0-deadbeef0000")


def test_service_stats_and_queue_metrics_jsonl(tmp_path):
    service = make_service(num_workers=2)
    circuit = make_circuit("qft", 5)
    for i in range(4):
        service.submit(circuit, random_batch(5, 2, i))
    stats = service.drain()
    assert stats["submitted"] == 4 and stats["completed"] == 4
    assert stats["coalesce_factor_mean"] >= 2  # shared structure coalesced
    assert stats["megabatches"] >= 1
    assert stats["plan_cache"]["misses"] >= 1
    assert 0 < stats["occupancy_mean"] <= 1.0
    path = tmp_path / "queue_metrics.jsonl"
    count = service.write_queue_metrics(path)
    import json

    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == count >= 1
    mega = [line for line in lines if line["event"] == "megabatch"]
    assert mega and all(
        {"coalesce_factor", "occupancy", "queue_depth", "wait_max_s"}
        <= set(line) for line in mega
    )


def test_service_metrics_registry_counters():
    from repro.obs import get_metrics

    metrics = get_metrics()
    mark = metrics.mark()
    service = make_service()
    service.submit(make_circuit("ghz", 4), num_inputs=2)
    service.submit(make_circuit("ghz", 4), num_inputs=1)
    service.drain()
    delta = metrics.delta(mark)
    assert delta["counters"]["service.submitted"] == 2
    assert delta["counters"]["service.completed"] == 2
    assert delta["counters"]["service.megabatches"] == 1
    # delta histograms diff count/sum (min/max are whole-process)
    factor = delta["histograms"]["service.coalesce_factor"]
    assert factor["count"] == 1 and factor["sum"] == 2


def test_service_tracer_spans(tmp_path):
    from repro.obs import tracing, write_chrome_trace, validate_chrome_trace
    import json

    with tracing() as tracer:
        mark = tracer.mark()
        service = make_service()
        service.submit(make_circuit("qft", 4), num_inputs=2)
        service.drain()
        spans = tracer.spans_since(mark)
    names = {span.name for span in spans}
    assert "service.submit" in names and "service.megabatch" in names
    path = tmp_path / "service_trace.json"
    write_chrome_trace(path, spans)
    doc = json.loads(path.read_text())
    assert not validate_chrome_trace(doc)


def test_cancel_through_service():
    service = make_service()
    job = service.submit(make_circuit("ghz", 4), num_inputs=1)
    service.cancel(job.job_id)
    assert job.status is JobStatus.CANCELLED
    assert service.step() == 0  # nothing left to dispatch
    assert service.stats()["cancelled"] == 1
