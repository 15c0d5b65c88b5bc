"""Process worker pool: parallel execution must be invisible in the bits.

The contract under test is the one the serving layer advertises: for any
worker count and any transport (shared memory or pickle), dispatching
coalesced mega-batches to OS processes produces results *bit-identical*
to serial in-process execution; degradation to per-job isolation happens
inside the owning worker; and workers sharing one on-disk plan cache
compile each fingerprint exactly once fleet-wide.
"""

import numpy as np
import pytest

from repro.circuit import InputBatch
from repro.circuit.generators import make_circuit
from repro.circuit.inputs import random_batch
from repro.errors import ServiceError
from repro.obs import get_tracer
from repro.obs.tracer import tracing
from repro.service import (
    BatchSimulationService,
    JobStatus,
    ProcessWorkerPool,
)
from repro.sim.base import BatchSpec
from repro.sim.bqsim import BQSimSimulator

FAMILIES = ("qft", "ghz", "vqe", "qaoa")


def _mixed_plan_workload(num_qubits: int = 5, seed: int = 0):
    """(circuit, batch) pairs spanning four plan fingerprints."""
    rng = np.random.default_rng(seed)
    pairs = []
    for i, family in enumerate(FAMILIES):
        circuit = make_circuit(family, num_qubits, seed=seed)
        for j in range(3):
            width = int(rng.integers(1, 5))
            pairs.append((circuit, random_batch(num_qubits, width, 10 * i + j)))
    return pairs


def _run_service(pairs, **service_kwargs):
    """Submit every pair, drain, close; per-job results in submit order."""
    service = BatchSimulationService(**service_kwargs)
    try:
        jobs = [service.submit(c, b) for c, b in pairs]
        service.drain()
    finally:
        service.close()
    return [job.result for job in jobs], service.stats()


# ---------------------------------------------------------------------------
# the property: bit-identical results for any worker count
# ---------------------------------------------------------------------------

def test_results_bit_identical_across_worker_counts():
    pairs = _mixed_plan_workload()
    serial, serial_stats = _run_service(pairs, num_workers=2)
    one, _ = _run_service(pairs, num_workers=1, parallelism="process")
    four, four_stats = _run_service(pairs, num_workers=4, parallelism="process")
    assert all(r is not None for r in serial)
    for reference, a, b in zip(serial, one, four):
        assert np.array_equal(reference, a)
        assert np.array_equal(reference, b)
    assert serial_stats["completed"] == four_stats["completed"] == len(pairs)
    assert four_stats["parallelism"] == "process"
    assert four_stats["pool"]["workers"] == 4


@pytest.mark.parametrize("shm_threshold", [1, 1 << 30])
def test_both_transports_are_exact(shm_threshold):
    """Forcing everything through shm (threshold 1) or everything through
    pickle (huge threshold) must not change a bit."""
    pairs = _mixed_plan_workload(num_qubits=4, seed=3)[:6]
    serial, _ = _run_service(pairs, num_workers=1)
    pooled, stats = _run_service(
        pairs,
        num_workers=2,
        parallelism="process",
        shm_threshold=shm_threshold,
    )
    for reference, got in zip(serial, pooled):
        assert np.array_equal(reference, got)
    if shm_threshold == 1:
        assert stats["pool"]["shm_tasks"] > 0
        assert stats["pool"]["pickle_tasks"] == 0
        assert stats["pool"]["shm_bytes"] > 0
    else:
        assert stats["pool"]["shm_tasks"] == 0
        assert stats["pool"]["pickle_tasks"] > 0


# ---------------------------------------------------------------------------
# in-worker degradation
# ---------------------------------------------------------------------------

def test_poisoned_job_fails_alone_inside_its_worker():
    service = BatchSimulationService(
        num_workers=2,
        parallelism="process",
        simulator_kwargs={"health": "fail"},
    )
    circuit = make_circuit("qft", 5)
    batch_a = random_batch(5, 2, 1)
    try:
        good_a = service.submit(circuit, batch_a)
        poison = service.submit(
            circuit, InputBatch(np.full((32, 2), np.nan, dtype=np.complex128))
        )
        good_b = service.submit(circuit, random_batch(5, 3, 2))
        service.drain()
    finally:
        service.close()
    assert good_a.status is JobStatus.DONE and good_a.solo_retry
    assert good_b.status is JobStatus.DONE and good_b.solo_retry
    assert poison.status is JobStatus.FAILED
    assert "non-finite" in poison.error
    stats = service.stats()
    assert stats["degraded_groups"] == 1
    assert stats["completed"] == 2 and stats["failed"] == 1
    assert sum(w["solo_runs"] for w in stats["workers"]) == 2
    # the isolated re-runs are still bit-identical to a standalone run
    solo = BQSimSimulator(health="fail")
    reference = solo.run(
        circuit, BatchSpec(1, 2), batches=[batch_a]
    ).outputs[0]
    assert np.array_equal(good_a.result, reference)


def _poisoned_cohort_run(parallelism: str):
    """A health="fail" service serving one qft cohort with a NaN-poisoned
    member plus a second plan; returns the closed service and its jobs."""
    service = BatchSimulationService(
        num_workers=2,
        parallelism=parallelism,
        simulator_kwargs={"health": "fail"},
    )
    qft = make_circuit("qft", 5)
    try:
        jobs = [
            service.submit(qft, random_batch(5, 2, 1)),
            service.submit(
                qft, InputBatch(np.full((32, 2), np.nan, dtype=np.complex128))
            ),
            service.submit(qft, random_batch(5, 3, 2)),
            service.submit(make_circuit("ghz", 5), random_batch(5, 2, 3)),
        ]
        service.drain()
    finally:
        service.close()
    return service, jobs


def test_serial_and_process_modes_account_jobs_identically():
    """Both modes run one task protocol and one finalize, so per-job
    outcomes, lifecycle streams and the stats schema cannot drift."""
    runs = {mode: _poisoned_cohort_run(mode) for mode in ("none", "process")}
    (serial, serial_jobs), (pooled, pooled_jobs) = runs.values()
    assert [job.status for job in serial_jobs].count(JobStatus.FAILED) == 1
    for a, b in zip(serial_jobs, pooled_jobs):
        assert a.job_id == b.job_id
        for field in ("status", "solo_retry", "error", "attempts",
                      "delivery_count"):
            assert getattr(a, field) == getattr(b, field), (a.job_id, field)
        if a.result is None:
            assert b.result is None
        else:
            assert np.array_equal(a.result, b.result)

        def stream(service, job_id):
            return [
                (event["event"], sorted(event))
                for event in service.lifecycle.events(job_id)
            ]

        assert stream(serial, a.job_id) == stream(pooled, b.job_id)
    serial_stats, pooled_stats = serial.stats(), pooled.stats()
    assert set(serial_stats) == set(pooled_stats) - {"pool"}
    assert {frozenset(w) for w in serial_stats["workers"]} == {
        frozenset(w) for w in pooled_stats["workers"]
    }


# ---------------------------------------------------------------------------
# shared plan cache: compile-once fleet-wide
# ---------------------------------------------------------------------------

def test_shared_disk_cache_compiles_each_fingerprint_once():
    """Two workers racing on one fingerprint: exactly one build; the
    other loads the winner's archive from the shared disk tier."""
    service = BatchSimulationService(
        num_workers=2,
        parallelism="process",
        max_jobs_per_batch=1,  # force two groups -> two workers, same plan
    )
    circuit = make_circuit("ghz", 5)
    try:
        jobs = [service.submit(circuit, random_batch(5, 2, i)) for i in (0, 1)]
        service.drain()
    finally:
        service.close()
    assert all(job.status is JobStatus.DONE for job in jobs)
    stats = service.stats()
    assert sum(w["megabatches"] for w in stats["workers"]) == 2
    cache = stats["plan_cache"]
    assert cache["misses"] == 1, cache  # one fleet-wide build
    assert cache["disk_hits"] == 1, cache  # the loser loaded the archive


# ---------------------------------------------------------------------------
# direct pool API
# ---------------------------------------------------------------------------

def test_pool_submit_poll_matches_direct_simulator_run():
    circuit = make_circuit("ghz", 4)
    batch = random_batch(4, 3, 7)
    spec = BatchSpec(num_batches=1, batch_size=3, seed=0)
    with ProcessWorkerPool(num_workers=1) as pool:
        task_id, wid = pool.submit(circuit, spec, batch.states, 3, [3])
        assert wid == 0
        (result,) = pool.poll(block=True)
    assert result["task_id"] == task_id
    assert not result["degraded"]
    reference = BQSimSimulator().run(circuit, spec, batches=[batch]).outputs[0]
    assert np.array_equal(result["outputs"], reference)


def test_pool_refuses_dispatch_with_no_idle_worker():
    circuit = make_circuit("ghz", 4)
    batch = random_batch(4, 2, 0)
    spec = BatchSpec(num_batches=1, batch_size=2, seed=0)
    with ProcessWorkerPool(num_workers=1) as pool:
        pool.submit(circuit, spec, batch.states, 2, [2])
        with pytest.raises(ServiceError):
            pool.submit(circuit, spec, batch.states, 2, [2])
        pool.poll(block=True)  # drain before close


def test_pool_rejects_zero_workers():
    with pytest.raises(ServiceError):
        ProcessWorkerPool(num_workers=0)


def test_service_rejects_unknown_parallelism():
    with pytest.raises(ServiceError):
        BatchSimulationService(parallelism="threads")


# ---------------------------------------------------------------------------
# observability wiring
# ---------------------------------------------------------------------------

def test_worker_spans_absorbed_into_parent_trace():
    pairs = _mixed_plan_workload(num_qubits=4, seed=5)[:3]
    with tracing() as tracer:
        _run_service(pairs, num_workers=2, parallelism="process")
        spans = tracer.spans()
    threads = {span.thread for span in spans}
    worker_threads = {t for t in threads if t.startswith("pool-worker-")}
    assert worker_threads, threads
    # the parent recorded its own dispatch spans too
    assert any(span.name == "service.dispatch" for span in spans)
    # absorbed worker spans kept their parent/child nesting
    by_id = {span.span_id: span for span in spans}
    absorbed = [s for s in spans if s.thread in worker_threads]
    assert any(
        s.parent_id in by_id and by_id[s.parent_id].thread == s.thread
        for s in absorbed
    )
    assert get_tracer() is not tracer  # context manager restored the global


def test_pool_metrics_emitted():
    from repro.obs import get_metrics

    metrics = get_metrics()
    mark = metrics.mark()
    pairs = _mixed_plan_workload(num_qubits=4, seed=9)[:4]
    _run_service(pairs, num_workers=2, parallelism="process")
    delta = metrics.delta(mark)
    counters = delta.get("counters", delta)
    assert counters.get("service.pool.dispatched", 0) >= 1
    assert counters.get("service.pool.completed", 0) >= 1


def test_pool_worker_metrics_merge_without_double_counting():
    """N workers' tallies fold into exact totals: every job and mega-batch
    is counted exactly once no matter which process ran it."""
    from repro.obs import get_metrics, labeled

    metrics = get_metrics()
    mark = metrics.mark()
    pairs = _mixed_plan_workload(num_qubits=4, seed=11)
    results, stats = _run_service(
        pairs, num_workers=3, parallelism="process"
    )
    assert all(r is not None for r in results)
    delta = metrics.delta(mark)["counters"]
    # pool counters: one dispatch and one completion per mega-batch
    assert delta["service.pool.dispatched"] == stats["megabatches"]
    assert delta["service.pool.completed"] == stats["megabatches"]
    assert delta["service.completed"] == len(pairs)
    # per-worker tallies sum to the fleet totals, not a multiple
    summaries = stats["workers"]
    assert sum(w["jobs_done"] for w in summaries) == len(pairs)
    assert sum(w["megabatches"] for w in summaries) == stats["megabatches"]
    # SLO mirror: terminal events counted once per job across priorities
    done = sum(
        count for name, count in delta.items()
        if name.startswith("service.job.terminal") and '"done"' in name
    )
    assert done == len(pairs)
    slo = stats["slo"]
    assert slo["done"] == len(pairs) and slo["unaccounted_jobs"] == 0


def test_pool_spans_carry_job_ids_for_correlation():
    """One job's id appears on both the parent dispatch span and the
    worker-process mega-batch span after absorption — the property that
    makes a merged Perfetto timeline correlatable."""
    pairs = _mixed_plan_workload(num_qubits=4, seed=13)[:3]
    service = BatchSimulationService(num_workers=2, parallelism="process")
    with tracing() as tracer:
        try:
            jobs = [service.submit(c, b) for c, b in pairs]
            service.drain()
        finally:
            service.close()
        spans = tracer.spans()
    dispatch = [s for s in spans if s.name == "service.dispatch"]
    megabatch = [s for s in spans if s.name == "service.megabatch"]
    assert dispatch and megabatch
    assert all(s.thread.startswith("pool-worker-") for s in megabatch)
    for job in jobs:
        parent_hits = [
            s for s in dispatch if job.job_id in s.attrs.get("job_ids", [])
        ]
        worker_hits = [
            s for s in megabatch if job.job_id in s.attrs.get("job_ids", [])
        ]
        assert parent_hits and worker_hits, job.job_id
        assert all(
            s.thread != worker_hits[0].thread for s in parent_hits
        )  # genuinely cross-process tracks


def test_pin_allocator_takes_on_glibc():
    """Both mallopt thresholds take on a glibc host.  Runs in a child
    process: pinning is for serving processes, not this test runner."""
    import os
    import platform
    import subprocess
    import sys
    from pathlib import Path

    import repro

    if platform.libc_ver()[0] != "glibc":
        pytest.skip("mallopt thresholds are a glibc feature")
    src = str(Path(repro.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-c",
         "from repro.service.pool import pin_allocator; print(pin_allocator())"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "True"


def test_pool_workers_pin_only_when_their_parent_did(monkeypatch, tmp_path):
    """A library pool's workers keep glibc's defaults; the pool of a
    process that pinned (``repro gateway``) pins its workers too."""
    from types import SimpleNamespace

    from repro.service import pool as pool_module

    spawned = []

    class _Context:  # records each worker's spawn arguments
        def Queue(self):
            return SimpleNamespace(close=lambda: None)

        def Process(self, target, args, name, daemon):
            spawned.append(args[-1])
            return SimpleNamespace(start=lambda: None)

    pool = ProcessWorkerPool(num_workers=1, cache_dir=str(tmp_path))
    pool._ctx = _Context()
    for pinned in (False, True):
        monkeypatch.setattr(pool_module, "_pinned", pinned)
        pool._spawn(0)
    assert spawned == [False, True]
