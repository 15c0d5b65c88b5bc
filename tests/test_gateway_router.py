"""Shard router tests: ring stability, affinity, quotas, failover.

The consistent-hash property tests pin the gateway's scaling story:
adding or removing one of N shards remaps only ~1/N of the fingerprint
space, and jobs already placed on surviving shards never move.  The
failover tests reuse the chaos harness to kill one shard's pool mid-run
and assert the PR-8 invariant fleet-wide: zero unaccounted jobs in the
merged lifecycle log, with rescued work finishing on survivors carrying
its crash evidence.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.generators import make_circuit
from repro.circuit.inputs import random_batch
from repro.errors import GatewayError, RetryLater
from repro.gateway.quotas import TenantQuotas, TokenBucket
from repro.gateway.router import HashRing, ShardRouter
from repro.service.jobs import JobStatus
from repro.testing.chaos_pool import ChaosSchedule


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# ---------------------------------------------------------------------------
# the hash ring
# ---------------------------------------------------------------------------

KEYS = [f"fingerprint-{i:05d}" for i in range(2000)]


class TestHashRing:
    def test_deterministic(self):
        a = HashRing(["s0", "s1", "s2"])
        b = HashRing(["s2", "s0", "s1"])  # insertion order irrelevant
        assert [a.node_for(k) for k in KEYS] == [
            b.node_for(k) for k in KEYS
        ]

    def test_covers_all_nodes(self):
        ring = HashRing([f"s{i}" for i in range(4)])
        owners = {ring.node_for(k) for k in KEYS}
        assert owners == {"s0", "s1", "s2", "s3"}

    def test_balance(self):
        ring = HashRing([f"s{i}" for i in range(4)])
        counts = {}
        for key in KEYS:
            node = ring.node_for(key)
            counts[node] = counts.get(node, 0) + 1
        # vnode smoothing: no shard owns more than 2x its fair share
        assert max(counts.values()) < 2 * len(KEYS) / 4

    def test_add_remaps_about_one_over_n(self):
        ring = HashRing([f"s{i}" for i in range(4)])
        before = {k: ring.node_for(k) for k in KEYS}
        ring.add("s4")
        moved = [k for k in KEYS if ring.node_for(k) != before[k]]
        # expected 1/5 of keys move; allow generous slack, but far below
        # the ~4/5 a naive mod-N rehash would move
        assert len(moved) < 0.40 * len(KEYS)
        # every key that moved went TO the new node, nowhere else
        assert {ring.node_for(k) for k in moved} == {"s4"}

    def test_remove_remaps_only_the_dead_nodes_keys(self):
        ring = HashRing([f"s{i}" for i in range(4)])
        before = {k: ring.node_for(k) for k in KEYS}
        ring.remove("s2")
        for key in KEYS:
            if before[key] != "s2":
                assert ring.node_for(key) == before[key]
            else:
                assert ring.node_for(key) != "s2"

    @settings(max_examples=25, deadline=None)
    @given(
        nodes=st.integers(min_value=2, max_value=8),
        victim=st.integers(min_value=0, max_value=7),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_removal_stability_property(self, nodes, victim, seed):
        """Removing any one of N nodes never moves a surviving node's key."""
        victim %= nodes
        keys = [f"k{seed}-{i}" for i in range(200)]
        ring = HashRing([f"s{i}" for i in range(nodes)])
        before = {k: ring.node_for(k) for k in keys}
        ring.remove(f"s{victim}")
        survivors_keys = [
            k for k in keys if before[k] != f"s{victim}"
        ]
        assert all(ring.node_for(k) == before[k] for k in survivors_keys)

    def test_empty_ring_refuses(self):
        with pytest.raises(GatewayError):
            HashRing().node_for("x")

    def test_duplicate_node_refused(self):
        ring = HashRing(["s0"])
        with pytest.raises(GatewayError):
            ring.add("s0")


# ---------------------------------------------------------------------------
# quotas
# ---------------------------------------------------------------------------

class TestQuotas:
    def test_bucket_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2, clock=clock)
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()
        assert bucket.retry_after() == pytest.approx(0.5)
        clock.advance(0.5)
        assert bucket.try_acquire()

    def test_admit_raises_retry_later_with_hint(self):
        clock = FakeClock()
        quotas = TenantQuotas(rate=1.0, burst=1, clock=clock)
        quotas.admit("alice")
        with pytest.raises(RetryLater) as err:
            quotas.admit("alice")
        assert err.value.retry_after_s == pytest.approx(1.0)
        assert getattr(err.value, "reason", "") == "quota"
        # tenants are isolated: bob still has his whole burst
        quotas.admit("bob")
        assert quotas.stats()["alice"]["refused"] == 1

    def test_weights_become_priority_offsets(self):
        quotas = TenantQuotas(tenants={"gold": {"weight": 5}})
        assert quotas.priority_offset("gold") == 5
        assert quotas.priority_offset("anonymous") == 0

    def test_weighted_tenant_gets_priority_on_the_shard(self):
        quotas = TenantQuotas(
            rate=1000.0, tenants={"gold": {"weight": 7}}
        )
        router = ShardRouter(num_shards=1, quotas=quotas)
        job, _ = router.submit(
            make_circuit("ghz", 3), num_inputs=2, tenant="gold"
        )
        assert job.priority == 7
        router.close()


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------

class TestRouting:
    def test_affinity_colocates_identical_fingerprints(self):
        router = ShardRouter(num_shards=4)
        shards = {
            router.submit(make_circuit("ghz", 3), num_inputs=1)[1]
            for _ in range(6)
        }
        assert len(shards) == 1  # same fingerprint, same home shard
        router.drain()
        router.close()
        assert router.unaccounted() == []

    def test_random_routing_spreads(self):
        router = ShardRouter(num_shards=4, routing="random")
        shards = [
            router.submit(make_circuit("ghz", 3), num_inputs=1)[1]
            for _ in range(8)
        ]
        assert len(set(shards)) == 4  # round-robin hits every shard
        router.close()

    def test_routed_lifecycle_event(self):
        router = ShardRouter(num_shards=2)
        job, shard = router.submit(make_circuit("qft", 3), num_inputs=2)
        events = [
            e for e in router.lifecycle_events() if e["event"] == "routed"
        ]
        assert len(events) == 1
        assert events[0]["job"] == job.job_id
        assert events[0]["shard"] == shard
        assert job.job_id.startswith(f"{shard}/")
        router.close()

    def test_backpressure_is_retry_later(self):
        router = ShardRouter(
            num_shards=1, service_kwargs={"max_depth": 2}
        )
        circuit = make_circuit("ghz", 3)
        router.submit(circuit, num_inputs=1)
        router.submit(circuit, num_inputs=1)
        with pytest.raises(RetryLater) as err:
            router.submit(circuit, num_inputs=1)
        assert getattr(err.value, "reason", "") == "backpressure"
        assert err.value.retry_after_s > 0
        router.close()

    def test_merged_slo_is_exact(self):
        router = ShardRouter(num_shards=2, routing="random")
        for i in range(4):
            router.submit(make_circuit("ghz", 3), num_inputs=2)
        router.drain()
        merged = router.merged_slo().summary()
        per_shard = [
            shard.service.slo.summary()
            for shard in router.shards.values()
        ]
        assert merged["done"] == sum(s["done"] for s in per_shard) == 4
        assert merged["latency_s"]["count"] == 4
        router.close()

    def test_stats_shape(self):
        router = ShardRouter(num_shards=2)
        router.submit(make_circuit("ghz", 3), num_inputs=1)
        router.drain()
        stats = router.stats()
        assert stats["submitted"] == stats["completed"] == 1
        assert set(stats["shards"]) == {"s0", "s1"}
        assert stats["slo"]["unaccounted_jobs"] == 0
        router.close()


# ---------------------------------------------------------------------------
# failover
# ---------------------------------------------------------------------------

def _distinct_circuits(router, shard_name, count, start_qubits=3):
    """Circuits whose fingerprints all hash to ``shard_name``."""
    picked = []
    n = start_qubits
    while len(picked) < count and n < 12:
        for family in ("ghz", "qft", "wstate"):
            circuit = make_circuit(family, n)
            key = router.group_key_for(circuit)
            if router.ring.node_for(key) == shard_name:
                picked.append(circuit)
                if len(picked) == count:
                    break
        n += 1
    assert len(picked) == count, "could not find enough distinct groups"
    return picked


class TestFailover:
    def test_dead_shard_rescues_to_survivor(self):
        router = ShardRouter(
            num_shards=2,
            service_kwargs={
                "parallelism": "process",
                "num_workers": 1,
                "max_restarts": 0,
            },
        )
        # only s0's pool is chaos-laden: its first task dies, and with a
        # zero restart budget the whole shard is dead from then on
        router.shards["s0"].service.chaos = ChaosSchedule.parse("kill=1")
        circuits = _distinct_circuits(router, "s0", 3)
        jobs = [
            router.submit(c, batch=random_batch(c.num_qubits, 2, i))[0]
            for i, c in enumerate(circuits)
        ]
        assert all(j.job_id.startswith("s0/") for j in jobs)
        router.drain()
        stats = router.stats()
        router.close()
        # the fleet-wide zero-lost-jobs invariant
        assert router.unaccounted() == []
        assert stats["failovers"] == 1
        assert stats["dead_shards"] == ["s0"]
        assert stats["rescued"] >= 1
        # every original id still resolves; rescued ones finished on s1
        outcomes = [router.describe(j.job_id) for j in jobs]
        rescued = [o for o in outcomes if "resubmitted_as" in o]
        assert rescued, "nothing was rescued"
        for outcome in rescued:
            assert outcome["shard"] == "s1"
            assert outcome["status"] == "done"
        # the job that actually crashed keeps its crash evidence; jobs
        # that were merely queued behind it carry none
        assert any(o["evidence"] for o in rescued), "evidence dropped"

    def test_results_identical_after_failover(self):
        """A rescued job's amplitudes match a healthy run bit-for-bit."""
        chaotic = ShardRouter(
            num_shards=2,
            service_kwargs={
                "parallelism": "process",
                "num_workers": 1,
                "max_restarts": 0,
            },
        )
        chaotic.shards["s0"].service.chaos = ChaosSchedule.parse("kill=1")
        circuits = _distinct_circuits(chaotic, "s0", 2)
        batches = [
            random_batch(c.num_qubits, 2, 7 + i)
            for i, c in enumerate(circuits)
        ]
        jobs = [
            chaotic.submit(c, batch=b)[0]
            for c, b in zip(circuits, batches)
        ]
        chaotic.drain()
        healthy = ShardRouter(num_shards=1)
        reference = [
            healthy.submit(c, batch=b)[0]
            for c, b in zip(circuits, batches)
        ]
        healthy.drain()
        compared = 0
        for job, ref in zip(jobs, reference):
            outcome = chaotic.job(job.job_id)
            if outcome.status.value == "done":
                assert np.array_equal(outcome.result, ref.result)
                compared += 1
        assert compared >= 1
        chaotic.close()
        healthy.close()
        assert chaotic.unaccounted() == []

    def test_no_survivors_still_accounts_everything(self):
        router = ShardRouter(
            num_shards=1,
            service_kwargs={
                "parallelism": "process",
                "num_workers": 1,
                "max_restarts": 0,
            },
        )
        router.shards["s0"].service.chaos = ChaosSchedule.parse("kill=1")
        circuits = _distinct_circuits(router, "s0", 2)
        for i, circuit in enumerate(circuits):
            router.submit(
                circuit, batch=random_batch(circuit.num_qubits, 2, i)
            )
        router.drain(max_rounds=50)
        router.close()
        # nowhere to rescue to: queued jobs were cancelled (accounted),
        # nothing is silently lost
        assert router.unaccounted() == []

    def test_surviving_shard_jobs_untouched_by_failover(self):
        router = ShardRouter(
            num_shards=2,
            service_kwargs={
                "parallelism": "process",
                "num_workers": 1,
                "max_restarts": 0,
            },
        )
        router.shards["s0"].service.chaos = ChaosSchedule.parse("kill=1")
        doomed = _distinct_circuits(router, "s0", 2)
        safe = _distinct_circuits(router, "s1", 2)
        safe_jobs = [
            router.submit(c, batch=random_batch(c.num_qubits, 2, 50 + i))[0]
            for i, c in enumerate(safe)
        ]
        for i, circuit in enumerate(doomed):
            router.submit(
                circuit, batch=random_batch(circuit.num_qubits, 2, i)
            )
        router.drain()
        router.close()
        assert router.unaccounted() == []
        for job in safe_jobs:
            info = router.describe(job.job_id)
            assert info["shard"] == "s1"
            assert "resubmitted_as" not in info
            assert info["status"] == "done"


class TestDelivery:
    def test_deliver_follows_failover_aliases(self):
        router = ShardRouter(num_shards=1)
        job, _ = router.submit(make_circuit("ghz", 3), num_inputs=1)
        router._aliases["s0/job-old"] = job.job_id
        router.drain()
        assert router.deliver("s0/job-old") == (job, JobStatus.DONE)
        router.close()

    def test_concurrent_deliveries_keep_the_window_consistent(
        self, monkeypatch
    ):
        """Handlers deliver from many threads at once; the shard lock
        keeps the re-fetch window's job and byte counts exact."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from repro.service import workers

        monkeypatch.setattr(workers, "REFETCH_JOBS", 4)
        router = ShardRouter(num_shards=1)
        jobs = [
            router.submit(make_circuit("ghz", 3), num_inputs=1 + i % 3)[0]
            for i in range(96)
        ]
        router.drain()
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                delivered = list(pool.map(
                    router.deliver, [job.job_id for job in jobs], timeout=60
                ))
        finally:
            sys.setswitchinterval(previous)
        assert delivered == [(job, JobStatus.DONE) for job in jobs]
        service = router.shards["s0"].service
        assert len(service.jobs) == workers.REFETCH_JOBS
        assert service._delivered_bytes == sum(
            job.result.nbytes for job in service.jobs.values()
        )
        router.close()
