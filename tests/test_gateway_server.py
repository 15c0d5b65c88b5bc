"""End-to-end gateway tests over a real TCP socket.

Everything here talks to a live :class:`GatewayServer` through the
loopback interface — the same code path as ``repro submit --connect``.
The load-bearing properties:

* **bit-identity** — a job submitted over the wire returns amplitudes
  ``np.array_equal`` to the same job run in-process (the base64
  complex128 codec is exact, not approximate);
* **typed refusals** — every hostile or mistimed request (garbage bytes,
  bad QASM, unknown ops, draining server, dead shard) yields a protocol
  error with a stable code, never a traceback or a hung connection;
* **event-driven waits** — a submit wakes the pump, a waiting ``result``
  wakes on its job's end and a ``stream`` on the hub's next event, so no
  wait polls and none outlives the event it waits for.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.circuit.generators import make_circuit
from repro.circuit.inputs import random_batch
from repro.gateway import GatewayClient, GatewayServer, ShardRouter
from repro.gateway import server as server_module
from repro.gateway.protocol import PROTOCOL_VERSION, ProtocolError, encode_array
from repro.gateway.server import _EventHub
from repro.obs import lifecycle
from repro.obs.prom import parse_prometheus_text
from repro.service import BatchSimulationService, workers
from repro.testing.chaos_pool import ChaosSchedule

from .test_gateway_router import _distinct_circuits


class ServerHarness:
    """A gateway server on a private event-loop thread (sync tests)."""

    def __init__(self, **kwargs) -> None:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="test-gateway", daemon=True
        )
        self._thread.start()
        self.server = GatewayServer(**kwargs)
        self._run(self.server.start())

    def _run(self, coroutine, timeout_s: float = 120.0):
        return asyncio.run_coroutine_threadsafe(
            coroutine, self._loop
        ).result(timeout=timeout_s)

    @property
    def port(self) -> int:
        return self.server.port

    def shutdown(self, drain: bool = True) -> None:
        self._run(self.server.shutdown(drain=drain))

    def stop(self) -> None:
        try:
            self.shutdown()
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10)
            self._loop.close()


@pytest.fixture()
def harness():
    h = ServerHarness(num_shards=2)
    yield h
    h.stop()


@pytest.fixture()
def client(harness):
    with GatewayClient("127.0.0.1", harness.port) as c:
        yield c


def raw_exchange(port: int, payload: bytes) -> dict:
    """One raw line in, one frame out (no client-side validation)."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(payload)
        handle = sock.makefile("rb")
        line = handle.readline()
    assert line, "server closed the connection without a response"
    return json.loads(line)


def wait_until(predicate, timeout_s: float = 5.0) -> None:
    """Return once ``predicate()`` holds; fail after ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def watched(hub: _EventHub) -> dict[str, int]:
    """Job id -> number of ``result`` waits the hub would wake."""
    with hub._lock:
        return {job: len(waits) for job, waits in hub._watchers.items()}


def stop_pump(server: GatewayServer) -> None:
    """Stop the pump thread, so submitted jobs stay queued until the test
    steps the fleet itself."""
    server._stop.set()
    server._pump_thread.join(timeout=5)
    assert not server._pump_thread.is_alive()


class TestEndToEnd:
    def test_ping(self, client):
        assert client.ping() is True

    def test_wire_results_are_bit_identical_to_in_process(self, harness):
        """The acceptance criterion: socket == in-process, bit for bit."""
        circuit = make_circuit("qft", 4)
        batch = random_batch(4, 8, 3)

        local = BatchSimulationService()
        reference = local.submit(circuit, batch)
        local.close(drain=True)

        with GatewayClient("127.0.0.1", harness.port) as client:
            job_id = client.submit(circuit, inputs=batch.states)
            remote = client.result(job_id)
        assert np.array_equal(remote, reference.result)  # not allclose

    def test_submit_status_result_cycle(self, client):
        job_id = client.submit(family="ghz", num_qubits=4, num_inputs=6)
        assert job_id.startswith("s")  # shard-prefixed public id
        result = client.result(job_id)
        assert result.shape == (16, 6)
        info = client.status(job_id)
        assert info["status"] == "done"
        assert info["shard"] in ("s0", "s1")
        assert info["job_id"] == job_id

    def test_qasm_submit(self, client):
        qasm = (
            "OPENQASM 2.0;\n"
            'include "qelib1.inc";\n'
            "qreg q[3];\n"
            "h q[0];\ncx q[0], q[1];\ncx q[1], q[2];\n"
        )
        job_id = client.submit(qasm=qasm, num_inputs=2)
        assert client.result(job_id).shape == (8, 2)

    def test_metrics_scrape_is_valid_prometheus(self, client):
        client.result(client.submit(family="ghz", num_qubits=3))
        scrape = parse_prometheus_text(client.metrics())
        samples = scrape["samples"]
        assert any(name.startswith("repro_gateway_") for name in samples)
        # service-layer families ride along in the same scrape
        assert any(
            not name.startswith("repro_gateway_") for name in samples
        )

    def test_stats_covers_the_fleet(self, client):
        client.result(client.submit(family="ghz", num_qubits=3))
        stats = client.stats()
        assert set(stats["shards"]) == {"s0", "s1"}
        assert stats["submitted"] >= 1
        assert stats["slo"]["unaccounted_jobs"] == 0

    def test_stream_carries_the_job_lifecycle(self, harness):
        with GatewayClient("127.0.0.1", harness.port) as submitter:
            job_id = submitter.submit(family="ghz", num_qubits=3)
            submitter.result(job_id)
        with GatewayClient("127.0.0.1", harness.port) as streamer:
            events = streamer.stream_events(
                from_seq=0, limit=64, timeout_s=2.0
            )
        mine = [e for e in events if e.get("job") == job_id]
        stages = [e["event"] for e in mine]
        for stage in ("submitted", "routed", "done"):
            assert stage in stages, f"stream missed {stage}: {stages}"
        assert all("seq" in e and "shard" in e for e in mine)

    def test_cancel_done_job_is_typed(self, client):
        job_id = client.submit(family="ghz", num_qubits=3)
        client.result(job_id)
        with pytest.raises(ProtocolError) as err:
            client.cancel(job_id)
        assert err.value.code == "NOT_CANCELLABLE"
        assert err.value.extra["status"] == "done"


#: a field set to JSON ``true`` (or a non-boolean ``wait``), the op it is
#: sent with, and the code its existing checks refuse it with
BOOLEAN_FIELDS = [
    ("submit", {"circuit": {"family": "ghz", "num_qubits": True}},
     "BAD_CIRCUIT"),
    ("submit", {"circuit": {"family": "ghz", "num_qubits": 3, "seed": True}},
     "BAD_CIRCUIT"),
    ("submit", {"inputs": {"dtype": "c16", "shape": [8, True],
                           "b64": encode_array(np.zeros((8, 1)))["b64"]}},
     "BAD_INPUTS"),
    ("submit", {"num_inputs": True}, "BAD_INPUTS"),
    ("submit", {"priority": True}, "BAD_ENVELOPE"),
    ("submit", {"deadline_s": True}, "BAD_ENVELOPE"),
    ("submit", {"timeout_s": True}, "BAD_ENVELOPE"),
    ("result", {"timeout_s": True}, "BAD_ENVELOPE"),
    ("result", {"wait": "no"}, "BAD_ENVELOPE"),
    ("stream", {"from_seq": True}, "BAD_ENVELOPE"),
    ("ping", {"v": True}, "UNSUPPORTED_VERSION"),
]


class TestTypedWireErrors:
    @pytest.mark.parametrize(
        "op, fields, code", BOOLEAN_FIELDS,
        ids=[
            "circuit.num_qubits", "circuit.seed", "inputs.shape",
            "num_inputs", "priority", "deadline_s", "submit.timeout_s",
            "result.timeout_s", "result.wait", "from_seq", "v",
        ],
    )
    def test_booleans_are_not_numbers(self, harness, op, fields, code):
        frame = {"v": PROTOCOL_VERSION, "op": op, "id": 9}
        if op == "submit":
            frame["circuit"] = {"family": "ghz", "num_qubits": 3}
        if op == "result":
            frame["job"] = "s0/job-0-unknown"
        frame.update(fields)
        response = raw_exchange(
            harness.port, json.dumps(frame).encode() + b"\n"
        )
        assert response["ok"] is False, response
        assert response["error"]["code"] == code, response

    def test_garbage_bytes(self, harness):
        response = raw_exchange(harness.port, b"\x00\xfe{{{ nope\n")
        assert response["ok"] is False
        assert response["error"]["code"] == "BAD_ENVELOPE"

    def test_wrong_version(self, harness):
        response = raw_exchange(
            harness.port, b'{"v": 99, "op": "ping", "id": 1}\n'
        )
        assert response["error"]["code"] == "UNSUPPORTED_VERSION"
        assert response["id"] == 1  # refusals still correlate

    def test_unknown_op(self, harness):
        response = raw_exchange(
            harness.port,
            json.dumps(
                {"v": PROTOCOL_VERSION, "op": "frobnicate", "id": 2}
            ).encode() + b"\n",
        )
        assert response["error"]["code"] == "UNKNOWN_OP"

    def test_submit_without_circuit(self, harness):
        response = raw_exchange(
            harness.port,
            json.dumps(
                {"v": PROTOCOL_VERSION, "op": "submit", "id": 3}
            ).encode() + b"\n",
        )
        assert response["error"]["code"] in ("BAD_CIRCUIT", "BAD_ENVELOPE")

    def test_bad_qasm_is_typed_with_line(self, client):
        with pytest.raises(ProtocolError) as err:
            client.submit(
                qasm="OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];\n"
            )
        assert err.value.code == "BAD_QASM"
        assert err.value.extra.get("line") == 3

    def test_oversized_circuit_is_typed(self, client):
        with pytest.raises(ProtocolError) as err:
            client.submit(family="ghz", num_qubits=30)
        assert err.value.code == "OVERSIZED"

    def test_bad_inputs_are_typed(self, client):
        wrong = random_batch(5, 2, 0).states  # 32 rows for a 3q circuit
        with pytest.raises(ProtocolError) as err:
            client.submit(family="ghz", num_qubits=3, inputs=wrong)
        assert err.value.code == "BAD_INPUTS"

    def test_unknown_job(self, client):
        with pytest.raises(ProtocolError) as err:
            client.status("s0/job-404-deadbeef")
        assert err.value.code == "UNKNOWN_JOB"
        with pytest.raises(ProtocolError) as err:
            client.result("s9/job-404-deadbeef")
        assert err.value.code == "UNKNOWN_JOB"

    def test_connection_survives_an_error(self, client):
        """A typed refusal must not poison the connection."""
        with pytest.raises(ProtocolError):
            client.status("s0/nope")
        assert client.ping() is True


class TestShardDeathOverTheWire:
    def test_dead_fleet_yields_job_failed_not_a_hang(self):
        """With every shard dead, result() gets a typed terminal error."""
        harness = ServerHarness(
            num_shards=1,
            service_kwargs={
                "parallelism": "process",
                "num_workers": 1,
                "max_restarts": 0,
            },
        )
        router = harness.server.router
        router.shards["s0"].service.chaos = ChaosSchedule.parse("kill=1")
        try:
            with GatewayClient("127.0.0.1", harness.port) as client:
                job_ids = [
                    client.submit(family="ghz", num_qubits=3 + i)
                    for i in range(2)
                ]
                failures = []
                for job_id in job_ids:
                    with pytest.raises(ProtocolError) as err:
                        client.result(job_id, timeout_s=30.0)
                    failures.append(err.value)
                for failure in failures:
                    assert failure.code == "JOB_FAILED"
                    assert failure.extra["status"] in (
                        "failed", "cancelled", "quarantined"
                    )
            assert router.unaccounted() == []
        finally:
            harness.stop()

    def test_a_waiting_result_follows_its_rescued_job(self, monkeypatch):
        """A wait on a job that failover re-homes wakes when the original
        is cancelled, and must then find the replacement: the alias is in
        place before the cancel, however slowly the survivors admit."""
        place = ShardRouter._resubmit

        def slow_place(router, spec):
            time.sleep(0.05)
            return place(router, spec)

        monkeypatch.setattr(ShardRouter, "_resubmit", slow_place)
        harness = ServerHarness(
            num_shards=2,
            service_kwargs={
                "parallelism": "process",
                "num_workers": 1,
                "max_restarts": 0,
            },
        )
        router = harness.server.router
        router.shards["s0"].service.chaos = ChaosSchedule.parse("kill=1")
        circuits = _distinct_circuits(router, "s0", 3)
        batches = [
            random_batch(c.num_qubits, 2, 40 + i)
            for i, c in enumerate(circuits)
        ]
        healthy = ShardRouter(num_shards=1)
        reference = [
            healthy.submit(c, batch=b)[0] for c, b in zip(circuits, batches)
        ]
        healthy.drain()
        healthy.close()
        try:
            # admitted together, so all three are on s0 when it dies
            with router.shards["s0"].lock:
                job_ids = [
                    router.submit(c, batch=b)[0].job_id
                    for c, b in zip(circuits, batches)
                ]
            assert all(job_id.startswith("s0/") for job_id in job_ids)
            with GatewayClient("127.0.0.1", harness.port) as client:
                results = [
                    client.result(job_id, timeout_s=30.0)
                    for job_id in job_ids
                ]
            for result, ref in zip(results, reference):
                assert np.array_equal(result, ref.result)
            for job_id in job_ids:
                assert router.describe(job_id)["shard"] == "s1"
            assert router.stats()["rescued"] == 3
        finally:
            harness.stop()
        assert router.unaccounted() == []


class TestDraining:
    def test_draining_refusals_are_typed(self, harness):
        """New connections get DRAINING everywhere; old ones can still
        collect results (only submit/stream are refused)."""
        with GatewayClient("127.0.0.1", harness.port) as veteran:
            job_id = veteran.submit(family="ghz", num_qubits=3)
            veteran.result(job_id)  # finished before the drain starts
            harness.server._draining = True
            try:
                # a connection born during the drain: everything refused
                with GatewayClient("127.0.0.1", harness.port) as newborn:
                    with pytest.raises(ProtocolError) as err:
                        newborn.ping()
                    assert err.value.code == "DRAINING"
                # the veteran may not add work...
                with pytest.raises(ProtocolError) as err:
                    veteran.submit(family="ghz", num_qubits=3)
                assert err.value.code == "DRAINING"
                # ...but may still collect what it is owed
                assert veteran.status(job_id)["status"] == "done"
                assert veteran.result(job_id).shape == (8, 1)
            finally:
                harness.server._draining = False

    def test_graceful_shutdown_finishes_admitted_work(self):
        """shutdown(drain=True) under worker chaos: admitted jobs reach
        terminal states, nothing is lost, new work is refused."""
        harness = ServerHarness(
            num_shards=2,
            service_kwargs={
                "parallelism": "process",
                "num_workers": 1,
                "chaos": ChaosSchedule.parse("kill=1"),
            },
        )
        router = harness.server.router
        client = GatewayClient("127.0.0.1", harness.port)
        try:
            job_ids = [
                client.submit(family="ghz", num_qubits=3, num_inputs=2)
                for _ in range(4)
            ] + [
                client.submit(family="qft", num_qubits=4, num_inputs=2)
                for _ in range(4)
            ]
            harness.shutdown(drain=True)
            for job_id in job_ids:
                info = router.describe(job_id)
                # chaos kills the first task on each pool; with restart
                # budget the job is redelivered and still finishes
                assert info["status"] in ("done", "quarantined")
            assert router.unaccounted() == []
        finally:
            client.close()
            harness.stop()


class TestBoundedMemory:
    """A server's memory does not grow with the jobs it has served: inputs
    go at terminal, delivered jobs leave after the re-fetch window, and
    every event store keeps a fixed window."""

    @pytest.mark.parametrize(
        "fleet",
        [
            # round-robin placement, so both shards serve jobs
            {"num_shards": 2, "routing": "random"},
            {
                "num_shards": 1,
                "service_kwargs": {"parallelism": "process", "num_workers": 1},
            },
        ],
        ids=["serial-shards", "process-shard"],
    )
    def test_a_server_forgets_delivered_jobs(self, monkeypatch, fleet):
        monkeypatch.setattr(workers, "REFETCH_JOBS", 3)
        monkeypatch.setattr(workers, "REFETCH_BYTES", 1024)
        monkeypatch.setattr(lifecycle, "EVENT_WINDOW", 16)
        jobs = 24
        harness = ServerHarness(**fleet)
        server = harness.server
        try:
            with GatewayClient("127.0.0.1", harness.port) as client:
                job_ids, results = [], []
                for i in range(jobs):  # 256, 512 or 768 result bytes
                    job_ids.append(
                        client.submit(
                            family="ghz", num_qubits=4, num_inputs=1 + i % 3
                        )
                    )
                    results.append(client.result(job_ids[-1]))
                stats = client.stats()
                assert stats["completed"] == jobs
                assert stats["slo"]["unaccounted_jobs"] == 0
                for shard in server.router.shards.values():
                    service = shard.service
                    held = [job.result.nbytes for job in service.jobs.values()]
                    assert len(held) <= workers.REFETCH_JOBS
                    assert sum(held) <= workers.REFETCH_BYTES + max(held)
                    assert all(
                        job.batch is None for job in service.jobs.values()
                    )
                    assert len(service.lifecycle) <= lifecycle.EVENT_WINDOW
                    assert len(service.events) <= lifecycle.EVENT_WINDOW
                assert len(server.hub) <= lifecycle.EVENT_WINDOW
                for ask in (client.status, client.result):
                    with pytest.raises(ProtocolError) as err:
                        ask(job_ids[0])
                    assert err.value.code == "UNKNOWN_JOB"
                    assert "already delivered" in str(err.value)
                assert np.array_equal(client.result(job_ids[-1]), results[-1])
                assert client.status(job_ids[-1])["status"] == "done"
            with GatewayClient("127.0.0.1", harness.port) as streamer:
                with pytest.raises(ProtocolError) as err:
                    streamer.stream_events(from_seq=0, timeout_s=2.0)
            assert err.value.code == "STREAM_EXPIRED"
            assert err.value.extra["oldest_seq"] == (
                server.hub.next_seq - len(server.hub)
            ) > 0
        finally:
            harness.stop()

    def test_a_job_that_ends_during_a_poll_is_delivered(self, monkeypatch):
        """The pump may end a job right after ``deliver`` looked at it.
        The reply follows what ``deliver`` saw, so a result never leaves
        the server without its delivery being recorded."""
        harness = ServerHarness(num_shards=1)
        harness.server._stop.set()  # no pump: the job ends inside deliver
        service = harness.server.router.shards["s0"].service
        look = service.deliver

        def look_then_end(job_id):
            status = look(job_id)
            service.drain()
            return status

        monkeypatch.setattr(service, "deliver", look_then_end)
        try:
            with GatewayClient("127.0.0.1", harness.port) as client:
                job_id = client.submit(family="ghz", num_qubits=3)
                # the job ended before the wait began: a wait that missed
                # its end would run into the timeout
                start = time.monotonic()
                assert client.result(job_id, timeout_s=5.0).shape == (8, 1)
                assert time.monotonic() - start < 4.0
            assert job_id in service._delivered
        finally:
            harness.stop()

    def test_undelivered_results_stay(self, monkeypatch):
        """Only a delivery starts a job's way out: a finished job no one
        collected stays addressable past any number of deliveries."""
        monkeypatch.setattr(workers, "REFETCH_JOBS", 1)
        harness = ServerHarness(num_shards=1)
        try:
            with GatewayClient("127.0.0.1", harness.port) as client:
                kept = client.submit(family="ghz", num_qubits=3)
                for _ in range(3):
                    client.result(client.submit(family="ghz", num_qubits=3))
                assert client.status(kept)["status"] == "done"
                assert client.result(kept).shape == (8, 1)
        finally:
            harness.stop()

    def test_a_cancel_that_returns_cancelled_delivers(self, monkeypatch):
        monkeypatch.setattr(workers, "REFETCH_JOBS", 1)
        harness = ServerHarness(num_shards=1)
        harness.server._stop.set()  # no pump: submitted jobs stay queued
        try:
            with GatewayClient("127.0.0.1", harness.port) as client:
                first, second = (
                    client.submit(family="ghz", num_qubits=3) for _ in "ab"
                )
                assert client.cancel(first)["status"] == "cancelled"
                assert client.status(first)["status"] == "cancelled"
                assert client.cancel(second)["status"] == "cancelled"
                with pytest.raises(ProtocolError) as err:
                    client.status(first)
                assert err.value.code == "UNKNOWN_JOB"
        finally:
            harness.stop()

    def test_hub_sequence_numbers_stay_absolute(self, monkeypatch):
        monkeypatch.setattr(lifecycle, "EVENT_WINDOW", 4)
        hub = _EventHub()
        for i in range(10):
            hub._append("s0", {"event": "submitted", "job": f"j{i}"})
        assert len(hub) == 4 and hub.next_seq == 10
        assert [e["seq"] for e in hub.since(7)] == [7, 8, 9]
        assert hub.since(10) == []
        with pytest.raises(ProtocolError) as err:
            hub.since(5)
        assert err.value.code == "STREAM_EXPIRED"
        assert err.value.extra["oldest_seq"] == 6


class TestEventDrivenWaits:
    """Every wait ends on the event it waits for, not on a clock."""

    def test_a_submit_wakes_the_pump(self, monkeypatch):
        monkeypatch.setattr(server_module, "PUMP_IDLE_S", 30.0)
        harness = ServerHarness(num_shards=1)
        try:
            with GatewayClient("127.0.0.1", harness.port) as client:
                start = time.monotonic()
                job_id = client.submit(family="ghz", num_qubits=3)
                assert client.result(job_id, timeout_s=5.0).shape == (8, 1)
                assert time.monotonic() - start < 5.0
            start = time.monotonic()
            harness.shutdown()
            assert time.monotonic() - start < 5.0
        finally:
            harness.stop()

    def test_a_waiting_result_wakes_on_its_jobs_end(self, monkeypatch):
        harness = ServerHarness(num_shards=1)
        router = harness.server.router
        stop_pump(harness.server)
        deliveries = []
        deliver = router.deliver

        def counted(job_id):
            deliveries.append(job_id)
            return deliver(job_id)

        monkeypatch.setattr(router, "deliver", counted)
        try:
            with GatewayClient("127.0.0.1", harness.port) as client, \
                    ThreadPoolExecutor(max_workers=1) as pool:
                job_id = client.submit(family="qft", num_qubits=4)
                waiting = pool.submit(client.result, job_id, timeout_s=10.0)
                time.sleep(0.5)
                assert not waiting.done()
                assert len(deliveries) <= 3, len(deliveries)
                router.drain()
                assert waiting.result(timeout=5.0).shape == (16, 1)
        finally:
            harness.stop()

    def test_no_wait_stays_registered(self):
        """Completed waits, timed-out waits and waits whose client left
        all leave the hub's registry empty once their jobs end."""
        harness = ServerHarness(num_shards=1)
        hub = harness.server.hub
        stop_pump(harness.server)
        try:
            with GatewayClient("127.0.0.1", harness.port) as client, \
                    GatewayClient("127.0.0.1", harness.port) as waiter, \
                    ThreadPoolExecutor(max_workers=1) as pool:
                done, timed_out, abandoned = (
                    client.submit(family="ghz", num_qubits=3 + i)
                    for i in range(3)
                )
                waiting = pool.submit(waiter.result, done, timeout_s=10.0)
                with pytest.raises(ProtocolError) as err:
                    client.result(timed_out, timeout_s=0.2)
                assert err.value.code == "TIMEOUT"
                assert err.value.extra["status"] == "queued"
                with socket.create_connection(
                    ("127.0.0.1", harness.port), timeout=5
                ) as sock:
                    sock.sendall(json.dumps({
                        "v": PROTOCOL_VERSION, "op": "result", "id": 1,
                        "job": abandoned,
                    }).encode() + b"\n")
                    wait_until(
                        lambda: watched(hub) == {done: 1, abandoned: 1}
                    )
                assert watched(hub) == {done: 1, abandoned: 1}
                harness.server.router.drain()
                assert waiting.result(timeout=5.0).shape == (8, 1)
                assert watched(hub) == {}
                assert client.result(timed_out).shape == (16, 1)
            assert watched(hub) == {} and hub._streams == []
        finally:
            harness.stop()

    def test_concurrent_waits_all_wake(self):
        """More waiting clients than cores, with thread switches forced
        often: a wake-up lost between a wait's status read and its
        registration would surface as a TIMEOUT."""
        harness = ServerHarness(num_shards=2)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)

        def submit_and_wait(seed):
            with GatewayClient("127.0.0.1", harness.port) as client:
                for i in range(6):
                    job_id = client.submit(
                        family="ghz", num_qubits=3 + (seed + i) % 3
                    )
                    client.result(job_id, timeout_s=10.0)
            return seed

        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                assert sorted(pool.map(
                    submit_and_wait, range(6), timeout=60
                )) == list(range(6))
            assert watched(harness.server.hub) == {}
        finally:
            sys.setswitchinterval(previous)
            harness.stop()

    def test_an_idle_stream_waits_for_the_next_event(self, monkeypatch):
        harness = ServerHarness(num_shards=1)
        hub = harness.server.hub
        reads = []
        since = hub.since

        def counted(seq, *args, **kwargs):
            reads.append(seq)
            return since(seq, *args, **kwargs)

        monkeypatch.setattr(hub, "since", counted)
        try:
            with socket.create_connection(
                ("127.0.0.1", harness.port), timeout=5
            ) as sock:
                frames = sock.makefile("rb")
                sock.sendall(json.dumps({
                    "v": PROTOCOL_VERSION, "op": "stream", "id": 1,
                }).encode() + b"\n")
                assert json.loads(frames.readline())["streaming"] is True
                time.sleep(0.5)
                assert len(reads) <= 3, len(reads)
                with GatewayClient("127.0.0.1", harness.port) as client:
                    job_id = client.submit(family="ghz", num_qubits=3)
                    client.result(job_id, timeout_s=5.0)
                while True:  # the socket timeout bounds each read
                    event = json.loads(frames.readline())
                    if event["job"] == job_id and event["event"] == "done":
                        break
        finally:
            harness.stop()


class TestShutdown:
    def test_sigterm_with_open_connections_exits_cleanly(self, tmp_path):
        """SIGTERM to ``repro gateway`` while a client idles on one
        connection and another streams: the handlers end before the loop
        closes, so nothing is cancelled and nothing logs a traceback."""
        port_file = tmp_path / "gateway.port"
        src = str(Path(repro.__file__).resolve().parents[1])
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "gateway", "--port", "0",
             "--shards", "2", "--port-file", str(port_file)],
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            wait_until(
                lambda: port_file.exists() and port_file.read_text().strip(),
                timeout_s=60.0,
            )
            port = int(port_file.read_text())
            with socket.create_connection(("127.0.0.1", port), timeout=5), \
                    socket.create_connection(
                        ("127.0.0.1", port), timeout=5
                    ) as stream:
                stream.sendall(json.dumps({
                    "v": PROTOCOL_VERSION, "op": "stream", "id": 1,
                }).encode() + b"\n")
                assert json.loads(stream.makefile("rb").readline())["ok"]
                server.send_signal(signal.SIGTERM)
                output, _ = server.communicate(timeout=60)
        finally:
            server.kill()
            server.wait()
        assert server.returncode == 0, output
        assert "Traceback" not in output, output
        assert "0 unaccounted" in output, output
