"""Gateway clients: asyncio-native plus a blocking wrapper.

:class:`AsyncGatewayClient` is the canonical protocol implementation —
one TCP connection, sequential request/response frames, typed
:class:`~repro.gateway.protocol.ProtocolError` re-raised client-side
with the server's error code intact.  :class:`GatewayClient` wraps it
for synchronous code (the CLI, benchmarks): it runs a private event
loop on a background thread and proxies every call through it, so the
two classes can never drift apart protocol-wise.

Submitting with explicit ``inputs`` (a complex ``(2**n, k)`` matrix)
round-trips the amplitudes bit-exactly via the base64 codec; submitting
with ``num_inputs`` lets the home shard generate its default seeded
batch server-side.  Example::

    client = GatewayClient("127.0.0.1", 7421)
    job = client.submit(family="ghz", num_qubits=4, inputs=states)
    amplitudes = client.result(job)        # exact complex128 matrix
    client.close()
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np

from ..circuit import Circuit
from ..errors import GatewayError
from .protocol import (
    PROTOCOL_VERSION,
    MAX_LINE_BYTES,
    ProtocolError,
    circuit_to_wire,
    decode_array,
    encode_array,
    encode_frame,
)

import json


def _refusal(response: dict) -> ProtocolError:
    """The typed error an ``"ok": false`` frame carries."""
    error = response.get("error") or {}
    return ProtocolError(
        error.get("code", "INTERNAL"),
        error.get("message", "gateway refused the request"),
        **{
            key: value
            for key, value in error.items()
            if key not in ("code", "message")
        },
    )


class AsyncGatewayClient:
    """One NDJSON protocol connection (asyncio).

    Use as an async context manager or call :meth:`connect` /
    :meth:`close` explicitly.  Requests carry monotonically increasing
    ids; responses are matched strictly in order (the protocol is
    sequential per connection, except a ``stream`` which takes the
    connection over).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._next_id = 0
        self._lock = asyncio.Lock()

    async def connect(self) -> "AsyncGatewayClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=MAX_LINE_BYTES + 2
        )
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
            self._reader = None

    async def __aenter__(self) -> "AsyncGatewayClient":
        return await self.connect()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- plumbing ------------------------------------------------------------

    async def _call(self, op: str, **payload) -> dict:
        """One request/response round trip; raises typed errors."""
        if self._writer is None:
            raise GatewayError("client is not connected")
        async with self._lock:
            self._next_id += 1
            request_id = self._next_id
            frame = {
                "v": PROTOCOL_VERSION,
                "op": op,
                "id": request_id,
                **payload,
            }
            self._writer.write(encode_frame(frame))
            await self._writer.drain()
            line = await self._reader.readline()
        if not line:
            raise GatewayError(
                f"connection closed by gateway during {op!r}"
            )
        response = json.loads(line)
        if response.get("ok"):
            return response
        raise _refusal(response)

    @staticmethod
    def _circuit_wire(
        circuit: Circuit | None,
        qasm: str | None,
        family: str | None,
        num_qubits: int | None,
        seed: int,
    ) -> dict:
        given = sum(x is not None for x in (circuit, qasm, family))
        if given != 1:
            raise GatewayError(
                "specify exactly one of circuit=, qasm=, family="
            )
        if circuit is not None:
            return circuit_to_wire(circuit)
        if qasm is not None:
            return {"qasm": qasm}
        if num_qubits is None:
            raise GatewayError("family= also needs num_qubits=")
        return {"family": family, "num_qubits": num_qubits, "seed": seed}

    # -- ops -----------------------------------------------------------------

    async def ping(self) -> bool:
        return bool((await self._call("ping")).get("pong"))

    async def submit(
        self,
        circuit: Circuit | None = None,
        *,
        qasm: str | None = None,
        family: str | None = None,
        num_qubits: int | None = None,
        seed: int = 0,
        inputs: np.ndarray | None = None,
        num_inputs: int = 1,
        tenant: str = "default",
        priority: int = 0,
        deadline_s: float | None = None,
        timeout_s: float | None = None,
        options: tuple = (),
        fidelity: float = 1.0,
    ) -> str:
        """Submit one job; returns its (shard-prefixed) job id.

        ``fidelity`` is the end-to-end fidelity budget in ``(0, 1]``;
        1.0 (the default) requests the exact tier, anything lower opts
        into fidelity-budgeted approximation (see docs/approximation.md).
        """
        payload: dict = {
            "circuit": self._circuit_wire(
                circuit, qasm, family, num_qubits, seed
            ),
            "tenant": tenant,
            "priority": priority,
            "options": list(options),
        }
        if inputs is not None:
            payload["inputs"] = encode_array(np.asarray(inputs))
        else:
            payload["num_inputs"] = num_inputs
        if deadline_s is not None:
            payload["deadline_s"] = deadline_s
        if timeout_s is not None:
            payload["timeout_s"] = timeout_s
        if fidelity != 1.0:
            payload["fidelity"] = float(fidelity)
        return (await self._call("submit", **payload))["job"]

    async def status(self, job_id: str) -> dict:
        return (await self._call("status", job=job_id))["job"]

    async def result(
        self, job_id: str, wait: bool = True, timeout_s: float = 60.0
    ) -> np.ndarray:
        """The job's exact complex128 output matrix (waits by default).

        A failed/quarantined/cancelled job raises
        :class:`ProtocolError` with code ``JOB_FAILED`` carrying the
        terminal status and evidence.
        """
        response = await self._call(
            "result", job=job_id, wait=wait, timeout_s=timeout_s
        )
        wire = response.get("result")
        if wire is None:
            raise GatewayError(
                f"job {job_id} is {response.get('status')} "
                "(no result yet; use wait=True)"
            )
        return decode_array(wire)

    async def cancel(self, job_id: str) -> dict:
        return await self._call("cancel", job=job_id)

    async def metrics(self) -> str:
        """A Prometheus text scrape of the gateway process."""
        return (await self._call("metrics"))["text"]

    async def stats(self) -> dict:
        return (await self._call("stats"))["stats"]

    async def stream(self, from_seq: int | None = None):
        """Async iterator over live lifecycle events.

        Takes the connection over (the protocol's stream mode); open a
        dedicated client for streaming.  ``from_seq=0`` replays every
        event the server still keeps.  A start older than the server's
        event window, or a reader that falls behind it, raises
        :class:`ProtocolError` ``STREAM_EXPIRED`` with ``oldest_seq``.
        """
        payload = {} if from_seq is None else {"from_seq": from_seq}
        await self._call("stream", **payload)
        while True:
            line = await self._reader.readline()
            if not line:
                return
            frame = json.loads(line)
            if frame.get("stream"):
                yield frame
            elif frame.get("ok") is False:
                raise _refusal(frame)


class GatewayClient:
    """Blocking facade over :class:`AsyncGatewayClient`.

    Owns a private event loop on a daemon thread; every method proxies
    the async client's coroutine of the same name and signature.  Safe
    to call from any thread (calls serialize through the loop).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._async = AsyncGatewayClient(host, port)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="gateway-client",
            daemon=True,
        )
        self._thread.start()
        try:
            self._run(self._async.connect())
        except BaseException:
            self._stop_loop()
            raise

    def _run(self, coroutine):
        return asyncio.run_coroutine_threadsafe(
            coroutine, self._loop
        ).result()

    def close(self) -> None:
        if self._loop.is_closed():
            return
        self._run(self._async.close())
        self._stop_loop()

    def _stop_loop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._loop.close()

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def ping(self) -> bool:
        return self._run(self._async.ping())

    def submit(self, circuit=None, **kwargs) -> str:
        return self._run(self._async.submit(circuit, **kwargs))

    def status(self, job_id: str) -> dict:
        return self._run(self._async.status(job_id))

    def result(
        self, job_id: str, wait: bool = True, timeout_s: float = 60.0
    ) -> np.ndarray:
        return self._run(
            self._async.result(job_id, wait=wait, timeout_s=timeout_s)
        )

    def cancel(self, job_id: str) -> dict:
        return self._run(self._async.cancel(job_id))

    def metrics(self) -> str:
        return self._run(self._async.metrics())

    def stats(self) -> dict:
        return self._run(self._async.stats())

    def stream_events(
        self, from_seq: int = 0, limit: int | None = None,
        timeout_s: float = 10.0,
    ) -> list[dict]:
        """Collect up to ``limit`` stream events (blocking convenience).

        Consumes the connection's stream mode; the client cannot issue
        further requests afterwards — use a dedicated client.
        """

        async def _collect():
            events = []
            iterator = self._async.stream(from_seq=from_seq)
            while limit is None or len(events) < limit:
                try:
                    event = await asyncio.wait_for(
                        iterator.__anext__(), timeout=timeout_s
                    )
                except (StopAsyncIteration, asyncio.TimeoutError):
                    break
                events.append(event)
            return events

        return self._run(_collect())
