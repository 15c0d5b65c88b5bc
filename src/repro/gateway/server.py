"""The asyncio TCP gateway server.

One :class:`GatewayServer` listens on a TCP port, speaks the NDJSON
protocol of :mod:`repro.gateway.protocol`, and drives a
:class:`~repro.gateway.router.ShardRouter` from a background **pump
thread** — the shards' synchronous ``step()`` loops never run on the
event loop, so a slow mega-batch cannot stall connection handling.
Handler coroutines reach the router through ``run_in_executor`` (router
calls take shard locks).  No handler polls: a submit wakes the pump, a
waiting ``result`` wakes on its job's terminal lifecycle event, and a
``stream`` wakes when the event hub appends (:class:`_EventHub` is the
one place that wakes waiters).

Request ops: ``ping``, ``submit``, ``status``, ``result``, ``cancel``,
``stream`` (the connection switches to a live feed of lifecycle events,
one frame each, with optional replay from a sequence number still in
the hub's window), ``metrics`` (a Prometheus text scrape of the process
registry — per-shard labeled families included), and ``stats`` (the
merged fleet summary).

A ``result`` that returns a terminal outcome, or a ``cancel`` that
returns ``cancelled``, *delivers* the job
(:meth:`~repro.gateway.router.ShardRouter.deliver`): its shard keeps it
addressable only inside the re-fetch window, then forgets it.

Graceful drain: :meth:`shutdown` with ``drain=True`` flips the server
into draining mode — every request on a *new* connection is refused with
the typed ``DRAINING`` error, in-flight work is finished via the
router's drain, then the fleet closes.  Established connections may keep
calling ``status``/``result``/``metrics`` during the drain to collect
what they are owed; only ``submit`` and ``stream`` are refused.  When
the fleet has closed, :meth:`shutdown` closes every open connection and
returns once their handlers have ended.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading
import time
from collections import deque

from ..errors import (
    GatewayError,
    JobNotCancellable,
    RetryLater,
    ServiceError,
)
from ..obs import get_metrics, lifecycle
from ..obs.prom import prometheus_text
from ..service.jobs import TERMINAL_STATES, JobStatus
from .protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    circuit_from_wire,
    decode_frame,
    encode_array,
    encode_frame,
    error_response,
    inputs_from_wire,
    is_json_int,
    is_json_number,
    ok_response,
)
from .router import ShardRouter

#: upper bound on one blocking ``result`` wait; clients re-ask to wait
#: longer (keeps a dead client from parking a handler forever)
MAX_RESULT_WAIT_S = 300.0

#: longest the pump waits for a submit after a step that finished
#: nothing; it then steps anyway, to check failover and to retry queued
#: work a step left undispatched
PUMP_IDLE_S = 0.005


def _salvage_id(line: bytes):
    """Best-effort request id from a frame that failed validation, so
    even refusals of bad envelopes correlate when the line was JSON."""
    try:
        obj = json.loads(line)
    except (ValueError, UnicodeDecodeError):
        return None
    if isinstance(obj, dict):
        request_id = obj.get("id")
        if isinstance(request_id, (int, str)):
            return request_id
    return None


def _positive_number(request: dict, name: str, default=None):
    """``request[name]`` (or ``default``), refused unless a positive
    number; NaN and booleans are refused too."""
    value = request.get(name, default)
    if value is not None and not (is_json_number(value) and value > 0):
        raise ProtocolError(
            "BAD_ENVELOPE", f"{name!r} must be a positive number"
        )
    return value


def _settle(futures) -> None:
    for future in futures:
        if not future.done():
            future.set_result(None)


class _EventHub:
    """Globally-sequenced merge of every shard's lifecycle stream, and
    the one place that wakes the handlers waiting on it.

    Lifecycle listeners fire on whatever thread emitted the event (pump
    thread, handler executor).  The hub appends under a lock and resolves
    the asyncio futures registered for that append on the event loop
    (``call_soon_threadsafe``): a stream caught up in :meth:`since` waits
    for the next append, a ``result`` (:meth:`watch`) for its job's
    terminal event.  A woken future is forgotten, so the registry holds
    only handlers that are waiting.  The hub keeps the newest
    :data:`~repro.obs.lifecycle.EVENT_WINDOW` events; sequence numbers
    stay absolute.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: deque[dict] = deque(maxlen=lifecycle.EVENT_WINDOW)
        #: the sequence number the next event gets
        self.next_seq = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        #: job id -> futures its terminal event resolves
        self._watchers: dict[str, list[asyncio.Future]] = {}
        #: futures the next append resolves (caught-up streams)
        self._streams: list[asyncio.Future] = []

    def attach(
        self, router: ShardRouter, loop: asyncio.AbstractEventLoop
    ) -> None:
        self._loop = loop
        for shard in router.shards.values():
            shard.service.lifecycle.subscribe(
                lambda event, _name=shard.name: self._append(_name, event)
            )

    def _append(self, shard: str, event: dict) -> None:
        with self._lock:
            self._events.append({"seq": self.next_seq, "shard": shard, **event})
            self.next_seq += 1
            woken, self._streams = self._streams, []
            if event["event"] in lifecycle.TERMINAL_EVENTS:
                woken += self._watchers.pop(event["job"], [])
        if woken:
            self._wake(woken)

    def _wake(self, futures: list[asyncio.Future]) -> None:
        try:
            self._loop.call_soon_threadsafe(_settle, futures)
        except RuntimeError:  # the loop has closed: no one is waiting
            pass

    def since(
        self, seq: int, wake: asyncio.Future | None = None
    ) -> list[dict]:
        """Events with hub sequence >= ``seq`` (empty when caught up).

        When there are none and ``wake`` is given, the next append
        resolves ``wake``; the check and the registration share the lock,
        so no append falls between them.  Raises ``STREAM_EXPIRED``,
        carrying ``oldest_seq``, when ``seq`` is older than the window."""
        with self._lock:
            oldest = self.next_seq - len(self._events)
            if seq < oldest:
                raise ProtocolError(
                    "STREAM_EXPIRED",
                    f"event {seq} is older than the stream window, which "
                    f"starts at {oldest}",
                    oldest_seq=oldest,
                )
            events = list(itertools.islice(
                self._events, len(self._events) - (self.next_seq - seq), None
            ))
            if not events and wake is not None:
                self._streams.append(wake)
            return events

    def watch(self, job_id: str, ended: asyncio.Future) -> None:
        """Resolve ``ended`` on the next terminal event of ``job_id``.

        Register before reading the job's status: every terminal path
        sets the status before it emits its event, so a job that ends
        after that read wakes the watcher."""
        with self._lock:
            self._watchers.setdefault(job_id, []).append(ended)

    def unwatch(self, job_id: str, ended: asyncio.Future) -> None:
        """Forget a watcher (a no-op once its event has woken it)."""
        with self._lock:
            watchers = self._watchers.get(job_id, [])
            if ended in watchers:
                watchers.remove(ended)
                if not watchers:
                    del self._watchers[job_id]

    def release_streams(self) -> None:
        """Wake every caught-up stream (the server is closing)."""
        with self._lock:
            woken, self._streams = self._streams, []
        if woken:
            self._wake(woken)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


class GatewayServer:
    """TCP front door over a shard fleet.

    Construct with an existing router, or let the server build one from
    ``num_shards``/``routing``/``quotas``/``service_kwargs``.  Typical
    embedded use (tests, benchmarks)::

        server = GatewayServer(num_shards=2)
        await server.start()           # binds 127.0.0.1:<ephemeral>
        ...                            # connect clients to server.port
        await server.shutdown(drain=True)
    """

    def __init__(
        self,
        router: ShardRouter | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        num_shards: int = 1,
        routing: str = "affinity",
        quotas=None,
        service_kwargs: dict | None = None,
    ) -> None:
        self.router = router or ShardRouter(
            num_shards=num_shards,
            routing=routing,
            quotas=quotas,
            service_kwargs=service_kwargs,
        )
        self.host = host
        self.port = port
        self.hub = _EventHub()
        self._server: asyncio.AbstractServer | None = None
        self._pump_thread: threading.Thread | None = None
        self._stop = threading.Event()
        #: set by every admitted submit (and by shutdown): ends the pump's
        #: idle wait
        self._wake = threading.Event()
        self._draining = False
        self._closed = False
        #: open connections and the handler task serving each
        self._connections: dict[asyncio.StreamWriter, asyncio.Task] = {}

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "GatewayServer":
        """Bind and start serving; resolves the ephemeral port."""
        if self._server is not None:
            raise GatewayError("server already started")
        self.hub.attach(self.router, asyncio.get_running_loop())
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=MAX_LINE_BYTES + 2
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._pump_thread = threading.Thread(
            target=self._pump, name="gateway-pump", daemon=True
        )
        self._pump_thread.start()
        return self

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def shutdown(self, drain: bool = True) -> None:
        """Stop serving; with ``drain`` finish all admitted work first.

        Idempotent.  New requests are refused with ``DRAINING`` the
        moment this is called; the pump thread keeps stepping until the
        fleet is idle, then everything closes and every job is in
        exactly one terminal state.  Open connections are closed last
        (idle streams end, request connections see EOF), and this
        returns once their handlers have ended, within
        :data:`MAX_RESULT_WAIT_S`.
        """
        if self._closed:
            return
        self._draining = True
        loop = asyncio.get_running_loop()
        if drain:
            await loop.run_in_executor(None, self.router.drain)
        self._stop.set()
        self._wake.set()
        if self._pump_thread is not None:
            await loop.run_in_executor(None, self._pump_thread.join)
        await loop.run_in_executor(
            None, lambda: self.router.close(drain=False)
        )
        self._closed = True
        if self._server is not None:
            self._server.close()
        self.hub.release_streams()
        for writer in list(self._connections):
            if writer.transport.get_write_buffer_size():
                # its client has stopped reading: a close would wait on it
                writer.transport.abort()
            else:
                writer.close()
        if self._connections:
            await asyncio.wait(
                list(self._connections.values()), timeout=MAX_RESULT_WAIT_S
            )
        if self._server is not None:
            await self._server.wait_closed()

    # -- the pump thread -----------------------------------------------------

    def _pump(self) -> None:
        """Drive the synchronous shards until told to stop."""
        metrics = get_metrics()
        while not self._stop.is_set():
            # cleared before the step, so a submit admitted during the
            # step makes the wait below return at once
            self._wake.clear()
            try:
                finished = self.router.step_all()
            except Exception:  # a step must never kill the pump
                metrics.inc("gateway.pump_errors")
                finished = 0
            if finished:
                metrics.inc("gateway.pumped_jobs", finished)
            else:
                self._wake.wait(PUMP_IDLE_S)

    # -- connection handling -------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        metrics = get_metrics()
        metrics.inc("gateway.connections")
        self._connections[writer] = asyncio.current_task()
        #: connections opened during a drain get the typed refusal on
        #: every request; established ones may still collect results
        born_draining = self._draining
        try:
            while not self._closed:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    error = ProtocolError(
                        "OVERSIZED",
                        f"request line exceeds {MAX_LINE_BYTES} bytes",
                        limit=MAX_LINE_BYTES,
                    )
                    writer.write(encode_frame(error_response(None, error)))
                    await writer.drain()
                    break  # cannot resync NDJSON mid-line: drop the link
                if not line:
                    break
                if not line.strip():
                    continue
                request_id = None
                try:
                    request = decode_frame(line)
                    request_id = request.get("id")
                    op = request["op"]
                    metrics.inc("gateway.requests", op=op)
                    if self._draining and (
                        born_draining or op in ("submit", "stream")
                    ):
                        raise ProtocolError(
                            "DRAINING",
                            "gateway is draining; not accepting new work",
                        )
                    if op == "stream":
                        await self._stream(request, writer)
                        break  # a stream consumes the connection
                    response = await self._dispatch(op, request)
                except ProtocolError as error:
                    if request_id is None:
                        request_id = _salvage_id(line)
                    metrics.inc("gateway.errors", code=error.code)
                    response = error_response(request_id, error)
                except ConnectionError:
                    raise
                except Exception as exc:  # never a traceback on the wire
                    error = self._map_exception(exc)
                    metrics.inc("gateway.errors", code=error.code)
                    response = error_response(request_id, error)
                else:
                    response["id"] = request_id
                writer.write(encode_frame(response))
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.pop(writer, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    def _map_exception(exc: Exception) -> ProtocolError:
        """Typed wire form of any non-protocol exception."""
        if isinstance(exc, RetryLater):
            code = (
                "QUOTA_EXCEEDED"
                if getattr(exc, "reason", "") == "quota"
                else "RETRY_LATER"
            )
            return ProtocolError(
                code, str(exc), retry_after_s=exc.retry_after_s
            )
        if isinstance(exc, JobNotCancellable):
            return ProtocolError(
                "NOT_CANCELLABLE", str(exc),
                job=exc.job_id, status=exc.status,
            )
        if isinstance(exc, ServiceError) and "unknown job id" in str(exc):
            return ProtocolError("UNKNOWN_JOB", str(exc))
        if isinstance(exc, (ServiceError, GatewayError)):
            return ProtocolError("INTERNAL", str(exc))
        # arbitrary failure: expose the type, not the internals
        return ProtocolError(
            "INTERNAL", f"internal error ({type(exc).__name__})"
        )

    # -- ops -----------------------------------------------------------------

    async def _dispatch(self, op: str, request: dict) -> dict:
        if op == "ping":
            return ok_response(None, pong=True, t=time.time())
        if op == "submit":
            return await self._submit(request)
        if op == "status":
            return await self._status(request)
        if op == "result":
            return await self._result(request)
        if op == "cancel":
            return await self._cancel(request)
        if op == "metrics":
            text = prometheus_text(get_metrics().snapshot())
            return ok_response(None, text=text)
        if op == "stats":
            loop = asyncio.get_running_loop()
            stats = await loop.run_in_executor(None, self.router.stats)
            return ok_response(None, stats=stats)
        raise ProtocolError("UNKNOWN_OP", f"unknown op {op!r}")

    @staticmethod
    def _job_ref(request: dict) -> str:
        job_id = request.get("job")
        if not isinstance(job_id, str) or not job_id:
            raise ProtocolError(
                "BAD_ENVELOPE", "missing or non-string 'job'"
            )
        return job_id

    async def _submit(self, request: dict) -> dict:
        circuit = circuit_from_wire(request.get("circuit"))
        batch = inputs_from_wire(request.get("inputs"), circuit)
        num_inputs = request.get("num_inputs", 1)
        if not is_json_int(num_inputs) or num_inputs < 1:
            raise ProtocolError(
                "BAD_INPUTS",
                f"'num_inputs' must be a positive integer, "
                f"got {num_inputs!r}",
            )
        tenant = request.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            raise ProtocolError(
                "BAD_ENVELOPE", "'tenant' must be a non-empty string"
            )
        priority = request.get("priority", 0)
        if not is_json_int(priority):
            raise ProtocolError(
                "BAD_ENVELOPE", "'priority' must be an integer"
            )
        deadline_s = _positive_number(request, "deadline_s")
        timeout_s = _positive_number(request, "timeout_s")
        fidelity = request.get("fidelity", 1.0)
        if not is_json_number(fidelity) or not 0.0 < fidelity <= 1.0:
            raise ProtocolError(
                "BAD_ENVELOPE",
                f"'fidelity' must be a number in (0, 1], got {fidelity!r}",
            )
        options = request.get("options", [])
        if not isinstance(options, list):
            raise ProtocolError("BAD_ENVELOPE", "'options' must be a list")
        loop = asyncio.get_running_loop()

        def _do_submit():
            deadline = (
                self.router.clock() + float(deadline_s)
                if deadline_s is not None else None
            )
            admitted = self.router.submit(
                circuit,
                batch,
                num_inputs=num_inputs,
                tenant=tenant,
                priority=priority,
                deadline=deadline,
                timeout_s=(
                    float(timeout_s) if timeout_s is not None else None
                ),
                options=tuple(options),
                fidelity=float(fidelity),
            )
            self._wake.set()
            return admitted

        job, shard = await loop.run_in_executor(None, _do_submit)
        return ok_response(None, job=job.job_id, shard=shard)

    async def _status(self, request: dict) -> dict:
        job_id = self._job_ref(request)
        loop = asyncio.get_running_loop()
        info = await loop.run_in_executor(
            None, self.router.describe, job_id
        )
        return ok_response(None, job=info)

    async def _result(self, request: dict) -> dict:
        job_id = self._job_ref(request)
        wait = request.get("wait", True)
        if not isinstance(wait, bool):
            raise ProtocolError("BAD_ENVELOPE", "'wait' must be a boolean")
        timeout_s = min(
            float(_positive_number(request, "timeout_s", 60.0)),
            MAX_RESULT_WAIT_S,
        )
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s
        # replies follow the status deliver saw: a terminal one is the
        # outcome this call delivers (see ShardRouter.deliver)
        job, status = await loop.run_in_executor(
            None, self.router.deliver, job_id
        )
        while wait and status not in TERMINAL_STATES:
            ended = loop.create_future()
            self.hub.watch(job.job_id, ended)  # before the status read
            try:
                if not job.is_terminal:
                    await asyncio.wait_for(ended, deadline - loop.time())
            except asyncio.TimeoutError:
                raise ProtocolError(
                    "TIMEOUT",
                    f"job {job_id} still {status.value} after "
                    f"{timeout_s:g}s",
                    status=status.value,
                ) from None
            finally:
                self.hub.unwatch(job.job_id, ended)
            # failover may have re-homed the job: its original's end
            # wakes this wait, and deliver follows the alias
            job, status = await loop.run_in_executor(
                None, self.router.deliver, job_id
            )
        if status not in TERMINAL_STATES:
            return ok_response(None, status=status.value, result=None)
        if status is JobStatus.DONE:
            return ok_response(
                None, status=status.value, result=encode_array(job.result),
                job_id=job.job_id,
                fidelity=job.fidelity,
                achieved_fidelity=job.achieved_fidelity,
            )
        raise ProtocolError(
            "JOB_FAILED",
            job.error or f"job {job_id} ended {status.value}",
            status=status.value,
            evidence=job.evidence,
        )

    async def _cancel(self, request: dict) -> dict:
        job_id = self._job_ref(request)
        loop = asyncio.get_running_loop()

        def _do_cancel():
            self.router.cancel(job_id)
            # a job cancelled while queued has ended: this reply delivers it
            return self.router.deliver(job_id)

        job, status = await loop.run_in_executor(None, _do_cancel)
        return ok_response(
            None, job=job.job_id, status=status.value,
            cancel_requested=job.cancel_requested,
        )

    async def _stream(
        self, request: dict, writer: asyncio.StreamWriter
    ) -> None:
        """Switch the connection to a live lifecycle feed.

        Sends an acknowledgement, then one frame per hub event starting
        from ``from_seq`` (default: the next event).  Runs until the
        client disconnects or the server shuts down.  A ``from_seq``
        older than the hub's window is refused with ``STREAM_EXPIRED``
        instead of the acknowledgement; a reader that falls behind the
        window gets the same error frame, and its stream ends.
        """
        from_seq = request.get("from_seq", self.hub.next_seq)
        if not is_json_int(from_seq) or from_seq < 0:
            raise ProtocolError(
                "BAD_ENVELOPE", "'from_seq' must be a non-negative integer"
            )
        events = self.hub.since(from_seq)
        writer.write(
            encode_frame(
                ok_response(
                    request.get("id"), streaming=True, from_seq=from_seq
                )
            )
        )
        await writer.drain()
        seq = from_seq
        loop = asyncio.get_running_loop()
        while not self._closed:
            if events:
                for event in events:
                    writer.write(
                        encode_frame(
                            {"v": 1, "stream": True, **event}
                        )
                    )
                seq = events[-1]["seq"] + 1
                await writer.drain()
            appended = loop.create_future()
            events = self.hub.since(seq, wake=appended)
            if not events:
                # the next append, or shutdown, resolves it
                await appended
