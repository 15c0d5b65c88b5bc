"""Sharded routing over a fleet of batch simulation services.

A :class:`ShardRouter` owns N independent
:class:`~repro.service.workers.BatchSimulationService` instances
("shards"), each with its own worker pool, queue, scheduler, and —
decisively — its own plan cache.  Placement is **fingerprint affinity**:
jobs hash to shards by their coalescing key (the plan fingerprint), so
work that would coalesce into one mega-batch lands on one shard and hits
one hot plan cache, instead of warming every shard's cache a little.
The hash ring (:class:`HashRing`) uses virtual nodes, so adding or
removing a shard remaps only ~1/N of the fingerprint space — the
stability property the gateway's scaling story rests on.

Failover reuses the crash-evidence machinery from the service layer:
when a shard's process pool spends its restart budget
(:func:`~repro.resilience.failover.shard_is_dead`), the router rescues
its queued jobs (:func:`~repro.resilience.failover.rescue_queued`): each
is resubmitted on a surviving shard with its exact input amplitudes and
crash evidence, its old-id → new-id alias is recorded, and only then is
it cancelled on the dead shard, so the lifecycle log stays accounted and
a client asking for the original id never sees it end ``cancelled``.
In-flight jobs are left to the dead shard's own redelivery/quarantine
bookkeeping, which already guarantees a terminal state for them.

Observability is merged, not sampled: per-shard
:class:`~repro.obs.slo.SLOTracker` histograms fold together exactly
(shared bucket grid), the merged lifecycle stream is the concatenation
of per-shard logs, and ``unaccounted()`` across the fleet is the same
zero-lost-jobs invariant each shard guarantees alone.
"""

from __future__ import annotations

import hashlib
import threading
import time
from bisect import bisect_right
from contextlib import contextmanager

from ..errors import (
    AdmissionError,
    GatewayError,
    JobNotCancellable,
    RetryLater,
    ServiceError,
)
from ..obs import get_metrics
from ..obs.slo import SLOTracker
from ..resilience.failover import rescue_queued, shard_is_dead
from ..service import BatchSimulationService
from .quotas import DEFAULT_TENANT, TenantQuotas

#: virtual nodes per shard on the hash ring — enough that load and the
#: remap fraction both stay near 1/N without making ring rebuilds slow
DEFAULT_VNODES = 64


def _ring_hash(key: str) -> int:
    return int.from_bytes(
        hashlib.sha256(key.encode()).digest()[:8], "big"
    )


class HashRing:
    """Consistent hashing with virtual nodes.

    Each node owns :data:`DEFAULT_VNODES` pseudo-random points on a
    64-bit ring; a key maps to the first node point at or after its own
    hash.  Adding or removing one of N nodes therefore remaps only the
    arcs that node owned — ~1/N of the key space — while every other
    key keeps its assignment.  Example::

        ring = HashRing(["s0", "s1"])
        home = ring.node_for("fingerprint-x")
        ring.add("s2")
        assert ring.node_for("fingerprint-x") in {home, "s2"}
    """

    def __init__(self, nodes=(), vnodes: int = DEFAULT_VNODES) -> None:
        if vnodes < 1:
            raise GatewayError("hash ring needs vnodes >= 1")
        self.vnodes = vnodes
        self._nodes: set[str] = set()
        self._points: list[tuple[int, str]] = []
        self._keys: list[int] = []
        for node in nodes:
            self.add(node)

    def _rebuild(self) -> None:
        self._points = sorted(
            (_ring_hash(f"{node}#{i}"), node)
            for node in self._nodes
            for i in range(self.vnodes)
        )
        self._keys = [point for point, _ in self._points]

    def add(self, node: str) -> None:
        if node in self._nodes:
            raise GatewayError(f"node {node!r} already on the ring")
        self._nodes.add(node)
        self._rebuild()

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            raise GatewayError(f"node {node!r} not on the ring")
        self._nodes.discard(node)
        self._rebuild()

    @property
    def nodes(self) -> set[str]:
        return set(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def node_for(self, key: str) -> str:
        """The node owning ``key`` (raises on an empty ring)."""
        if not self._points:
            raise GatewayError("hash ring is empty")
        index = bisect_right(self._keys, _ring_hash(key))
        if index == len(self._points):
            index = 0
        return self._points[index][1]


class Shard:
    """One service plus the lock serializing access to it.

    The service layer is synchronous and single-threaded by design; the
    gateway drives many shards from a pump thread while network handlers
    submit concurrently, so every call into a shard's service goes
    through its re-entrant ``lock``.
    """

    def __init__(self, name: str, service: BatchSimulationService) -> None:
        self.name = name
        self.service = service
        self.lock = threading.RLock()
        self.dead = False


class ShardRouter:
    """Fingerprint-affinity placement over N service shards.

    ``routing`` selects the placement policy: ``"affinity"`` (default)
    hashes the job's plan fingerprint on the consistent-hash ring;
    ``"random"`` scatters jobs round-robin regardless of fingerprint —
    the cache-oblivious baseline the saturation benchmark compares
    against.  ``service_kwargs`` are forwarded to every shard's
    :class:`BatchSimulationService`.  Example::

        router = ShardRouter(num_shards=2)
        job, shard = router.submit(make_circuit("ghz", 3), num_inputs=4)
        router.drain()
        assert job.status.value == "done"
        router.close()
    """

    def __init__(
        self,
        num_shards: int = 1,
        routing: str = "affinity",
        quotas: TenantQuotas | None = None,
        clock=time.monotonic,
        service_kwargs: dict | None = None,
        vnodes: int = DEFAULT_VNODES,
    ) -> None:
        if num_shards < 1:
            raise GatewayError("router needs at least one shard")
        if routing not in ("affinity", "random"):
            raise GatewayError(
                f"unknown routing {routing!r} "
                "(expected 'affinity' or 'random')"
            )
        self.routing = routing
        self.quotas = quotas
        self.clock = clock
        kwargs = dict(service_kwargs or {})
        kwargs.setdefault("clock", clock)
        self.shards: dict[str, Shard] = {}
        for i in range(num_shards):
            name = f"s{i}"
            self.shards[name] = Shard(
                name, BatchSimulationService(shard=name, **kwargs)
            )
        self.ring = HashRing(self.shards, vnodes=vnodes)
        #: rescued-job aliases: original id -> replacement id (chains)
        self._aliases: dict[str, str] = {}
        #: per-tenant submit accounting by shard (for stats)
        self._routed: dict[str, int] = {name: 0 for name in self.shards}
        self._failovers = 0
        self._rescued = 0
        self._rr = 0
        self._lock = threading.Lock()
        #: serializes check_failover, so one thread at a time holds a dead
        #: shard's lock while it takes a survivor's
        self._failover_lock = threading.Lock()
        self._closed = False

    # -- placement -----------------------------------------------------------

    def _live_shards(self) -> list[Shard]:
        return [s for s in self.shards.values() if not s.dead]

    def _any_live(self) -> Shard:
        live = self._live_shards()
        if not live:
            raise GatewayError("no live shards")
        return live[0]

    def group_key_for(
        self, circuit, options: tuple = (), fidelity: float = 1.0
    ) -> str:
        """The fleet-wide coalescing key (identical on every shard)."""
        return self._any_live().service.group_key_for(
            circuit, options, fidelity
        )

    def _place(self, group_key: str) -> Shard:
        live = self._live_shards()
        if not live:
            raise GatewayError("no live shards")
        if self.routing == "affinity":
            return self.shards[self.ring.node_for(group_key)]
        with self._lock:
            shard = live[self._rr % len(live)]
            self._rr += 1
        return shard

    def submit(
        self,
        circuit,
        batch=None,
        *,
        num_inputs: int = 1,
        tenant: str = DEFAULT_TENANT,
        priority: int = 0,
        deadline: float | None = None,
        timeout_s: float | None = None,
        max_deliveries: int | None = None,
        options: tuple = (),
        fidelity: float = 1.0,
    ):
        """Admit one job onto its home shard; returns ``(job, shard_name)``.

        Order of refusals: tenant quota first
        (:class:`~repro.errors.RetryLater` with ``reason="quota"``), then
        the home shard's queue depth (``reason="backpressure"``, with a
        retry hint scaled to the queue's drain rate).  The job id is
        shard-prefixed (``s1/job-…``) and doubles as the public id.
        ``fidelity`` (a budget in ``(0, 1]``, default exact) joins the
        group key when below 1.0, so approximate jobs route to their
        fidelity class's home shard and never coalesce with exact ones.
        """
        if self._closed:
            raise GatewayError("router is closed")
        if self.quotas is not None:
            self.quotas.admit(tenant)
            priority += self.quotas.priority_offset(tenant)
        group_key = self.group_key_for(circuit, tuple(options), fidelity)
        shard = self._place(group_key)
        try:
            with shard.lock:
                job = shard.service.submit(
                    circuit,
                    batch,
                    num_inputs=num_inputs,
                    priority=priority,
                    deadline=deadline,
                    timeout_s=timeout_s,
                    max_deliveries=max_deliveries,
                    options=tuple(options),
                    fidelity=fidelity,
                )
        except RetryLater:
            raise
        except AdmissionError as exc:
            refusal = RetryLater(
                f"shard {shard.name} is at its queue depth bound "
                f"({exc.max_depth}); retry shortly",
                retry_after_s=0.05,
                depth=exc.depth,
                max_depth=exc.max_depth,
            )
            refusal.reason = "backpressure"
            raise refusal from None
        shard.service.lifecycle.emit(
            "routed", job.job_id, t=self.clock(),
            shard=shard.name, tenant=tenant,
            group_key=job.group_key[:12], routing=self.routing,
            priority=job.priority,
        )
        with self._lock:
            self._routed[shard.name] += 1
        get_metrics().inc("gateway.routed", shard=shard.name, tenant=tenant)
        return job, shard.name

    # -- lookup --------------------------------------------------------------

    def resolve(self, job_id: str) -> str:
        """Follow failover aliases to the job's current id."""
        seen = set()
        while job_id in self._aliases and job_id not in seen:
            seen.add(job_id)
            job_id = self._aliases[job_id]
        return job_id

    def _shard_of(self, job_id: str) -> Shard:
        name, _, _ = job_id.partition("/")
        shard = self.shards.get(name)
        if shard is None:
            raise ServiceError(f"unknown job id {job_id!r}")
        return shard

    @contextmanager
    def _holding(self, job_id: str):
        """``(current id, shard)`` with that shard's lock held.

        The id is resolved again once the lock is held: failover records
        a rescued job's alias under its dead shard's lock before it
        cancels the original, so a lookup that waited out a rescue
        follows the alias instead of landing on the cancelled original.
        """
        current = self.resolve(job_id)
        while True:
            shard = self._shard_of(current)
            with shard.lock:
                now = self.resolve(job_id)
                if now == current:
                    yield current, shard
                    return
            current = now

    def job(self, job_id: str):
        """The live :class:`~repro.service.jobs.Job` behind a public id."""
        with self._holding(job_id) as (current, shard):
            return shard.service.job(current)

    def deliver(self, job_id: str):
        """``(job, status)``: :meth:`job`, and the status
        :meth:`~repro.service.workers.BatchSimulationService.deliver` saw
        on the job's current shard, which marked the job delivered when
        that status is terminal.

        One shard-lock hold does both, so a handler never waits out a
        second step, and the job it returns keeps its result through
        another connection's eviction while the caller encodes it.  The
        caller replies from ``status``: the pump may end the job as soon
        as the lock is released, and a job it ended then has not been
        delivered."""
        with self._holding(job_id) as (current, shard):
            job = self.job(current)  # re-enters this hold
            status = shard.service.deliver(current)
        return job, status

    def describe(self, job_id: str) -> dict:
        """JSON-safe job status, stamped with its (current) shard."""
        with self._holding(job_id) as (current, shard):
            info = shard.service.job(current).describe()
        info["shard"] = shard.name
        if current != job_id:
            info["resubmitted_as"] = current
        return info

    def cancel(self, job_id: str):
        with self._holding(job_id) as (current, shard):
            try:
                return shard.service.cancel(current)
            except JobNotCancellable:
                raise
            except ServiceError:
                # "not queued" is ambiguous: distinguish a terminal job
                # (typed NOT_CANCELLABLE) from a truly unknown id
                job = shard.service.job(current)
                raise JobNotCancellable(
                    f"job {current!r} already ended "
                    f"{job.status.value}",
                    job_id=current,
                    status=job.status.value,
                ) from None

    # -- stepping ------------------------------------------------------------

    def step_all(self) -> int:
        """One dispatch round across the fleet; returns jobs finished.

        Checks failover first, so a shard found dead this round loses its
        queued backlog to surviving shards *before* its own step would
        terminal-fail that backlog.
        """
        self.check_failover()
        finished = 0
        for shard in self._live_shards():
            with shard.lock:
                depth = shard.service.queue.depth()
                inflight = bool(shard.service._inflight)
                if depth or inflight:
                    finished += shard.service.step()
        return finished

    def _busy(self) -> bool:
        for shard in self._live_shards():
            with shard.lock:
                if shard.service.queue.depth() or shard.service._inflight:
                    return True
        return False

    def drain(self, max_rounds: int | None = None) -> dict:
        """Step until every live shard is idle; returns :meth:`stats`."""
        rounds = 0
        while self._busy():
            if max_rounds is not None and rounds >= max_rounds:
                break
            self.step_all()
            rounds += 1
        return self.stats()

    def close(self, drain: bool = False) -> None:
        """Shut the fleet down; every job ends in one terminal state."""
        if self._closed:
            return
        if drain:
            self.drain()
        self._closed = True
        for shard in self.shards.values():
            with shard.lock:
                shard.service.close(drain=False)

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- failover ------------------------------------------------------------

    def check_failover(self) -> int:
        """Rescue queued work off any shard whose pool just died.

        Returns the number of jobs moved.  The dead shard leaves the
        ring (so new placements avoid it), and each queued job is
        resubmitted on a surviving shard with its exact amplitudes,
        attributes, and crash evidence, its old id aliased to the new
        one, and then cancelled on the dead shard (accounted).  The dead
        shard's lock is held throughout, so no lookup of an old id sees
        it between those steps.  With no survivors the jobs stay
        cancelled — accounted, not lost — and the router raises nothing.
        """
        moved = 0
        with self._failover_lock:
            for shard in self.shards.values():
                if shard.dead:
                    continue
                placed: list[Shard | None] = []
                with shard.lock:
                    if not shard_is_dead(shard.service):
                        continue
                    shard.dead = True
                    if shard.name in self.ring.nodes:
                        self.ring.remove(shard.name)
                    rescued = rescue_queued(
                        shard.service,
                        shard.name,
                        rehome=lambda spec: placed.append(
                            self._resubmit(spec)
                        ),
                    )
                if not rescued:
                    continue
                self._failovers += 1
                get_metrics().inc("gateway.shard_deaths")
                moved_here = sum(target is not None for target in placed)
                with self._lock:
                    self._rescued += moved_here
                moved += moved_here
        return moved

    def _resubmit(self, spec) -> Shard | None:
        """Place one rescued job on a surviving shard (None if refused)."""
        try:
            group_key = self.group_key_for(
                spec.circuit, spec.options, spec.fidelity
            )
            target = self._place(group_key)
            with target.lock:
                job = target.service.submit(
                    spec.circuit,
                    spec.batch,
                    priority=spec.priority,
                    deadline=spec.deadline,
                    timeout_s=spec.timeout_s,
                    max_deliveries=spec.max_deliveries,
                    options=spec.options,
                    fidelity=spec.fidelity,
                )
        except (AdmissionError, GatewayError):
            # the survivor is saturated: the rescued job stays cancelled
            # on its dead shard (accounted); the client sees CANCELLED
            return None
        job.evidence[:0] = spec.evidence
        with self._lock:
            self._aliases[spec.job_id] = job.job_id
            self._routed[target.name] += 1
        target.service.lifecycle.emit(
            "routed", job.job_id, t=self.clock(),
            shard=target.name, group_key=job.group_key[:12],
            routing=self.routing, failover_from=spec.job_id,
        )
        get_metrics().inc("gateway.rescued", shard=target.name)
        return target

    # -- merged observability ------------------------------------------------

    def lifecycle_events(self) -> list[dict]:
        """Every shard's lifecycle events, merged and time-ordered, each
        stamped with its ``shard``."""
        merged = []
        for shard in self.shards.values():
            for event in shard.service.lifecycle.events():
                merged.append({**event, "shard": shard.name})
        merged.sort(key=lambda e: e["t"])
        return merged

    def unaccounted(self) -> list[str]:
        """Submitted-but-unterminated jobs across the whole fleet (the
        zero-lost-jobs invariant; empty after any drain or close)."""
        missing: list[str] = []
        for shard in self.shards.values():
            missing.extend(shard.service.lifecycle.unaccounted())
        return sorted(missing)

    def write_lifecycle(self, path) -> int:
        """Write the merged lifecycle stream as JSONL; returns count."""
        import json
        from pathlib import Path

        events = self.lifecycle_events()
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event) + "\n")
        return len(events)

    def merged_slo(self) -> SLOTracker:
        """One exact SLO aggregate over every shard (histogram merge)."""
        return SLOTracker.merged(
            [shard.service.slo for shard in self.shards.values()]
        )

    def stats(self) -> dict:
        """JSON-safe fleet summary: merged SLO + per-shard detail."""
        per_shard = {}
        totals = {"submitted": 0, "completed": 0, "failed": 0,
                  "quarantined": 0, "queue_depth": 0}
        for shard in self.shards.values():
            with shard.lock:
                stats = shard.service.stats()
            stats["dead"] = shard.dead
            per_shard[shard.name] = stats
            totals["submitted"] += stats["submitted"]
            totals["completed"] += stats["completed"]
            totals["failed"] += stats["failed"]
            totals["quarantined"] += stats["quarantined"]
            totals["queue_depth"] += stats["queue_depth"]
        slo = self.merged_slo().summary()
        slo["unaccounted_jobs"] = len(self.unaccounted())
        return {
            **totals,
            "routing": self.routing,
            "shards": per_shard,
            "routed": dict(self._routed),
            "failovers": self._failovers,
            "rescued": self._rescued,
            "dead_shards": sorted(
                s.name for s in self.shards.values() if s.dead
            ),
            "slo": slo,
            "quotas": self.quotas.stats() if self.quotas else {},
        }
