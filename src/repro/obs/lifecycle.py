"""Structured per-job lifecycle event log for the serving layer.

Every service job emits one JSON-safe event per lifecycle stage::

    submitted -> admitted -> scheduled -> coalesced -> executing
              -> done | failed | cancelled | quarantined
                 (requeued, rejected, cancel_requested, worker_restart)

Each event carries the job id, the emitting stage, a service-clock
timestamp, and stage-specific fields (queue age, worker id, wall and
modeled durations, deadline verdicts).  The log is the ground truth the
:class:`~repro.obs.slo.SLOTracker` folds into latency percentiles, and
the audit trail the CI ``slo-smoke`` job checks for *unaccounted* jobs —
every submitted job must reach a terminal event, or the service silently
lost work.

The log keeps the newest :data:`EVENT_WINDOW` events, so a
long-running server's log stays a fixed size; ``unaccounted()`` stays
exact because it tracks open job ids, not events.

A :class:`JobLifecycleLog` is thread-safe and supports **listeners**:
callbacks invoked once per emitted event (outside the log's lock), which
is how an :class:`~repro.obs.slo.SLOTracker` folds events as they happen
instead of re-scanning the log.  The process-global default log
(:func:`get_lifecycle_log`) serves standalone component use; a
:class:`~repro.service.workers.BatchSimulationService` owns a private log
so concurrent services never mix their jobs.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from pathlib import Path

#: every lifecycle stage, in nominal order (rejected/requeued are
#: branches, ``routed`` is the gateway's shard-placement record,
#: ``worker_restart`` is a fleet event stamped with a pseudo
#: ``worker-<wid>`` id; the last four are terminal)
LIFECYCLE_STAGES = (
    "submitted",
    "rejected",
    "routed",
    "admitted",
    "scheduled",
    "coalesced",
    "requeued",
    "executing",
    "cancel_requested",
    "worker_restart",
    "done",
    "failed",
    "cancelled",
    "quarantined",
)

#: stages after which a job emits no further events
TERMINAL_EVENTS = frozenset({"done", "failed", "cancelled", "quarantined"})

#: events a log keeps, the newest ones; the gateway's event hub and a
#: service's queue-metrics records keep the same window
EVENT_WINDOW = 16_384


class JobLifecycleLog:
    """Thread-safe log of the newest :data:`EVENT_WINDOW` lifecycle events.

    Example::

        log = JobLifecycleLog()
        log.emit("submitted", "job-0-abc", priority=1)
        log.emit("done", "job-0-abc", latency_s=0.01)
        assert [e["event"] for e in log.events("job-0-abc")] \\
            == ["submitted", "done"]
        assert log.unaccounted() == []
    """

    def __init__(self, clock=time.monotonic) -> None:
        self.clock = clock
        self._lock = threading.Lock()
        self._events: deque[dict] = deque(maxlen=EVENT_WINDOW)
        self._listeners: list = []
        #: ids submitted and not yet terminal (or rejected)
        self._open: set[str] = set()

    # -- emission ------------------------------------------------------------

    def subscribe(self, listener) -> None:
        """Register ``listener(event_dict)`` to run on every emit."""
        with self._lock:
            self._listeners.append(listener)

    def emit(self, stage: str, job_id: str, t: float | None = None,
             **fields) -> dict:
        """Append one event and notify listeners; returns the event dict.

        ``stage`` must be one of :data:`LIFECYCLE_STAGES`; extra keyword
        ``fields`` are stored verbatim (keep them JSON-safe).
        """
        if stage not in LIFECYCLE_STAGES:
            raise ValueError(
                f"unknown lifecycle stage {stage!r} "
                f"(expected one of {LIFECYCLE_STAGES})"
            )
        event = {
            "event": stage,
            "job": job_id,
            "t": self.clock() if t is None else t,
            **fields,
        }
        with self._lock:
            self._events.append(event)
            if stage == "submitted":
                self._open.add(job_id)
            elif stage in TERMINAL_EVENTS or stage == "rejected":
                # rejected jobs left the system at the edge: accounted for
                self._open.discard(job_id)
            listeners = list(self._listeners)
        for listener in listeners:  # outside the lock: listeners may log
            listener(event)
        return event

    # -- inspection ----------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def events(self, job_id: str | None = None,
               stage: str | None = None) -> list[dict]:
        """Snapshot of events, optionally filtered by job and/or stage."""
        with self._lock:
            events = list(self._events)
        if job_id is not None:
            events = [e for e in events if e["job"] == job_id]
        if stage is not None:
            events = [e for e in events if e["event"] == stage]
        return events

    def unaccounted(self) -> list[str]:
        """Job ids that were submitted but never reached a terminal event.

        Non-empty after a drain means the service lost track of work —
        the exact condition the ``slo-smoke`` CI job asserts against.
        """
        with self._lock:
            return sorted(self._open)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self._open.clear()

    # -- export --------------------------------------------------------------

    def write_jsonl(self, path) -> int:
        """Write the kept events as one JSON object per line; returns count."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        events = self.events()
        with path.open("w", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event) + "\n")
        return len(events)


# ---------------------------------------------------------------------------
# process-global default log
# ---------------------------------------------------------------------------

_global_lifecycle = JobLifecycleLog()


def get_lifecycle_log() -> JobLifecycleLog:
    """The process-global default lifecycle log (for standalone components;
    a service owns its own)."""
    return _global_lifecycle


def set_lifecycle_log(log: JobLifecycleLog) -> JobLifecycleLog:
    """Swap the global lifecycle log (returns the previous one)."""
    global _global_lifecycle
    previous = _global_lifecycle
    _global_lifecycle = log
    return previous
