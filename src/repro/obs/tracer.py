"""Structured span tracing for the simulation pipelines.

A :class:`Tracer` records *nested spans* — named intervals of host wall
time with arbitrary key/value attributes — from every pipeline layer
(fusion, conversion, execution, caching).  Spans nest per thread: the span
opened innermost becomes the parent of spans opened inside it, which is
what lets a trace viewer render the pipeline as a call tree.

Design constraints, in order of importance:

* **near-zero cost when disabled** — the default process-global tracer
  starts disabled (unless ``$REPRO_TRACE`` is set); ``span()`` then returns
  a shared no-op context manager without allocating a span, so hot paths
  can stay instrumented permanently;
* **thread-safe** — finished spans append under a lock, the active-span
  stack is thread-local, and each span records its thread name so exported
  traces keep one track per thread;
* **composable** — a simulator run times its stages through
  :meth:`repro.sim.base.RunObservation.stage`, which opens a span on the
  global tracer for every timed stage, so the per-stage wall totals and
  the trace always agree.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: set ``REPRO_TRACE=1`` to enable the default tracer from process start
TRACE_ENV = "REPRO_TRACE"


@dataclass
class Span:
    """One finished (or still-open) traced interval."""

    name: str
    span_id: int
    parent_id: int | None
    thread: str
    start: float  # perf_counter seconds, relative to the tracer epoch
    end: float = -1.0
    attrs: dict = field(default_factory=dict)

    def set(self, **attrs) -> "Span":
        """Attach attributes to the span (chainable)."""
        self.attrs.update(attrs)
        return self

    @property
    def duration(self) -> float:
        return max(self.end - self.start, 0.0)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "thread": self.thread,
            "start_s": self.start,
            "end_s": self.end,
            "duration_s": self.duration,
            "attrs": dict(self.attrs),
        }


class _NullSpan:
    """Shared do-nothing span handed out by a disabled tracer."""

    __slots__ = ()

    def set(self, **attrs) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class _NullContext:
    """Reusable no-op context manager (no generator allocation per call)."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class Tracer:
    """Thread-safe recorder of nested spans.

    ``with tracer.span("convert", dd_edges=40) as sp: sp.set(width=3)``
    records one span; spans opened inside the block become its children.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.epoch = time.perf_counter()

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def _record(self, name: str, attrs: dict):
        stack = self._stack()
        parent = stack[-1].span_id if stack else None
        span = Span(
            name=name,
            span_id=next(self._ids),
            parent_id=parent,
            thread=threading.current_thread().name,
            start=time.perf_counter() - self.epoch,
            attrs=attrs,
        )
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()
            span.end = time.perf_counter() - self.epoch
            with self._lock:
                self._spans.append(span)

    def span(self, name: str, **attrs):
        """Context manager recording one nested span (no-op when disabled)."""
        if not self.enabled:
            return _NULL_CONTEXT
        return self._record(name, attrs)

    # -- retrieval ----------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def mark(self) -> int:
        """Position marker; pass to :meth:`spans_since` to scope one run."""
        with self._lock:
            return len(self._spans)

    def spans_since(self, mark: int = 0) -> list[Span]:
        """Spans finished since ``mark`` (completion order)."""
        with self._lock:
            return list(self._spans[mark:])

    def spans(self) -> list[Span]:
        return self.spans_since(0)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    # -- cross-process merge -------------------------------------------------

    def absorb(
        self,
        span_dicts: list[dict],
        thread: str | None = None,
        offset: float = 0.0,
    ) -> list[Span]:
        """Re-record spans serialized in another process (no-op when
        disabled).

        The service's process worker pool traces each task inside the
        worker, ships the spans back as :meth:`Span.to_dict` records, and
        the parent absorbs them here so one exported trace shows every
        worker.  Span ids are remapped into this tracer's id space
        (parent/child links preserved), ``thread`` relabels the track
        (e.g. ``pool-worker-3`` — one Perfetto track per worker), and
        ``offset`` shifts the foreign epoch onto this tracer's timeline
        (pass the dispatch timestamp relative to this tracer's epoch).
        """
        if not self.enabled or not span_dicts:
            return []
        remap = {d["span_id"]: next(self._ids) for d in span_dicts}
        absorbed = [
            Span(
                name=d["name"],
                span_id=remap[d["span_id"]],
                parent_id=remap.get(d["parent_id"]),
                thread=thread or d["thread"],
                start=d["start_s"] + offset,
                end=d["end_s"] + offset,
                attrs=dict(d["attrs"]),
            )
            for d in span_dicts
        ]
        with self._lock:
            self._spans.extend(absorbed)
        return absorbed


# ---------------------------------------------------------------------------
# process-global default tracer
# ---------------------------------------------------------------------------

_global_tracer = Tracer(enabled=bool(os.environ.get(TRACE_ENV)))


def get_tracer() -> Tracer:
    """The process-global default tracer (disabled unless ``$REPRO_TRACE``)."""
    return _global_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the global tracer (returns the previous one)."""
    global _global_tracer
    previous = _global_tracer
    _global_tracer = tracer
    return previous


@contextmanager
def tracing(tracer: Tracer | None = None):
    """Enable tracing for a block: ``with tracing() as tracer: ...``.

    Installs ``tracer`` (or a fresh enabled one) as the global default and
    restores the previous tracer afterwards.
    """
    active = tracer or Tracer(enabled=True)
    active.enabled = True
    previous = set_tracer(active)
    try:
        yield active
    finally:
        set_tracer(previous)
