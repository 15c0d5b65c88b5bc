"""Trace and metrics exporters.

Two output formats:

* **Chrome trace-event JSON** (:func:`chrome_trace`) — loadable in
  Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``.  Host spans
  render as one process ("host pipeline", one track per thread, nesting
  shown by stacked slices) and a modeled
  :class:`~repro.gpu.engine.Timeline` renders as a second process
  ("gpu (modeled)") with one track per virtual engine — ``h2d``,
  ``compute``, ``d2h`` — so copy/compute overlap is directly visible.
* **metrics JSONL** (:func:`write_metrics_jsonl`) — one JSON object per
  line, each a labeled :class:`~repro.obs.metrics.Metrics` snapshot or
  delta; the bench harness writes one line per experiment next to its
  result files.

:func:`validate_chrome_trace` checks the structural schema the viewers
rely on and is used by the tests and the CI smoke job.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

from .tracer import Span

#: pid of the host-span process in exported traces
HOST_PID = 0
#: pid of the modeled-GPU process in exported traces
GPU_PID = 1

#: stable track order for the modeled GPU engines
_ENGINE_LANES = ("host", "h2d", "compute", "d2h")


def _meta(name: str, pid: int, tid: int | None = None, value: str = "") -> dict:
    event = {"name": name, "ph": "M", "pid": pid, "args": {"name": value}}
    if tid is not None:
        event["tid"] = tid
    return event


def spans_to_events(
    spans: Sequence[Span], pid: int = HOST_PID, origin: float | None = None
) -> list[dict]:
    """Complete ('X') trace events for host spans, one track per thread."""
    if origin is None:
        origin = min((s.start for s in spans), default=0.0)
    threads = sorted({s.thread for s in spans})
    tid_of = {thread: i for i, thread in enumerate(threads)}
    events = [
        _meta("process_name", pid, value="host pipeline"),
        _meta("process_sort_index", pid, value=str(pid)),
    ]
    for thread, tid in tid_of.items():
        events.append(_meta("thread_name", pid, tid, thread))
    for span in spans:
        args = {str(k): _json_safe(v) for k, v in span.attrs.items()}
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        events.append(
            {
                "name": span.name,
                "cat": str(span.attrs.get("category", "span")),
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": pid,
                "tid": tid_of[span.thread],
                "args": args,
            }
        )
    return events


def timeline_to_events(timeline, pid: int = GPU_PID) -> list[dict]:
    """Complete ('X') trace events for a modeled timeline, one track per
    virtual engine, so h2d/compute/d2h overlap is visible as parallel
    slices.  Timestamps are modeled seconds from the graph launch."""
    events = [
        _meta("process_name", pid, value="gpu (modeled)"),
        _meta("process_sort_index", pid, value=str(pid)),
    ]
    used = {t.engine for t in timeline.tasks}
    for lane, name in enumerate(_ENGINE_LANES):
        if name in used:
            events.append(_meta("thread_name", pid, lane, f"engine:{name}"))
    for task in timeline.tasks:
        lane = (
            _ENGINE_LANES.index(task.engine)
            if task.engine in _ENGINE_LANES
            else len(_ENGINE_LANES)
        )
        events.append(
            {
                "name": task.name,
                "cat": task.engine,
                "ph": "X",
                "ts": max(task.start, 0.0) * 1e6,
                "dur": task.duration * 1e6,
                "pid": pid,
                "tid": lane,
                "args": {"deps": list(task.deps), "modeled": True},
            }
        )
    return events


def chrome_trace(
    spans: Sequence[Span] = (),
    timeline=None,
    metadata: dict | None = None,
) -> dict:
    """Merge host spans and a modeled timeline into one trace document."""
    events: list[dict] = []
    if spans:
        events.extend(spans_to_events(spans))
    if timeline is not None and timeline.tasks:
        events.extend(timeline_to_events(timeline))
    doc = {"traceEvents": events, "displayTimeUnit": "ms"}
    if metadata:
        doc["otherData"] = {str(k): _json_safe(v) for k, v in metadata.items()}
    return doc


def write_chrome_trace(
    path: str | Path,
    spans: Sequence[Span] = (),
    timeline=None,
    metadata: dict | None = None,
) -> Path:
    """Serialize :func:`chrome_trace` to ``path`` and return it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(spans, timeline, metadata), indent=1))
    return path


def validate_chrome_trace(doc) -> list[str]:
    """Structural schema check of a trace document.

    Returns a list of problems (empty means the trace is well formed):
    the document must be an object with a ``traceEvents`` list whose 'X'
    events carry name/pid/tid plus numeric non-negative ts/dur, and whose
    'M' events carry an ``args.name``.
    """
    problems: list[str] = []
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        return ["trace must be an object with a 'traceEvents' list"]
    for i, event in enumerate(doc["traceEvents"]):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing string 'name'")
        if phase == "M":
            if not isinstance(event.get("args", {}).get("name", None), str):
                problems.append(f"{where}: metadata event without args.name")
            continue
        if phase != "X":
            problems.append(f"{where}: unsupported phase {phase!r}")
            continue
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{where}: missing integer {key!r}")
        for key in ("ts", "dur"):
            value = event.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                problems.append(f"{where}: {key!r} must be a non-negative number")
    return problems


def trace_track_names(doc) -> list[str]:
    """The distinct (process, thread) track names declared in a trace."""
    processes: dict[int, str] = {}
    tracks: dict[tuple[int, int], str] = {}
    for event in doc.get("traceEvents", []):
        if event.get("ph") != "M":
            continue
        if event.get("name") == "process_name":
            processes[event["pid"]] = event["args"]["name"]
        elif event.get("name") == "thread_name":
            tracks[(event["pid"], event["tid"])] = event["args"]["name"]
    return [
        f"{processes.get(pid, pid)}/{name}"
        for (pid, _tid), name in sorted(tracks.items())
    ]


# ---------------------------------------------------------------------------
# metrics JSONL
# ---------------------------------------------------------------------------

def _json_safe(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_json_safe(v) for v in value]
    if hasattr(value, "item"):  # numpy scalars
        return _json_safe(value.item())
    return repr(value)


def metrics_record(label: str, metrics: dict, **extra) -> dict:
    """One JSONL record: a labeled metrics snapshot/delta plus extras."""
    record = {"label": label, **{k: _json_safe(v) for k, v in extra.items()}}
    record["metrics"] = _json_safe(metrics)
    return record


#: result.stats entries that are live objects, not JSON
_NON_JSON_STATS = ("plan",)


def simulation_stats_record(result) -> dict:
    """One JSON document for a :class:`SimulationResult` (``--stats-json``).

    Everything a script needs without parsing human output: identity,
    modeled/wall timings and breakdowns, and the full stats dict —
    including ``plan_cache`` and ``resilience`` summaries — minus the live
    fusion plan, which has no JSON form.
    """
    stats = {
        key: value
        for key, value in result.stats.items()
        if key not in _NON_JSON_STATS
    }
    return _json_safe(
        {
            "simulator": result.simulator,
            "circuit": result.circuit_name,
            "num_qubits": result.num_qubits,
            "spec": {
                "num_batches": result.spec.num_batches,
                "batch_size": result.spec.batch_size,
                "seed": result.spec.seed,
                "num_inputs": result.spec.num_inputs,
            },
            "modeled_time_s": result.modeled_time,
            "wall_time_s": result.wall_time,
            "breakdown": dict(result.breakdown),
            "executed": result.outputs is not None,
            "num_output_batches": (
                len(result.outputs) if result.outputs is not None else 0
            ),
            "stats": stats,
        }
    )


def service_job_stats_record(job, service) -> dict:
    """One JSON document for a serviced job (``repro submit --stats-json``).

    Schema-aligned with :func:`simulation_stats_record` so scripts can
    consume ``repro simulate`` and ``repro submit`` output uniformly: the
    same top-level keys (``simulator``, ``circuit``, ``spec``,
    ``modeled_time_s``, ``stats`` …) with ``stats.plan_cache`` always
    present.  Service-only detail lands under ``stats.service`` (the
    :meth:`~repro.service.workers.BatchSimulationService.stats` summary)
    plus ``stats.slo`` (per-priority latency/queue-age percentiles,
    deadline and degradation rates) and ``stats.job`` (per-job lifecycle).
    """
    svc = service.stats()
    executed = job.result is not None
    return _json_safe(
        {
            "simulator": "service",
            "circuit": job.circuit.name,
            "num_qubits": job.num_qubits,
            "spec": {
                "num_batches": 1,
                "batch_size": job.num_inputs,
                "seed": 0,
                "num_inputs": job.num_inputs,
            },
            "modeled_time_s": svc["modeled_time_s"],
            "wall_time_s": svc["wall_time_s"],
            "breakdown": {},
            "executed": executed,
            "num_output_batches": 1 if executed else 0,
            "stats": {
                "plan_cache": svc["plan_cache"],
                "slo": svc["slo"],
                "service": svc,
                "job": {
                    "job_id": job.job_id,
                    "status": job.status.value,
                    "group_key": job.group_key,
                    "attempts": job.attempts,
                    "solo_retry": job.solo_retry,
                    "priority": job.priority,
                    "error": job.error,
                },
            },
        }
    )


def write_metrics_jsonl(path: str | Path, records: Iterable[dict]) -> Path:
    """Write records as one JSON object per line; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for record in records:
            handle.write(json.dumps(_json_safe(record)) + "\n")
    return path
