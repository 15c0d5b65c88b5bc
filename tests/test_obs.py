"""Tests for the observability layer: tracer, metrics, exporters, wiring."""

import json

import pytest

from repro.circuit.generators import make_circuit
from repro.gpu.engine import Task, Timeline
from repro.obs import (
    CANONICAL_STAGES,
    Histogram,
    Metrics,
    Tracer,
    canonical_breakdown,
    chrome_trace,
    get_metrics,
    get_tracer,
    labeled,
    split_labels,
    trace_track_names,
    tracing,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_jsonl,
)
from repro.obs.export import metrics_record
from repro.resilience import get_resilience_log
from repro.sim import (
    BQSimSimulator,
    BatchSpec,
    CuQuantumSimulator,
    FlatDDSimulator,
    MultiGpuBQSimSimulator,
    QiskitAerSimulator,
)
from repro.sim.base import RunObservation


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

def test_span_nesting_and_attributes():
    tracer = Tracer()
    with tracer.span("outer", kind="root") as outer:
        with tracer.span("inner", gate=3) as inner:
            inner.set(dd_edges=17)
        outer.set(total=2)
    spans = tracer.spans()
    assert [s.name for s in spans] == ["inner", "outer"]  # completion order
    inner, outer = spans
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None
    assert inner.attrs == {"gate": 3, "dd_edges": 17}
    assert outer.attrs == {"kind": "root", "total": 2}
    assert inner.duration >= 0 and outer.duration >= inner.duration
    # round-trip through the dict form used for stats["trace"]
    d = inner.to_dict()
    assert d["name"] == "inner" and d["attrs"]["dd_edges"] == 17
    assert d["parent_id"] == outer.span_id


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("hot", n=1) as span:
        span.set(more=2)  # must be a harmless no-op
    assert len(tracer) == 0
    # the disabled path hands back one shared context object (no allocation)
    assert tracer.span("a") is tracer.span("b")


def test_tracing_context_installs_and_restores():
    before = get_tracer()
    with tracing() as tracer:
        assert get_tracer() is tracer and tracer.enabled
        with tracer.span("x"):
            pass
    assert get_tracer() is before
    assert [s.name for s in tracer.spans()] == ["x"]


def test_stage_timer_is_a_tracer_view():
    with tracing() as tracer:
        obs = RunObservation(
            BQSimSimulator(), make_circuit("ghz", 3), BatchSpec(1, 2), False
        )
        with obs.stage("fusion", gates=5) as span:
            span.set(fused=2)
    snapshot = obs.result(0.0, {}).stats["wall_breakdown"]
    assert tuple(snapshot) == CANONICAL_STAGES
    assert snapshot["fusion"] > 0 and snapshot["convert"] == 0.0
    (span,) = tracer.spans()
    assert span.name == "fusion"
    assert span.attrs["category"] == "stage"
    assert span.attrs["gates"] == 5 and span.attrs["fused"] == 2


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def test_metrics_counters_gauges_histograms():
    m = Metrics()
    m.inc("hits")
    m.inc("hits", 2)
    m.gauge("width", 4)
    for v in (1.0, 3.0, 2.0):
        m.observe("edges", v)
    snap = m.snapshot()
    assert snap["counters"]["hits"] == 3
    assert snap["gauges"]["width"] == 4
    hist = snap["histograms"]["edges"]
    assert hist["count"] == 3 and hist["min"] == 1.0 and hist["max"] == 3.0
    assert hist["mean"] == pytest.approx(2.0)


def test_metrics_delta_scopes_one_run():
    m = Metrics()
    m.inc("a")
    m.observe("h", 10.0)
    mark = m.mark()
    m.inc("a", 4)
    m.observe("h", 2.0)
    delta = m.delta(mark)
    assert delta["counters"] == {"a": 4}
    assert delta["histograms"]["h"]["count"] == 1
    assert delta["histograms"]["h"]["sum"] == pytest.approx(2.0)
    # nothing happened since: delta is empty
    assert m.delta(m.mark())["counters"] == {}


def test_histogram_quantiles_are_monotone_and_accurate():
    hist = Histogram()
    for i in range(1, 101):  # uniform 0.01 .. 1.00
        hist.observe(i / 100.0)
    assert hist.p50 == pytest.approx(0.5, rel=0.15)
    assert hist.p95 == pytest.approx(0.95, rel=0.15)
    assert hist.p99 == pytest.approx(0.99, rel=0.15)
    assert hist.p50 <= hist.p95 <= hist.p99  # monotone by construction
    assert hist.quantile(0.0) == pytest.approx(hist.min)
    assert hist.quantile(1.0) == pytest.approx(hist.max)


def test_labeled_metric_families():
    m = Metrics()
    m.inc("jobs", priority="2", tenant="a")
    m.inc("jobs", tenant="a", priority="2")  # key order is canonical
    m.inc("jobs", priority="0")
    m.observe("lat", 0.5, stage="execute")
    snap = m.snapshot()
    assert snap["counters"][labeled("jobs", priority="2", tenant="a")] == 2
    assert snap["counters"][labeled("jobs", priority="0")] == 1
    family, labels = split_labels('jobs{priority="2",tenant="a"}')
    assert family == "jobs" and labels == {"priority": "2", "tenant": "a"}
    assert labeled("lat", stage="execute") in snap["histograms"]


def test_snapshot_returns_deep_copies():
    """Mutating a returned snapshot must not corrupt the live registry."""
    m = Metrics()
    m.inc("c", 5)
    m.gauge("g", 1.0)
    m.observe("h", 2.0)
    snap = m.snapshot()
    snap["counters"]["c"] = 999
    snap["gauges"]["g"] = 999
    snap["histograms"]["h"]["count"] = 999
    snap["histograms"]["h"]["buckets"]["tampered"] = 7
    fresh = m.snapshot()
    assert fresh["counters"]["c"] == 5
    assert fresh["gauges"]["g"] == 1.0
    assert fresh["histograms"]["h"]["count"] == 1
    assert "tampered" not in fresh["histograms"]["h"]["buckets"]


def test_delta_histogram_min_max_are_window_scoped():
    """Regression: delta min/max must reflect the window, not the whole
    run — a pre-mark extreme (100.0) must not leak into the delta."""
    m = Metrics()
    m.observe("h", 100.0)
    mark = m.mark()
    for v in (1.0, 5.0, 3.0):
        m.observe("h", v)
    win = m.delta(mark)["histograms"]["h"]
    assert win["count"] == 3
    assert win["sum"] == pytest.approx(9.0)
    # bounds are bucket-resolution accurate: max must exclude 100.0
    assert win["max"] < 10.0
    assert 0.0 < win["min"] <= 1.0 + 1e-9
    # the whole-run min moved during the window -> delta min is exact
    assert win["min"] == pytest.approx(1.0)


def test_metrics_thread_hammer_exact_totals():
    """Concurrent inc/observe from many threads lose no updates."""
    import threading

    m = Metrics()
    threads_n, per_thread = 8, 500

    def work(tid: int) -> None:
        for i in range(per_thread):
            m.inc("total")
            m.inc("byid", tid=str(tid))
            m.observe("vals", float(i % 10 + 1))

    threads = [
        threading.Thread(target=work, args=(t,)) for t in range(threads_n)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    snap = m.snapshot()
    expect = threads_n * per_thread
    assert snap["counters"]["total"] == expect
    for tid in range(threads_n):
        assert snap["counters"][labeled("byid", tid=str(tid))] == per_thread
    hist = snap["histograms"]["vals"]
    assert hist["count"] == expect
    assert hist["sum"] == pytest.approx(threads_n * per_thread * 5.5)


# ---------------------------------------------------------------------------
# Chrome-trace export
# ---------------------------------------------------------------------------

def _traced_run(tmp_path=None, **sim_kwargs):
    sim = BQSimSimulator(**sim_kwargs)
    circuit = make_circuit("qft", 6)
    spec = BatchSpec(num_batches=2, batch_size=8, seed=3)
    with tracing() as tracer:
        result = sim.run(circuit, spec, execute=True)
    return tracer, result


def test_chrome_trace_schema_and_tracks(tmp_path):
    tracer, result = _traced_run()
    path = tmp_path / "trace.json"
    write_chrome_trace(path, tracer.spans(), timeline=result.timeline)
    doc = json.loads(path.read_text())
    assert validate_chrome_trace(doc) == []
    tracks = trace_track_names(doc)
    # >= 3 tracks: host pipeline + the modeled GPU engine lanes
    assert any(t.startswith("host pipeline/") for t in tracks)
    assert "gpu (modeled)/engine:compute" in tracks
    assert "gpu (modeled)/engine:h2d" in tracks
    assert len(tracks) >= 3
    # nested pipeline spans with the paper's attribution attributes
    by_name = {}
    for event in doc["traceEvents"]:
        if event.get("ph") == "X":
            by_name.setdefault(event["name"], event)
    for stage in ("fusion", "convert", "execute"):
        assert stage in by_name, sorted(by_name)
    assert by_name["convert.dd_to_ell"]["args"]["dd_edges"] > 0
    assert by_name["convert.dd_to_ell"]["args"]["ell_width"] >= 1
    assert by_name["execute"]["args"]["backend"]
    # stages are children of the root simulator span
    root = by_name["bqsim.run"]
    assert by_name["fusion"]["args"]["parent_id"] == root["args"]["span_id"]


def test_timeline_tasks_become_engine_tracks():
    timeline = Timeline(
        tasks=[
            Task(0, "h2d:0", "h2d", duration=1.0, start=0.0, end=1.0),
            Task(1, "k0", "compute", duration=1.5, deps=(0,), start=0.5,
                 end=2.0),
            Task(2, "d2h:0", "d2h", duration=0.5, deps=(1,), start=2.0,
                 end=2.5),
        ]
    )
    doc = chrome_trace([], timeline=timeline)
    assert validate_chrome_trace(doc) == []
    assert trace_track_names(doc) == [
        "gpu (modeled)/engine:h2d",
        "gpu (modeled)/engine:compute",
        "gpu (modeled)/engine:d2h",
    ]
    complete = {e["name"]: e for e in doc["traceEvents"] if e.get("ph") == "X"}
    # each modeled task keeps its engine lane, timing, and dependencies
    assert complete["k0"]["ts"] == pytest.approx(0.5e6)
    assert complete["k0"]["dur"] == pytest.approx(1.5e6)
    assert complete["k0"]["args"]["deps"] == [0]
    tids = {complete[n]["tid"] for n in ("h2d:0", "k0", "d2h:0")}
    assert len(tids) == 3  # one lane per engine — overlap stays visible


def test_metrics_jsonl_roundtrip(tmp_path):
    m = Metrics()
    m.inc("convert.route.gpu", 2)
    path = write_metrics_jsonl(
        tmp_path / "m.jsonl",
        [metrics_record("run-1", m.snapshot(), scale="small")],
    )
    (line,) = path.read_text().splitlines()
    record = json.loads(line)
    assert record["label"] == "run-1" and record["scale"] == "small"
    assert record["metrics"]["counters"]["convert.route.gpu"] == 2


# ---------------------------------------------------------------------------
# Pipeline wiring
# ---------------------------------------------------------------------------

def test_bqsim_run_increments_metrics_and_stats():
    metrics = get_metrics()
    mark = metrics.mark()
    sim = BQSimSimulator()
    circuit = make_circuit("qft", 6)
    result = sim.run(circuit, BatchSpec(2, 8, seed=3), execute=True)
    delta = metrics.delta(mark)
    counters = delta["counters"]
    assert counters["fusion.plans.bqcs"] == 1
    assert counters["plan_cache.misses"] == 1
    assert counters["graph.launches"] >= 1
    assert any(k.startswith("convert.route.") for k in counters)
    assert any(k.startswith("spmm.backend.") for k in counters)
    assert delta["histograms"]["nzrv.max_nzr"]["count"] > 0
    assert delta["histograms"]["ell.width"]["min"] >= 1
    # the same delta is surfaced on the result
    stats_counters = result.stats["metrics"]["counters"]
    assert stats_counters["fusion.plans.bqcs"] == 1


def test_plan_cache_accounting_memory_and_disk(tmp_path):
    circuit = make_circuit("vqe", 6)
    spec = BatchSpec(2, 8, seed=1)
    sim = BQSimSimulator(cache_dir=tmp_path / "plans")
    cold = sim.run(circuit, spec)
    assert cold.stats["plan_cache"] == {
        "hits": 0,
        "disk_hits": 0,
        "misses": 1,
        "quarantined": 0,
    }
    warm_memory = sim.run(circuit, spec)
    assert warm_memory.stats["plan_cache"]["hits"] == 1
    # a fresh simulator sharing the cache dir hits the on-disk archive
    warm_disk = BQSimSimulator(cache_dir=tmp_path / "plans").run(circuit, spec)
    assert warm_disk.stats["plan_cache"]["disk_hits"] == 1
    assert warm_disk.stats["plan_cache"]["misses"] == 0


def test_run_without_tracing_records_no_spans():
    tracer = get_tracer()
    if tracer.enabled:
        pytest.skip("REPRO_TRACE is set in the environment")
    mark = tracer.mark()
    result = BQSimSimulator().run(
        make_circuit("qft", 5), BatchSpec(1, 4, seed=0), execute=True
    )
    assert tracer.spans_since(mark) == []
    assert result.stats["trace"] == []
    assert result.outputs is not None  # the run itself still works


@pytest.mark.parametrize(
    "factory",
    [
        BQSimSimulator,
        FlatDDSimulator,
        CuQuantumSimulator,
        QiskitAerSimulator,
        lambda: MultiGpuBQSimSimulator(num_devices=2),
    ],
)
def test_canonical_wall_breakdown_all_simulators(factory):
    sim = factory()
    result = sim.run(make_circuit("qft", 6), BatchSpec(2, 8, seed=3))
    assert tuple(result.stats["wall_breakdown"]) == CANONICAL_STAGES
    assert "plan_cache" in result.stats
    assert "metrics" in result.stats
    # every simulator reports the spMM ladder in the same resilience block
    # (BQSim alone adds its batch-split and resume counters)
    resilience = result.stats["resilience"]
    expected = set(get_resilience_log().summary_since(0)) | {
        "backend", "demoted", "task_retries"
    }
    assert set(resilience) - {"batch_split", "resumed_batches"} == expected
    assert resilience["demoted"] is False


@pytest.mark.parametrize(
    "factory", [BQSimSimulator, lambda: MultiGpuBQSimSimulator(num_devices=2)]
)
def test_convert_stage_books_only_real_conversions(factory):
    sim = factory()
    circuit = make_circuit("qft", 6)
    spec = BatchSpec(1, 4, seed=3)
    cold = sim.run(circuit, spec, execute=True).stats
    assert cold["plan_source"] == "built"
    assert cold["wall_breakdown"]["convert"] > 0
    warm = sim.run(circuit, spec, execute=True).stats
    assert warm["plan_source"] == "memory"
    assert warm["wall_breakdown"]["convert"] == 0
    # a model-only run compiles without converting
    model = factory().run(circuit, spec, execute=False).stats
    assert model["wall_breakdown"]["convert"] == 0


def test_canonical_breakdown_folds_modeled_keys():
    modeled = {"fusion": 1.0, "conversion": 2.0, "simulation": 3.0}
    folded = canonical_breakdown(modeled)
    assert tuple(folded) == CANONICAL_STAGES
    assert folded == {"fusion": 1.0, "convert": 2.0, "io": 0.0, "execute": 3.0}
    aer = canonical_breakdown({"host": 1.0, "kernels": 0.5})
    assert aer["execute"] == pytest.approx(1.5)
    assert canonical_breakdown({"mystery": 1.0})["execute"] == 1.0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_simulate_trace_out(tmp_path, capsys):
    from repro.__main__ import main

    out = tmp_path / "trace.json"
    rc = main(["simulate", "--family", "qft", "-n", "10", "--batches", "2",
               "--batch-size", "8", "--trace-out", str(out)])
    assert rc == 0
    assert "trace" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert validate_chrome_trace(doc) == []
    assert len(trace_track_names(doc)) >= 3


def test_cli_trace_subcommand(tmp_path, capsys):
    from repro.__main__ import main

    out = tmp_path / "trace.json"
    metrics_out = tmp_path / "metrics.jsonl"
    rc = main(["trace", "--family", "qft", "-n", "6", "--batches", "2",
               "--batch-size", "8", "--execute", "--out", str(out),
               "--metrics-out", str(metrics_out)])
    printed = capsys.readouterr().out
    assert rc == 0
    assert "spans" in printed and "perfetto" in printed.lower()
    assert validate_chrome_trace(json.loads(out.read_text())) == []
    record = json.loads(metrics_out.read_text().splitlines()[0])
    assert record["metrics"]["counters"]
