"""Tests for the command-line interface."""

import pytest

from repro.__main__ import main
from repro.circuit import to_qasm
from repro.circuit.generators import ghz

from .circuit_helpers import decompose_to_basis


def test_simulate_model_only(capsys):
    rc = main(["simulate", "--family", "vqe", "-n", "6", "--batches", "2",
               "--batch-size", "8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "vqe_n6" in out and "modeled" in out
    assert "amplitudes" not in out  # model-only by default


def test_simulate_execute(capsys):
    rc = main(["simulate", "--family", "routing", "-n", "6", "--batches", "2",
               "--batch-size", "8", "--execute", "--simulator", "cuquantum"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "cuquantum" in out
    assert "amplitudes: computed" in out


def test_fuse_command(capsys):
    rc = main(["fuse", "--family", "graphstate", "-n", "8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "#MAC per amplitude" in out and "fused[0]" in out


def test_check_command_equivalent(tmp_path, capsys):
    a = tmp_path / "a.qasm"
    b = tmp_path / "b.qasm"
    a.write_text(to_qasm(ghz(4)))
    b.write_text(to_qasm(decompose_to_basis(ghz(4))))
    rc = main(["check", "--qasm", str(a), "--against", str(b)])
    assert rc == 0
    assert "EQUIVALENT" in capsys.readouterr().out


def test_check_command_accepts_a_file_against_itself(tmp_path, capsys):
    path = tmp_path / "c.qasm"
    path.write_text(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
        "h q[0];\nrz(1e-5) q[0];\ncx q[0],q[1];\n"
    )
    rc = main(["check", "--qasm", str(path), "--against", str(path)])
    assert rc == 0
    assert "EQUIVALENT" in capsys.readouterr().out


def test_check_command_rejects(tmp_path, capsys):
    a = tmp_path / "a.qasm"
    b = tmp_path / "b.qasm"
    circuit = ghz(4)
    a.write_text(to_qasm(circuit))
    tampered = decompose_to_basis(circuit)
    tampered.x(0)
    b.write_text(to_qasm(tampered))
    rc = main(["check", "--qasm", str(a), "--against", str(b)])
    assert rc == 1
    assert "NOT equivalent" in capsys.readouterr().out


def test_qasm_input_for_simulate(tmp_path, capsys):
    path = tmp_path / "c.qasm"
    path.write_text(to_qasm(ghz(5)))
    rc = main(["simulate", "--qasm", str(path), "--batches", "1",
               "--batch-size", "4"])
    assert rc == 0
    assert "5 qubits" in capsys.readouterr().out


def test_missing_circuit_spec():
    with pytest.raises(SystemExit):
        main(["fuse"])


def test_simulate_with_faults_and_event_log(tmp_path, capsys):
    events = tmp_path / "resilience.jsonl"
    rc = main(["simulate", "--family", "qft", "-n", "6", "--batches", "3",
               "--batch-size", "4", "--execute",
               "--faults", "seed=7,kernel=0.05,oom=1:1", "--max-splits", "1",
               "--resilience-out", str(events)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "resilience:" in out and "batch split x2" in out
    import json

    lines = [json.loads(line) for line in events.read_text().splitlines()]
    assert any(event["kind"] == "fault" for event in lines)
    assert any(event["kind"] == "batch_split" for event in lines)


def test_resume_flag_is_bqsim_only():
    with pytest.raises(SystemExit, match="only supported"):
        main(["simulate", "--family", "qft", "-n", "6", "--execute",
              "--simulator", "cuquantum", "--resume", "nowhere.npz"])


def test_simulate_stats_json(tmp_path, capsys):
    import json

    stats = tmp_path / "stats.json"
    rc = main(["simulate", "--family", "qft", "-n", "6", "--batches", "2",
               "--batch-size", "4", "--execute", "--stats-json", str(stats)])
    out = capsys.readouterr().out
    assert rc == 0
    assert f"stats     : wrote {stats}" in out
    doc = json.loads(stats.read_text())
    assert doc["circuit"] == "qft_n6"
    assert doc["simulator"] == "bqsim"
    assert doc["executed"] is True
    assert doc["num_output_batches"] == 2
    assert doc["spec"]["num_batches"] == 2
    assert doc["spec"]["batch_size"] == 4
    assert doc["spec"]["num_inputs"] == 8
    assert doc["modeled_time_s"] > 0 and doc["wall_time_s"] > 0
    assert "plan_cache" in doc["stats"] and "resilience" in doc["stats"]
    assert "plan" not in doc["stats"] and "snapshots" not in doc["stats"]


def test_serve_saturation(tmp_path, capsys):
    import json

    metrics = tmp_path / "queue.jsonl"
    stats = tmp_path / "serve.json"
    rc = main(["serve", "--families", "qft,ghz", "-n", "5", "--jobs", "10",
               "--max-depth", "8", "--seed", "3",
               "--queue-metrics", str(metrics), "--stats-json", str(stats)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "mega-batches" in out and "throughput" in out
    doc = json.loads(stats.read_text())
    assert doc["workload"]["jobs_done"] + doc["workload"]["jobs_failed"] \
        + doc["workload"]["jobs_shed"] == 10
    assert doc["megabatches"] >= 1
    assert doc["coalesce_factor_mean"] >= 1
    events = [json.loads(line) for line in metrics.read_text().splitlines()]
    assert events and all(e["event"] == "megabatch" for e in events)
    assert all({"jobs", "columns", "wait_max_s"} <= e.keys() for e in events)


def test_serve_with_injected_fault(capsys):
    rc = main(["serve", "--families", "qft", "-n", "5", "--jobs", "6",
               "--seed", "11", "--faults", "seed=2,oom=1:1",
               "--max-splits", "0"])
    out = capsys.readouterr().out
    assert rc == 0  # degradation absorbs the fault; no job is lost
    assert "degraded group" in out


def test_submit_one_job(capsys):
    rc = main(["submit", "--family", "ghz", "-n", "5", "--inputs", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "submitted : job-" in out
    assert "status    : done" in out
    assert "3 output state(s)" in out


def test_submit_stats_json_matches_simulate_schema(tmp_path, capsys):
    """``submit --stats-json`` is schema-compatible with ``simulate``'s.

    Regression test: the record must carry the same top-level keys and the
    same ``stats.plan_cache`` shape, so one consumer script handles both.
    """
    import json

    sim_stats = tmp_path / "simulate.json"
    job_stats = tmp_path / "submit.json"
    assert main(["simulate", "--family", "ghz", "-n", "5", "--batches", "1",
                 "--batch-size", "3", "--execute",
                 "--stats-json", str(sim_stats)]) == 0
    assert main(["submit", "--family", "ghz", "-n", "5", "--inputs", "3",
                 "--stats-json", str(job_stats)]) == 0
    out = capsys.readouterr().out
    assert f"stats     : wrote {job_stats}" in out

    sim_doc = json.loads(sim_stats.read_text())
    job_doc = json.loads(job_stats.read_text())
    shared = {"simulator", "circuit", "num_qubits", "spec", "modeled_time_s",
              "wall_time_s", "breakdown", "executed", "num_output_batches",
              "stats"}
    assert shared <= sim_doc.keys() and shared <= job_doc.keys()
    assert job_doc["simulator"] == "service"
    assert job_doc["circuit"] == sim_doc["circuit"] == "ghz_n5"
    assert job_doc["spec"]["num_inputs"] == 3

    cache = job_doc["stats"]["plan_cache"]
    assert cache.keys() == sim_doc["stats"]["plan_cache"].keys()
    assert {"hits", "disk_hits", "misses", "quarantined"} <= cache.keys()
    assert cache["misses"] >= 1  # the submitted job compiled its plan

    job = job_doc["stats"]["job"]
    assert job["status"] == "done" and job["job_id"].startswith("job-")

    slo = job_doc["stats"]["slo"]
    assert slo["done"] == 1 and slo["unaccounted_jobs"] == 0
    assert slo["latency_s"]["p50"] <= slo["latency_s"]["p99"]
    assert "queue_age_s" in slo and "priorities" in slo


def test_submit_with_fidelity_budget(capsys):
    rc = main(["submit", "--family", "vqe_finetune", "-n", "5",
               "--inputs", "2", "--fidelity", "0.99"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "status    : done" in out
    assert "fidelity  : budget 0.99, achieved 0." in out


def test_submit_fidelity_achieved_unknown_prints_na(capsys, monkeypatch):
    """Regression: when achieved fidelity never made it back to the job
    (it is None), the CLI prints 'n/a' instead of raising TypeError on
    the ':.6f' format after an otherwise successful job."""
    from repro.service.workers import BatchSimulationService

    monkeypatch.setattr(
        BatchSimulationService, "_note_approx", lambda self, block: None
    )
    rc = main(["submit", "--family", "ghz", "-n", "4", "--inputs", "1",
               "--fidelity", "0.99"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "achieved n/a" in out


def test_submit_process_parallelism(capsys):
    rc = main(["submit", "--family", "ghz", "-n", "5", "--inputs", "3",
               "--workers", "2", "--parallelism", "process"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "status    : done" in out
    assert "3 output state(s)" in out


def test_serve_slo_prom_and_lifecycle_outputs(tmp_path, capsys):
    """``serve`` can scrape its registry to Prometheus text and dump the
    per-job lifecycle log; both artifacts parse and agree on job counts."""
    import json

    from repro.obs import parse_prometheus_text

    prom = tmp_path / "serve.prom"
    lifecycle = tmp_path / "lifecycle.jsonl"
    stats = tmp_path / "serve.json"
    rc = main(["serve", "--families", "ghz", "-n", "5", "--jobs", "6",
               "--seed", "5", "--prom-out", str(prom),
               "--lifecycle-out", str(lifecycle), "--stats-json", str(stats)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "slo       : latency p50" in out
    assert f"prom      : wrote {prom}" in out

    doc = parse_prometheus_text(prom.read_text())
    assert doc["types"]["repro_service_job_latency_s"] == "histogram"
    done = sum(
        v for labels, v in doc["samples"]["repro_service_job_terminal"]
        if labels.get("outcome") == "done"
    )
    slo = json.loads(stats.read_text())["slo"]
    assert done >= slo["done"] >= 1  # registry is global, file is this run
    assert slo["unaccounted_jobs"] == 0

    events = [json.loads(l) for l in lifecycle.read_text().splitlines()]
    submitted = {e["job"] for e in events if e["event"] == "submitted"}
    terminal = {e["job"] for e in events
                if e["event"] in ("done", "failed", "cancelled", "rejected")}
    assert len(submitted) == 6 and submitted == terminal


def test_status_command_renders_slo(tmp_path, capsys):
    stats = tmp_path / "serve.json"
    assert main(["serve", "--families", "qft", "-n", "5", "--jobs", "4",
                 "--seed", "9", "--stats-json", str(stats)]) == 0
    capsys.readouterr()
    rc = main(["status", "--stats", str(stats)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "jobs      :" in out and "4 submitted" in out
    assert "latency ms:" in out and "p50" in out and "p99" in out
    assert "deadlines :" in out and "degraded  :" in out
    assert "priority" in out  # per-priority breakdown rows


def test_status_command_rejects_file_without_slo(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    with pytest.raises(SystemExit, match="no 'slo' block"):
        main(["status", "--stats", str(bad)])


def test_metrics_command_converts_jsonl(tmp_path, capsys):
    """``metrics --in`` turns a ``--metrics-out`` JSONL file into
    Prometheus exposition text without needing the live registry."""
    from repro.obs import parse_prometheus_text

    jsonl = tmp_path / "metrics.jsonl"
    prom = tmp_path / "metrics.prom"
    assert main(["simulate", "--family", "ghz", "-n", "5", "--batches", "1",
                 "--batch-size", "4", "--execute",
                 "--metrics-out", str(jsonl)]) == 0
    capsys.readouterr()
    rc = main(["metrics", "--in", str(jsonl), "--out", str(prom)])
    assert rc == 0
    assert f"prom      : wrote {prom}" in capsys.readouterr().out
    doc = parse_prometheus_text(prom.read_text())
    assert doc["samples"]  # non-empty and well-formed
    with pytest.raises(SystemExit, match="out of range"):
        main(["metrics", "--in", str(jsonl), "--index", "99"])


def test_trace_serve_merged_timeline(tmp_path, capsys):
    import json

    trace = tmp_path / "serve-trace.json"
    rc = main(["trace", "--serve", "--families", "ghz", "-n", "5",
               "--jobs", "4", "--workers", "2", "--seed", "7",
               "--out", str(trace)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "job spans :" in out and "carry job-id attributes" in out
    doc = json.loads(trace.read_text())
    events = doc["traceEvents"]
    names = {e.get("name") for e in events}
    assert "service.megabatch" in names
    job_spans = [e for e in events
                 if e.get("args", {}).get("job_ids")]
    assert job_spans  # correlation attrs survive the chrome-trace export


def test_metrics_pipes_through_stdin_and_stdout(tmp_path, capsys,
                                                monkeypatch):
    """``metrics --in - --out -`` reads JSONL from stdin and writes the
    Prometheus text to stdout, so the command composes in a pipeline."""
    import io

    from repro.obs import parse_prometheus_text

    jsonl = tmp_path / "metrics.jsonl"
    assert main(["simulate", "--family", "ghz", "-n", "5", "--batches", "1",
                 "--batch-size", "4", "--execute",
                 "--metrics-out", str(jsonl)]) == 0
    capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.StringIO(jsonl.read_text()))
    rc = main(["metrics", "--in", "-", "--out", "-"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "wrote" not in out  # the text itself IS the output
    doc = parse_prometheus_text(out)
    assert doc["samples"]


def test_status_reads_stats_from_stdin(tmp_path, capsys, monkeypatch):
    import io

    stats = tmp_path / "serve.json"
    assert main(["serve", "--families", "qft", "-n", "5", "--jobs", "4",
                 "--seed", "9", "--stats-json", str(stats)]) == 0
    capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.StringIO(stats.read_text()))
    rc = main(["status", "--stats", "-"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "jobs      :" in out and "4 submitted" in out


def test_status_needs_a_source():
    with pytest.raises(SystemExit, match="--stats PATH"):
        main(["status"])


def test_submit_and_status_over_tcp(capsys):
    """``repro submit --connect`` against a live gateway matches the
    in-process ``repro submit`` output contract, and ``repro status
    --connect`` renders the fleet line."""
    from tests.test_gateway_server import ServerHarness

    harness = ServerHarness(num_shards=2)
    address = f"127.0.0.1:{harness.port}"
    try:
        rc = main(["submit", "--family", "ghz", "-n", "5", "--inputs", "3",
                   "--connect", address, "--tenant", "acme"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "submitted :" in out and "tenant acme" in out
        assert "status    : done" in out and "shard s" in out
        assert "result    : 3 output state(s)" in out
        rc = main(["status", "--connect", address])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fleet     : 2 shard(s)" in out
        assert "1 submitted, 1 done" in out
    finally:
        harness.stop()
