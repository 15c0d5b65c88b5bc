"""Command-line interface.

Subcommands::

    python -m repro simulate  --family vqe -n 10 [--qasm FILE]
                              [--simulator bqsim|cuquantum|qiskit-aer|flatdd]
                              [--batches N] [--batch-size B] [--execute]
                              [--trace-out trace.json] [--metrics-out m.jsonl]
    python -m repro serve     --families qft,ghz --workers 2 --parallelism process
                              [--trace-out serve.json]  # merged cross-process trace
    python -m repro gateway   --port 7421 --shards 2 --workers 2
                              --parallelism process  # TCP front door
    python -m repro submit    --connect HOST:PORT --family ghz -n 4
    python -m repro status    --connect HOST:PORT  # live fleet SLO table
    python -m repro metrics   --in metrics.jsonl [--out metrics.prom]
                              ('-' reads stdin / writes stdout)
    python -m repro status    --stats stats.json  # SLO snapshot table
    python -m repro fuse      --family qnn -n 10      # show the fusion plan
    python -m repro check     --qasm A.qasm --against B.qasm
    python -m repro bench ... # alias of python -m repro.bench

Circuits come either from a generator family (``--family``/``-n``) or an
OpenQASM 2 file (``--qasm``).  ``serve`` and ``gateway`` take the same
service options.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import contextmanager

from .bench.runner import make_simulators
from .circuit import load_qasm
from .circuit.generators import FAMILIES, make_circuit
from .dd.manager import DDManager
from .fusion.bqcs import bqcs_fusion
from .obs import (
    get_metrics,
    metrics_record,
    prometheus_text,
    simulation_stats_record,
    tracing,
    write_chrome_trace,
    write_metrics_jsonl,
    write_prometheus,
)
from .sim.base import BatchSpec


def _circuit_from_args(args) -> "Circuit":
    if args.qasm:
        return load_qasm(args.qasm)
    if not args.family:
        raise SystemExit("need --family/-n or --qasm")
    return make_circuit(args.family, args.num_qubits, seed=args.seed)


def _add_circuit_args(parser) -> None:
    parser.add_argument("--family", choices=sorted(FAMILIES), default=None)
    parser.add_argument("-n", "--num-qubits", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--qasm", default=None, help="load an OpenQASM 2 file")


def _families(text: str) -> list[str]:
    """``--families``: comma-separated names, each one of ``FAMILIES``."""
    families = [f.strip() for f in text.split(",") if f.strip()]
    if not families or not set(families) <= FAMILIES.keys():
        raise argparse.ArgumentTypeError(
            f"unknown circuit family in {text!r} "
            f"(known: {', '.join(sorted(FAMILIES))})")
    return families


def _add_service_args(parser, max_depth: int) -> None:
    """The service options ``serve`` and ``gateway`` share."""
    parser.add_argument("--workers", type=int, default=1,
                        help="workers per service (per shard for gateway)")
    parser.add_argument("--parallelism", default="none",
                        choices=["none", "process"],
                        help="'process' executes mega-batches concurrently on "
                             "--workers OS processes sharing one plan cache")
    parser.add_argument("--max-depth", type=int, default=max_depth,
                        help="admission queue depth bound per service "
                             f"(backpressure; default: {max_depth})")
    parser.add_argument("--faults", default=None, metavar="PLAN",
                        help="fault-injection plan for every worker simulator")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="default per-job execution deadline in seconds "
                             "(process mode: hung workers are killed)")
    parser.add_argument("--max-deliveries", type=int, default=None,
                        metavar="N",
                        help="deliveries before a crash-looping job is "
                             "quarantined (default: 3)")
    parser.add_argument("--max-restarts", type=int, default=None, metavar="N",
                        help="pool-wide worker restart budget (default: 8)")
    parser.add_argument("--chaos", default=None, metavar="SPEC",
                        help="chaos schedule for every worker pool, e.g. "
                             "'kill=2,hang@after=5' (kill/hang pool task N; "
                             "'@after' fires after the simulator ran)")
    parser.add_argument("--lifecycle-out", default=None, metavar="PATH",
                        help="write per-job lifecycle events as JSONL")
    parser.add_argument("--prom-out", default=None, metavar="PATH",
                        help="write the metrics registry in Prometheus "
                             "exposition text format")
    parser.add_argument("--stats-json", default=None, metavar="PATH",
                        help="write the service summary stats as JSON")


def _given(args, *names) -> dict:
    """``{name: value}`` for each of ``names`` that the command set."""
    return {
        name: getattr(args, name)
        for name in names
        if getattr(args, name, None) is not None
    }


def _simulator_kwargs(args) -> dict:
    """The worker simulators' arguments (``serve``, ``gateway``, ``submit``)."""
    return _given(args, "health", "max_splits", "faults")


def _service_kwargs(args) -> dict:
    """``BatchSimulationService`` arguments (``ShardRouter`` takes them too)."""
    kwargs = {
        "num_workers": args.workers,
        "max_depth": args.max_depth,
        "parallelism": args.parallelism,
        "simulator_kwargs": _simulator_kwargs(args),
        **_given(args, "max_deliveries", "max_restarts"),
    }
    if args.timeout is not None:
        kwargs["default_timeout_s"] = args.timeout
    if args.chaos is not None:
        from .testing.chaos_pool import ChaosSchedule

        kwargs["chaos"] = ChaosSchedule.parse(args.chaos)
    return kwargs


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_reports(args, stats, source=None) -> None:
    """Write the report files the command asked for, and say so; the
    lifecycle and queue-metrics files come from ``source``."""
    if source is not None and args.lifecycle_out:
        count = source.write_lifecycle(args.lifecycle_out)
        print(f"lifecycle : wrote {count} events to {args.lifecycle_out}")
    if args.prom_out:
        write_prometheus(args.prom_out, get_metrics().snapshot())
        print(f"prom      : wrote {args.prom_out}")
    if getattr(args, "queue_metrics", None):
        count = source.write_queue_metrics(args.queue_metrics)
        print(f"metrics   : wrote {count} queue events to {args.queue_metrics}")
    if args.stats_json:
        _write_json(args.stats_json, stats)
        print(f"stats     : wrote {args.stats_json}")


@contextmanager
def _recording(enabled):
    """Yield a list that receives the block's spans when ``enabled``."""
    spans = []
    if not enabled:
        yield spans
        return
    with tracing() as tracer:
        mark = tracer.mark()
        yield spans
        spans.extend(tracer.spans_since(mark))


def cmd_simulate(args) -> int:
    """Run one batch simulation and write the files its flags ask for."""
    circuit = _circuit_from_args(args)
    bqsim_kwargs = _given(args, "health", "checkpoint_dir", "max_splits")
    if args.fidelity != 1.0:
        if args.simulator != "bqsim":
            raise SystemExit(
                "--fidelity below 1.0 is only supported with "
                "--simulator bqsim"
            )
        bqsim_kwargs["fidelity"] = args.fidelity
    simulators = make_simulators(**bqsim_kwargs)
    simulator = simulators[args.simulator]
    if args.faults is not None:
        # scope the plan to the chosen simulator's runs
        simulator.faults = args.faults
    if args.health is not None and args.simulator != "bqsim":
        from .resilience import HealthPolicy

        simulator.health = HealthPolicy.coerce(args.health)
    run_kwargs = {}
    if args.resume is not None:
        if args.simulator != "bqsim":
            raise SystemExit("--resume is only supported with --simulator bqsim")
        run_kwargs["resume"] = args.resume
    spec = BatchSpec(num_batches=args.batches, batch_size=args.batch_size,
                     seed=args.seed)
    with _recording(args.trace_out) as spans:
        result = simulator.run(circuit, spec, execute=args.execute,
                               **run_kwargs)
    print(f"circuit   : {circuit.name} ({circuit.num_qubits} qubits, "
          f"{len(circuit)} gates)")
    print(f"workload  : {spec.num_batches} batches x {spec.batch_size} inputs")
    print(f"simulator : {result.simulator}")
    print(f"modeled   : {result.modeled_time_ms:.3f} ms "
          f"{dict((k, round(v * 1e3, 3)) for k, v in result.breakdown.items())}")
    if result.power:
        print(f"power     : GPU {result.power.gpu_watts:.0f} W, "
              f"CPU {result.power.cpu_watts:.0f} W")
    if result.outputs is not None:
        norm = float(abs(result.outputs[0][:, 0] ** 2).sum())
        print(f"amplitudes: computed ({len(result.outputs)} output batches, "
              f"first column norm {norm:.6f})")
    approx = result.stats.get("approx") or {}
    if approx.get("pruned_gates"):
        print(f"approx    : budget {approx['budget']:g}, "
              f"achieved {approx['achieved']:.6f} "
              f"({approx['pruned_gates']} gate(s) pruned, "
              f"{approx['dropped_branches']} branch(es) dropped)")
    resilience = result.stats.get("resilience") or {}
    if resilience.get("counts"):
        parts = ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(resilience["counts"].items())
        )
        print(f"resilience: {parts} "
              f"(backend {resilience.get('backend', '?')}, "
              f"batch split x{resilience.get('batch_split', 1)})")
    if args.resilience_out:
        with open(args.resilience_out, "w", encoding="utf-8") as fh:
            for event in resilience.get("events", []):
                fh.write(json.dumps(event) + "\n")
        print(f"resilience: wrote {args.resilience_out}")
    if args.trace_out:
        write_chrome_trace(
            args.trace_out, spans, timeline=result.timeline,
            metadata={"circuit": circuit.name, "simulator": result.simulator},
        )
        stages = [s for s in spans if s.attrs.get("category") == "stage"]
        print(f"spans     : {len(spans)} recorded "
              f"({len(stages)} pipeline stages)")
        for span in stages:
            print(f"  {span.name:<10s} {span.duration * 1e3:9.3f} ms")
        if result.timeline is not None:
            print(f"timeline  : {len(result.timeline.tasks)} modeled GPU "
                  f"tasks, makespan {result.timeline.makespan * 1e3:.3f} ms")
        print(f"trace     : wrote {args.trace_out} "
              f"(open in https://ui.perfetto.dev)")
    if args.metrics_out:
        write_metrics_jsonl(args.metrics_out, [
            metrics_record(
                f"{result.simulator}:{circuit.name}",
                result.stats.get("metrics", get_metrics().snapshot()),
                circuit=circuit.name,
                simulator=result.simulator,
                modeled_time_s=result.modeled_time,
                wall_time_s=result.wall_time,
            )
        ])
        print(f"metrics   : wrote {args.metrics_out}")
    if args.stats_json:
        _write_json(args.stats_json, simulation_stats_record(result))
        print(f"stats     : wrote {args.stats_json}")
    return 0


def cmd_serve(args) -> int:
    """Run the scripted saturation workload against an in-process service.

    ``--trace-out`` starts tracing before the service is built, so process
    workers ship their spans back onto ``pool-worker-N`` tracks.
    """
    from .service import BatchSimulationService, saturation_workload

    with _recording(args.trace_out) as spans:
        service = BatchSimulationService(**_service_kwargs(args))
        try:
            stats = saturation_workload(
                service, args.families, num_qubits=args.num_qubits,
                num_jobs=args.jobs, seed=args.seed,
            )
        finally:
            service.close(drain=args.drain)
    # close() may cancel stragglers: re-snapshot the final accounting
    stats.update(
        {k: v for k, v in service.stats().items() if k != "workload"}
    )
    workload = stats["workload"]
    print(f"workload  : {workload['jobs_submitted']} jobs "
          f"({workload['jobs_shed']} shed) over {','.join(workload['families'])} "
          f"n={workload['num_qubits']}, {args.workers} worker(s), "
          f"parallelism={stats['parallelism']}")
    print(f"jobs      : {workload['jobs_done']} done, "
          f"{workload['jobs_failed']} failed, "
          f"{workload['solo_retries']} solo retries, "
          f"{stats['rejected']} rejected at admission")
    print(f"coalesce  : {stats['megabatches']} mega-batches, "
          f"factor mean {stats['coalesce_factor_mean']:.2f} "
          f"max {stats['coalesce_factor_max']}, "
          f"occupancy {stats['occupancy_mean']:.2f}")
    print(f"latency   : max wait {stats['wait_max_s'] * 1e3:.3f} ms, "
          f"{stats['degraded_groups']} degraded group(s)")
    if "pool" in stats:
        pool = stats["pool"]
        print(f"failure   : {pool['crashes']} crash(es) "
              f"({pool['timeouts']} timeout), "
              f"{pool['restarts']}/{pool['max_restarts']} restart(s), "
              f"{stats.get('requeued', 0)} redelivered, "
              f"{stats.get('quarantined', 0)} quarantined, "
              f"{pool['leaked_segments']} leaked shm segment(s)")
    print(f"throughput: {stats['inputs_done']} inputs in "
          f"{stats['modeled_time_s'] * 1e3:.3f} ms modeled "
          f"({stats['modeled_throughput_inputs_per_s']:.0f} inputs/s)")
    slo = stats.get("slo", {})
    lat = slo.get("latency_s", {})
    print(f"slo       : latency p50 {lat.get('p50', 0.0) * 1e3:.3f} ms "
          f"p95 {lat.get('p95', 0.0) * 1e3:.3f} ms "
          f"p99 {lat.get('p99', 0.0) * 1e3:.3f} ms, "
          f"deadline misses {slo.get('deadline_misses', 0)}"
          f"/{slo.get('deadline_jobs', 0)}, "
          f"{slo.get('unaccounted_jobs', 0)} unaccounted")
    if args.trace_out:
        write_chrome_trace(args.trace_out, spans, metadata={
            "mode": "service",
            "parallelism": args.parallelism,
            "workers": args.workers,
        })
        threads = sorted({s.thread for s in spans})
        job_spans = [
            s for s in spans if "job_ids" in s.attrs or "job" in s.attrs
        ]
        print(f"spans     : {len(spans)} recorded on {len(threads)} "
              f"track(s): {', '.join(threads)}")
        print(f"job spans : {len(job_spans)} carry job-id attributes")
        print(f"trace     : wrote {args.trace_out} "
              f"(open in https://ui.perfetto.dev)")
    _write_reports(args, stats, service)
    return 1 if workload["jobs_failed"] and args.strict else 0


def cmd_gateway(args) -> int:
    """Run the TCP gateway until SIGTERM/SIGINT, then drain gracefully."""
    import asyncio
    import signal

    from .gateway import GatewayServer, ShardRouter, TenantQuotas
    from .service.pool import pin_allocator

    tenants = {}
    for spec in args.tenant_weight or []:
        name, _, weight = spec.partition("=")
        if not name or not re.fullmatch(r"-?[0-9]+", weight):
            raise SystemExit(
                f"--tenant-weight expects NAME=WEIGHT, got {spec!r}"
            )
        tenants[name] = {"weight": int(weight)}
    # before the fleet allocates anything (see pin_allocator)
    pinned = pin_allocator()
    quotas = None
    if args.quota_rate > 0 or tenants:
        quotas = TenantQuotas(
            rate=args.quota_rate if args.quota_rate > 0 else 1000.0,
            burst=args.quota_burst,
            tenants=tenants,
        )
    router = ShardRouter(
        num_shards=args.shards,
        routing=args.routing,
        quotas=quotas,
        service_kwargs=_service_kwargs(args),
    )
    server = GatewayServer(router, host=args.host, port=args.port)

    async def _run() -> None:
        await server.start()
        print(f"gateway   : listening on {server.host}:{server.port} "
              f"({args.shards} shard(s) x {args.workers} worker(s), "
              f"routing={args.routing}, parallelism={args.parallelism}, "
              f"allocator={'pinned' if pinned else 'default'})")
        # flush first: whoever sees the port file finds the line logged
        sys.stdout.flush()
        if args.port_file:
            with open(args.port_file, "w", encoding="utf-8") as fh:
                fh.write(f"{server.port}\n")
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        await stop.wait()
        print("gateway   : signal received, draining ...")
        sys.stdout.flush()
        await server.shutdown(drain=True)

    asyncio.run(_run())
    stats = router.stats()
    unaccounted = router.unaccounted()
    print(f"jobs      : {stats['submitted']} submitted, "
          f"{stats['completed']} done, {stats['failed']} failed, "
          f"{stats['quarantined']} quarantined, "
          f"{len(unaccounted)} unaccounted")
    print(f"routing   : {stats['routed']} "
          f"({stats['failovers']} failover(s), "
          f"{stats['rescued']} job(s) rescued)")
    _write_reports(args, stats, router)
    return 1 if unaccounted else 0


def _parse_connect(connect: str) -> tuple[str, int]:
    host, _, port = connect.rpartition(":")
    if not host or not re.fullmatch(r"[0-9]+", port) or int(port) > 65535:
        raise SystemExit(
            f"--connect expects HOST:PORT with a port in 0-65535, "
            f"got {connect!r}"
        )
    return host, int(port)


def _connect(connect: str):
    """A ``GatewayClient`` on ``--connect HOST:PORT``, or a one-line
    refusal when nothing answers there."""
    from .gateway import GatewayClient

    host, port = _parse_connect(connect)
    try:
        return GatewayClient(host, port)
    except OSError as exc:
        # asyncio words a refusal "Connect call failed"; name the errno
        reason = (
            os.strerror(exc.errno) if (exc.errno or 0) > 0
            else exc.strerror or str(exc)
        )
        raise SystemExit(f"cannot connect to {host}:{port}: {reason}") from None


#: ``submit`` flags that configure an in-process service; a gateway runs
#: with its own settings, so ``--connect`` refuses them
_IN_PROCESS_ONLY = (
    "stats_json", "workers", "parallelism", "faults", "max_deliveries",
)


def _await_end(client, job_id: str, timeout_s: float = 60.0) -> dict:
    """Poll a gateway's ``status``, which delivers nothing, until the job
    has ended; its final status, or a one-line refusal after
    ``timeout_s`` (the ``result`` op's default wait)."""
    import time

    from .service.jobs import TERMINAL_STATES, JobStatus

    deadline = time.monotonic() + timeout_s
    while True:
        info = client.status(job_id)
        if JobStatus(info["status"]) in TERMINAL_STATES:
            return info
        if time.monotonic() >= deadline:
            raise SystemExit(
                f"job {job_id} still {info['status']} after {timeout_s:g}s"
            )
        time.sleep(0.005)


def cmd_submit(args) -> int:
    """Submit one job and wait for it: to a fresh in-process service, or
    with ``--connect`` over TCP to a running gateway.

    Over TCP the input batch is generated *client-side* with the seed an
    in-process service uses for its first submission, so the amplitudes
    coming back over the wire are bit-identical to the in-process ones.
    """
    from .obs.export import service_job_stats_record

    circuit = _circuit_from_args(args)
    if args.connect:
        from .circuit.inputs import random_batch

        ignored = _given(args, *_IN_PROCESS_ONLY)
        if ignored:
            flags = ", ".join("--" + name.replace("_", "-") for name in ignored)
            raise SystemExit(
                f"submit --connect does not take {flags} (they configure "
                "an in-process service; the gateway uses its own)"
            )
        batch = random_batch(circuit.num_qubits, args.inputs, 0)
        client = _connect(args.connect)
        job_args = {"inputs": batch.states, "tenant": args.tenant}
        via = f", tenant {args.tenant}, via {args.connect}"
    else:
        from .service import ServiceClient

        options = _given(args, "workers", "parallelism")
        client = ServiceClient(
            num_workers=options.get("workers", 1),
            parallelism=options.get("parallelism", "none"),
            simulator_kwargs=_simulator_kwargs(args),
        )
        job_args = {"num_inputs": args.inputs,
                    "max_deliveries": args.max_deliveries}
        via = ""
    try:
        job_id = client.submit(
            circuit, priority=args.priority, timeout_s=args.timeout,
            fidelity=args.fidelity, **job_args,
        )
        print(f"submitted : {job_id} ({circuit.name}, {args.inputs} "
              f"input(s), priority {args.priority}{via})")
        if args.connect:
            # the result call delivers the job, after which the gateway
            # may forget it: read the final status first
            info = _await_end(client, job_id)
            amplitudes = client.result(job_id)
            shard = f"shard {info['shard']}, "
        else:
            amplitudes = client.result(job_id)
            info, shard = client.service.job(job_id).describe(), ""
        print(f"status    : {info['status']} ({shard}group "
              f"{info['group_key']}, attempts {info['attempts']})")
        if info["fidelity"] < 1.0:
            achieved = info["achieved_fidelity"]
            achieved_s = "n/a" if achieved is None else f"{achieved:.6f}"
            print(f"fidelity  : budget {info['fidelity']:g}, "
                  f"achieved {achieved_s}")
        norm = float(abs(amplitudes[:, 0] ** 2).sum())
        print(f"result    : {amplitudes.shape[1]} output state(s), "
              f"first column norm {norm:.6f}")
        if args.connect and args.prom_out:
            with open(args.prom_out, "w", encoding="utf-8") as fh:
                fh.write(client.metrics())
            print(f"prom      : wrote {args.prom_out}")
        elif not args.connect:
            job = client.service.job(job_id)
            _write_reports(args, service_job_stats_record(job, client.service)
                           if args.stats_json else None)
    finally:
        client.close()
    return 0


def _read_input(path: str) -> str:
    """The text of ``path`` (``-`` reads stdin), or a one-line refusal."""
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit(f"cannot read {path}: {exc}") from None


def cmd_metrics(args) -> int:
    """Render a metrics snapshot as Prometheus exposition text.

    ``--in`` converts a metrics JSONL file (``--metrics-out`` output);
    without it the live process-global registry is rendered (useful only
    in-process, so ``--in`` is the common path).  ``-`` works for both
    ends: ``--in -`` reads the JSONL from stdin, ``--out -`` writes the
    Prometheus text to stdout, so the command pipes.
    """
    if args.input:
        snapshots = []
        lines = _read_input(args.input).splitlines()
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                record = None
            if isinstance(record, dict):
                record = record.get("metrics", record)
            if not isinstance(record, dict):
                raise SystemExit(
                    f"{args.input}:{lineno}: not a JSON metrics record")
            snapshots.append(record)
        if not snapshots:
            raise SystemExit(f"no metrics records in {args.input}")
        try:
            snapshot = snapshots[args.index]
        except IndexError:
            raise SystemExit(
                f"--index {args.index} out of range "
                f"({len(snapshots)} record(s) in {args.input})"
            ) from None
    else:
        snapshot = get_metrics().snapshot()
    text = prometheus_text(snapshot)
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"prom      : wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _fmt_quantiles(block: dict) -> str:
    return (f"p50 {block.get('p50', 0.0) * 1e3:9.3f}  "
            f"p95 {block.get('p95', 0.0) * 1e3:9.3f}  "
            f"p99 {block.get('p99', 0.0) * 1e3:9.3f}  "
            f"max {block.get('max', 0.0) * 1e3:9.3f}")


def cmd_status(args) -> int:
    """Print the SLO snapshot from a ``--stats-json`` file.

    Accepts both ``repro serve`` output (``slo`` at the top level) and
    ``repro submit``/``simulate`` output (``stats.slo``).  ``--stats -``
    reads the JSON from stdin; ``--connect HOST:PORT`` fetches the
    merged fleet stats from a running gateway instead of a file.
    """
    if args.connect:
        client = _connect(args.connect)
        try:
            doc = client.stats()
        finally:
            client.close()
        source = args.connect
    elif args.stats:
        source = "stdin" if args.stats == "-" else args.stats
        try:
            doc = json.loads(_read_input(args.stats))
        except json.JSONDecodeError as exc:
            raise SystemExit(f"{source}: not JSON ({exc})") from None
    else:
        raise SystemExit("need --stats PATH (or '-') or --connect HOST:PORT")
    slo = None
    if isinstance(doc, dict):
        slo = doc.get("slo") or (doc.get("stats") or {}).get("slo")
    if not isinstance(slo, dict):
        raise SystemExit(f"{source} has no 'slo' block")
    try:
        if "shards" in doc:
            dead = doc.get("dead_shards", [])
            print(f"fleet     : {len(doc['shards'])} shard(s)"
                  + (f" ({len(dead)} dead: {','.join(dead)})" if dead else "")
                  + f", routing={doc.get('routing', '?')}, "
                  f"routed {doc.get('routed', {})}, "
                  f"queue depth {doc.get('queue_depth', 0)}")
        print(f"jobs      : {slo['submitted']} submitted, {slo['done']} done, "
              f"{slo['failed']} failed, {slo['rejected']} rejected, "
              f"{slo['cancelled']} cancelled"
              + (f", {slo['unaccounted_jobs']} unaccounted"
                 if "unaccounted_jobs" in slo else ""))
        print(f"latency ms: {_fmt_quantiles(slo['latency_s'])}")
        print(f"queue   ms: {_fmt_quantiles(slo['queue_age_s'])}")
        print(f"deadlines : {slo['deadline_misses']}/{slo['deadline_jobs']} "
              f"missed (rate {slo['deadline_miss_rate']:.3f})")
        print(f"degraded  : {slo['solo_retries']} solo retries "
              f"(rate {slo['degraded_rate']:.3f})")
        for priority, cls in sorted(slo.get("priorities", {}).items()):
            print(f"  priority {priority}: {cls['jobs']} job(s), "
                  f"latency ms {_fmt_quantiles(cls['latency_s'])}")
    except KeyError as exc:
        raise SystemExit(
            f"{source}: 'slo' block has no {exc.args[0]!r} entry"
        ) from None
    return 0


def cmd_fuse(args) -> int:
    circuit = _circuit_from_args(args)
    mgr = DDManager(circuit.num_qubits)
    plan = bqcs_fusion(mgr, circuit)
    print(f"{circuit.name}: {len(circuit)} gates -> {len(plan)} fused gates")
    print(f"#MAC per amplitude: {plan.total_cost} "
          f"(dense gate-by-gate would be {4 * len(circuit)})")
    for i, fused in enumerate(plan.gates):
        print(f"  fused[{i}]: cost {fused.cost}, "
              f"{fused.num_source_gates} source gates "
              f"{list(fused.gate_indices[:8])}{'...' if fused.num_source_gates > 8 else ''}")
    return 0


def cmd_check(args) -> int:
    from .verify import check

    result = check(load_qasm(args.qasm), load_qasm(args.against))
    verdict = "EQUIVALENT" if result else "NOT equivalent"
    print(f"{verdict} (method: {result.method}"
          + (f", max deviation {result.max_deviation:.2e}"
             if result.max_deviation is not None else "")
          + ")")
    return 0 if result else 1


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (every subcommand but ``bench``)."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a batch simulation")
    _add_circuit_args(p)
    p.add_argument("--simulator", default="bqsim",
                   choices=["bqsim", "cuquantum", "qiskit-aer", "flatdd"])
    p.add_argument("--batches", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--execute", action="store_true",
                   help="compute real amplitudes (default: model-only)")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write a JSONL metrics snapshot to PATH")
    p.add_argument("--faults", default=None, metavar="PLAN",
                   help="fault-injection plan, e.g. "
                        "'seed=7,kernel=0.05,oom=1:1'")
    p.add_argument("--health", default=None,
                   choices=["off", "warn", "renormalize", "fail"],
                   help="per-batch numerical health policy")
    p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                   help="write batch-boundary checkpoints (bqsim only)")
    p.add_argument("--resume", default=None, metavar="CKPT",
                   help="resume a bqsim run from a checkpoint archive")
    p.add_argument("--fidelity", type=float, default=1.0, metavar="F",
                   help="end-to-end fidelity budget in (0, 1]; below 1.0 "
                        "enables budgeted DD pruning (bqsim only, see "
                        "docs/approximation.md)")
    p.add_argument("--max-splits", type=int, default=None,
                   help="allow up to 2^N-way batch splitting on OOM "
                        "(bqsim only)")
    p.add_argument("--resilience-out", default=None, metavar="PATH",
                   help="write the run's resilience events as JSONL")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="record spans, write a Chrome/Perfetto trace and "
                        "print the pipeline stages")
    p.add_argument("--stats-json", default=None, metavar="PATH",
                   help="write the run's stats (incl. plan_cache and "
                        "resilience summaries) as a JSON document")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser(
        "serve",
        help="run a scripted saturation workload against the batch service",
    )
    p.add_argument("--families", type=_families, default="qft,ghz,vqe",
                   help="comma-separated circuit families to mix")
    p.add_argument("-n", "--num-qubits", type=int, default=6)
    p.add_argument("--jobs", type=int, default=24,
                   help="jobs to submit (mixed priorities and sizes)")
    p.add_argument("--seed", type=int, default=0)
    _add_service_args(p, max_depth=16)
    p.add_argument("--health", default=None,
                   choices=["off", "warn", "renormalize", "fail"])
    p.add_argument("--max-splits", type=int, default=None)
    p.add_argument("--drain", action="store_true",
                   help="graceful close: finish in-flight work instead of "
                        "cancelling it")
    p.add_argument("--queue-metrics", default=None, metavar="PATH",
                   help="write per-round queue metrics as JSONL")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="record spans of every process into one "
                        "Chrome/Perfetto trace")
    p.add_argument("--strict", action="store_true",
                   help="exit non-zero if any job failed")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "gateway",
        help="run the TCP gateway over a shard fleet (SIGTERM drains)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (default: 0 = ephemeral, printed and "
                        "written to --port-file)")
    p.add_argument("--port-file", default=None, metavar="PATH",
                   help="write the bound port to PATH once listening")
    p.add_argument("--shards", type=int, default=1,
                   help="independent service shards (each its own pool "
                        "and plan cache)")
    p.add_argument("--routing", default="affinity",
                   choices=["affinity", "random"],
                   help="'affinity' hashes plan fingerprints onto the "
                        "consistent-hash ring; 'random' scatters "
                        "round-robin (cache-oblivious baseline)")
    p.add_argument("--quota-rate", type=float, default=0.0, metavar="N",
                   help="per-tenant admission rate in jobs/s "
                        "(0 = quotas off)")
    p.add_argument("--quota-burst", type=float, default=20.0, metavar="N")
    p.add_argument("--tenant-weight", action="append", metavar="NAME=W",
                   help="priority boost for a tenant (repeatable)")
    _add_service_args(p, max_depth=256)
    p.set_defaults(fn=cmd_gateway)

    p = sub.add_parser(
        "submit", help="submit one job to the batch service and wait"
    )
    _add_circuit_args(p)
    p.add_argument("--connect", default=None, metavar="HOST:PORT",
                   help="submit over TCP to a running gateway instead of "
                        "an in-process service (bit-identical results)")
    p.add_argument("--tenant", default="default",
                   help="tenant name for --connect (quotas + weight)")
    p.add_argument("--inputs", type=int, default=4,
                   help="input states in the job's batch")
    p.add_argument("--priority", type=int, default=0)
    p.add_argument("--fidelity", type=float, default=1.0, metavar="F",
                   help="end-to-end fidelity budget in (0, 1]; below 1.0 "
                        "the job runs on the approximate tier and the "
                        "result reports its achieved fidelity")
    p.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="per-job execution deadline in seconds "
                        "(process mode: a hung worker is killed)")
    p.add_argument("--max-deliveries", type=int, default=None, metavar="N",
                   help="deliveries before the job is quarantined "
                        "(default: service setting, 3)")
    p.add_argument("--faults", default=None, metavar="PLAN")
    p.add_argument("--workers", type=int, default=None,
                   help="in-process service workers (default: 1)")
    p.add_argument("--parallelism", default=None,
                   choices=["none", "process"],
                   help="in-process service executor (default: none)")
    p.add_argument("--stats-json", default=None, metavar="PATH",
                   help="write job + service stats as JSON (same schema "
                        "as 'repro simulate --stats-json')")
    p.add_argument("--prom-out", default=None, metavar="PATH",
                   help="write the metrics registry in Prometheus "
                        "exposition text format")
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser(
        "metrics",
        help="render a metrics snapshot as Prometheus exposition text",
    )
    p.add_argument("--in", dest="input", default=None, metavar="PATH",
                   help="metrics JSONL file (--metrics-out output); "
                        "default: the live in-process registry")
    p.add_argument("--index", type=int, default=-1,
                   help="which JSONL record to render (default: last)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write to PATH instead of stdout")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser(
        "status", help="print the SLO snapshot from a --stats-json file"
    )
    p.add_argument("--stats", default=None, metavar="PATH",
                   help="stats JSON written by 'repro serve/submit "
                        "--stats-json' ('-' reads stdin)")
    p.add_argument("--connect", default=None, metavar="HOST:PORT",
                   help="fetch live merged stats from a running gateway")
    p.set_defaults(fn=cmd_status)

    p = sub.add_parser("fuse", help="show the BQCS-aware fusion plan")
    _add_circuit_args(p)
    p.set_defaults(fn=cmd_fuse)

    p = sub.add_parser("check", help="equivalence-check two QASM files")
    p.add_argument("--qasm", required=True)
    p.add_argument("--against", required=True)
    p.set_defaults(fn=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "bench":
        from .bench.__main__ import main as bench_main

        sys.argv = [sys.argv[0]] + argv[1:]
        bench_main()
        return 0
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
