"""The BQSim simulator: the paper's three-stage pipeline.

Stage 1 — BQCS-aware gate fusion on DDs (Section 3.1).
Stage 2 — hybrid DD-to-ELL conversion (Section 3.2).
Stage 3 — task-graph execution of ELL spMM kernels over rotating device
buffers with overlapped H2D/D2H copies (Section 3.3, Figure 8).

Ablation switches mirror Figure 13: ``fusion=False`` skips stage 1,
``use_ell=False`` simulates straight from flat DDs on the device (each
kernel pays a DFS walk per amplitude), ``task_graph=False`` launches every
kernel/copy synchronously.
"""

from __future__ import annotations

from contextlib import ExitStack
from pathlib import Path
from typing import Sequence

import numpy as np

from ..approx import FidelityLedger, prune_plan
from ..circuit import Circuit, InputBatch
from ..dd.export import count_edges, count_nodes
from ..dd.manager import DDManager
from ..ell.convert import DEFAULT_TAU, ell_from_dd
from ..ell.format import ELLMatrix
from ..ell.persist import CompiledPlan, load_compiled_plan, save_compiled_plan
from ..ell.spmm import ell_spmm
from ..errors import (
    ApproximationError,
    CheckpointError,
    ConversionError,
    MemoryFault,
    SimulationError,
    TransientFault,
)
from ..fusion.bqcs import bqcs_fusion, no_fusion_plan
from ..fusion.plan import FusionPlan
from ..gpu.device import VirtualGPU
from ..gpu.power import PowerReport, cpu_power_from_utilization, gpu_power_from_work
from ..kernels import ops as _kernels
from ..kernels.engine import ArrayEngine
from ..gpu.spec import (
    COMPLEX_BYTES,
    CpuSpec,
    GpuSpec,
    ell_kernel_bytes,
    state_block_bytes,
)
from ..obs import get_metrics, get_tracer
from ..resilience import (
    BackendLadder,
    CheckpointManager,
    FaultPlan,
    HealthPolicy,
    RetryPolicy,
    RetrySession,
    check_state_block,
    fault_injection,
    get_fault_injector,
    get_resilience_log,
    load_checkpoint,
)
from .base import (
    BatchSimulator,
    BatchSpec,
    PlanCache,
    RunObservation,
    SimulationResult,
)

NUM_BUFFERS = 4


def buffer_indices(batch_index: int, kernel_index: int, kernels_per_batch: int) -> tuple[int, int]:
    """The paper's buffer-selection formulas (Section 3.3.2): input and
    output buffer for kernel ``I_k`` of batch ``I_B``."""
    base = 2 * (batch_index % 2)
    phase = (batch_index // 2) * (kernels_per_batch + 1) + kernel_index
    return base + phase % 2, base + (phase + 1) % 2


class BQSimSimulator(BatchSimulator):
    """GPU-accelerated batch quantum circuit simulation with DDs.

    The paper's three-stage pipeline behind one ``run()`` call: BQCS-aware
    gate fusion, DD-to-ELL conversion (hybrid CPU/GPU route), and
    task-graph execution over rotating device buffers.  Compiled plans
    are cached by circuit structure (in memory, and on disk when
    ``cache_dir`` or ``$REPRO_PLAN_CACHE`` is set), so repeated runs of
    an equal circuit skip stages 1-2.  Example::

        sim = BQSimSimulator()
        result = sim.run(make_circuit("ghz", 4), BatchSpec(2, 8))
        amplitudes = result.output_batch(0)       # (16, 8) complex128
    """

    name = "bqsim"

    def __init__(
        self,
        gpu: GpuSpec | None = None,
        cpu: CpuSpec | None = None,
        tau: int = DEFAULT_TAU,
        fusion: bool = True,
        use_ell: bool = True,
        task_graph: bool = True,
        max_fused_cost: int | None = None,
        snapshots: bool = False,
        cache_dir: str | Path | None = None,
        retry: RetryPolicy | None = None,
        faults: FaultPlan | str | None = None,
        health: HealthPolicy | str | None = "warn",
        checkpoint_dir: str | Path | None = None,
        checkpoint_every: int = 1,
        max_splits: int = 0,
        engine: "str | ArrayEngine | None" = None,
        fidelity: float = 1.0,
    ):
        super().__init__(gpu, cpu, retry, faults, health, engine)
        self.tau = tau
        self.fusion = fusion
        self.use_ell = use_ell
        self.task_graph = task_graph
        self.max_fused_cost = max_fused_cost
        #: capture the full state after every fused gate (paper Section 2.1:
        #: full-state simulation exposes the amplitudes at each gate)
        self.snapshots = snapshots
        #: optional disk tier: compiled plans round-trip through
        #: ``cache_dir`` (or $REPRO_PLAN_CACHE) so warm *processes* skip
        #: fusion and conversion entirely
        self._plans = PlanCache(cache_dir)
        #: batch-boundary checkpointing (None = disabled)
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self.checkpoint_every = checkpoint_every
        #: adaptive batch splitting: on OOM, halve the state-block batch up
        #: to ``2**max_splits`` parts; 0 keeps the strict memory guard
        self.max_splits = max_splits
        #: end-to-end fidelity budget in (0, 1].  1.0 is the exact tier —
        #: the approximation pass is a no-op and results are bit-identical
        #: to a build without it.  Below 1.0, the fused plan is pruned by
        #: :func:`repro.approx.prune_plan` under this budget and the run's
        #: ``stats["approx"]`` reports the achieved fidelity.
        fidelity = float(fidelity)
        if not 0.0 < fidelity <= 1.0:
            raise ApproximationError(
                f"fidelity budget must be in (0, 1], got {fidelity}"
            )
        self.fidelity = fidelity

    # -- pipeline stages ------------------------------------------------------

    def plan_circuit(self, mgr: DDManager, circuit: Circuit) -> FusionPlan:
        if self.fusion:
            return bqcs_fusion(mgr, circuit, max_cost=self.max_fused_cost)
        return no_fusion_plan(mgr, circuit)

    def _cache_extra(self, fidelity: float | None = None) -> tuple:
        """Settings that change what stages 1-2 produce (part of the key).

        The fidelity budget joins the key only below 1.0, so exact plans
        keep their historical fingerprints (warm caches stay warm) while
        every approximate budget names a distinct plan — which is also how
        jobs partition into fidelity classes downstream: the coalescer and
        the gateway's shard placement both key on this fingerprint.

        ``fidelity`` lets callers key a budget other than this simulator's
        own without mutating shared state (the serving layer fingerprints
        per-job budgets against one template simulator from concurrent
        threads); None keys ``self.fidelity``.
        """
        budget = self.fidelity if fidelity is None else float(fidelity)
        # the tag names the generation of compiled matrices: bump it when a
        # build's ELL bits change, so archives of an older generation miss
        # and rebuild instead of being served (v2: GPU-route gates convert
        # through the one converter, with the CPU route's rounding)
        extra = (
            "bqsim-v2", self.fusion, self.max_fused_cost, self.tau, self.use_ell
        )
        if budget < 1.0:
            extra += ("fidelity", budget)
        return extra

    def plan_fingerprint(self, circuit: Circuit) -> str:
        """The structural key this simulator compiles ``circuit`` under.

        Two circuits with equal fingerprints share one compiled plan in
        this simulator's :class:`~repro.sim.base.PlanCache` (memory and
        disk tiers alike), which is the compatibility predicate the
        serving layer's coalescer uses to merge jobs into one mega-batch.
        """
        return self._plans.key(circuit, self._cache_extra())

    def _build(self, circuit: Circuit) -> dict:
        """Stages 1 and 2 from scratch: fusion + conversion analysis.

        With a fidelity budget below 1.0, the fused plan is pruned under
        the budget *before* the conversion analysis, so routes, widths, and
        modeled times all reflect the smaller approximate DDs."""
        mgr = DDManager(circuit.num_qubits)
        plan = self.plan_circuit(mgr, circuit)
        plan, ledger = prune_plan(mgr, plan, self.fidelity)
        fused_nodes = sum(count_nodes(g.dd) for g in plan.gates)
        rows = 1 << plan.num_qubits
        infos: list[dict] = []
        for fused in plan.gates:
            edges = count_edges(fused.dd)
            route = "cpu" if edges > self.tau else "gpu"
            if route == "gpu":
                t = self.gpu.conversion_time(rows, fused.cost, edges)
            else:
                t = self.cpu.conversion_time(rows, fused.cost, edges)
            if not self.use_ell:
                t = 0.0  # ablation: simulate straight from the flat DD
            infos.append(
                {"route": route, "edges": edges, "width": fused.cost, "time": t}
            )
        return {
            "mgr": mgr,
            "plan": plan,
            "fused_nodes": fused_nodes,
            "conv_infos": infos,
            "ells": None,
            "approx": ledger.to_dict(),
        }

    def _prepare(
        self, circuit: Circuit, execute: bool, obs: RunObservation
    ) -> tuple[dict, str]:
        """Stages 1 and 2, cached per circuit structure.

        Tier order: memory, then disk (compiled-plan archives), then a
        fresh build.  Returns ``(prepared, source)`` with source one of
        ``"memory"``, ``"disk"``, ``"built"``.  A disk entry saved without
        matrices (model-only run) cannot feed numeric execution, so with
        ``execute=True`` it is treated as a miss and rebuilt.  ``obs``
        books the lookup and the build under ``fusion`` and the ELL
        conversion under ``convert``, so a run that converts nothing books
        nothing there.

        Misses build under :meth:`PlanCache.build_lock`, the per-key
        cross-process lock of the shared disk tier: after acquiring it the
        disk is re-checked (another worker process may have compiled the
        same fingerprint while this one waited), so a fleet of pool
        workers sharing one ``cache_dir`` compiles each plan exactly once.
        """
        key = self._plans.key(circuit, self._cache_extra())

        def _usable(entry: dict | None) -> dict | None:
            """Reject metadata-only entries when numerics are required."""
            if (
                entry is not None
                and execute
                and entry["ells"] is None
                and any(g.dd is None for g in entry["plan"].gates)
            ):
                return None
            return entry

        with ExitStack() as locked:
            with obs.stage("fusion") as span:
                prepared = _usable(self._plans.peek(key))
                source = "memory"
                if prepared is None:
                    # the disk read happens under the lock: a concurrent
                    # process building the same key has either finished
                    # (we load its archive) or never started (we build and
                    # save before releasing) — never half-written bytes
                    locked.enter_context(self._plans.build_lock(key))
                    prepared = _usable(self._load_compiled(key))
                    source = "disk"
                    if prepared is None:
                        prepared = self._build(circuit)
                        source = "built"
                prepared["key"] = key
                prepared["circuit_name"] = circuit.name
                span.set(
                    plan_source=source,
                    fused_gates=len(prepared["plan"].gates),
                    dd_nodes=prepared["fused_nodes"],
                )
                convert = execute and prepared["ells"] is None
                if not convert:
                    self._trace_conv_infos(prepared["conv_infos"])
                    if source == "built":
                        self._save_compiled(prepared)
            if convert:
                with obs.stage("convert") as span:
                    prepared["ells"] = self._convert_ells(prepared)
                    span.set(num_gates=len(prepared["ells"]))
                    # save only now, still locked: the archive a racer
                    # loads must be fully executable, or it would reject
                    # the entry and compile the same fingerprint again; a
                    # memory hit upgrades its model-only archive (locked:
                    # pool workers may race to upgrade the same one)
                    if source == "memory":
                        locked.enter_context(self._plans.build_lock(key))
                    self._save_compiled(prepared)
        self._plans.note_lookup(source)
        self._plans.put(key, prepared)
        return prepared, source

    def _convert_ells(self, prepared: dict) -> list[ELLMatrix]:
        """Stage-2 numerics: one ELL matrix per fused gate (no caching).

        Each gate converts inside its ``convert.dd_to_ell`` span; the span
        and the metrics (the paper's Fig. 9 / Table 1 signals) carry the
        route and edge count the conversion analysis already decided."""
        plan: FusionPlan = prepared["plan"]
        tracer, metrics = get_tracer(), get_metrics()
        ells = []
        for i, (fused, info) in enumerate(
            zip(plan.gates, prepared["conv_infos"])
        ):
            with tracer.span(
                "convert.dd_to_ell",
                gate=i,
                dd_edges=info["edges"],
                ell_width=info["width"],
                route=info["route"],
                modeled_s=info["time"],
            ):
                ell = ell_from_dd(fused.dd, plan.num_qubits, max_nzr=fused.cost)
            nnz = int(np.count_nonzero(ell.values))
            metrics.inc(f"convert.route.{info['route']}")
            metrics.observe("convert.dd_edges", info["edges"])
            metrics.observe("ell.width", ell.width)
            metrics.observe("ell.nnz", nnz)
            metrics.observe(
                "ell.padding_ratio", 1.0 - nnz / (ell.num_rows * max(ell.width, 1))
            )
            ells.append(ell)
        return ells

    # -- disk tier ------------------------------------------------------------

    def _load_compiled(self, key: str) -> dict | None:
        """Disk-tier read with transient-I/O retries and corruption quarantine.

        Transient read failures (site ``cache_io``) are retried under the
        simulator's retry policy, then degrade to a cache miss.  A corrupt
        or version-skewed archive (a real :class:`ConversionError`, or the
        injected ``cache`` fault) is *quarantined* — moved aside, counted,
        and warned about — never silently swallowed, and never retried by
        every future process.
        """
        path = self._plans.disk_path(key)
        if path is None or not path.exists():
            return None
        injector = get_fault_injector()
        session = RetrySession(self.retry) if injector is not None else None
        attempt = 0
        while True:
            attempt += 1
            try:
                if injector is not None and injector.check("cache_io"):
                    raise TransientFault(
                        f"injected cache read failure on {path.name}",
                        site="cache_io",
                    )
                if injector is not None and injector.check("cache"):
                    raise ConversionError(
                        f"injected corruption in plan archive {path.name}"
                    )
                compiled = load_compiled_plan(path)
            except TransientFault as exc:
                if session.next_backoff("cache_io", attempt, exc) is None:
                    return None  # exhausted: treat as a cache miss
                continue
            except ConversionError as exc:
                self._plans.quarantine(path, str(exc))
                return None
            return {
                "mgr": None,
                "plan": compiled.to_fusion_plan(),
                "fused_nodes": compiled.fused_nodes,
                "conv_infos": [dict(info) for info in compiled.conv_infos],
                "ells": list(compiled.matrices) if compiled.has_matrices else None,
                # pre-approximation archives carry no ledger; the exact
                # block keeps disk-warm stats["approx"] well-formed
                "approx": compiled.approx
                or FidelityLedger(budget=self.fidelity).to_dict(),
            }

    def _save_compiled(self, prepared: dict) -> None:
        path = self._plans.disk_path(prepared.get("key", ""))
        if path is None:
            return
        plan: FusionPlan = prepared["plan"]
        compiled = CompiledPlan(
            fingerprint=prepared["key"],
            circuit_name=prepared.get("circuit_name", ""),
            num_qubits=plan.num_qubits,
            algorithm=plan.algorithm,
            source_gate_count=plan.source_gate_count,
            fused_nodes=prepared["fused_nodes"],
            gate_costs=tuple(g.cost for g in plan.gates),
            gate_indices=tuple(g.gate_indices for g in plan.gates),
            gate_nnz=tuple(g.nnz for g in plan.gates),
            conv_infos=tuple(prepared["conv_infos"]),
            matrices=tuple(prepared["ells"]) if prepared["ells"] else None,
            # exact plans carry no approx payload (pre-approx archives
            # stay byte-compatible); only budgeted plans persist a ledger
            approx=prepared.get("approx") if self.fidelity < 1.0 else None,
        )
        try:
            save_compiled_plan(compiled, path)
        except OSError:
            pass  # a read-only cache dir must not break simulation

    # -- main entry point -------------------------------------------------------

    def _trace_conv_infos(self, conv_infos: list[dict]) -> None:
        """Emit one attribute-only span per fused gate from the cached
        conversion analysis, so traces of model-only or plan-cache-warm
        runs still carry the per-gate dd_edges/ell_width/route decisions."""
        tracer = get_tracer()
        if not tracer.enabled:
            return
        for i, info in enumerate(conv_infos):
            with tracer.span(
                "convert.dd_to_ell",
                gate=i,
                dd_edges=info["edges"],
                ell_width=info["width"],
                route=info["route"],
                modeled_s=info["time"],
                cached=True,
            ):
                pass

    def run(
        self,
        circuit: Circuit,
        spec: BatchSpec,
        batches: Sequence[InputBatch] | None = None,
        execute: bool = True,
        resume: str | Path | None = None,
    ) -> SimulationResult:
        """Like :meth:`BatchSimulator.run`; ``resume`` replays a checkpoint."""
        with fault_injection(self.faults):
            return self._run(circuit, spec, batches, execute, resume)

    def _run(
        self,
        circuit: Circuit,
        spec: BatchSpec,
        batches: Sequence[InputBatch] | None,
        execute: bool,
        resume: str | Path | None,
    ) -> SimulationResult:
        with RunObservation(self, circuit, spec, execute) as obs:
            # stages 1 and 2: fusion + conversion (one-time, cached per
            # circuit structure in memory and — with a cache_dir — on disk)
            prepared, plan_source = self._prepare(circuit, execute, obs)
            plan: FusionPlan = prepared["plan"]
            conv_infos = prepared["conv_infos"]
            t_fusion = self.cpu.fusion_time(
                len(circuit.gates), prepared["fused_nodes"]
            )
            t_conversion = sum(info["time"] for info in conv_infos)
            ells = prepared["ells"] if execute else None

            with obs.stage("io") as span:
                resumed: list[np.ndarray] = []
                skip = 0
                if resume is not None:
                    if not execute:
                        raise CheckpointError("resume requires execute=True")
                    resumed = self._load_checkpoint_outputs(
                        resume, prepared["key"], circuit, spec
                    )
                    skip = len(resumed)
                batches = self._resolve_batches(circuit, spec, batches, execute)
                span.set(
                    num_batches=0 if batches is None else len(batches),
                    resumed_batches=skip,
                )

            # stage 3: task-graph execution (OOM-aware, retrying, checked)
            with obs.stage("execute") as span:
                ckpt = (
                    CheckpointManager(self.checkpoint_dir, every=self.checkpoint_every)
                    if (self.checkpoint_dir is not None and execute)
                    else None
                )
                done: dict[int, np.ndarray] = {}

                def on_batch(ib: int, states: np.ndarray) -> np.ndarray:
                    states = check_state_block(
                        states, self.health, label=f"{circuit.name} batch {ib}"
                    )
                    done[ib] = states
                    if ckpt is not None:
                        ckpt.maybe_save(
                            ib,
                            plan_key=prepared["key"],
                            circuit_name=circuit.name,
                            num_qubits=circuit.num_qubits,
                            num_batches=spec.num_batches,
                            batch_size=spec.batch_size,
                            seed=spec.seed,
                            outputs=resumed + [done[j] for j in sorted(done)],
                        )
                    return states

                device, work, outputs, snapshots, split = self._execute_resilient(
                    plan,
                    conv_infos,
                    ells,
                    batches,
                    spec,
                    skip=skip,
                    ladder=obs.ladder,
                    on_batch=on_batch if execute else None,
                    engine=obs.engine,
                )
                timeline = device.run()
                if outputs is not None and resumed:
                    outputs = resumed + outputs
                span.set(
                    backend=obs.backend,
                    num_tasks=len(timeline.tasks),
                    overlap_fraction=timeline.overlap_fraction(),
                    batch_split=split,
                )
        t_sim = timeline.makespan

        total = t_fusion + t_conversion + t_sim
        host_busy = t_fusion + sum(
            info["time"] for info in conv_infos if info["route"] == "cpu"
        )
        power = PowerReport(
            gpu_watts=gpu_power_from_work(
                work["macs"], work["bytes"], t_sim, self.gpu
            ),
            cpu_watts=cpu_power_from_utilization(
                min(host_busy / total, 1.0) if total > 0 else 0.0, self.cpu
            ),
        )
        return obs.result(
            total,
            {
                "fused_gates": len(plan),
                "total_cost": plan.total_cost,
                "macs": plan.macs(spec.num_inputs),
                "conversion_routes": [i["route"] for i in conv_infos],
                "plan": plan,
                "plan_source": plan_source,
                "plan_key": prepared["key"],
                "overlap_fraction": timeline.overlap_fraction(),
                "snapshots": snapshots,
                "approx": prepared.get("approx")
                or FidelityLedger(budget=self.fidelity).to_dict(),
            },
            breakdown={
                "fusion": t_fusion,
                "conversion": t_conversion,
                "simulation": t_sim,
            },
            power=power,
            timeline=timeline,
            outputs=outputs,
            resilience={"batch_split": split, "resumed_batches": skip},
        )

    # -- resilient execution -------------------------------------------------

    def _execute_resilient(
        self,
        plan: FusionPlan,
        conv_infos: list[dict],
        ells: list[ELLMatrix] | None,
        batches: list[InputBatch] | None,
        spec: BatchSpec,
        skip: int = 0,
        ladder: BackendLadder | None = None,
        on_batch=None,
        engine: "ArrayEngine | None" = None,
    ):
        """Build and numerically execute the task graph, splitting batches
        on memory pressure.

        Each :class:`MemoryFault` (capacity overflow or injected OOM) halves
        the state-block batch — a fresh device, fresh graph — up to
        ``2**max_splits`` parts; the final split factor is returned so the
        stats can report the degradation.
        """
        split = 1
        limit = 1 << max(self.max_splits, 0)
        while True:
            device = VirtualGPU(
                self.gpu,
                mode="graph" if self.task_graph else "stream",
                retry=self.retry,
                seed=spec.seed,
                engine=engine if engine is not None else self.engine,
            )
            work = {"macs": 0.0, "bytes": 0.0}
            try:
                outputs, snapshots = self._simulate(
                    device,
                    plan,
                    conv_infos,
                    ells,
                    batches,
                    spec,
                    work,
                    split=split,
                    skip=skip,
                    ladder=ladder,
                    on_batch=on_batch,
                )
            except MemoryFault as exc:
                if split >= limit:
                    raise
                split *= 2
                get_resilience_log().record(
                    "batch_split", site="oom", split=split, reason=str(exc)
                )
                continue
            return device, work, outputs, snapshots, split

    def _load_checkpoint_outputs(
        self,
        resume: str | Path,
        plan_key: str,
        circuit: Circuit,
        spec: BatchSpec,
    ) -> list[np.ndarray]:
        """Validate a checkpoint against this run and return its outputs."""
        ckpt = load_checkpoint(resume)
        if ckpt.plan_key != plan_key:
            raise CheckpointError(
                f"checkpoint plan {ckpt.plan_key[:12]}... does not match "
                f"the compiled plan {plan_key[:12]}..."
            )
        if ckpt.num_qubits != circuit.num_qubits:
            raise CheckpointError(
                f"checkpoint is for {ckpt.num_qubits} qubits, "
                f"circuit has {circuit.num_qubits}"
            )
        expected = (spec.num_batches, spec.batch_size, spec.seed)
        actual = (ckpt.num_batches, ckpt.batch_size, ckpt.seed)
        if actual != expected:
            raise CheckpointError(
                f"checkpoint batch spec {actual} does not match the "
                f"requested run {expected}"
            )
        if ckpt.completed > spec.num_batches:
            raise CheckpointError(
                "checkpoint reports more completed batches than the run has"
            )
        get_resilience_log().record(
            "resume",
            site="checkpoint",
            completed=ckpt.completed,
            path=str(resume),
        )
        return [np.array(block) for block in ckpt.outputs]

    # -- task-graph construction -------------------------------------------------

    def _simulate(
        self,
        device: VirtualGPU,
        plan: FusionPlan,
        conv_infos: list[dict],
        ells: list[ELLMatrix] | None,
        batches: list[InputBatch] | None,
        spec: BatchSpec,
        work: dict | None = None,
        split: int = 1,
        skip: int = 0,
        ladder: BackendLadder | None = None,
        on_batch=None,
    ) -> tuple[list[np.ndarray] | None, list[list[np.ndarray]] | None]:
        """Build (and, when ``batches`` is given, numerically execute) the
        rotating-buffer task graph.

        ``split`` divides every input batch into that many column slices so
        the four device buffers shrink accordingly (OOM degradation);
        ``skip`` omits already-completed batches (checkpoint resume);
        ``ladder`` routes kernels through the spMM fallback chain; and
        ``on_batch(ib, states)`` observes/rewrites each merged output batch
        (health checks + checkpointing).
        """
        n = plan.num_qubits
        rows = 1 << n
        kernels = max(len(plan), 1)
        sub_size = -(-spec.batch_size // split)  # ceil division
        block = state_block_bytes(n, sub_size)
        if NUM_BUFFERS * block > device.spec.memory_bytes:
            raise MemoryFault(
                f"{NUM_BUFFERS} state buffers of {block} B exceed device "
                f"memory ({device.spec.memory_bytes} B); reduce the batch "
                "size or shard across devices"
            )
        executing = batches is not None
        buffers = (
            [device.alloc(f"D[{i}]", block) for i in range(NUM_BUFFERS)]
            if executing
            else None
        )

        writer = [None] * NUM_BUFFERS  # last task writing each buffer
        readers: list[list] = [[] for _ in range(NUM_BUFFERS)]
        outputs: list[np.ndarray] | None = [] if executing else None
        snapshots: list[list[np.ndarray]] | None = (
            [] if (self.snapshots and executing) else None
        )
        dfs_penalty = 1.0 if self.use_ell else float(n)
        #: global sub-batch counter — drives the buffer rotation, so a split
        #: run keeps the paper's double-buffered dependency pattern intact
        jb = 0

        for ib in range(skip, spec.num_batches):
            parts: list[np.ndarray] = []
            ksnaps: list[list[np.ndarray]] | None = (
                [[] for _ in range(len(plan.gates))]
                if snapshots is not None
                else None
            )
            for part in range(split):
                lo = part * sub_size
                width_part = min(sub_size, spec.batch_size - lo)
                if width_part <= 0:
                    break
                tag = f"b{ib}" if split == 1 else f"b{ib}.{part}"
                part_block = state_block_bytes(n, width_part)
                in_idx, _ = buffer_indices(jb, 0, kernels)
                # H2D: write hazard on the input buffer (WAR + WAW)
                deps = readers[in_idx] + (
                    [writer[in_idx]] if writer[in_idx] else []
                )
                if executing:
                    seg = batches[ib].states[:, lo : lo + width_part]
                    handle = device.h2d(
                        buffers[in_idx], seg, deps, name=f"h2d:{tag}"
                    )
                else:
                    handle = device.raw_task(
                        f"h2d:{tag}", "h2d", self.gpu.copy_time(part_block), deps
                    )
                writer[in_idx], readers[in_idx] = handle, []

                for ik in range(len(plan.gates)):
                    src, dst = buffer_indices(jb, ik, kernels)
                    width = conv_infos[ik]["width"]
                    ell_bytes = rows * width * (COMPLEX_BYTES + 8)
                    macs = rows * width * width_part
                    traffic = ell_kernel_bytes(n, width_part, width, ell_bytes)
                    duration = self.gpu.kernel_time(macs, traffic) * dfs_penalty
                    if work is not None:
                        work["macs"] += macs
                        work["bytes"] += traffic
                    deps = [writer[src]] + readers[dst]
                    if writer[dst] is not None:
                        deps.append(writer[dst])
                    if executing:
                        ell = ells[ik]
                        src_buf, dst_buf = buffers[src], buffers[dst]

                        def body(
                            ell=ell, src_buf=src_buf, dst_buf=dst_buf
                        ):
                            states = src_buf.require()
                            eng = device.engine
                            if ladder is not None:
                                dst_buf.array = ladder.apply(
                                    ell, states, engine=eng
                                )
                            else:
                                dst_buf.array = ell_spmm(ell, states, engine=eng)

                        handle = device.kernel(
                            f"k{ik}:{tag}",
                            body,
                            deps=deps,
                            duration=duration,
                            output=dst_buf,
                        )
                    else:
                        handle = device.raw_task(
                            f"k{ik}:{tag}", "compute", duration, deps
                        )
                    readers[src].append(handle)
                    writer[dst] = handle
                    readers[dst] = []
                    if self.snapshots:
                        # per-gate full-state capture: an extra D2H per kernel
                        if executing:
                            snap_handle, snap = device.d2h(
                                buffers[dst], [handle], name=f"snap:k{ik}:{tag}"
                            )
                            ksnaps[ik].append(snap)
                        else:
                            snap_handle = device.raw_task(
                                f"snap:k{ik}:{tag}", "d2h",
                                self.gpu.copy_time(part_block), [handle],
                            )
                        readers[dst].append(snap_handle)

                final_idx, _ = buffer_indices(jb, len(plan.gates), kernels)
                deps = [writer[final_idx]] if writer[final_idx] else []
                if executing:
                    handle, snapshot = device.d2h(
                        buffers[final_idx], deps, name=f"d2h:{tag}"
                    )
                    parts.append(snapshot)
                else:
                    handle = device.raw_task(
                        f"d2h:{tag}", "d2h", self.gpu.copy_time(part_block), deps
                    )
                readers[final_idx].append(handle)
                jb += 1

            if executing:
                merged = _kernels.batch_merge(device.engine, parts)
                if on_batch is not None:
                    merged = on_batch(ib, merged)
                outputs.append(merged)
                if snapshots is not None:
                    snapshots.append(
                        [_kernels.batch_merge(device.engine, s) for s in ksnaps]
                    )
        return outputs, snapshots
