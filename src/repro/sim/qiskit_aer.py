"""Qiskit-Aer-like baseline: array-based fusion, one simulation per input.

Aer has no BQCS support, so a batch of ``B`` inputs means ``B`` independent
runs farmed over 8 processes (the paper's setup).  Its runtime is dominated
by per-run host cost, which the paper's Table 2 fits almost perfectly as
``6.9 ms + 0.195 us * 2^n`` per input (see :mod:`repro.gpu.spec`); the GPU
kernels of the fused dense blocks add a comparatively small serialized term.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..circuit import Circuit, InputBatch
from ..dd.manager import DDManager
from ..ell.convert import ell_from_dd
from ..ell.spmm import build_apply_plans
from ..fusion.array_fusion import aer_fusion
from ..gpu.power import PowerReport, cpu_power_from_utilization, gpu_power_from_work
from ..gpu.spec import COMPLEX_BYTES, CpuSpec, GpuSpec
from ..kernels.engine import ArrayEngine, get_engine
from ..obs import CANONICAL_STAGES
from ..profile import StageTimer
from ..resilience import (
    BackendLadder,
    FaultPlan,
    HealthPolicy,
    RetryPolicy,
    RetrySession,
    apply_with_recovery,
    check_state_block,
    fault_injection,
)
from .base import (
    BatchSimulator,
    BatchSpec,
    PlanCache,
    RunObservation,
    SimulationResult,
)


class QiskitAerSimulator(BatchSimulator):
    """Per-input GPU state-vector simulation with array-based fusion.

    The Qiskit Aer baseline: Aer-style greedy array fusion compiles the
    circuit once, but each input state is then simulated in its own
    pass — so runtime scales linearly with batch size, which is the
    overhead BQSim's shared mega-batch removes.  Example::

        result = QiskitAerSimulator().run(make_circuit("ghz", 4), BatchSpec(1, 8))
        assert result.outputs[0].shape == (16, 8)
    """

    name = "qiskit-aer"

    def __init__(
        self,
        gpu: GpuSpec | None = None,
        cpu: CpuSpec | None = None,
        max_fused_qubits: int = 5,
        retry: RetryPolicy | None = None,
        faults: FaultPlan | str | None = None,
        health: HealthPolicy | str | None = "warn",
        engine: "str | ArrayEngine | None" = None,
    ):
        self.gpu = gpu or GpuSpec()
        self.cpu = cpu or CpuSpec()
        self.max_fused_qubits = max_fused_qubits
        self._plans = PlanCache()
        self.retry = retry
        self.faults = faults
        self.health = HealthPolicy.coerce(health)
        self.engine = engine

    def run(
        self,
        circuit: Circuit,
        spec: BatchSpec,
        batches: Sequence[InputBatch] | None = None,
        execute: bool = True,
    ) -> SimulationResult:
        with fault_injection(self.faults):
            return self._run(circuit, spec, batches, execute)

    def _run(
        self,
        circuit: Circuit,
        spec: BatchSpec,
        batches: Sequence[InputBatch] | None,
        execute: bool,
    ) -> SimulationResult:
        wall_start = time.perf_counter()
        n = circuit.num_qubits
        rows = 1 << n
        eng = get_engine(self.engine)
        obs = RunObservation()
        timer = StageTimer(stages=CANONICAL_STAGES)

        def build():
            mgr = DDManager(n)
            built = aer_fusion(mgr, circuit, max_fused_qubits=self.max_fused_qubits)
            return {"mgr": mgr, "plan": built, "ells": None}

        with obs.tracer.span(
            f"{self.name}.run",
            simulator=self.name,
            circuit=circuit.name,
            num_qubits=n,
            num_batches=spec.num_batches,
            batch_size=spec.batch_size,
            execute=execute,
        ):
            with timer.time("fusion") as span:
                prepared = self._plans.get(
                    circuit, build, extra=("aer-v1", self.max_fused_qubits)
                )
                span.set(fused_gates=len(prepared["plan"].gates))
            plan = prepared["plan"]

            # host cost per input run (already folded over 8 worker processes)
            host_per_input = (
                self.cpu.aer_run_overhead
                + self.cpu.aer_amp_time * rows
                + self.cpu.aer_gate_time * len(circuit.gates)
            )
            # GPU kernels: one dense block apply per fused gate per input,
            # single-input state (no batching), serialized on the shared device
            kernel_per_input = 0.0
            macs_per_input = 0.0
            bytes_per_input = 0.0
            for fused in plan.gates:
                macs = fused.cost * rows  # cost is the dense 2^k per-amplitude MACs
                traffic = 2 * rows * COMPLEX_BYTES
                macs_per_input += macs
                bytes_per_input += traffic
                kernel_per_input += (
                    self.gpu.kernel_launch_overhead
                    + self.gpu.kernel_time(macs, traffic)
                )
            num_inputs = spec.num_inputs
            t_host = host_per_input * num_inputs
            t_kernels = kernel_per_input * num_inputs
            # kernels of the 8 processes interleave under the host overhead;
            # only the excess beyond the host time extends the run
            total = t_host + max(0.0, t_kernels - t_host)

            with timer.time("io"):
                batches = self._resolve_batches(circuit, spec, batches, execute)
            outputs: list[np.ndarray] | None = None
            if execute:
                with timer.time("convert"):
                    if prepared["ells"] is None:
                        prepared["ells"] = [
                            ell_from_dd(fg.dd, n) for fg in plan.gates
                        ]
                    apply_plans = build_apply_plans(prepared["ells"])
                with timer.time("execute") as span:
                    ladder = BackendLadder()
                    session = RetrySession(self.retry, seed=spec.seed)
                    outputs = []
                    for ib, batch in enumerate(batches):
                        states = (
                            eng.from_host(batch.states)
                            if eng.is_device
                            else batch.states
                        )
                        for apply_plan in apply_plans:
                            states = apply_with_recovery(
                                ladder, apply_plan, states, session, engine=eng
                            )
                        states = check_state_block(
                            eng.to_host(states), self.health,
                            label=f"{circuit.name} batch {ib}",
                        )
                        outputs.append(states)
                    span.set(
                        num_kernels=len(apply_plans), backend=ladder.backend
                    )

        power = PowerReport(
            gpu_watts=gpu_power_from_work(
                macs_per_input * num_inputs,
                bytes_per_input * num_inputs,
                total,
                self.gpu,
            ),
            cpu_watts=cpu_power_from_utilization(1.0, self.cpu),
        )
        return SimulationResult(
            simulator=self.name,
            circuit_name=circuit.name,
            num_qubits=n,
            spec=spec,
            modeled_time=total,
            breakdown={"host": t_host, "kernels": t_kernels},
            power=power,
            outputs=outputs,
            wall_time=time.perf_counter() - wall_start,
            stats=obs.finalize(
                {
                    "engine": eng.name,
                    "plan": plan,
                    "macs": plan.macs(num_inputs),
                    "host_per_input": host_per_input,
                },
                timer,
                self._plans,
            ),
        )
