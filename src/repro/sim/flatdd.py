"""FlatDD-like baseline: multi-threaded CPU decision-diagram simulation.

FlatDD fuses gates on DDs (with a CPU-oriented total-non-zero objective) and
applies each fused DD to a flat state-vector array with 16 threads; the
paper runs 8 such processes for throughput.  The model charges the machine's
effective DD-walk rate for the total non-zeros each input must traverse —
no GPU is involved at all, which is why FlatDD trails every GPU simulator by
2-3 orders of magnitude on batch workloads (Table 2).
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..circuit import Circuit, InputBatch
from ..dd.manager import DDManager
from ..ell.convert import ell_from_dd
from ..ell.spmm import build_apply_plans
from ..fusion.greedy import flatdd_fusion
from ..gpu.power import PowerReport, cpu_power_from_utilization
from ..gpu.spec import CpuSpec, GpuSpec
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


class FlatDDSimulator(BatchSimulator):
    """CPU-parallel DD-based single-input simulation, forked per input.

    The FlatDD baseline: greedy DD fusion, then each input state is
    simulated independently on a modeled CPU thread pool — the paper's
    representative of the one-process-per-input school that BQSim's
    batching beats.  Example::

        result = FlatDDSimulator().run(make_circuit("qft", 4), BatchSpec(1, 4))
        assert result.outputs[0].shape == (16, 4)
    """

    name = "flatdd"

    def __init__(
        self,
        gpu: GpuSpec | None = None,
        cpu: CpuSpec | None = None,
        retry: RetryPolicy | None = None,
        faults: FaultPlan | str | None = None,
        health: HealthPolicy | str | None = "warn",
        engine: "str | ArrayEngine | None" = None,
    ):
        self.cpu = cpu or CpuSpec()
        self.gpu = gpu or GpuSpec()  # unused; kept for a uniform constructor
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
        eng = get_engine(self.engine)
        obs = RunObservation()
        timer = StageTimer(stages=CANONICAL_STAGES)

        def build():
            mgr = DDManager(n)
            built = flatdd_fusion(mgr, circuit)
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
                prepared = self._plans.get(circuit, build, extra=("flatdd-v1",))
                span.set(fused_gates=len(prepared["plan"].gates))
            plan = prepared["plan"]

            work_per_input = sum(fg.nnz for fg in plan.gates)
            per_input = (
                self.cpu.flatdd_input_overhead
                + work_per_input / self.cpu.flatdd_machine_rate
            )
            total = per_input * spec.num_inputs

            with timer.time("io"):
                batches = self._resolve_batches(circuit, spec, batches, execute)
            outputs: list[np.ndarray] | None = None
            if execute:
                with timer.time("convert"):
                    if prepared["ells"] is None:
                        prepared["ells"] = [
                            ell_from_dd(fg.dd, n) for fg in plan.gates
                        ]
                    # compiled gather plans, consecutive width-1 kernels composed
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
            gpu_watts=0.0,
            cpu_watts=cpu_power_from_utilization(1.0, self.cpu),
        )
        return SimulationResult(
            simulator=self.name,
            circuit_name=circuit.name,
            num_qubits=n,
            spec=spec,
            modeled_time=total,
            breakdown={"simulation": total},
            power=power,
            outputs=outputs,
            wall_time=time.perf_counter() - wall_start,
            stats=obs.finalize(
                {
                    "engine": eng.name,
                    "plan": plan,
                    "macs": plan.macs(spec.num_inputs),
                    "work_per_input": work_per_input,
                },
                timer,
                self._plans,
            ),
        )
