"""cuQuantum-like baseline: gate-level *dense* batched applies.

Models ``custatevecApplyMatrixBatched`` applied gate by gate (the only BQCS
path cuQuantum offers): no fusion, one dense kernel per gate per batch,
synchronous launches, no copy/compute overlap.  Every gate is padded to at
least two qubits by the batched API, so it costs 4 MACs per amplitude
(Table 3) and streams the state block twice (in-register butterfly).

``plan_provider`` swaps in a fusion plan for the Table 4 variants:
cuQuantum+B (BQSim's fusion) and cuQuantum+Q (Aer's fusion).  Fused gates
still go through the dense API, so a fused gate spanning ``k`` qubits costs
``2^k`` MACs per amplitude and needs a ``4^k``-entry dense matrix on the
device — which runs out of memory for wide fusions, reproducing the failed
runs ("-") in Table 4.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from ..circuit import Circuit, InputBatch
from ..dd.manager import DDManager
from ..fusion.array_fusion import cuquantum_plan
from ..fusion.plan import FusionPlan
from ..gpu.device import VirtualGPU
from ..gpu.power import PowerReport, cpu_power_from_utilization, gpu_power_from_work
from ..gpu.spec import (
    COMPLEX_BYTES,
    CpuSpec,
    GpuSpec,
    dense_kernel_bytes,
    state_block_bytes,
)
from ..kernels.engine import ArrayEngine
from ..resilience import FaultPlan, HealthPolicy, RetryPolicy, check_state_block
from .base import BatchSimulator, BatchSpec, RunObservation, SimulationResult

PlanProvider = Callable[[DDManager, Circuit], FusionPlan]


class CuQuantumSimulator(BatchSimulator):
    """Dense gate-level batched simulation (cuQuantum model).

    The paper's strongest GPU baseline: every gate is applied as a dense
    batched matrix multiply with no fusion, so it pays one kernel launch
    and one full state sweep per gate.  Amplitudes are exact (NumPy);
    time and power come from the calibrated device model.  Example::

        result = CuQuantumSimulator().run(make_circuit("ghz", 4), BatchSpec(1, 8))
        assert result.outputs[0].shape == (16, 8)
    """

    name = "cuquantum"

    def __init__(
        self,
        gpu: GpuSpec | None = None,
        cpu: CpuSpec | None = None,
        plan_provider: PlanProvider | None = None,
        variant_name: str | None = None,
        retry: RetryPolicy | None = None,
        faults: FaultPlan | str | None = None,
        health: HealthPolicy | str | None = "warn",
        engine: "str | ArrayEngine | None" = None,
    ):
        super().__init__(gpu, cpu, retry, faults, health, engine)
        self.plan_provider = plan_provider or cuquantum_plan
        if variant_name:
            self.name = variant_name

    def _gate_support(self, circuit: Circuit, indices: Sequence[int]) -> int:
        qubits: set[int] = set()
        for i in indices:
            qubits.update(circuit.gates[i].all_qubits)
        return len(qubits)

    def _run(
        self,
        circuit: Circuit,
        spec: BatchSpec,
        batches: Sequence[InputBatch] | None,
        execute: bool,
    ) -> SimulationResult:
        n = circuit.num_qubits
        # distinct providers (cuQuantum+B / cuQuantum+Q) produce distinct
        # plans for the same circuit, so the provider is part of the key
        provider_tag = getattr(
            self.plan_provider, "__name__", repr(self.plan_provider)
        )
        with RunObservation(self, circuit, spec, execute) as obs:
            prepared = self._fused(
                obs, self.plan_provider, ("cuquantum-v1", provider_tag)
            )
            plan = prepared["plan"]

            # dense-matrix memory footprint of every (fused) gate on the device
            supports = [
                max(2, self._gate_support(circuit, fg.gate_indices))
                for fg in plan.gates
            ]
            matrix_bytes = sum((1 << (2 * k)) * COMPLEX_BYTES for k in supports)
            block = state_block_bytes(n, spec.batch_size)
            if matrix_bytes + block > self.gpu.memory_bytes:
                return obs.result(
                    math.inf,
                    {
                        "failed": "dense fused gates exceed device memory",
                        "matrix_bytes": matrix_bytes,
                        "plan": plan,
                    },
                )

            with obs.stage("io"):
                batches = self._resolve_batches(circuit, spec, batches, execute)
            ells = None
            if execute:
                with obs.stage("convert"):
                    ells = self._ells(prepared)
                    # warm the gather plans outside the timed kernel bodies
                    for ell in ells:
                        ell.plan()

            with obs.stage("execute") as span:
                device = VirtualGPU(
                    self.gpu,
                    mode="stream",
                    retry=self.retry,
                    seed=spec.seed,
                    engine=obs.engine,
                )
                ladder = obs.ladder
                rows = 1 << n
                total_macs = 0.0
                total_bytes = 0.0
                outputs: list[np.ndarray] | None = [] if execute else None
                buffer = device.alloc("state", block) if execute else None
                prev = None
                for ib in range(spec.num_batches):
                    if execute:
                        prev = device.h2d(
                            buffer, batches[ib].states, deps=[prev] if prev else []
                        )
                    else:
                        prev = device.raw_task(
                            f"h2d:b{ib}", "h2d", self.gpu.copy_time(block),
                            deps=[prev] if prev else [],
                        )
                    for ik, k in enumerate(supports):
                        macs = (1 << k) * rows * spec.batch_size
                        traffic = dense_kernel_bytes(n, spec.batch_size)
                        duration = self.gpu.kernel_time(macs, traffic)
                        total_macs += macs
                        total_bytes += traffic
                        if execute:
                            ell = ells[ik]

                            # the chain runs in place on one buffer, so the
                            # body pins its input on first entry — a retried
                            # body (after an injected bit-flip) re-applies
                            # from the pinned source, never the bad output
                            def body(ell=ell, buffer=buffer, cell=[]):
                                if not cell:
                                    cell.append(buffer.require())
                                buffer.array = ladder.apply(
                                    ell, cell[0], engine=device.engine
                                )

                            prev = device.kernel(
                                f"k{ik}:b{ib}",
                                body,
                                deps=[prev],
                                duration=duration,
                                output=buffer,
                            )
                        else:
                            prev = device.raw_task(
                                f"k{ik}:b{ib}", "compute", duration, deps=[prev]
                            )
                    if execute:
                        prev, snapshot = device.d2h(buffer, deps=[prev])
                        snapshot = check_state_block(
                            snapshot, self.health,
                            label=f"{circuit.name} batch {ib}",
                        )
                        outputs.append(snapshot)
                    else:
                        prev = device.raw_task(
                            f"d2h:b{ib}", "d2h", self.gpu.copy_time(block),
                            deps=[prev],
                        )

                timeline = device.run()
                span.set(num_tasks=len(timeline.tasks))
        total = timeline.makespan
        power = PowerReport(
            gpu_watts=gpu_power_from_work(total_macs, total_bytes, total, self.gpu),
            cpu_watts=cpu_power_from_utilization(0.1, self.cpu),
        )
        return obs.result(
            total,
            {
                "plan": plan,
                "macs": sum((1 << k) * rows * spec.num_inputs for k in supports),
                "dense_matrix_bytes": matrix_bytes,
            },
            breakdown={"simulation": total},
            power=power,
            timeline=timeline,
            outputs=outputs,
        )
