"""Qiskit-Aer-like baseline: array-based fusion, one simulation per input.

Aer has no BQCS support, so a batch of ``B`` inputs means ``B`` independent
runs farmed over 8 processes (the paper's setup).  Its runtime is dominated
by per-run host cost, which the paper's Table 2 fits almost perfectly as
``6.9 ms + 0.195 us * 2^n`` per input (see :mod:`repro.gpu.spec`); the GPU
kernels of the fused dense blocks add a comparatively small serialized term.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

from ..circuit import Circuit, InputBatch
from ..fusion.array_fusion import aer_fusion
from ..gpu.power import PowerReport, cpu_power_from_utilization, gpu_power_from_work
from ..gpu.spec import COMPLEX_BYTES, CpuSpec, GpuSpec
from ..resilience import FaultPlan, HealthPolicy, RetryPolicy
from .base import BatchSimulator, BatchSpec, RunObservation, SimulationResult


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
    ):
        super().__init__(gpu, cpu, retry, faults, health)
        self.max_fused_qubits = max_fused_qubits

    def _run(
        self,
        circuit: Circuit,
        spec: BatchSpec,
        batches: Sequence[InputBatch] | None,
        execute: bool,
    ) -> SimulationResult:
        rows = 1 << circuit.num_qubits
        with RunObservation(self, circuit, spec, execute) as obs:
            prepared = self._fused(
                obs,
                partial(aer_fusion, max_fused_qubits=self.max_fused_qubits),
                ("aer-v1", self.max_fused_qubits),
            )
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
            outputs = self._execute_per_input(obs, prepared, batches)

        power = PowerReport(
            gpu_watts=gpu_power_from_work(
                macs_per_input * num_inputs,
                bytes_per_input * num_inputs,
                total,
                self.gpu,
            ),
            cpu_watts=cpu_power_from_utilization(1.0, self.cpu),
        )
        return obs.result(
            total,
            {
                "plan": plan,
                "macs": plan.macs(num_inputs),
                "host_per_input": host_per_input,
            },
            breakdown={"host": t_host, "kernels": t_kernels},
            power=power,
            outputs=outputs,
        )
