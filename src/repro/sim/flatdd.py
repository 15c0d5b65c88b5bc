"""FlatDD-like baseline: multi-threaded CPU decision-diagram simulation.

FlatDD fuses gates on DDs (with a CPU-oriented total-non-zero objective) and
applies each fused DD to a flat state-vector array with 16 threads; the
paper runs 8 such processes for throughput.  The model charges the machine's
effective DD-walk rate for the total non-zeros each input must traverse —
no GPU is involved at all, which is why FlatDD trails every GPU simulator by
2-3 orders of magnitude on batch workloads (Table 2).
"""

from __future__ import annotations

from typing import Sequence

from ..circuit import Circuit, InputBatch
from ..fusion.greedy import flatdd_fusion
from ..gpu.power import PowerReport, cpu_power_from_utilization
from .base import BatchSimulator, BatchSpec, RunObservation, SimulationResult


class FlatDDSimulator(BatchSimulator):
    """CPU-parallel DD-based single-input simulation, forked per input.

    The FlatDD baseline: greedy DD fusion, then each input state is
    simulated independently on a modeled CPU thread pool — the paper's
    representative of the one-process-per-input school that BQSim's
    batching beats.  The ``gpu`` spec is unused; it is kept for a uniform
    constructor.  Example::

        result = FlatDDSimulator().run(make_circuit("qft", 4), BatchSpec(1, 4))
        assert result.outputs[0].shape == (16, 4)
    """

    name = "flatdd"

    def _run(
        self,
        circuit: Circuit,
        spec: BatchSpec,
        batches: Sequence[InputBatch] | None,
        execute: bool,
    ) -> SimulationResult:
        with RunObservation(self, circuit, spec, execute) as obs:
            prepared = self._fused(obs, flatdd_fusion, ("flatdd-v1",))
            plan = prepared["plan"]
            work_per_input = sum(fg.nnz for fg in plan.gates)
            per_input = (
                self.cpu.flatdd_input_overhead
                + work_per_input / self.cpu.flatdd_machine_rate
            )
            total = per_input * spec.num_inputs
            outputs = self._execute_per_input(obs, prepared, batches)

        power = PowerReport(
            gpu_watts=0.0,
            cpu_watts=cpu_power_from_utilization(1.0, self.cpu),
        )
        return obs.result(
            total,
            {
                "plan": plan,
                "macs": plan.macs(spec.num_inputs),
                "work_per_input": work_per_input,
            },
            breakdown={"simulation": total},
            power=power,
            outputs=outputs,
        )
