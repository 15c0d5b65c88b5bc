"""Multi-GPU batch partitioning (the paper's Section 4.2 extension).

"The batch of state vectors can be partitioned across multiple GPUs ...
the circuit is optimized once into a reusable simulation task graph that can
run different batches on multiple GPUs."

:class:`MultiGpuBQSimSimulator` does exactly that: stage 1 (fusion) and
stage 2 (conversion) run once, then the batch stream is dealt round-robin to
``num_devices`` virtual GPUs, each executing the same task-graph template
over its own four rotating buffers.  The modeled runtime is the slowest
device's makespan plus the shared one-time stages, so speed-up approaches
``num_devices`` once per-device batch counts amortize the pipeline ramp-up.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from ..circuit import Circuit, InputBatch
from ..errors import CheckpointError, SimulationError
from ..gpu.device import VirtualGPU
from ..gpu.power import PowerReport, cpu_power_from_utilization, gpu_power_from_work
from ..resilience import check_state_block
from .base import BatchSpec, RunObservation, SimulationResult
from .bqsim import BQSimSimulator


class MultiGpuBQSimSimulator(BQSimSimulator):
    """BQSim with the input stream partitioned over several virtual GPUs.

    The paper's Section 4.2 scaling discussion, made measurable: batches
    are split across ``num_devices`` independent device models (plans
    compile once and are shared), modeled time is the slowest device's
    timeline, and amplitudes remain exact and bit-identical to the
    single-GPU run.  Checkpoint resume is single-device, so ``run``
    rejects ``resume``.  Example::

        sim = MultiGpuBQSimSimulator(num_devices=2)
        result = sim.run(make_circuit("qft", 4), BatchSpec(4, 8))
        assert len(result.outputs) == 4
    """

    name = "bqsim-multigpu"

    def __init__(self, num_devices: int = 2, **kwargs):
        if num_devices < 1:
            raise SimulationError("need at least one device")
        super().__init__(**kwargs)
        self.num_devices = num_devices

    def _run(
        self,
        circuit: Circuit,
        spec: BatchSpec,
        batches: Sequence[InputBatch] | None,
        execute: bool,
        resume: str | Path | None,
    ) -> SimulationResult:
        if resume is not None:
            raise CheckpointError(
                "checkpoint resume is single-device; use BQSimSimulator"
            )
        with RunObservation(
            self, circuit, spec, execute, num_devices=self.num_devices
        ) as obs:
            prepared, plan_source = self._prepare(circuit, execute, obs)
            plan = prepared["plan"]
            conv_infos = prepared["conv_infos"]
            t_fusion = self.cpu.fusion_time(
                len(circuit.gates), prepared["fused_nodes"]
            )
            t_conversion = sum(info["time"] for info in conv_infos)
            ells = prepared["ells"] if execute else None

            with obs.stage("io"):
                batches = self._resolve_batches(circuit, spec, batches, execute)
            # deal batches round-robin: device d gets batches d, d+k, d+2k, ...
            shards: list[list[int]] = [
                list(range(d, spec.num_batches, self.num_devices))
                for d in range(self.num_devices)
            ]
            makespans = []
            total_macs = total_bytes = 0.0
            outputs: list[np.ndarray | None] | None = (
                [None] * spec.num_batches if execute else None
            )
            total_retries = 0
            with obs.stage("execute"):
                for device_index, shard in enumerate(shards):
                    if not shard:
                        makespans.append(0.0)
                        continue
                    with obs.tracer.span(
                        "execute.device",
                        device=device_index,
                        num_batches=len(shard),
                    ) as span:
                        device = VirtualGPU(
                            self.gpu,
                            mode="graph" if self.task_graph else "stream",
                            retry=self.retry,
                            seed=spec.seed + device_index,
                            engine=obs.engine,
                        )
                        shard_spec = BatchSpec(len(shard), spec.batch_size, spec.seed)
                        shard_batches = (
                            [batches[i] for i in shard] if execute else None
                        )

                        def on_batch(ib, states, device_index=device_index):
                            return check_state_block(
                                states, self.health,
                                label=f"{circuit.name} dev{device_index} "
                                      f"batch {ib}",
                            )

                        work = {"macs": 0.0, "bytes": 0.0}
                        # the run's one fallback ladder serves every device:
                        # a backend broken on one shard is broken on all
                        shard_out, _ = self._simulate(
                            device, plan, conv_infos, ells, shard_batches,
                            shard_spec, work, ladder=obs.ladder,
                            on_batch=on_batch if execute else None,
                        )
                        timeline = device.run()
                        span.set(modeled_makespan_s=timeline.makespan)
                    makespans.append(timeline.makespan)
                    total_retries += timeline.total_retries()
                    total_macs += work["macs"]
                    total_bytes += work["bytes"]
                    if execute:
                        for local, global_index in enumerate(shard):
                            outputs[global_index] = shard_out[local]

        t_sim = max(makespans)
        total = t_fusion + t_conversion + t_sim
        power = PowerReport(
            gpu_watts=self.num_devices
            * gpu_power_from_work(
                total_macs / self.num_devices,
                total_bytes / self.num_devices,
                t_sim,
                self.gpu,
            ),
            cpu_watts=cpu_power_from_utilization(
                min(t_fusion / total, 1.0) if total > 0 else 0.0, self.cpu
            ),
        )
        return obs.result(
            total,
            {
                "fused_gates": len(plan),
                "total_cost": plan.total_cost,
                "macs": plan.macs(spec.num_inputs),
                "num_devices": self.num_devices,
                "device_makespans": makespans,
                "plan": plan,
                "plan_source": plan_source,
                "plan_key": prepared["key"],
            },
            breakdown={
                "fusion": t_fusion,
                "conversion": t_conversion,
                "simulation": t_sim,
            },
            power=power,
            outputs=outputs,
            resilience={"task_retries": total_retries},
        )
