"""Experiment runner: builds simulators, runs workloads, collects rows."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..dd.manager import DDManager
from ..fusion.array_fusion import aer_fusion
from ..fusion.bqcs import bqcs_fusion
from ..sim import (
    BQSimSimulator,
    BatchSimulator,
    BatchSpec,
    CuQuantumSimulator,
    FlatDDSimulator,
    QiskitAerSimulator,
    SimulationResult,
)
from .workloads import Workload

SIMULATOR_ORDER = ("cuquantum", "qiskit-aer", "flatdd", "bqsim")


def make_simulators(**bqsim_kwargs) -> dict[str, BatchSimulator]:
    """The paper's four contestants, in Table 2 column order."""
    return {
        "cuquantum": CuQuantumSimulator(),
        "qiskit-aer": QiskitAerSimulator(),
        "flatdd": FlatDDSimulator(),
        "bqsim": BQSimSimulator(**bqsim_kwargs),
    }


def make_cuquantum_variants() -> dict[str, BatchSimulator]:
    """cuQuantum with injected fusion plans (Table 4)."""
    return {
        "cuquantum+Q": CuQuantumSimulator(
            plan_provider=aer_fusion, variant_name="cuquantum+Q"
        ),
        "cuquantum+B": CuQuantumSimulator(
            plan_provider=bqcs_fusion, variant_name="cuquantum+B"
        ),
    }


@dataclass
class RunRecord:
    """One (workload, simulator) outcome."""

    workload: Workload
    result: SimulationResult

    @property
    def modeled_ms(self) -> float:
        return self.result.modeled_time * 1e3


def run_suite(
    workloads: Sequence[Workload],
    spec: BatchSpec,
    simulators: dict[str, BatchSimulator],
    execute: bool = False,
    progress: Callable[[str], None] | None = None,
) -> dict[tuple[str, int], dict[str, RunRecord]]:
    """Run every simulator on every workload; returns records keyed by
    workload key then simulator name."""
    records: dict[tuple[str, int], dict[str, RunRecord]] = {}
    for workload in workloads:
        circuit = workload.build()
        per_sim: dict[str, RunRecord] = {}
        for name, simulator in simulators.items():
            if progress:
                progress(f"{workload.label} / {name}")
            result = simulator.run(circuit, spec, execute=execute)
            per_sim[name] = RunRecord(workload=workload, result=result)
        records[workload.key] = per_sim
    return records
