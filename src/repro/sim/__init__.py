"""Batch simulators: BQSim and the cuQuantum / Qiskit Aer / FlatDD models."""

from .base import BatchSimulator, BatchSpec, SimulationResult
from .bqsim import BQSimSimulator, buffer_indices
from .cuquantum import CuQuantumSimulator
from .flatdd import FlatDDSimulator
from .multigpu import MultiGpuBQSimSimulator
from .qiskit_aer import QiskitAerSimulator
from .statevector import apply_gate, simulate_batch, simulate_state

__all__ = [
    "apply_gate",
    "BatchSimulator",
    "BatchSpec",
    "BQSimSimulator",
    "buffer_indices",
    "CuQuantumSimulator",
    "FlatDDSimulator",
    "MultiGpuBQSimSimulator",
    "QiskitAerSimulator",
    "simulate_batch",
    "simulate_state",
    "SimulationResult",
]
