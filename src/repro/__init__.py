"""BQSim reproduction: batch quantum circuit simulation with decision
diagrams on a calibrated virtual GPU.

The most common entry points are re-exported here::

    from repro import BQSimSimulator, BatchSpec, Circuit, make_circuit

See README.md for a tour, DESIGN.md for the paper-to-module map, and
EXPERIMENTS.md for paper-vs-measured results.
"""

from .circuit import Circuit, InputBatch, generate_batches, load_qasm, parse_qasm
from .circuit.generators import make_circuit
from .sim import (
    BatchSpec,
    BQSimSimulator,
    CuQuantumSimulator,
    FlatDDSimulator,
    MultiGpuBQSimSimulator,
    QiskitAerSimulator,
)
from .service import BatchSimulationService, ServiceClient

__version__ = "1.0.0"

__all__ = [
    "BatchSimulationService",
    "BatchSpec",
    "BQSimSimulator",
    "Circuit",
    "CuQuantumSimulator",
    "FlatDDSimulator",
    "generate_batches",
    "InputBatch",
    "load_qasm",
    "make_circuit",
    "MultiGpuBQSimSimulator",
    "parse_qasm",
    "QiskitAerSimulator",
    "ServiceClient",
]
