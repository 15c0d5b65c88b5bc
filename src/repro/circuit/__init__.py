"""Quantum circuit substrate: gates, circuits, QASM I/O, inputs, generators."""

from .circuit import Circuit, gate_unitary
from .gates import Gate, base_arity, base_matrix, known_gate_names
from .inputs import (
    InputBatch,
    basis_batch,
    generate_batches,
    perturbed_batch,
    random_batch,
    zero_state_batch,
)
from .qasm import load_qasm, parse_qasm, to_qasm

__all__ = [
    "base_arity",
    "base_matrix",
    "basis_batch",
    "Circuit",
    "Gate",
    "gate_unitary",
    "generate_batches",
    "InputBatch",
    "known_gate_names",
    "load_qasm",
    "parse_qasm",
    "perturbed_batch",
    "random_batch",
    "to_qasm",
    "zero_state_batch",
]
