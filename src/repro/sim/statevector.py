"""Dense reference state-vector simulation.

This is the ground truth every other simulator in the package is validated
against, and also the numeric core reused by the baseline models.  It applies
gates by amplitude-index manipulation (Equations 2 and 3 of the paper)
without ever building a ``2^n x 2^n`` matrix.

States are stored column-wise: ``states[amplitude, input]``, so one call
updates a whole batch at once.  Each dense apply is one NumPy gather +
``einsum`` over an amplitude-index table built on the host.
"""

from __future__ import annotations

import numpy as np

from ..circuit import Circuit, InputBatch
from ..circuit.gates import Gate
from ..errors import SimulationError
from ..obs import get_metrics


def _gather_axes(num_qubits: int, operands: tuple[int, ...]) -> np.ndarray:
    """Amplitude-index table for a dense gate application.

    Rows enumerate assignments of non-operand qubits, columns the local
    index over ``operands`` (``operands[i]`` is local bit ``i``).
    """
    rest = [q for q in range(num_qubits) if q not in operands]
    k = len(operands)
    rest_values = np.zeros(1 << len(rest), dtype=np.int64)
    for i, q in enumerate(rest):
        bit = (np.arange(1 << len(rest)) >> i) & 1
        rest_values |= bit << q
    local_values = np.zeros(1 << k, dtype=np.int64)
    for i, q in enumerate(operands):
        bit = (np.arange(1 << k) >> i) & 1
        local_values |= bit << q
    return rest_values[:, None] + local_values[None, :]


def apply_gate(
    states: np.ndarray,
    gate: Gate,
    num_qubits: int,
) -> np.ndarray:
    """Apply one gate in place to a ``(2^n, batch)`` array; returns it."""
    if states.shape[0] != (1 << num_qubits):
        raise SimulationError(
            f"state dim {states.shape[0]} does not match n={num_qubits}"
        )
    matrix = gate.matrix()
    idx = _gather_axes(num_qubits, gate.all_qubits)
    if gate.controls:
        # keep only rows where every control bit is 1: those are the local
        # indices whose control bits (high local bits) are all set
        k_t = len(gate.qubits)
        ctrl_mask = ((1 << len(gate.controls)) - 1) << k_t
        idx = idx[:, ctrl_mask : ctrl_mask + (1 << k_t)]
    get_metrics().inc("kernel.dense.apply.numpy.calls")
    gathered = states[idx, :]
    states[idx, :] = np.einsum("ij,gjb->gib", matrix, gathered)
    return states


def simulate_batch(
    circuit: Circuit,
    batch: InputBatch,
    copy: bool = True,
) -> np.ndarray:
    """Run the whole circuit over a batch; returns the output amplitudes."""
    if batch.num_qubits != circuit.num_qubits:
        raise SimulationError(
            f"batch has {batch.num_qubits} qubits, circuit {circuit.num_qubits}"
        )
    states = batch.states.copy() if copy else batch.states
    for gate in circuit.gates:
        apply_gate(states, gate, circuit.num_qubits)
    return states


def simulate_state(
    circuit: Circuit,
    state: np.ndarray | None = None,
) -> np.ndarray:
    """Single-input convenience wrapper; defaults to ``|0...0>``."""
    dim = 1 << circuit.num_qubits
    if state is None:
        get_metrics().inc("kernel.state.init.numpy.calls")
        col = np.zeros((dim, 1), dtype=np.complex128)
        col[0, 0] = 1.0
    else:
        col = np.ascontiguousarray(state, dtype=np.complex128).reshape(dim, 1)
    return simulate_batch(circuit, InputBatch(col))[:, 0]
