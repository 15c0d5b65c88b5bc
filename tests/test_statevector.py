"""Tests for the dense reference simulator."""

import numpy as np
import pytest

from repro.circuit import Circuit, InputBatch, random_batch
from repro.circuit.gates import Gate
from repro.circuit.generators import make_circuit
from repro.sim.statevector import apply_gate, simulate_batch, simulate_state
from repro.errors import SimulationError


def test_apply_single_qubit_gate_matches_matrix(small_circuit, batch4):
    states = batch4.states.copy()
    for gate in small_circuit.gates:
        apply_gate(states, gate, 4)
    expected = small_circuit.to_matrix() @ batch4.states
    assert np.allclose(states, expected, atol=1e-10)


def test_apply_gate_checks_dimensions():
    states = np.zeros((8, 1), dtype=np.complex128)
    with pytest.raises(SimulationError, match="state dim"):
        apply_gate(states, Gate.make("h", [0]), 4)


def test_controlled_gate_only_touches_control_one_subspace():
    # |10> (q0=0, q1=1): control q0 is 0 -> CX(q0 -> q1) is identity
    states = np.zeros((4, 1), dtype=np.complex128)
    states[2, 0] = 1.0
    apply_gate(states, Gate.make("cx", [0, 1]), 2)
    assert states[2, 0] == 1.0
    # |01> (q0=1): target q1 flips -> |11>
    states = np.zeros((4, 1), dtype=np.complex128)
    states[1, 0] = 1.0
    apply_gate(states, Gate.make("cx", [0, 1]), 2)
    assert states[3, 0] == 1.0


def test_simulate_batch_does_not_mutate_input(small_circuit, batch4):
    before = batch4.states.copy()
    simulate_batch(small_circuit, batch4)
    assert np.array_equal(batch4.states, before)


def test_simulate_batch_copy_false_mutates(small_circuit, batch4):
    # copy=False runs the circuit in place on the caller's array
    batch = InputBatch(batch4.states.copy())
    out = simulate_batch(small_circuit, batch, copy=False)
    assert out is batch.states


def test_simulate_batch_rejects_width_mismatch(small_circuit):
    with pytest.raises(SimulationError, match="qubits"):
        simulate_batch(small_circuit, random_batch(3, 2, rng=0))


def test_simulate_state_default_zero():
    c = Circuit(2)
    c.h(0)
    state = simulate_state(c)
    assert state[0] == pytest.approx(2**-0.5)
    assert state[1] == pytest.approx(2**-0.5)


def test_norm_preservation(random_circuits):
    for c in random_circuits:
        batch = random_batch(4, 5, rng=1)
        out = simulate_batch(c, batch)
        assert np.allclose(np.linalg.norm(out, axis=0), 1.0, atol=1e-10)


def test_swap_gate_permutes_amplitudes():
    c = Circuit(2)
    c.swap(0, 1)
    state = np.array([0.0, 1.0, 0.0, 0.0], dtype=np.complex128)
    out = simulate_state(c, state)
    assert out[2] == 1.0


def _reference_gather_axes(num_qubits, operands):
    """The pre-engine ``repro.sim.statevector._gather_axes``, verbatim."""
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


def _reference_apply_gate(states, gate, num_qubits):
    """The pre-engine ``apply_gate`` body, verbatim (direct NumPy)."""
    matrix = gate.matrix()
    idx = _reference_gather_axes(num_qubits, gate.all_qubits)
    if gate.controls:
        k_t = len(gate.qubits)
        ctrl_mask = ((1 << len(gate.controls)) - 1) << k_t
        idx = idx[:, ctrl_mask : ctrl_mask + (1 << k_t)]
    gathered = states[idx, :]
    states[idx, :] = np.einsum("ij,gjb->gib", matrix, gathered)
    return states


def test_numpy_apply_gate_bit_identical_to_prerefactor(small_circuit, batch4):
    ours = batch4.states.copy()
    reference = batch4.states.copy()
    for gate in small_circuit.gates:
        apply_gate(ours, gate, 4)
        _reference_apply_gate(reference, gate, 4)
    np.testing.assert_array_equal(ours, reference)


def test_numpy_simulate_batch_bit_identical_to_prerefactor(batch4):
    circuit = make_circuit("qft", 4)
    reference = batch4.states.copy()
    for gate in circuit.gates:
        _reference_apply_gate(reference, gate, 4)
    np.testing.assert_array_equal(
        simulate_batch(circuit, batch4), reference
    )
