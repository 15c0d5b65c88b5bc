"""Tests for single-input DD simulation: a whole circuit applied by DDMultiply.

The loop below is the classic DD simulator (the CPU algorithm FlatDD builds
on): keep the state as a vector DD and multiply each gate's matrix DD into
it.  It exercises the vector builders, ``DDManager.mv_multiply`` and the
manager's canonicalization over whole circuits.
"""

import numpy as np
import pytest

from repro.circuit import Circuit
from repro.circuit.generators import ghz, graphstate, random_circuit
from repro.dd import (
    DDManager,
    basis_vector_dd,
    count_nodes,
    gate_matrix_dd,
    vector_dd_from_dense,
    vector_to_dense,
)
from repro.sim.statevector import simulate_state


def simulate_state_dd_edge(circuit: Circuit, initial=None):
    """Final state DD of ``circuit`` on ``initial``.

    ``initial`` may be a dense state vector, a basis-state index, or ``None``
    for ``|0...0>``.
    """
    mgr = DDManager(circuit.num_qubits)
    if initial is None:
        state = basis_vector_dd(mgr, 0)
    elif isinstance(initial, (int, np.integer)):
        state = basis_vector_dd(mgr, int(initial))
    else:
        state = vector_dd_from_dense(mgr, np.asarray(initial))
    for gate in circuit.gates:
        state = mgr.mv_multiply(gate_matrix_dd(mgr, gate), state)
    return state


def simulate_state_dd(circuit: Circuit, initial=None) -> np.ndarray:
    return vector_to_dense(simulate_state_dd_edge(circuit, initial), circuit.num_qubits)


def state_dd_size(circuit: Circuit) -> int:
    return count_nodes(simulate_state_dd_edge(circuit))


def test_matches_dense_reference_on_random_circuits():
    for seed in range(4):
        circuit = random_circuit(5, 20, seed=seed)
        got = simulate_state_dd(circuit)
        want = simulate_state(circuit)
        assert np.allclose(got, want, atol=1e-9), seed


def test_custom_initial_states():
    circuit = Circuit(3)
    circuit.x(0)
    # basis index
    out = simulate_state_dd(circuit, initial=6)
    assert out[7] == pytest.approx(1.0)
    # dense vector
    rng = np.random.default_rng(1)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    v /= np.linalg.norm(v)
    out = simulate_state_dd(circuit, initial=v)
    want = simulate_state(circuit, v)
    assert np.allclose(out, want, atol=1e-10)


def test_structured_states_stay_compact():
    """The whole point of DD simulation: GHZ/graph states have tiny DDs."""
    assert state_dd_size(ghz(14)) <= 2 * 14
    assert state_dd_size(graphstate(12)) <= 4 * 12


def test_generic_states_are_incompressible():
    """A Haar-like random vector needs the full 2^n - 1 node chain."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    mgr = DDManager(6)
    assert count_nodes(vector_dd_from_dense(mgr, v)) == 63


def test_norm_preserved():
    circuit = random_circuit(4, 25, seed=3)
    out = simulate_state_dd(circuit)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-9)
