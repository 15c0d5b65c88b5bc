"""Property-based tests for the mutation operators and plan archives."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.circuit import Circuit
from repro.circuit.gates import Gate
from repro.testing import PRESERVING

from .circuit_helpers import circuits_equivalent

finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@st.composite
def small_circuits(draw, num_qubits=3, max_gates=10):
    kinds = st.sampled_from(["h", "x", "z", "s", "t", "rz", "ry", "cx", "cz", "rzz", "swap"])
    gates = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_gates))):
        kind = draw(kinds)
        qubits = draw(st.permutations(range(num_qubits)))
        if kind in ("rz", "ry"):
            gates.append(Gate.make(kind, [qubits[0]], [draw(finite)]))
        elif kind == "rzz":
            gates.append(Gate.make(kind, [qubits[0], qubits[1]], [draw(finite)]))
        elif kind in ("cx", "cz", "swap"):
            gates.append(Gate.make(kind, [qubits[0], qubits[1]]))
        else:
            gates.append(Gate.make(kind, [qubits[0]]))
    return Circuit(num_qubits, gates)


@settings(max_examples=10, deadline=None)
@given(small_circuits(), st.integers(min_value=0, max_value=2**31 - 1))
def test_preserving_mutations_hold_on_random_circuits(circuit, seed):
    rng = np.random.default_rng(seed)
    for mutate in PRESERVING.values():
        assert circuits_equivalent(circuit, mutate(circuit, rng), num_inputs=4)


@settings(max_examples=10, deadline=None)
@given(small_circuits(num_qubits=3, max_gates=6), st.integers(0, 10**6))
def test_plan_archive_roundtrip_random_circuits(circuit, seed):
    """A plan archive written by a cold run and loaded by a fresh
    simulator gives bit-identical outputs."""
    import tempfile

    from repro.sim import BQSimSimulator, BatchSpec

    spec = BatchSpec(num_batches=1, batch_size=2, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        cold = BQSimSimulator(cache_dir=tmp).run(circuit, spec)
        warm = BQSimSimulator(cache_dir=tmp).run(circuit, spec)
    assert warm.stats["plan_source"] == "disk"
    for a, b in zip(cold.outputs, warm.outputs, strict=True):
        assert np.array_equal(a, b)
