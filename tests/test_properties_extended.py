"""Property-based tests for the mutation operators and plan persistence."""

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
def test_bundle_roundtrip_random_circuits(circuit, seed):
    import tempfile
    from pathlib import Path

    from repro.dd import DDManager
    from repro.ell import bundle_from_plan, ell_from_dd, load_bundle, save_bundle
    from repro.fusion import bqcs_fusion

    mgr = DDManager(3)
    plan = bqcs_fusion(mgr, circuit)
    ells = [ell_from_dd(fg.dd, 3) for fg in plan.gates]
    bundle = bundle_from_plan("prop", 3, ells)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bundle.npz"
        save_bundle(bundle, path)
        loaded = load_bundle(path)
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    assert np.allclose(loaded.apply(states.copy()), bundle.apply(states.copy()))
