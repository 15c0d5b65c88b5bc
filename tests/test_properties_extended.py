"""Property-based tests for the application layers (transpile, testing,
noise, vqa, persistence)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import Circuit
from repro.circuit.gates import Gate
from repro.noise import NoiseChannel, depolarizing
from repro.testing import PRESERVING
from repro.transpile import circuits_equivalent, decompose_to_basis, optimize
from repro.vqa import PauliSum

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


@settings(max_examples=12, deadline=None)
@given(small_circuits())
def test_optimize_preserves_semantics(circuit):
    assert circuits_equivalent(circuit, optimize(circuit), num_inputs=4)


@settings(max_examples=12, deadline=None)
@given(small_circuits())
def test_decompose_then_optimize_preserves_semantics(circuit):
    basis = decompose_to_basis(circuit)
    assert circuits_equivalent(circuit, optimize(basis), num_inputs=4)


@settings(max_examples=10, deadline=None)
@given(small_circuits(), st.integers(min_value=0, max_value=2**31 - 1))
def test_preserving_mutations_hold_on_random_circuits(circuit, seed):
    rng = np.random.default_rng(seed)
    for mutate in PRESERVING.values():
        assert circuits_equivalent(circuit, mutate(circuit, rng), num_inputs=4)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=4,
        max_size=4,
    ).filter(lambda probs: sum(probs) > 1e-6)
)
def test_random_pauli_channels_are_cptp_and_decompose(probs):
    total = sum(probs)
    normalized = [p / total for p in probs]
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]),
              np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
    kraus = tuple(
        np.sqrt(p) * m for p, m in zip(normalized, paulis) if p > 0
    )
    channel = NoiseChannel("random-pauli", kraus)
    decomposed = channel.pauli_probabilities()
    assert decomposed is not None
    for label, want in zip("IXYZ", normalized):
        assert decomposed[label] == pytest.approx(want, abs=1e-9)


@settings(max_examples=15, deadline=None)
@given(
    st.lists(finite, min_size=2, max_size=4),
    st.lists(st.sampled_from(["III", "ZZI", "XIX", "YYZ", "IZI"]),
             min_size=2, max_size=4, unique=True),
)
def test_pauli_sum_expectation_is_linear(coeffs, strings):
    k = min(len(coeffs), len(strings))
    coeffs, strings = coeffs[:k], strings[:k]
    rng = np.random.default_rng(0)
    state = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    state = (state / np.linalg.norm(state)).reshape(-1, 1)
    whole = PauliSum(3, tuple(strings), tuple(coeffs)).expectation(state)[0]
    parts = sum(
        PauliSum(3, (s,), (c,)).expectation(state)[0]
        for s, c in zip(strings, coeffs)
    )
    assert whole == pytest.approx(parts, abs=1e-9)


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
