"""Tests for ELL bundle persistence and DD DOT export."""

import numpy as np
import pytest

from repro.circuit import random_batch
from repro.circuit.gates import Gate
from repro.circuit.generators import make_circuit
from repro.dd import (
    DDManager,
    basis_vector_dd,
    gate_matrix_dd,
    matrix_to_dot,
    vector_to_dot,
    ZERO_EDGE,
)
from repro.ell import (
    EllBundle,
    bundle_from_plan,
    ell_from_dd,
    load_bundle,
    save_bundle,
)
from repro.errors import ConversionError
from repro.fusion import bqcs_fusion
from repro.sim.statevector import simulate_batch


@pytest.fixture
def bundle():
    circuit = make_circuit("vqe", 6)
    mgr = DDManager(6)
    plan = bqcs_fusion(mgr, circuit)
    ells = [ell_from_dd(fg.dd, 6) for fg in plan.gates]
    return circuit, bundle_from_plan(circuit.name, 6, ells)


def test_bundle_roundtrip(tmp_path, bundle):
    circuit, original = bundle
    path = tmp_path / "plan.npz"
    save_bundle(original, path)
    loaded = load_bundle(path)
    assert loaded.circuit_name == circuit.name
    assert loaded.num_qubits == 6
    assert len(loaded) == len(original)
    for a, b in zip(loaded.matrices, original.matrices):
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.cols, b.cols)


def test_loaded_bundle_simulates_correctly(tmp_path, bundle):
    circuit, original = bundle
    path = tmp_path / "plan.npz"
    save_bundle(original, path)
    loaded = load_bundle(path)
    batch = random_batch(6, 4, rng=2)
    got = loaded.apply(batch.states)
    want = simulate_batch(circuit, batch)
    assert np.allclose(got, want, atol=1e-8)
    assert loaded.total_cost == original.total_cost


def test_bundle_version_check(tmp_path, bundle):
    _, original = bundle
    path = tmp_path / "plan.npz"
    save_bundle(original, path)
    data = dict(np.load(path, allow_pickle=False))
    data["format_version"] = np.array(99)
    np.savez_compressed(path, **data)
    with pytest.raises(ConversionError, match="format 99"):
        load_bundle(path)


def test_bundle_missing_array(tmp_path, bundle):
    _, original = bundle
    path = tmp_path / "plan.npz"
    save_bundle(original, path)
    data = dict(np.load(path, allow_pickle=False))
    del data["values_0"]
    np.savez_compressed(path, **data)
    with pytest.raises(ConversionError, match="missing"):
        load_bundle(path)


def test_matrix_dot_export(mgr4):
    edge = gate_matrix_dd(mgr4, Gate.make("cx", [0, 1]))
    dot = matrix_to_dot(edge)
    assert dot.startswith("digraph DD")
    assert "terminal" in dot and "q3" in dot
    assert dot.count("->") >= 4
    # zero edges are omitted: slot labels are two bits
    assert '"00"' in dot or "00" in dot


def test_vector_dot_export(mgr4):
    edge = basis_vector_dd(mgr4, 5)
    dot = vector_to_dot(edge)
    assert "digraph" in dot and "q0" in dot and "q3" in dot


def test_dot_of_zero_edge():
    dot = matrix_to_dot(ZERO_EDGE)
    assert dot.startswith("digraph DD") and dot.endswith("}")
