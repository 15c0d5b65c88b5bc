"""Tests for the equivalence-checking module."""

import pytest

from repro.circuit import Circuit
from repro.circuit.generators import ghz, random_circuit
from repro.errors import SimulationError
from repro.verify import check, check_exact, check_simulative

from .circuit_helpers import decompose_to_basis


@pytest.fixture
def pair():
    original = random_circuit(4, 20, seed=7)
    return original, decompose_to_basis(original)


def test_exact_accepts_equivalent(pair):
    a, b = pair
    result = check_exact(a, b)
    assert result
    assert result.method == "exact"
    assert abs(abs(result.phase) - 1.0) < 1e-9


def test_exact_rejects_tampered(pair):
    a, b = pair
    tampered = Circuit(b.num_qubits, list(b.gates))
    tampered.x(0)
    assert not check_exact(a, tampered)


@pytest.mark.parametrize("theta", [1e-5, 1.2e-5, 1.4e-5])
def test_exact_accepts_a_circuit_against_itself(theta):
    # at these angles weight snapping leaves rz(t) . rz(-t) just off
    # the identity's weights
    c = Circuit(2)
    c.h(0).rz(theta, 0).cx(0, 1)
    assert check_exact(c, c)


def test_exact_rejects_width_mismatch():
    assert not check_exact(ghz(3), ghz(4))


def test_simulative_accepts_equivalent(pair):
    a, b = pair
    result = check_simulative(a, b)
    assert result
    assert result.max_deviation < 1e-8


def test_simulative_rejects_tampered(pair):
    a, b = pair
    tampered = Circuit(b.num_qubits, list(b.gates))
    tampered.rz(0.01, 2)
    result = check_simulative(a, tampered)
    assert not result
    assert result.max_deviation > 1e-6


def test_simulative_handles_pure_global_phase():
    a = Circuit(2)
    a.rz(0.8, 0)
    b = Circuit(2)
    b.p(0.8, 0)
    assert check_simulative(a, b)


def test_auto_dispatch(pair):
    a, b = pair
    result = check(a, b)
    assert result and result.method == "exact"  # narrow circuit -> exact
    with pytest.raises(SimulationError, match="unknown method"):
        check(a, b, prefer="quantum-telepathy")


def test_result_is_truthy_protocol(pair):
    a, b = pair
    assert bool(check_exact(a, b)) is True
    assert bool(check_exact(a, ghz(4))) is False
