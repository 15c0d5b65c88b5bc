"""Tests for the textbook-algorithm generators."""

import numpy as np
import pytest

from repro.circuit.generators import deutsch_jozsa, grover, qpe, wstate
from repro.errors import CircuitError
from repro.sim.statevector import simulate_state


def test_grover_amplifies_marked_element():
    circuit = grover(5, marked=13, iterations=4)
    p = np.abs(simulate_state(circuit)) ** 2
    assert p[13] > 0.8
    assert np.argmax(p) == 13


def test_grover_random_mark_is_deterministic_by_seed():
    a = grover(4, seed=3)
    b = grover(4, seed=3)
    assert [g.name for g in a] == [g.name for g in b]


def test_grover_rejects_single_qubit():
    with pytest.raises(CircuitError):
        grover(1)


def test_deutsch_jozsa_constant_vs_balanced():
    n = 5
    input_mask = (1 << (n - 1)) - 1
    constant = deutsch_jozsa(n, balanced=False)
    p = np.abs(simulate_state(constant)) ** 2
    zero_prob = sum(p[i] for i in range(1 << n) if (i & input_mask) == 0)
    assert zero_prob == pytest.approx(1.0)
    balanced = deutsch_jozsa(n, balanced=True, seed=1)
    p = np.abs(simulate_state(balanced)) ** 2
    zero_prob = sum(p[i] for i in range(1 << n) if (i & input_mask) == 0)
    assert zero_prob == pytest.approx(0.0, abs=1e-9)


def test_wstate_is_uniform_one_hot():
    n = 5
    p = np.abs(simulate_state(wstate(n))) ** 2
    hot = [1 << k for k in range(n)]
    for h in hot:
        assert p[h] == pytest.approx(1.0 / n)
    assert sum(p[h] for h in hot) == pytest.approx(1.0)


def test_qpe_recovers_exact_phase():
    # 4 counting qubits, phase 5/16 -> counting register reads 5
    circuit = qpe(5, phase=5 / 16)
    p = np.abs(simulate_state(circuit)) ** 2
    best = int(np.argmax(p)) & 0b1111
    assert best == 5
    assert p.max() > 0.95


def test_qpe_default_phase_is_representable():
    circuit = qpe(6, seed=4)
    p = np.abs(simulate_state(circuit)) ** 2
    assert p.max() > 0.95  # exact-phase default peaks sharply


@pytest.mark.parametrize("maker", [deutsch_jozsa, wstate, qpe])
def test_minimum_width_validation(maker):
    with pytest.raises(CircuitError):
        maker(1)


def test_qaoa_maxcut_beats_random_guessing():
    from repro.circuit.generators import qaoa_maxcut

    n = 6
    edges = [(i, (i + 1) % n) for i in range(n)]
    circuit = qaoa_maxcut(n, edges=edges, p=2, seed=1)
    p = np.abs(simulate_state(circuit)) ** 2
    index = np.arange(1 << n)
    cut = sum(((index >> a) ^ (index >> b)) & 1 for a, b in edges)
    # MaxCut energy sum_(i,j) (Z_i Z_j - 1) / 2 is minus the expected cut
    energy = -float(p @ cut)
    # uniform superposition scores -|E|/2 = -3; QAOA should do better
    assert energy < -3.0


def test_qaoa_structure():
    from repro.circuit.generators import qaoa_maxcut

    circuit = qaoa_maxcut(5, p=3)
    counts = circuit.counts()
    assert counts["h"] == 5
    assert counts["rzz"] == 3 * 5  # ring edges x layers
    assert counts["rx"] == 3 * 5
    with pytest.raises(CircuitError):
        qaoa_maxcut(1)
