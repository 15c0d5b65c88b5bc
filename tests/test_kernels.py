"""Tests for the NumPy kernels the simulators call and their counters.

Each kernel lives in the one module that calls it and counts its calls
as ``kernel.<name>.numpy.calls``; the end-to-end benchmark sums those
counters into ``kernels.calls``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit.generators import make_circuit
from repro.circuit.inputs import _normalize_columns
from repro.ell.spmm import _copy_into, _gather_slots, _gather_spmm, _gather_width1
from repro.errors import SimulationError
from repro.obs import get_metrics
from repro.sim.base import BatchSpec
from repro.sim.bqsim import BQSimSimulator, _merge_parts
from repro.sim.cuquantum import CuQuantumSimulator
from repro.sim.flatdd import FlatDDSimulator
from repro.sim.multigpu import MultiGpuBQSimSimulator
from repro.sim.qiskit_aer import QiskitAerSimulator
from repro.sim.statevector import simulate_state


def _random_ell(rng, rows=16, width=3):
    values = rng.standard_normal((rows, width)) + 1j * rng.standard_normal(
        (rows, width)
    )
    cols = rng.integers(0, rows, size=(rows, width))
    return values, cols.astype(np.int64)


def test_gather_spmm_matches_slots_reference(rng):
    values, cols = _random_ell(rng)
    states = rng.standard_normal((16, 5)) + 1j * rng.standard_normal((16, 5))
    fast = _gather_spmm(values, cols, states)
    reference = _gather_slots(values, cols, states, np.zeros_like(states))
    np.testing.assert_array_equal(fast, reference)


def test_gather_width1_is_a_permutation_multiply(rng):
    values = rng.standard_normal((8, 1)) + 1j * rng.standard_normal((8, 1))
    cols = rng.permutation(8).astype(np.int64).reshape(8, 1)
    states = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    out = _gather_width1(values, cols.ravel(), states)
    np.testing.assert_array_equal(out, values * states[cols.ravel(), :])


def test_batch_merge_single_part_identity():
    block = np.ones((4, 2), dtype=np.complex128)
    assert _merge_parts([block]) is block


def test_batch_merge_hstacks_and_rejects_empty():
    a = np.ones((4, 2), dtype=np.complex128)
    b = 2 * np.ones((4, 3), dtype=np.complex128)
    merged = _merge_parts([a, b])
    assert merged.shape == (4, 5)
    with pytest.raises(SimulationError, match="empty"):
        _merge_parts([])


def test_copy_into_writes_buffer():
    out = np.zeros((3, 3), dtype=np.complex128)
    result = np.full((3, 3), 2.0, dtype=np.complex128)
    returned = _copy_into(out, result)
    assert returned is out
    np.testing.assert_array_equal(out, result)


def test_normalize_states_unit_columns(rng):
    states = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    states = states.astype(np.complex128)
    _normalize_columns(states)
    norms = np.linalg.norm(states, axis=0)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


#: the ``kernel.*`` counters of one executed 5-qubit ``qnn`` run over
#: ``BatchSpec(2, 4, seed=1)`` with the spMM ladder starting at numpy
EXPECTED_KERNEL_CALLS = {
    CuQuantumSimulator: {
        "ell.gather.width1": 148,
        "ell.gather.spmm": 40,
        "state.normalize": 2,
    },
    BQSimSimulator: {
        "batch.rotate.merge": 2,
        "ell.gather.spmm": 22,
        "state.normalize": 2,
    },
    MultiGpuBQSimSimulator: {
        "batch.rotate.merge": 2,
        "ell.gather.spmm": 22,
        "state.normalize": 2,
    },
    FlatDDSimulator: {"ell.gather.spmm": 40, "state.normalize": 2},
    QiskitAerSimulator: {"ell.gather.spmm": 2, "state.normalize": 2},
}


def test_executed_runs_report_their_kernel_counters(monkeypatch):
    # the csr rung runs SciPy and counts no kernel; pinning the numpy rung
    # keeps the expected counts whatever REPRO_SPMM_BACKEND says
    monkeypatch.setattr("repro.ell.spmm.DEFAULT_BACKEND", "numpy")
    circuit = make_circuit("qnn", 5)
    for simulator, expected in EXPECTED_KERNEL_CALLS.items():
        result = simulator().run(circuit, BatchSpec(2, 4, seed=1))
        counters = result.stats["metrics"]["counters"]
        kernels = {k: v for k, v in counters.items() if k.startswith("kernel.")}
        assert kernels == {
            f"kernel.{name}.numpy.calls": calls
            for name, calls in expected.items()
        }, simulator.name
    mark = get_metrics().mark()
    simulate_state(circuit)
    counters = get_metrics().delta(mark)["counters"]
    assert counters["kernel.state.init.numpy.calls"] == 1
    assert counters["kernel.dense.apply.numpy.calls"] == len(circuit.gates)
