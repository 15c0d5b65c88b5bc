"""Property-based tests (hypothesis) on the core data structures."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import Circuit, parse_qasm, to_qasm
from repro.circuit.gates import Gate
from repro.dd import (
    DDManager,
    matrix_dd_from_dense,
    matrix_to_dense,
    max_nzr,
    nzr_vector,
    vector_dd_from_dense,
    vector_to_dense,
)
from repro.ell import ell_from_dd, ell_from_flat_gpu, ell_spmm
from repro.dd.flat import flatten_matrix_dd
from repro.gpu.engine import Task, schedule
from repro.sim.bqsim import buffer_indices
from repro.sim.statevector import simulate_batch
from repro.circuit.inputs import InputBatch

# -- strategies --------------------------------------------------------------

finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@st.composite
def complex_matrices(draw, num_qubits: int):
    """Sparse-ish random complex matrices of size 2^n."""
    dim = 1 << num_qubits
    values = draw(
        st.lists(finite, min_size=2 * dim * dim, max_size=2 * dim * dim)
    )
    m = np.array(values[: dim * dim]) + 1j * np.array(values[dim * dim :])
    m = m.reshape(dim, dim)
    mask = draw(
        st.lists(st.booleans(), min_size=dim * dim, max_size=dim * dim)
    )
    m = m * np.array(mask).reshape(dim, dim)
    return m


@st.composite
def random_gates(draw):
    kind = draw(st.sampled_from(["h", "x", "t", "rz", "ry", "cx", "cz", "rzz"]))
    qubits = draw(st.permutations(range(3)))
    if kind in ("rz", "ry"):
        return Gate.make(kind, [qubits[0]], [draw(finite)])
    if kind == "rzz":
        return Gate.make(kind, [qubits[0], qubits[1]], [draw(finite)])
    if kind in ("cx", "cz"):
        return Gate.make(kind, [qubits[0], qubits[1]])
    return Gate.make(kind, [qubits[0]])


@st.composite
def random_circuits_strategy(draw, max_gates=12):
    gates = draw(st.lists(random_gates(), min_size=1, max_size=max_gates))
    return Circuit(3, gates)


# -- DD properties ------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(complex_matrices(2))
def test_dd_dense_roundtrip(m):
    mgr = DDManager(2)
    edge = matrix_dd_from_dense(mgr, m)
    assert np.allclose(matrix_to_dense(edge, 2), m, atol=1e-8)


@settings(max_examples=30, deadline=None)
@given(complex_matrices(2), complex_matrices(2))
def test_dd_multiply_matches_numpy(a, b):
    mgr = DDManager(2)
    ea, eb = matrix_dd_from_dense(mgr, a), matrix_dd_from_dense(mgr, b)
    got = matrix_to_dense(mgr.mm_multiply(ea, eb), 2)
    assert np.allclose(got, a @ b, atol=1e-7)


@settings(max_examples=30, deadline=None)
@given(complex_matrices(2), complex_matrices(2))
def test_dd_add_commutes(a, b):
    mgr = DDManager(2)
    ea, eb = matrix_dd_from_dense(mgr, a), matrix_dd_from_dense(mgr, b)
    left = matrix_to_dense(mgr.m_add(ea, eb), 2)
    right = matrix_to_dense(mgr.m_add(eb, ea), 2)
    assert np.allclose(left, right, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(st.lists(finite, min_size=16, max_size=16))
def test_vector_dd_roundtrip(values):
    v = np.array(values[:8]) + 1j * np.array(values[8:])
    mgr = DDManager(3)
    edge = vector_dd_from_dense(mgr, v)
    assert np.allclose(vector_to_dense(edge, 3), v, atol=1e-8)


@settings(max_examples=30, deadline=None)
@given(complex_matrices(2))
def test_nzrv_matches_dense_row_counts(m):
    mgr = DDManager(2)
    edge = matrix_dd_from_dense(mgr, m)
    if edge.weight == 0:
        return
    counts = vector_to_dense(nzr_vector(mgr, edge), 2).real
    dense_counts = (np.abs(matrix_to_dense(edge, 2)) > 1e-12).sum(axis=1)
    assert np.allclose(counts, dense_counts)


# -- ELL properties ------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(complex_matrices(2))
def test_ell_conversions_agree(m):
    mgr = DDManager(2)
    edge = matrix_dd_from_dense(mgr, m)
    if edge.weight == 0:
        return
    width = max_nzr(mgr, edge)
    cpu = ell_from_dd(edge, 2)
    gpu = ell_from_flat_gpu(flatten_matrix_dd(edge, 2), width)
    assert np.array_equal(cpu.cols, gpu.cols)
    assert np.allclose(cpu.values, gpu.values, atol=1e-10)
    assert np.allclose(cpu.to_dense(), matrix_to_dense(edge, 2), atol=1e-8)


@settings(max_examples=25, deadline=None)
@given(complex_matrices(2), st.lists(finite, min_size=8, max_size=8))
def test_ell_spmm_matches_numpy(m, vec):
    mgr = DDManager(2)
    edge = matrix_dd_from_dense(mgr, m)
    if edge.weight == 0:
        return
    ell = ell_from_dd(edge, 2)
    states = (np.array(vec[:4]) + 1j * np.array(vec[4:])).reshape(4, 1)
    got = ell_spmm(ell, states)
    want = matrix_to_dense(edge, 2) @ states
    assert np.allclose(got, want, atol=1e-8)


# -- fusion / simulation properties ---------------------------------------------

@settings(max_examples=15, deadline=None)
@given(random_circuits_strategy())
def test_bqsim_matches_reference_on_random_circuits(circuit):
    from repro.sim import BQSimSimulator, BatchSpec

    rng = np.random.default_rng(0)
    states = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    states /= np.linalg.norm(states, axis=0, keepdims=True)
    batch = InputBatch(states)
    spec = BatchSpec(num_batches=1, batch_size=2)
    result = BQSimSimulator().run(circuit, spec, batches=[batch])
    want = simulate_batch(circuit, batch)
    assert np.allclose(result.outputs[0], want, atol=1e-8)


@settings(max_examples=15, deadline=None)
@given(random_circuits_strategy())
def test_fusion_cost_never_exceeds_unfused(circuit):
    from repro.fusion import bqcs_fusion, no_fusion_plan
    from repro.fusion.cost import bqcs_cost

    mgr = DDManager(3)
    fused = bqcs_fusion(mgr, circuit)
    # compare against the sum of true per-gate DD costs (not dense padding)
    unfused = sum(bqcs_cost(mgr, fg.dd) for fg in no_fusion_plan(mgr, circuit).gates)
    assert fused.total_cost <= unfused


# -- QASM round trip -------------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(random_circuits_strategy(max_gates=8))
def test_qasm_roundtrip_preserves_unitary(circuit):
    parsed = parse_qasm(to_qasm(circuit))
    assert np.allclose(parsed.to_matrix(), circuit.to_matrix(), atol=1e-8)


# -- scheduler / buffer properties ------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["compute", "h2d", "d2h"]),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            st.integers(min_value=0, max_value=4),
        ),
        min_size=1,
        max_size=25,
    ),
    st.booleans(),
)
def test_schedule_always_valid(specs, serialize):
    tasks = []
    for i, (engine, duration, back) in enumerate(specs):
        deps = tuple({max(0, i - 1 - back)} - {i}) if i else ()
        tasks.append(Task(tid=i, name=f"t{i}", engine=engine, duration=duration, deps=deps))
    timeline = schedule(tasks, serialize=serialize)
    timeline.validate()
    assert timeline.makespan >= max(t.duration for t in tasks)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=1, max_value=12),
)
def test_buffer_rotation_invariants(batch, kernels):
    parity_buffers = {0, 1} if batch % 2 == 0 else {2, 3}
    previous_dst = None
    for k in range(kernels):
        src, dst = buffer_indices(batch, k, kernels)
        assert src != dst
        assert {src, dst} == parity_buffers
        if previous_dst is not None:
            assert src == previous_dst
        previous_dst = dst
