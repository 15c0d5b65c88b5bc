"""Tests for the ELL format, the DD-to-ELL converter, the Algorithm-1
reference kernel, and the spMM kernel."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.circuit.gates import Gate
from repro.circuit.generators import make_circuit, random_circuit
from repro.dd import (
    DDManager,
    circuit_matrix_dd,
    flatten_matrix_dd,
    gate_matrix_dd,
    matrix_to_dense,
    max_nzr,
)
from repro.ell import (
    DEFAULT_TAU,
    ELLMatrix,
    ell_from_dd,
    ell_from_dense,
    ell_from_flat_gpu,
    ell_spmm,
    spmm_bytes,
    spmm_macs,
)
from repro.errors import ConversionError, SimulationError
from repro.fusion.bqcs import bqcs_fusion
from repro.sim import BQSimSimulator


@pytest.fixture
def circuit_dd(mgr4):
    circuit = random_circuit(4, 18, seed=11)
    return circuit_matrix_dd(mgr4, circuit.gates)


def test_ell_from_dense_roundtrip(rng):
    m = rng.standard_normal((8, 8)) * (rng.random((8, 8)) > 0.6)
    m = m.astype(np.complex128)
    if not m.any():
        m[0, 0] = 1.0
    ell = ell_from_dense(m)
    assert np.allclose(ell.to_dense(), m)
    assert ell.width == max((m != 0).sum(axis=1).max(), 1)


def test_ell_validation():
    with pytest.raises(ConversionError, match="square"):
        ell_from_dense(np.zeros((3, 3)))
    with pytest.raises(ConversionError, match="rows"):
        ELLMatrix(2, np.zeros((3, 1), dtype=complex), np.zeros((3, 1), dtype=np.int64))
    with pytest.raises(ConversionError, match="column index"):
        ELLMatrix(
            1,
            np.ones((2, 1), dtype=complex),
            np.array([[0], [5]], dtype=np.int64),
        )


def test_cpu_conversion_matches_dense(circuit_dd, mgr4):
    ell = ell_from_dd(circuit_dd, 4)
    assert np.allclose(ell.to_dense(), matrix_to_dense(circuit_dd, 4), atol=1e-10)
    assert ell.width == max_nzr(mgr4, circuit_dd)


def test_gpu_kernel_matches_cpu_within_tolerance(circuit_dd, mgr4):
    width = max_nzr(mgr4, circuit_dd)
    cpu = ell_from_dd(circuit_dd, 4)
    flat = flatten_matrix_dd(circuit_dd, 4)
    gpu = ell_from_flat_gpu(flat, width)
    assert np.array_equal(gpu.cols, cpu.cols)
    assert np.allclose(gpu.values, cpu.values, atol=1e-12)


def test_converter_rejects_a_level_mismatch(mgr4):
    edge = gate_matrix_dd(mgr4, Gate.make("h", [0]))
    with pytest.raises(ConversionError, match="levels"):
        ell_from_dd(edge, 5)


@pytest.mark.parametrize(
    "gate",
    [
        Gate.make("h", [2]),
        Gate.make("cx", [1, 3]),
        Gate.make("ccx", [0, 1, 2]),
        Gate.make("rz", [1], [0.6]),
        Gate.make("rzz", [0, 3], [1.2]),
        Gate.make("swap", [1, 2]),
        Gate.make("u3", [0], [0.4, 0.5, 0.6]),
    ],
    ids=str,
)
def test_per_gate_conversion_all_routes(gate, mgr4):
    edge = gate_matrix_dd(mgr4, gate)
    dense = matrix_to_dense(edge, 4)
    width = max_nzr(mgr4, edge)
    cpu = ell_from_dd(edge, 4)
    gpu = ell_from_flat_gpu(flatten_matrix_dd(edge, 4), width)
    assert np.allclose(cpu.to_dense(), dense, atol=1e-12)
    assert np.allclose(gpu.to_dense(), dense, atol=1e-12)


def test_hybrid_routing():
    """The tau policy routes each gate by its DD edge count."""
    circuit = random_circuit(4, 18, seed=11)
    for tau, route in ((10**6, "gpu"), (1, "cpu")):
        infos = BQSimSimulator(tau=tau)._build(circuit)["conv_infos"]
        assert [info["route"] for info in infos] == [route] * len(infos)


def test_padding_to_declared_width(mgr4):
    edge = gate_matrix_dd(mgr4, Gate.make("x", [0]))  # width 1
    ell = ell_from_dd(edge, 4, max_nzr=3)
    assert ell.width == 3
    assert np.allclose(ell.to_dense(), matrix_to_dense(edge, 4))


def test_padding_cannot_shrink(mgr4):
    edge = gate_matrix_dd(mgr4, Gate.make("h", [0]))  # width 2
    with pytest.raises(ConversionError, match="exceeds"):
        ell_from_dd(edge, 4, max_nzr=1)


def test_row_nnz_excludes_padding(mgr4):
    edge = gate_matrix_dd(mgr4, Gate.make("cx", [0, 1]))
    ell = ell_from_dd(edge, 4, max_nzr=4)
    assert (ell.row_nnz() == 1).all()


def test_spmm_matches_dense(circuit_dd, rng):
    ell = ell_from_dd(circuit_dd, 4)
    states = rng.standard_normal((16, 5)) + 1j * rng.standard_normal((16, 5))
    out = ell_spmm(ell, states)
    assert np.allclose(out, matrix_to_dense(circuit_dd, 4) @ states, atol=1e-10)


def test_spmm_with_preallocated_output(circuit_dd, rng):
    ell = ell_from_dd(circuit_dd, 4)
    states = rng.standard_normal((16, 3)) + 0j
    out = np.empty_like(states)
    returned = ell_spmm(ell, states, out=out)
    assert returned is out
    assert np.allclose(out, matrix_to_dense(circuit_dd, 4) @ states, atol=1e-10)


def test_spmm_rejects_in_place(circuit_dd, rng):
    ell = ell_from_dd(circuit_dd, 4)
    states = rng.standard_normal((16, 2)) + 0j
    with pytest.raises(SimulationError, match="in place"):
        ell_spmm(ell, states, out=states)


def test_spmm_rejects_wrong_dim(circuit_dd):
    ell = ell_from_dd(circuit_dd, 4)
    with pytest.raises(SimulationError, match="state dim"):
        ell_spmm(ell, np.zeros((8, 2), dtype=complex))


def test_cost_helpers(circuit_dd):
    ell = ell_from_dd(circuit_dd, 4)
    assert spmm_macs(ell, 10) == ell.num_rows * ell.width * 10
    assert spmm_bytes(ell, 10) > ell.nbytes


# ---------------------------------------------------------------------------
# The converter against the memoized recursion it replaced and Algorithm 1
# ---------------------------------------------------------------------------

def _reference_compress(values, cols, xp=np):
    """The pre-vectorization ``_compress``, verbatim."""
    if values.shape[1] == 0:
        return values, cols
    zero = values == 0
    order = xp.argsort(zero, axis=1, kind="stable")
    values = xp.take_along_axis(values, order, axis=1)
    cols = xp.take_along_axis(cols, order, axis=1)
    width = int((~zero).sum(axis=1).max())
    cols = xp.where(values == 0, 0, cols)  # canonical padding: column 0
    return values[:, :width], cols[:, :width]


def _reference_assemble_ell(
    root_node,
    root_weight: complex,
    node_key,
    node_level,
    node_children,
    xp=np,
):
    """The pre-vectorization ``_assemble_ell`` (the memoized per-node
    recursion behind the previous CPU converter), verbatim."""
    memo: dict = {}

    def rec(node):
        if node is None:
            return (
                xp.ones((1, 1), dtype=xp.complex128),
                xp.zeros((1, 1), dtype=xp.int64),
            )
        key = node_key(node)
        hit = memo.get(key)
        if hit is not None:
            return hit
        half = 1 << node_level(node)
        children = node_children(node)
        halves = []
        for row_bit in (0, 1):
            parts_v, parts_c = [], []
            for col_bit in (0, 1):
                child, weight = children[row_bit * 2 + col_bit]
                if weight == 0:
                    continue
                cv, cc = rec(child)
                parts_v.append(cv * weight)
                parts_c.append(cc + col_bit * half)
            if not parts_v:
                parts_v = [xp.zeros((half, 0), dtype=xp.complex128)]
                parts_c = [xp.zeros((half, 0), dtype=xp.int64)]
            halves.append(
                (xp.concatenate(parts_v, axis=1), xp.concatenate(parts_c, axis=1))
            )
        width = max(halves[0][0].shape[1], halves[1][0].shape[1])
        values = xp.zeros((2 * half, width), dtype=xp.complex128)
        cols = xp.zeros((2 * half, width), dtype=xp.int64)
        for i, (hv, hc) in enumerate(halves):
            values[i * half : (i + 1) * half, : hv.shape[1]] = hv
            cols[i * half : (i + 1) * half, : hc.shape[1]] = hc
        hit = _reference_compress(values, cols, xp=xp)
        memo[key] = hit
        return hit

    values, cols = rec(root_node)
    return values * root_weight, cols


def _reference_ell(edge, width):
    """The previous CPU converter's output padded to ``width``, as the
    previous hybrid converter padded it."""
    values, cols = _reference_assemble_ell(
        edge.node,
        edge.weight,
        node_key=lambda node: node.nid,
        node_level=lambda node: node.level,
        node_children=lambda node: [
            (child.node, child.weight) for child in node.children
        ],
    )
    padded_values = np.zeros((values.shape[0], width), dtype=np.complex128)
    padded_cols = np.zeros((values.shape[0], width), dtype=np.int64)
    padded_values[:, : values.shape[1]] = values
    padded_cols[:, : cols.shape[1]] = cols
    return padded_values, padded_cols


#: a seeded six-family corpus at 4-10 qubits
CORPUS = [
    ("qft", 4),
    ("ghz", 5),
    ("qaoa", 6),
    ("qnn", 7),
    ("supremacy", 8),
    ("vqe_finetune", 10),
]


@pytest.mark.parametrize("family,n", CORPUS, ids=[f"{f}-{n}" for f, n in CORPUS])
def test_converter_matches_previous_recursion_and_algorithm1(family, n):
    """The simulator's conversion stage under every tau, so both routes."""
    circuit = make_circuit(family, n, seed=5)
    routes = set()
    for tau in (1, DEFAULT_TAU, 10**6):
        sim = BQSimSimulator(tau=tau)
        prepared = sim._build(circuit)
        routes.update(info["route"] for info in prepared["conv_infos"])
        gates = prepared["plan"].gates
        for fused, ell in zip(gates, sim._convert_ells(prepared), strict=True):
            ref_values, ref_cols = _reference_ell(fused.dd, fused.cost)
            np.testing.assert_array_equal(ell.values, ref_values)
            np.testing.assert_array_equal(ell.cols, ref_cols)
            assert ell.values.flags.owndata
            assert ell.cols.flags.owndata
    for fused in gates:
        ell = ell_from_dd(fused.dd, n, max_nzr=fused.cost)
        oracle = ell_from_flat_gpu(flatten_matrix_dd(fused.dd, n), fused.cost)
        np.testing.assert_array_equal(ell.cols, oracle.cols)
        np.testing.assert_allclose(ell.values, oracle.values, rtol=0, atol=1e-12)
    assert routes == {"cpu", "gpu"}


@pytest.mark.parametrize("family", ["qft", "vqe"])
def test_conversion_memory_is_bounded_by_its_output(family):
    n = 10
    plan = bqcs_fusion(DDManager(n), make_circuit(family, n))
    gc.collect()
    # with the collector off, memory held by a reference cycle shows as
    # retained instead of depending on when the collector happens to run
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ells = [
            ell_from_dd(fused.dd, n, max_nzr=fused.cost)
            for fused in plan.gates
        ]
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    output = sum(ell.nbytes for ell in ells)
    assert peak - base <= 3 * output
    assert retained - base <= output + 64 * 1024
