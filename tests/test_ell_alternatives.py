"""Tests for the CSR/COO alternatives and the format ablation."""

import numpy as np
import pytest

from repro.circuit.generators import random_circuit, supremacy, vqe
from repro.dd import DDManager, circuit_matrix_dd, matrix_to_dense
from repro.ell import (
    coo_from_ell,
    coo_spmm,
    csr_from_ell,
    csr_spmm,
    ell_from_dd,
)
from repro.ell.alternatives import (
    COOMatrix,
    CSRMatrix,
    coo_kernel_time,
    csr_kernel_time,
    ell_kernel_time,
)
from repro.errors import ConversionError, SimulationError
from repro.gpu.spec import GpuSpec


@pytest.fixture
def gate_ell(mgr4):
    circuit = random_circuit(4, 15, seed=21)
    edge = circuit_matrix_dd(mgr4, circuit.gates)
    return edge, ell_from_dd(edge, 4)


def test_csr_roundtrip(gate_ell):
    edge, ell = gate_ell
    csr = csr_from_ell(ell)
    assert np.allclose(csr.to_dense(), matrix_to_dense(edge, 4), atol=1e-10)
    assert csr.nnz == int((ell.values != 0).sum())
    assert csr.nbytes > 0


def test_coo_roundtrip(gate_ell):
    edge, ell = gate_ell
    coo = coo_from_ell(ell)
    assert np.allclose(coo.to_dense(), matrix_to_dense(edge, 4), atol=1e-10)
    assert coo.nnz == int((ell.values != 0).sum())


def test_all_spmm_kernels_agree(gate_ell, rng):
    edge, ell = gate_ell
    states = rng.standard_normal((16, 5)) + 1j * rng.standard_normal((16, 5))
    dense = matrix_to_dense(edge, 4) @ states
    from repro.ell import ell_spmm

    assert np.allclose(ell_spmm(ell, states), dense, atol=1e-9)
    assert np.allclose(csr_spmm(csr_from_ell(ell), states), dense, atol=1e-9)
    assert np.allclose(coo_spmm(coo_from_ell(ell), states), dense, atol=1e-9)


def test_csr_validation():
    with pytest.raises(ConversionError, match="indptr"):
        CSRMatrix(2, np.zeros(3, dtype=np.int64), np.zeros(1, dtype=np.int64),
                  np.zeros(1, dtype=np.complex128))


def test_coo_validation():
    with pytest.raises(ConversionError, match="equal length"):
        COOMatrix(1, np.zeros(2, dtype=np.int64), np.zeros(3, dtype=np.int64),
                  np.zeros(2, dtype=np.complex128))


def test_spmm_dimension_checks(gate_ell):
    _, ell = gate_ell
    with pytest.raises(SimulationError):
        csr_spmm(csr_from_ell(ell), np.zeros((8, 2), dtype=complex))
    with pytest.raises(SimulationError):
        coo_spmm(coo_from_ell(ell), np.zeros((8, 2), dtype=complex))


def test_uniform_rows_make_csr_equal_ell():
    """With CV(NZR) = 0 the CSR imbalance penalty vanishes (the paper's
    argument for ELL is that it never loses on quantum gate matrices)."""
    spec = GpuSpec()
    uniform = np.full(1 << 10, 2, dtype=np.int64)
    t_csr = csr_kernel_time(spec, 10, 64, uniform)
    t_ell = ell_kernel_time(spec, 10, 64, 2)
    assert t_csr == pytest.approx(t_ell, rel=0.05)


def test_skewed_rows_penalize_csr():
    spec = GpuSpec()
    skewed = np.ones(1 << 10, dtype=np.int64)
    skewed[0] = 8
    assert csr_kernel_time(spec, 10, 64, skewed) > ell_kernel_time(spec, 10, 64, 1)


def test_coo_always_slower_than_ell(gate_ell):
    _, ell = gate_ell
    spec = GpuSpec()
    coo = coo_from_ell(ell)
    assert coo_kernel_time(spec, 4, 64, coo.nnz) > 0


def test_format_ablation_experiment():
    from repro.bench.experiments import ablation_formats

    rows = ablation_formats.run("small", batch_size=64)
    for row in rows:
        # ELL never loses; COO's atomic scatters always lose
        assert row["csr_vs_ell"] >= 1.0 - 1e-9
        assert row["coo_vs_ell"] > 1.0
    # the supremacy circuit's non-uniform rows penalize CSR specifically
    by_family = {r["family"]: r for r in rows}
    assert by_family["supremacy"]["csr_vs_ell"] > by_family["vqe"]["csr_vs_ell"]
