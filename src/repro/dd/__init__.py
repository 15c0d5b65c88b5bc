"""QMDD-style decision diagrams: construction, arithmetic, NZRV, flat layout."""

from .algebra import (
    adjoint,
    expectation,
    hilbert_schmidt,
    matrix_kron,
    process_fidelity,
    trace,
    vector_inner,
)
from .build import (
    basis_vector_dd,
    circuit_matrix_dd,
    gate_matrix_dd,
    matrix_dd_from_dense,
    vector_dd_from_dense,
)
from .export import (
    count_edges,
    count_nodes,
    iter_matrix_entries,
    matrix_to_dense,
    reachable_nodes,
    vector_to_dense,
)
from .flat import FlatDD, flat_entry, flatten_matrix_dd
from .manager import DDManager
from .node import Edge, MNode, ONE_EDGE, VNode, ZERO_EDGE
from .nzrv import (
    is_diagonal_dd,
    is_permutation_like,
    max_nzr,
    nzr_statistics,
    nzr_vector,
    vector_max,
    vector_moments,
)

__all__ = [
    "adjoint",
    "basis_vector_dd",
    "circuit_matrix_dd",
    "count_edges",
    "count_nodes",
    "DDManager",
    "Edge",
    "expectation",
    "flat_entry",
    "FlatDD",
    "flatten_matrix_dd",
    "gate_matrix_dd",
    "hilbert_schmidt",
    "is_diagonal_dd",
    "is_permutation_like",
    "iter_matrix_entries",
    "matrix_dd_from_dense",
    "matrix_kron",
    "matrix_to_dense",
    "max_nzr",
    "MNode",
    "nzr_statistics",
    "nzr_vector",
    "ONE_EDGE",
    "process_fidelity",
    "reachable_nodes",
    "trace",
    "vector_dd_from_dense",
    "vector_inner",
    "vector_max",
    "vector_moments",
    "vector_to_dense",
    "VNode",
    "ZERO_EDGE",
]
