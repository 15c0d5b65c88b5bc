"""Constructing DDs for gates, circuits, and state vectors.

Gate-matrix DDs are built structurally (never via dense ``2^n`` matrices):
a memoized recursion walks qubit levels from the most significant down,
choosing a (row bit, col bit) pair per level.  Control qubits contribute
Kronecker-delta structure; once a control bit is 0 the remaining targets
collapse to identity — exactly the semantics of Equation 3 in the paper.
"""

from __future__ import annotations

import numpy as np

from ..circuit.gates import Gate
from ..errors import DDError
from .manager import DDManager
from .node import Edge, ZERO_EDGE


def gate_matrix_dd(mgr: DDManager, gate: Gate) -> Edge:
    """Matrix DD of ``gate`` embedded in ``mgr.num_qubits`` qubits."""
    n = mgr.num_qubits
    if max(gate.all_qubits) >= n:
        raise DDError(f"gate {gate} does not fit in {n} qubits")
    base = gate.matrix()
    target_pos = {q: i for i, q in enumerate(gate.qubits)}
    controls = frozenset(gate.controls)
    lowest = min(gate.all_qubits)
    memo: dict[tuple[int, int, int, bool], Edge] = {}

    def rec(level: int, grow: int, gcol: int, ctrl_ok: bool) -> Edge:
        if level < lowest:
            # below the gate the (row, col) entry is fixed, so the DD there
            # is the identity chain weighted by that entry
            leaf = mgr.terminal(
                base[grow, gcol] if ctrl_ok else (1.0 if grow == gcol else 0.0)
            )
            if level < 0 or leaf.weight == 0:
                return leaf
            return Edge(mgr.identity(level).node, leaf.weight)
        key = (level, grow, gcol, ctrl_ok)
        hit = memo.get(key)
        if hit is not None:
            return hit
        children = []
        for r in (0, 1):
            for c in (0, 1):
                if level in target_pos:
                    i = target_pos[level]
                    children.append(
                        rec(level - 1, grow | (r << i), gcol | (c << i), ctrl_ok)
                    )
                elif level in controls:
                    if r != c:
                        children.append(ZERO_EDGE)
                    else:
                        children.append(rec(level - 1, grow, gcol, ctrl_ok and r == 1))
                else:
                    children.append(
                        rec(level - 1, grow, gcol, ctrl_ok) if r == c else ZERO_EDGE
                    )
        result = mgr.make_mnode(level, children)
        memo[key] = result
        return result

    try:
        return rec(n - 1, 0, 0, True)
    finally:
        del rec  # it refers to itself: free the DDs without the cycle collector


def circuit_matrix_dd(mgr: DDManager, gates) -> Edge:
    """DD of the product ``M_{L-1} ... M_0`` over an iterable of gates."""
    result = mgr.identity()
    for gate in gates:
        result = mgr.mm_multiply(gate_matrix_dd(mgr, gate), result)
    return result


def vector_dd_from_dense(mgr: DDManager, state: np.ndarray) -> Edge:
    """Vector DD of a dense state (length ``2^n``)."""
    n = mgr.num_qubits
    state = np.asarray(state, dtype=np.complex128).reshape(-1)
    if state.shape[0] != (1 << n):
        raise DDError(f"state length {state.shape[0]} != 2^{n}")

    def rec(level: int, offset: int) -> Edge:
        if level < 0:
            return mgr.terminal(state[offset])
        half = 1 << level
        return mgr.make_vnode(
            level, (rec(level - 1, offset), rec(level - 1, offset + half))
        )

    return rec(n - 1, 0)


def basis_vector_dd(mgr: DDManager, index: int) -> Edge:
    """Vector DD of the computational-basis state ``|index>``."""
    n = mgr.num_qubits
    if not 0 <= index < (1 << n):
        raise DDError(f"basis index {index} out of range")
    edge = mgr.terminal(1.0)
    for level in range(n):
        if (index >> level) & 1:
            edge = mgr.make_vnode(level, (ZERO_EDGE, edge))
        else:
            edge = mgr.make_vnode(level, (edge, ZERO_EDGE))
    return edge


def matrix_dd_from_dense(mgr: DDManager, matrix: np.ndarray) -> Edge:
    """Matrix DD of a dense ``2^n x 2^n`` array (tests / small inputs)."""
    n = mgr.num_qubits
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.shape != (1 << n, 1 << n):
        raise DDError(f"matrix shape {matrix.shape} != (2^{n}, 2^{n})")

    def rec(level: int, row: int, col: int) -> Edge:
        if level < 0:
            return mgr.terminal(matrix[row, col])
        half = 1 << level
        children = [
            rec(level - 1, row + r * half, col + c * half)
            for r in (0, 1)
            for c in (0, 1)
        ]
        return mgr.make_mnode(level, children)

    return rec(n - 1, 0, 0)
