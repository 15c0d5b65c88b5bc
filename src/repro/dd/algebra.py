"""Extended DD algebra: adjoint, Kronecker product, trace, inner products.

These are the operations DD-based verification tools (equivalence checkers,
observable evaluation) need beyond the simulator core, implemented
structurally on the hash-consed graphs so structured operands stay compact.
"""

from __future__ import annotations

import cmath

from ..errors import DDError
from .manager import DDManager
from .node import Edge, ZERO_EDGE


def adjoint(mgr: DDManager, matrix: Edge) -> Edge:
    """Conjugate transpose of a matrix DD.

    Transposition swaps the off-diagonal children (row/col bit exchange);
    conjugation maps every weight to its conjugate.  Memoized per node.
    """
    memo: dict[int, Edge] = {}

    def rec(e: Edge) -> Edge:
        if e.weight == 0:
            return ZERO_EDGE
        if e.node is None:
            return mgr.terminal(e.weight.conjugate())
        hit = memo.get(e.node.nid)
        if hit is None:
            c = e.node.children
            hit = mgr.make_mnode(
                e.node.level, (rec(c[0]), rec(c[2]), rec(c[1]), rec(c[3]))
            )
            memo[e.node.nid] = hit
        return hit.scaled(complex(e.weight).conjugate())

    try:
        return rec(matrix)
    finally:
        del rec  # it refers to itself: free the DDs without the cycle collector


def matrix_kron(mgr_out: DDManager, upper: Edge, lower: Edge, lower_qubits: int) -> Edge:
    """Kronecker product ``upper (x) lower`` (``lower`` on the low qubits).

    ``lower`` must span exactly ``lower_qubits`` levels; the result lives in
    ``mgr_out``, whose width must cover both operands.  Structure is shared:
    the lower DD is grafted under every terminal of the upper DD.
    """
    memo: dict[int, Edge] = {}

    def rebuild(e: Edge, shift: int) -> Edge:
        """Re-create ``e`` inside mgr_out, shifted up by ``shift`` levels."""
        if e.weight == 0:
            return ZERO_EDGE
        if e.node is None:
            return mgr_out.terminal(e.weight)
        key = (e.node.nid, shift)
        hit = memo.get(key)
        if hit is None:
            hit = mgr_out.make_mnode(
                e.node.level + shift,
                tuple(rebuild(c, shift) for c in e.node.children),
            )
            memo[key] = hit
        return hit.scaled(e.weight)

    lower_rebuilt = rebuild(lower, 0)
    if lower_rebuilt.weight != 0 and lower_rebuilt.level != lower_qubits - 1:
        raise DDError("lower operand does not span lower_qubits levels")

    graft_memo: dict[int, Edge] = {}

    def graft(e: Edge) -> Edge:
        if e.weight == 0:
            return ZERO_EDGE
        if e.node is None:
            return lower_rebuilt.scaled(e.weight)
        hit = graft_memo.get(e.node.nid)
        if hit is None:
            hit = mgr_out.make_mnode(
                e.node.level + lower_qubits,
                tuple(graft(c) for c in e.node.children),
            )
            graft_memo[e.node.nid] = hit
        return hit.scaled(e.weight)

    return graft(upper)


def trace(matrix: Edge, num_qubits: int) -> complex:
    """Trace of a matrix DD (sum of diagonal path products)."""
    memo: dict[int, complex] = {}

    def rec(e: Edge, level: int) -> complex:
        if e.weight == 0:
            return 0.0
        if e.node is None:
            return complex(e.weight)
        hit = memo.get(e.node.nid)
        if hit is None:
            c = e.node.children
            hit = rec(c[0], level - 1) + rec(c[3], level - 1)
            memo[e.node.nid] = hit
        return e.weight * hit

    if matrix.weight != 0 and matrix.node is not None and (
        matrix.node.level != num_qubits - 1
    ):
        raise DDError("matrix level does not match num_qubits")
    if matrix.node is None:
        return complex(matrix.weight) * (1 << num_qubits)
    try:
        return rec(matrix, num_qubits - 1)
    finally:
        del rec  # it refers to itself: free the memo without the cycle collector


def hilbert_schmidt(mgr: DDManager, a: Edge, b: Edge) -> complex:
    """Hilbert-Schmidt inner product ``tr(a^dagger b)``."""
    return trace(mgr.mm_multiply(adjoint(mgr, a), b), mgr.num_qubits)


def process_fidelity(mgr: DDManager, a: Edge, b: Edge) -> float:
    """``|tr(a^dagger b)|^2 / 4^n`` — 1 iff equal up to global phase (for
    unitaries)."""
    dim = 1 << mgr.num_qubits
    return abs(hilbert_schmidt(mgr, a, b)) ** 2 / (dim * dim)


def vector_inner(a: Edge, b: Edge) -> complex:
    """Inner product ``<a|b>`` of two vector DDs (levels aligned)."""
    memo: dict[tuple[int, int], complex] = {}

    def rec(x: Edge, y: Edge) -> complex:
        if x.weight == 0 or y.weight == 0:
            return 0.0
        if x.node is None and y.node is None:
            return complex(x.weight).conjugate() * y.weight
        if x.node is None or y.node is None or x.node.level != y.node.level:
            raise DDError("misaligned operands in vector inner product")
        key = (x.node.nid, y.node.nid)
        hit = memo.get(key)
        if hit is None:
            hit = sum(
                rec(cx, cy) for cx, cy in zip(x.node.children, y.node.children)
            )
            memo[key] = hit
        return complex(x.weight).conjugate() * y.weight * hit

    return rec(a, b)


def expectation(mgr: DDManager, matrix: Edge, state: Edge) -> complex:
    """``<state| matrix |state>`` evaluated entirely on DDs."""
    return vector_inner(state, mgr.mv_multiply(matrix, state))
