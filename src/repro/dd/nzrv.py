"""NZR vectors (Figure 3 of the paper) and the BQCS cost of a gate matrix.

The NZRV of a matrix DD is a *vector DD* whose entry at row ``r`` is the
number of non-zero elements in that row.  It is computed with the paper's
recurrence over the node map ``T``::

    T[node] = DDConcatenate(DDAdd(T[c00], T[c01]), DDAdd(T[c10], T[c11]))

(for terminals, a count of 1).  The BQCS cost of a gate is the maximum entry
of its NZRV — the number of multiply-accumulate operations per state
amplitude when the gate runs as an ELL spMM.
"""

from __future__ import annotations

import math

from ..errors import DDError
from ..obs import get_metrics
from .manager import DDManager
from .node import Edge, MNode, VNode, ZERO_EDGE


def nzr_vector(mgr: DDManager, matrix: Edge) -> Edge:
    """Vector DD holding the per-row non-zero counts of ``matrix``.

    Results are cached on the manager per matrix node: fusion evaluates the
    cost of many overlapping candidate products, and hash-consing makes
    their shared sub-matrices hit this cache.
    """
    cache = mgr._cache_nzrv

    def rec(e: Edge) -> Edge:
        if e.weight == 0:
            return ZERO_EDGE
        if e.node is None:
            return mgr.terminal(1.0)
        hit = cache.get(e.node.nid)
        if hit is None:
            c = e.node.children
            top = mgr.v_add(rec(c[0]), rec(c[1]))
            bottom = mgr.v_add(rec(c[2]), rec(c[3]))
            hit = mgr.v_concatenate(top, bottom, e.node.level)
            cache[e.node.nid] = hit
        return hit

    try:
        return rec(matrix)
    finally:
        del rec  # it refers to itself: free the DDs without the cycle collector


def vector_max(edge: Edge, mgr: DDManager | None = None) -> float:
    """Maximum entry of a non-negative-real vector DD (DFS max-product)."""
    if edge.weight == 0:
        return 0.0
    memo = mgr._cache_vmax if mgr is not None else {}

    def rec(node: VNode | None) -> float:
        if node is None:
            return 1.0
        hit = memo.get(node.nid)
        if hit is None:
            hit = max(
                (abs(child.weight) * rec(child.node))
                for child in node.children
                if child.weight != 0
            )
            memo[node.nid] = hit
        return hit

    try:
        return abs(edge.weight) * rec(edge.node)
    finally:
        del rec  # it refers to itself: free the memo without the cycle collector


def vector_moments(
    edge: Edge, num_qubits: int, mgr: DDManager | None = None
) -> tuple[float, float]:
    """(sum, sum of squares) over all ``2^n`` entries of a real vector DD."""
    if edge.weight == 0:
        return (0.0, 0.0)
    memo = mgr._cache_vmoments if mgr is not None else {}

    def rec(node: VNode | None) -> tuple[float, float]:
        if node is None:
            return (1.0, 1.0)
        hit = memo.get(node.nid)
        if hit is None:
            s = s2 = 0.0
            for child in node.children:
                if child.weight == 0:
                    continue
                cs, cs2 = rec(child.node)
                w = abs(child.weight)
                s += w * cs
                s2 += w * w * cs2
            hit = (s, s2)
            memo[node.nid] = hit
        return hit

    try:
        s, s2 = rec(edge.node)
    finally:
        del rec  # it refers to itself: free the memo without the cycle collector
    w = abs(edge.weight)
    return (w * s, w * w * s2)


def max_nzr(mgr: DDManager, matrix: Edge) -> int:
    """BQCS cost of a DD gate matrix: its maximum non-zeros per row."""
    value = int(round(vector_max(nzr_vector(mgr, matrix), mgr)))
    get_metrics().observe("nzrv.max_nzr", value)
    return value


def nzr_statistics(mgr: DDManager, matrix: Edge) -> dict[str, float]:
    """Mean, standard deviation, max, and coefficient of variation of the
    NZR distribution across all rows (the Table 1 quantity)."""
    nzrv = nzr_vector(mgr, matrix)
    rows = 1 << mgr.num_qubits
    total, total_sq = vector_moments(nzrv, mgr.num_qubits, mgr)
    mean = total / rows
    variance = max(total_sq / rows - mean * mean, 0.0)
    std = math.sqrt(variance)
    return {
        "mean": mean,
        "std": std,
        "max": vector_max(nzrv, mgr),
        "cv": (std / mean) if mean > 0 else 0.0,
    }


def is_diagonal_dd(matrix: Edge) -> bool:
    """True if the DD matrix has non-zeros only on the diagonal."""
    memo: dict[int, bool] = {}

    def rec(e: Edge) -> bool:
        if e.weight == 0:
            return True
        if e.node is None:
            return True
        hit = memo.get(e.node.nid)
        if hit is None:
            c = e.node.children
            hit = c[1].weight == 0 and c[2].weight == 0 and rec(c[0]) and rec(c[3])
            memo[e.node.nid] = hit
        return hit

    return rec(matrix)


def is_permutation_like(mgr: DDManager, matrix: Edge) -> bool:
    """True if every row has at most one non-zero (covers diagonal and
    permutation matrices — the paper's cost-1 gate class)."""
    return max_nzr(mgr, matrix) <= 1
