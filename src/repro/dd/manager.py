"""The :class:`DDManager`: unique tables, normalization, and the native DD
operations the paper builds on (DDAdd, DDMultiply, DDConcatenate).

All node construction goes through :meth:`DDManager.make_mnode` /
:meth:`make_vnode`, which normalize child weights (dividing by the
maximum-magnitude child weight, the first of equals) and hash-cons through
unique tables, so structurally equal sub-matrices share one node — the
property that makes DD-based gate fusion and the NZRV algorithm cheap.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..errors import DDError
from .node import Edge, MNode, ONE_EDGE, VNode, WEIGHT_TOL, ZERO_EDGE, weight_key


_TOL = WEIGHT_TOL
_ONE_LO, _ONE_HI = 1.0 - WEIGHT_TOL, 1.0 + WEIGHT_TOL


def _snap(x: float) -> float:
    """Snap a real within tolerance of 0 / +1 / -1 to the exact value."""
    if x > 0.0:
        if x < _TOL:
            return 0.0
        if _ONE_LO < x < _ONE_HI:
            return 1.0
        return x
    if x > -_TOL:
        return 0.0
    if -_ONE_HI < x < -_ONE_LO:
        return -1.0
    return x


def _canon_weight(w: complex) -> complex:
    """Snap weights within tolerance of 0 / +-1 / +-i to the exact value."""
    r = _snap(w.real)
    i = _snap(w.imag)
    if r == w.real and i == w.imag:
        return w
    return complex(r, i)


class DDManager:
    """Owns every node of a DD universe plus the operation caches.

    One manager corresponds to one qubit count; mixing edges from different
    managers is a :class:`DDError`.
    """

    def __init__(self, num_qubits: int):
        if num_qubits <= 0:
            raise DDError("DDManager needs at least one qubit")
        self.num_qubits = num_qubits
        self._unique_m: dict[tuple, MNode] = {}
        self._unique_v: dict[tuple, VNode] = {}
        self._next_id = 0
        self._cache_mm: dict[tuple, Edge] = {}
        self._cache_mv: dict[tuple, Edge] = {}
        self._cache_madd: dict[tuple, Edge] = {}
        self._cache_vadd: dict[tuple, Edge] = {}
        self._identity_cache: dict[int, Edge] = {}
        # rounded hash key of each weight value _make has stored
        self._weight_keys: dict[complex, tuple[float, float]] = {}
        # analysis caches keyed by node id (nodes are hash-consed and live as
        # long as the manager, so nid keys are stable)
        self._cache_nzrv: dict[int, Edge] = {}
        self._cache_vmax: dict[int, float] = {}
        self._cache_vmoments: dict[int, tuple[float, float]] = {}

    # -- construction --------------------------------------------------------

    def make_mnode(self, level: int, children: Sequence[Edge]) -> Edge:
        """Normalized, hash-consed matrix node; returns the entering edge."""
        return self._make(level, tuple(children), self._unique_m, MNode)

    def make_vnode(self, level: int, children: Sequence[Edge]) -> Edge:
        """Normalized, hash-consed vector node; returns the entering edge."""
        return self._make(level, tuple(children), self._unique_v, VNode)

    def _make(self, level, children, table, node_cls) -> Edge:
        if not 0 <= level < self.num_qubits:
            raise DDError(f"level {level} out of range for n={self.num_qubits}")
        cleaned = []
        norm = None
        norm_mag = 0.0
        for child in children:
            w = child.weight
            # 0 and 1 are their own canonical form: skip the snapping
            if w != 0 and w != 1:
                w = _canon_weight(w)
            if w == 0:
                cleaned.append(ZERO_EDGE)
                continue
            if child.node is not None and child.node.level != level - 1:
                raise DDError(
                    f"child at level {child.node.level} under node at {level}"
                )
            cleaned.append(child if w is child.weight else Edge(child.node, w))
            # normalize by the maximum-magnitude child (first wins ties) so
            # every stored weight has |w| <= 1 and the absolute weight
            # tolerance stays numerically safe
            mag = abs(w)
            if mag > norm_mag * (1.0 + WEIGHT_TOL):
                norm, norm_mag = w, mag
        if norm is None:
            return ZERO_EDGE
        normalized = []
        key = [level]
        weight_keys = self._weight_keys
        for child in cleaned:
            w = child.weight
            if w != 0:
                if w != norm:
                    w = _canon_weight(w / norm)
                else:
                    w = 1.0 + 0j
                child = Edge(child.node, w)
            normalized.append(child)
            # the rounded hash key is a function of the weight's value, so
            # one rounding serves every node that stores that weight
            wkey = weight_keys.get(w)
            if wkey is None:
                wkey = weight_keys[w] = weight_key(w)
            key.append(id(child.node))
            key.append(wkey)
        key = tuple(key)
        node = table.get(key)
        if node is None:
            node = node_cls(level, tuple(normalized), self._next_id)
            self._next_id += 1
            table[key] = node
        return Edge(node, norm)

    def terminal(self, weight: complex) -> Edge:
        w = _canon_weight(complex(weight))
        return ZERO_EDGE if w == 0 else Edge(None, w)

    @property
    def num_nodes(self) -> int:
        """Total unique nodes created (matrix + vector)."""
        return len(self._unique_m) + len(self._unique_v)

    def clear_caches(self) -> None:
        for cache in (
            self._cache_mm,
            self._cache_mv,
            self._cache_madd,
            self._cache_vadd,
            self._cache_nzrv,
            self._cache_vmax,
            self._cache_vmoments,
        ):
            cache.clear()

    # -- identity ------------------------------------------------------------

    def identity(self, up_to_level: int | None = None) -> Edge:
        """Matrix DD of the identity over levels ``0 .. up_to_level``."""
        top = self.num_qubits - 1 if up_to_level is None else up_to_level
        if top < -1:
            raise DDError("identity level below terminal")
        if top == -1:
            return ONE_EDGE
        if top not in self._identity_cache:
            below = self.identity(top - 1)
            self._identity_cache[top] = self.make_mnode(
                top, (below, ZERO_EDGE, ZERO_EDGE, below)
            )
        return self._identity_cache[top]

    # -- DDAdd ---------------------------------------------------------------

    def m_add(self, e1: Edge, e2: Edge) -> Edge:
        """Matrix DD addition."""
        return self._add(e1, e2, self._cache_madd, self.make_mnode, self.m_add, 4)

    def v_add(self, e1: Edge, e2: Edge) -> Edge:
        """Vector DD addition (the paper's DDAdd on NZRVs)."""
        return self._add(e1, e2, self._cache_vadd, self.make_vnode, self.v_add, 2)

    def _add(self, e1, e2, cache, make, recurse, fanout) -> Edge:
        if e1.weight == 0:
            return e2
        if e2.weight == 0:
            return e1
        if e1.node is None and e2.node is None:
            return self.terminal(e1.weight + e2.weight)
        if e1.node is None or e2.node is None or e1.node.level != e2.node.level:
            raise DDError("misaligned operands in DD addition")
        # factor the weights out so the cache key only involves one ratio
        ratio = e2.weight / e1.weight
        key = (e1.node.nid, e2.node.nid, weight_key(ratio))
        hit = cache.get(key)
        if hit is None:
            children = tuple(
                recurse(c1, c2.scaled(ratio))
                for c1, c2 in zip(e1.node.children, e2.node.children)
            )
            hit = make(e1.node.level, children)
            cache[key] = hit
        return hit.scaled(e1.weight)

    # -- DDMultiply ----------------------------------------------------------

    def mm_multiply(self, e1: Edge, e2: Edge) -> Edge:
        """Matrix-matrix DD multiplication (``e1 @ e2``)."""
        if e1.weight == 0 or e2.weight == 0:
            return ZERO_EDGE
        if e1.node is None and e2.node is None:
            return self.terminal(e1.weight * e2.weight)
        if e1.node is None or e2.node is None or e1.node.level != e2.node.level:
            raise DDError("misaligned operands in matrix multiplication")
        key = (e1.node.nid, e2.node.nid)
        hit = self._cache_mm.get(key)
        if hit is None:
            a, b = e1.node.children, e2.node.children
            children = []
            for i in (0, 2):
                for j in (0, 1):
                    # a[i] @ b[j] + a[i + 1] @ b[2 + j]; a zero factor or
                    # term costs no call (either call would return at once)
                    child = ZERO_EDGE
                    for x, y in ((a[i], b[j]), (a[i + 1], b[2 + j])):
                        if x.weight == 0 or y.weight == 0:
                            continue
                        term = self.mm_multiply(x, y)
                        if child.weight == 0:
                            child = term
                        elif term.weight != 0:
                            child = self.m_add(child, term)
                    children.append(child)
            hit = self.make_mnode(e1.node.level, children)
            self._cache_mm[key] = hit
        return hit.scaled(e1.weight * e2.weight)

    def mv_multiply(self, m: Edge, v: Edge) -> Edge:
        """Matrix-vector DD multiplication (``m @ v``)."""
        if m.weight == 0 or v.weight == 0:
            return ZERO_EDGE
        if m.node is None and v.node is None:
            return self.terminal(m.weight * v.weight)
        if m.node is None or v.node is None or m.node.level != v.node.level:
            raise DDError("misaligned operands in matrix-vector multiplication")
        key = (m.node.nid, v.node.nid)
        hit = self._cache_mv.get(key)
        if hit is None:
            a, x = m.node.children, v.node.children
            children = tuple(
                self.v_add(
                    self.mv_multiply(a[i * 2 + 0], x[0]),
                    self.mv_multiply(a[i * 2 + 1], x[1]),
                )
                for i in (0, 1)
            )
            hit = self.make_vnode(m.node.level, children)
            self._cache_mv[key] = hit
        return hit.scaled(m.weight * v.weight)

    # -- DDConcatenate -------------------------------------------------------

    def v_concatenate(self, top: Edge, bottom: Edge, level: int) -> Edge:
        """Stack two vector DDs of size ``2^level`` into one of ``2^(level+1)``.

        This is the paper's native ``DDConcatenate`` used by the NZRV
        algorithm (Figure 3).
        """
        return self.make_vnode(level, (top, bottom))
