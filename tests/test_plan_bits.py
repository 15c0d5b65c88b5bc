"""Plan bits pinned against the DD code that predates the cold-compile
speed-ups (the lift memo, the identity chain under a gate, the cost-1 rule
and the zero-free ``_make``/``mm_multiply``).

``ReferenceManager._make`` and ``ReferenceManager.mm_multiply``,
``reference_gate_matrix_dd`` and the NZRV-costed ``reference_lift`` and
``reference_fuse`` are the earlier bodies, verbatim.  A plan compiled with
them must equal the current one bit for bit: every fused gate's cost, nnz,
source indices and node count, the conversion analysis, the fidelity
ledger and the ELL bytes.
"""

from __future__ import annotations

import pytest

import repro.fusion.bqcs as bqcs
import repro.fusion.greedy as greedy
import repro.sim.bqsim as bqsim
from repro.circuit import Circuit
from repro.circuit.gates import Gate
from repro.circuit.generators import make_circuit
from repro.circuit.generators.families import FAMILIES
from repro.dd.export import count_nodes
from repro.dd.manager import DDManager, _canon_weight
from repro.dd.node import WEIGHT_TOL, ZERO_EDGE, Edge
from repro.dd.nzrv import max_nzr
from repro.errors import DDError, FusionError
from repro.fusion.cost import bqcs_cost, total_nonzeros
from repro.fusion.plan import FusedGate
from repro.sim import BQSimSimulator

WIDTHS = (4, 6)
BUDGETS = (1.0, 0.99)


class ReferenceManager(DDManager):
    """A manager whose ``_make`` and ``mm_multiply`` are the earlier ones."""

    def _make(self, level, children, table, node_cls) -> Edge:
        if not 0 <= level < self.num_qubits:
            raise DDError(f"level {level} out of range for n={self.num_qubits}")
        cleaned = []
        norm = None
        norm_mag = 0.0
        for child in children:
            w = _canon_weight(child.weight)
            if w == 0:
                cleaned.append(ZERO_EDGE)
                continue
            if child.node is not None and child.node.level != level - 1:
                raise DDError(
                    f"child at level {child.node.level} under node at {level}"
                )
            cleaned.append(Edge(child.node, w))
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
        for child in cleaned:
            w = child.weight
            if w != 0:
                if w != norm:
                    w = _canon_weight(w / norm)
                else:
                    w = 1.0 + 0j
                child = Edge(child.node, w)
            normalized.append(child)
            key.append(id(child.node))
            key.append(round(w.real, 10) + 0.0)
            key.append(round(w.imag, 10) + 0.0)
        key = tuple(key)
        node = table.get(key)
        if node is None:
            node = node_cls(level, tuple(normalized), self._next_id)
            self._next_id += 1
            table[key] = node
        return Edge(node, norm)

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
            for i in (0, 1):
                for j in (0, 1):
                    children.append(
                        self.m_add(
                            self.mm_multiply(a[i * 2 + 0], b[0 * 2 + j]),
                            self.mm_multiply(a[i * 2 + 1], b[1 * 2 + j]),
                        )
                    )
            hit = self.make_mnode(e1.node.level, children)
            self._cache_mm[key] = hit
        return hit.scaled(e1.weight * e2.weight)


def reference_gate_matrix_dd(mgr: DDManager, gate: Gate) -> Edge:
    """Matrix DD of ``gate`` embedded in ``mgr.num_qubits`` qubits."""
    n = mgr.num_qubits
    if max(gate.all_qubits) >= n:
        raise DDError(f"gate {gate} does not fit in {n} qubits")
    base = gate.matrix()
    target_pos = {q: i for i, q in enumerate(gate.qubits)}
    controls = frozenset(gate.controls)
    memo: dict[tuple[int, int, int, bool], Edge] = {}

    def rec(level: int, grow: int, gcol: int, ctrl_ok: bool) -> Edge:
        if level < 0:
            if ctrl_ok:
                return mgr.terminal(base[grow, gcol])
            return mgr.terminal(1.0 if grow == gcol else 0.0)
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

    return rec(n - 1, 0, 0, True)


def reference_lift(mgr: DDManager, circuit: Circuit) -> list[FusedGate]:
    """Wrap every circuit gate as a single-gate :class:`FusedGate`."""
    items = []
    for index, gate in enumerate(circuit.gates):
        dd = reference_gate_matrix_dd(mgr, gate)
        items.append(
            FusedGate(
                dd=dd,
                cost=bqcs_cost(mgr, dd),
                gate_indices=(index,),
                nnz=total_nonzeros(mgr, dd),
            )
        )
    return items


def reference_fuse(mgr: DDManager, first: FusedGate, second: FusedGate) -> FusedGate:
    """Fuse two adjacent fused gates (``second`` applied after ``first``)."""
    dd = mgr.mm_multiply(second.dd, first.dd)
    if dd.weight == 0:
        raise FusionError("fused gate collapsed to the zero matrix")
    return FusedGate(
        dd=dd,
        cost=bqcs_cost(mgr, dd),
        gate_indices=first.gate_indices + second.gate_indices,
        nnz=total_nonzeros(mgr, dd),
    )


def use_reference_code(patch: pytest.MonkeyPatch) -> None:
    patch.setattr(bqsim, "DDManager", ReferenceManager)
    for module in (bqcs, greedy):
        patch.setattr(module, "_lift", reference_lift)
        patch.setattr(module, "_fuse", reference_fuse)


def compiled_bits(circuit: Circuit, budget: float) -> dict:
    """Every bit of a fresh BQSim compile that a plan archive or a run keeps."""
    sim = BQSimSimulator(fidelity=budget)
    prepared = sim._build(circuit)
    ells = sim._convert_ells(prepared)
    gates = prepared["plan"].gates
    return {
        "gates": [
            (g.cost, g.nnz, g.gate_indices, count_nodes(g.dd), repr(g.dd.weight))
            for g in gates
        ],
        "fused_nodes": prepared["fused_nodes"],
        "conv_infos": prepared["conv_infos"],
        "approx": prepared["approx"],
        "ells": [(e.values.tobytes(), e.cols.tobytes()) for e in ells],
    }


def flatdd_bits(circuit: Circuit, manager: type[DDManager]) -> list[tuple]:
    plan = greedy.flatdd_fusion(manager(circuit.num_qubits), circuit)
    return [(g.cost, g.nnz, g.gate_indices, count_nodes(g.dd)) for g in plan.gates]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_plan_bits_match_the_reference_code(family, monkeypatch):
    for n in WIDTHS:
        circuit = make_circuit(family, n, seed=n)
        current = [compiled_bits(circuit, budget) for budget in BUDGETS]
        current_flatdd = flatdd_bits(circuit, DDManager)
        with monkeypatch.context() as patch:
            use_reference_code(patch)
            reference = [compiled_bits(circuit, budget) for budget in BUDGETS]
            reference_flatdd = flatdd_bits(circuit, ReferenceManager)
        assert current == reference, (family, n)
        assert current_flatdd == reference_flatdd, (family, n)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_cost_one_rule_agrees_with_nzrv(family, monkeypatch):
    """Every product with a cost-1 factor keeps the other factor's cost and
    nnz, exactly as an NZRV walk of the product counts them."""
    fuse = bqcs._fuse
    checked = []

    def checked_fuse(mgr, first, second):
        fused = fuse(mgr, first, second)
        if first.cost == 1 or second.cost == 1:
            assert fused.cost == max_nzr(mgr, fused.dd)
            assert fused.nnz == total_nonzeros(mgr, fused.dd)
            checked.append(fused.gate_indices)
        return fused

    for module in (bqcs, greedy):
        monkeypatch.setattr(module, "_fuse", checked_fuse)
    for n in WIDTHS:
        circuit = make_circuit(family, n, seed=n)
        bqcs.bqcs_fusion(DDManager(n), circuit)
        greedy.flatdd_fusion(DDManager(n), circuit)
    assert checked
