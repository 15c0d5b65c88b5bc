"""BQCS-aware gate fusion (Section 3.1.2, Figure 4).

Three steps over the circuit's DD gate list:

1. fuse *runs* of consecutive cost-1 (diagonal/permutation) gates — the
   fused gate stays cost 1;
2. fuse *pairs* of consecutive cost-2 gates — the fused gate costs at most
   4 = 2 + 2 but halves the memory loads/stores;
3. FlatDD-style greedy fusion: walk left to right with an accumulator and
   fuse the next gate whenever the fused BQCS cost does not exceed the sum
   of the parts.

Fused gates preserve circuit order: fusing ``a`` then ``b`` (b applied
after a) multiplies ``dd(b) @ dd(a)``.
"""

from __future__ import annotations

from ..circuit.circuit import Circuit
from ..dd.build import gate_matrix_dd
from ..dd.manager import DDManager
from ..errors import FusionError
from ..obs import get_metrics, get_tracer
from .cost import bqcs_cost, total_nonzeros
from .plan import FusedGate, FusionPlan


def _lift(mgr: DDManager, circuit: Circuit) -> list[FusedGate]:
    """Wrap every circuit gate as a single-gate :class:`FusedGate`.

    A gate that repeats an earlier one (same targets, controls and base
    matrix bytes) reuses its DD, cost and nnz: lifting it again would
    rebuild the same hash-consed nodes and hit the same NZRV caches."""
    lifted: dict[tuple, tuple] = {}
    items = []
    for index, gate in enumerate(circuit.gates):
        key = (gate.qubits, gate.controls, gate.matrix().tobytes())
        hit = lifted.get(key)
        if hit is None:
            dd = gate_matrix_dd(mgr, gate)
            hit = lifted[key] = (dd, bqcs_cost(mgr, dd), total_nonzeros(mgr, dd))
        dd, cost, nnz = hit
        items.append(FusedGate(dd=dd, cost=cost, gate_indices=(index,), nnz=nnz))
    return items


def _fuse(mgr: DDManager, first: FusedGate, second: FusedGate) -> FusedGate:
    """Fuse two adjacent fused gates (``second`` applied after ``first``).

    Every gate is unitary, so a cost-1 gate has one entry per row and per
    column: multiplying by it, on either side, permutes the other factor's
    rows or columns and scales entries by unit phases.  The product then
    keeps the other factor's cost and nnz, and needs no NZRV walk (were
    DD snapping ever to zero an entry, the cost could only be over-reported,
    which pads an ELL slot with a zero and stays exact)."""
    dd = mgr.mm_multiply(second.dd, first.dd)
    if dd.weight == 0:
        raise FusionError("fused gate collapsed to the zero matrix")
    if first.cost == 1 or second.cost == 1:
        other = second if first.cost == 1 else first
        cost, nnz = other.cost, other.nnz
    else:
        cost, nnz = bqcs_cost(mgr, dd), total_nonzeros(mgr, dd)
    return FusedGate(
        dd=dd,
        cost=cost,
        gate_indices=first.gate_indices + second.gate_indices,
        nnz=nnz,
    )


def _fuse_cost_one_runs(mgr: DDManager, items: list[FusedGate]) -> list[FusedGate]:
    """Step 1: collapse maximal runs of cost-1 gates into one cost-1 gate."""
    out: list[FusedGate] = []
    for item in items:
        if out and out[-1].cost == 1 and item.cost == 1:
            get_metrics().inc("fusion.cost1_fused")
            out[-1] = _fuse(mgr, out[-1], item)
        else:
            out.append(item)
    return out


def _fuse_cost_two_pairs(mgr: DDManager, items: list[FusedGate]) -> list[FusedGate]:
    """Step 2: fuse consecutive pairs of cost-2 gates."""
    out: list[FusedGate] = []
    i = 0
    while i < len(items):
        if (
            i + 1 < len(items)
            and items[i].cost == 2
            and items[i + 1].cost == 2
        ):
            get_metrics().inc("fusion.cost2_pairs")
            out.append(_fuse(mgr, items[i], items[i + 1]))
            i += 2
        else:
            out.append(items[i])
            i += 1
    return out


def _greedy(
    mgr: DDManager, items: list[FusedGate], max_cost: int | None
) -> list[FusedGate]:
    """Step 3: left-to-right greedy fusion on BQCS cost.

    Fuses the accumulator with the next gate when the fused cost does not
    exceed the sum of the parts (the paper's example fuses at equality,
    trading no extra #MAC for fewer kernel launches and memory sweeps).
    ``max_cost`` optionally caps the fused cost to bound DD growth.
    """
    if not items:
        return items
    metrics = get_metrics()
    out: list[FusedGate] = [items[0]]
    for item in items[1:]:
        candidate = _fuse(mgr, out[-1], item)
        if candidate.cost <= out[-1].cost + item.cost and (
            max_cost is None or candidate.cost <= max_cost
        ):
            metrics.inc("fusion.greedy_accept")
            out[-1] = candidate
        else:
            metrics.inc("fusion.greedy_reject")
            out.append(item)
    return out


def bqcs_fusion(
    mgr: DDManager,
    circuit: Circuit,
    max_cost: int | None = None,
) -> FusionPlan:
    """Run the full three-step BQCS-aware gate fusion on a circuit."""
    if circuit.num_qubits != mgr.num_qubits:
        raise FusionError(
            f"manager is for {mgr.num_qubits} qubits, circuit has "
            f"{circuit.num_qubits}"
        )
    with get_tracer().span(
        "fusion.bqcs", gates=len(circuit.gates), max_cost=max_cost
    ) as span:
        items = _lift(mgr, circuit)
        items = _fuse_cost_one_runs(mgr, items)
        if max_cost is None or max_cost >= 4:
            # pairing two cost-2 gates yields cost <= 4; skip under a tighter cap
            items = _fuse_cost_two_pairs(mgr, items)
        items = _greedy(mgr, items, max_cost)
        span.set(fused_gates=len(items), total_cost=sum(g.cost for g in items))
    _record_plan_shape("bqcs", items)
    return FusionPlan(
        num_qubits=circuit.num_qubits,
        gates=tuple(items),
        algorithm="bqcs",
        source_gate_count=len(circuit.gates),
    )


def _record_plan_shape(algorithm: str, items: list[FusedGate]) -> None:
    """Histogram the per-fused-gate shape signals (cost == max NZR, total
    non-zeros, source-gate span) — the DD-growth-per-gate view that QuIDD
    gate-level analyses track."""
    metrics = get_metrics()
    metrics.inc(f"fusion.plans.{algorithm}")
    for item in items:
        metrics.observe("fusion.gate_cost", item.cost)
        metrics.observe("fusion.gate_nnz", item.nnz)
        metrics.observe("fusion.source_gates", item.num_source_gates)


def no_fusion_plan(mgr: DDManager, circuit: Circuit) -> FusionPlan:
    """One fused gate per circuit gate (the ablation baseline)."""
    return FusionPlan(
        num_qubits=circuit.num_qubits,
        gates=tuple(_lift(mgr, circuit)),
        algorithm="none",
        source_gate_count=len(circuit.gates),
    )
