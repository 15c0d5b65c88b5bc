"""Fidelity-budgeted DD approximation: edge pruning with renormalization.

Following Hillmich et al. ("As Accurate as Needed, as Efficient as
Possible"), a decision diagram can trade *bounded* fidelity for size by
dropping low-weight branches: child edges whose stored weight magnitude
falls below a threshold become zero edges, and the surviving diagram is
rebuilt through the manager so hash-consing and max-magnitude
normalization keep it canonical.  Because fused-gate weights are stored
normalized (every child weight has ``|w| <= 1`` relative to its
strongest sibling), a single threshold on stored weights is well-scaled
across the whole diagram.

The pass is *budgeted*, not best-effort: every pruned gate's fidelity is
measured **exactly** on the DDs (a Hilbert-Schmidt overlap, no dense
expansion), the per-gate fidelities compose multiplicatively into the
plan-level :class:`FidelityLedger`, and a gate is only accepted at a
threshold whose measured fidelity keeps the running product at or above
the end-to-end budget.  When no rung of the threshold ladder fits, the
gate is kept exact — so ``achieved >= budget`` holds by construction,
and a violation raises :class:`~repro.errors.ApproximationError` rather
than shipping a silently-degraded result.

Drift accounting reuses the resilience event log: every pruned gate
records a ``fidelity_drift`` event (site ``approx``), so approximation
shows up in ``stats["resilience"]`` next to retries and renormalizations
and is auditable per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..dd.algebra import hilbert_schmidt
from ..dd.export import count_edges, count_nodes
from ..dd.manager import DDManager
from ..dd.node import Edge, ZERO_EDGE
from ..errors import ApproximationError
from ..fusion.cost import bqcs_cost, total_nonzeros
from ..fusion.plan import FusedGate, FusionPlan
from ..obs import get_metrics
from ..resilience.events import get_resilience_log

#: descending prune thresholds tried per gate (most aggressive first);
#: stored child weights are normalized to ``|w| <= 1``, so 0.5 prunes
#: everything weaker than half the strongest sibling
THRESHOLD_LADDER = (0.5, 0.25, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001)


def prune_edge(mgr: DDManager, edge: Edge, threshold: float) -> tuple[Edge, int]:
    """Drop child edges with stored ``|weight| < threshold`` and rebuild.

    Returns ``(pruned_edge, dropped_branches)``.  The rebuild goes through
    :meth:`DDManager.make_mnode`, so renormalization (max-magnitude child
    back to weight ~1) and hash-consing are free; a subtree whose children
    all vanish collapses to the zero edge and the drop propagates upward.

    Example::

        >>> from repro.circuit.generators import make_circuit
        >>> from repro.dd.build import gate_matrix_dd
        >>> from repro.dd.manager import DDManager
        >>> circuit = make_circuit("qft", 3)
        >>> mgr = DDManager(3)
        >>> dd = gate_matrix_dd(mgr, circuit.gates[0])
        >>> pruned, dropped = prune_edge(mgr, dd, 0.0)
        >>> (pruned, dropped) == (dd, 0)   # threshold 0 is the identity
        True
    """
    if edge.is_zero or edge.is_terminal or threshold <= 0.0:
        return edge, 0
    memo: dict[int, Edge] = {}
    dropped = 0

    def rec(e: Edge) -> Edge:
        nonlocal dropped
        if e.weight == 0:
            return ZERO_EDGE
        if e.node is None:
            return e
        hit = memo.get(e.node.nid)
        if hit is None:
            children = []
            for child in e.node.children:
                if child.weight != 0 and abs(child.weight) < threshold:
                    dropped += 1
                    children.append(ZERO_EDGE)
                else:
                    children.append(rec(child))
            hit = mgr.make_mnode(e.node.level, tuple(children))
            memo[e.node.nid] = hit
        return hit.scaled(e.weight)

    try:
        return rec(edge), dropped
    finally:
        del rec  # it refers to itself: free the DDs without the cycle collector


def gate_fidelity(mgr: DDManager, exact: Edge, approx: Edge) -> float:
    """Scale-invariant gate fidelity ``|tr(a†b)|² / (tr(a†a)·tr(b†b))``.

    This is the squared Hilbert-Schmidt cosine between the two matrices:
    1.0 iff ``approx`` is proportional to ``exact`` (so renormalization
    never changes it), strictly below 1.0 once structure was lost.  For a
    unitary ``exact`` and ``approx == exact`` it reduces to the usual
    process fidelity.  Computed entirely on the DDs.

    Example::

        >>> from repro.circuit.generators import make_circuit
        >>> from repro.dd.build import gate_matrix_dd
        >>> from repro.dd.manager import DDManager
        >>> circuit = make_circuit("ghz", 2)
        >>> mgr = DDManager(2)
        >>> dd = gate_matrix_dd(mgr, circuit.gates[0])
        >>> round(gate_fidelity(mgr, dd, dd), 12)
        1.0
    """
    norm_a = hilbert_schmidt(mgr, exact, exact).real
    norm_b = hilbert_schmidt(mgr, approx, approx).real
    if norm_a <= 0.0 or norm_b <= 0.0:
        return 0.0
    overlap = abs(hilbert_schmidt(mgr, exact, approx)) ** 2
    return min(1.0, overlap / (norm_a * norm_b))


def renormalize(mgr: DDManager, exact: Edge, approx: Edge) -> Edge:
    """Rescale ``approx`` so its Hilbert-Schmidt norm matches ``exact``.

    Pruning only removes amplitude, so the raw pruned matrix is slightly
    sub-normalized; scaling the root weight by ``sqrt(tr(a†a)/tr(b†b))``
    restores the average amplitude norm a state picks up passing through
    the gate (the DD analogue of renormalizing a truncated state vector).
    """
    norm_a = hilbert_schmidt(mgr, exact, exact).real
    norm_b = hilbert_schmidt(mgr, approx, approx).real
    if norm_b <= 0.0:
        return approx
    return approx.scaled(math.sqrt(norm_a / norm_b))


@dataclass(frozen=True)
class GateApproximation:
    """The ledger line for one fused gate: what was pruned, at what cost."""

    gate_index: int
    threshold: float
    fidelity: float
    nodes_before: int
    nodes_after: int
    edges_before: int
    edges_after: int
    cost_before: int
    cost_after: int
    dropped_branches: int

    def to_dict(self) -> dict:
        return {
            "gate_index": self.gate_index,
            "threshold": self.threshold,
            "fidelity": self.fidelity,
            "nodes_before": self.nodes_before,
            "nodes_after": self.nodes_after,
            "edges_before": self.edges_before,
            "edges_after": self.edges_after,
            "cost_before": self.cost_before,
            "cost_after": self.cost_after,
            "dropped_branches": self.dropped_branches,
        }


@dataclass
class FidelityLedger:
    """Running account of how a plan's fidelity budget was spent.

    Per-gate fidelities compose multiplicatively: if gate ``i`` was
    replaced by an approximation with fidelity ``f_i``, the end-to-end
    guarantee is ``achieved = Π f_i >= budget``.  Gates left exact
    contribute ``f_i = 1`` and no ledger line.
    """

    budget: float
    num_gates: int = 0
    gates: list[GateApproximation] = field(default_factory=list)

    @property
    def achieved(self) -> float:
        product = 1.0
        for gate in self.gates:
            product *= gate.fidelity
        return product

    @property
    def pruned_gates(self) -> int:
        return len(self.gates)

    @property
    def dropped_branches(self) -> int:
        return sum(g.dropped_branches for g in self.gates)

    @property
    def nodes_removed(self) -> int:
        return sum(g.nodes_before - g.nodes_after for g in self.gates)

    @property
    def edges_removed(self) -> int:
        return sum(g.edges_before - g.edges_after for g in self.gates)

    def spend(self, gate: GateApproximation) -> None:
        """Append one pruned gate, guarding the budget invariant."""
        self.gates.append(gate)
        if self.achieved < self.budget:
            self.gates.pop()
            raise ApproximationError(
                f"pruning gate {gate.gate_index} at threshold "
                f"{gate.threshold} would drop plan fidelity below the "
                f"budget {self.budget}"
            )

    def to_dict(self) -> dict:
        """JSON-safe summary — the ``stats['approx']`` block."""
        return {
            "budget": self.budget,
            "achieved": self.achieved,
            "num_gates": self.num_gates,
            "pruned_gates": self.pruned_gates,
            "dropped_branches": self.dropped_branches,
            "nodes_removed": self.nodes_removed,
            "edges_removed": self.edges_removed,
            "gates": [g.to_dict() for g in self.gates],
        }


def prune_plan(
    mgr: DDManager,
    plan: FusionPlan,
    budget: float,
    thresholds: tuple[float, ...] = THRESHOLD_LADDER,
) -> tuple[FusionPlan, FidelityLedger]:
    """Approximate a fusion plan under an end-to-end fidelity budget.

    Walks the fused gates in order, allocating each gate a fidelity floor
    of ``(budget / achieved_so_far) ** (1 / gates_remaining)`` — slack
    left by gates that pruned cheaply (or not at all) rolls forward, so
    later gates may prune harder.  Each gate takes the most aggressive
    ladder rung whose *measured* fidelity stays at or above its floor and
    whose pruned matrix is non-zero; accepted gates are renormalized and
    re-costed (BQCS max NZR + nnz recomputed on the pruned DD), rejected
    gates stay exact.  ``budget >= 1.0`` is the exact path: the plan is
    returned untouched, bit-identical downstream.

    Returns the (possibly new) plan plus the :class:`FidelityLedger`;
    ``ledger.achieved >= budget`` always holds.
    """
    if not 0.0 < budget <= 1.0:
        raise ApproximationError(
            f"fidelity budget must be in (0, 1], got {budget}"
        )
    ledger = FidelityLedger(budget=budget, num_gates=len(plan.gates))
    if budget >= 1.0 or not plan.gates:
        return plan, ledger

    log = get_resilience_log()
    metrics = get_metrics()
    new_gates: list[FusedGate] = []
    changed = False
    total = len(plan.gates)
    for index, fused in enumerate(plan.gates):
        remaining = total - index
        floor = min(1.0, (budget / ledger.achieved) ** (1.0 / remaining))
        accepted: GateApproximation | None = None
        accepted_dd: Edge | None = None
        for threshold in thresholds:
            pruned_dd, dropped = prune_edge(mgr, fused.dd, threshold)
            if dropped == 0:
                break  # smaller thresholds prune strictly less: keep exact
            if pruned_dd.is_zero:
                continue
            fidelity = gate_fidelity(mgr, fused.dd, pruned_dd)
            if fidelity < floor:
                continue
            pruned_dd = renormalize(mgr, fused.dd, pruned_dd)
            accepted = GateApproximation(
                gate_index=index,
                threshold=threshold,
                fidelity=fidelity,
                nodes_before=count_nodes(fused.dd),
                nodes_after=count_nodes(pruned_dd),
                edges_before=count_edges(fused.dd),
                edges_after=count_edges(pruned_dd),
                cost_before=fused.cost,
                cost_after=bqcs_cost(mgr, pruned_dd),
                dropped_branches=dropped,
            )
            accepted_dd = pruned_dd
            break
        if accepted is None or accepted_dd is None:
            new_gates.append(fused)
            continue
        ledger.spend(accepted)
        changed = True
        new_gates.append(
            FusedGate(
                dd=accepted_dd,
                cost=accepted.cost_after,
                gate_indices=fused.gate_indices,
                nnz=total_nonzeros(mgr, accepted_dd),
            )
        )
        log.record(
            "fidelity_drift",
            site="approx",
            gate=index,
            threshold=accepted.threshold,
            fidelity=accepted.fidelity,
            budget=budget,
            dropped_branches=accepted.dropped_branches,
        )
        metrics.inc("approx.pruned_gates")
        metrics.inc("approx.dropped_branches", accepted.dropped_branches)

    if ledger.achieved < budget:  # unreachable by construction; keep the guard
        raise ApproximationError(
            f"approximation pass achieved fidelity {ledger.achieved} "
            f"below the budget {budget}"
        )
    if not changed:
        return plan, ledger
    return (
        FusionPlan(
            num_qubits=plan.num_qubits,
            gates=tuple(new_gates),
            algorithm=plan.algorithm,
            source_gate_count=plan.source_gate_count,
        ),
        ledger,
    )
