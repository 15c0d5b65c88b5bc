"""Equivalence checking of quantum circuits (the paper's first motivating
BQCS application, after Burgholzer & Wille's "power of simulation").

Two complementary deciders:

* :func:`check_exact` — build the DD of ``b . a^-1`` and walk it once per
  node: it is the identity times a unit phase iff every node is diagonal
  with unit diagonal weights.  Complete but can be expensive for wide,
  unstructured circuits.
* :func:`check_simulative` — run shared random input batches through both
  circuits with BQSim and compare amplitudes up to one global phase.
  One-sided (can only *refute* with certainty), but random states make a
  false "equivalent" astronomically unlikely, and the whole check is a
  single BQCS workload.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from ..circuit.circuit import Circuit
from ..dd.build import circuit_matrix_dd
from ..dd.manager import DDManager
from ..dd.node import Edge
from ..errors import SimulationError
from ..sim.base import BatchSpec
from ..sim.bqsim import BQSimSimulator


@dataclass(frozen=True)
class EquivalenceResult:
    """Outcome of an equivalence check."""

    equivalent: bool
    method: str
    phase: complex | None = None  # global phase b = phase * a, when known
    max_deviation: float | None = None

    def __bool__(self) -> bool:
        return self.equivalent


def _is_unit_diagonal(edge: Edge, tol: float) -> bool:
    """Whether every node below ``edge`` is diagonal with both diagonal
    weights within ``tol`` of 1, i.e. the DD is the identity up to its
    root weight.

    Compared by value rather than by node identity: weight snapping can
    leave ``rz(t) . rz(-t)`` a hair off the identity's weights, so its
    node is a different one.
    """
    seen: set[int] = set()
    stack = [edge.node]
    while stack:
        node = stack.pop()
        if node is None or node.nid in seen:
            continue
        seen.add(node.nid)
        c00, c01, c10, c11 = node.children
        if not (c01.is_zero and c10.is_zero):
            return False
        if abs(c00.weight - 1.0) > tol or abs(c11.weight - 1.0) > tol:
            return False
        stack += [c00.node, c11.node]
    return True


def check_exact(a: Circuit, b: Circuit, tol: float = 1e-9) -> EquivalenceResult:
    """DD-exact equivalence up to global phase."""
    if a.num_qubits != b.num_qubits:
        return EquivalenceResult(False, "exact")
    mgr = DDManager(a.num_qubits)
    product = mgr.mm_multiply(
        circuit_matrix_dd(mgr, b.gates),
        circuit_matrix_dd(mgr, a.inverse().gates),
    )
    if abs(abs(product.weight) - 1.0) > tol or not _is_unit_diagonal(product, tol):
        return EquivalenceResult(False, "exact")
    return EquivalenceResult(True, "exact", phase=product.weight)


def check_simulative(
    a: Circuit,
    b: Circuit,
    num_batches: int = 4,
    batch_size: int = 32,
    seed: int = 0,
    atol: float = 1e-8,
    simulator: BQSimSimulator | None = None,
) -> EquivalenceResult:
    """Batch-simulative equivalence up to global phase."""
    if a.num_qubits != b.num_qubits:
        return EquivalenceResult(False, "simulative")
    simulator = simulator or BQSimSimulator()
    spec = BatchSpec(num_batches=num_batches, batch_size=batch_size, seed=seed)
    from ..circuit.inputs import generate_batches

    batches = list(generate_batches(a.num_qubits, num_batches, batch_size, seed))
    out_a = simulator.run(a, spec, batches=batches).outputs
    out_b = simulator.run(b, spec, batches=batches).outputs

    phase: complex | None = None
    worst = 0.0
    for x, y in zip(out_a, out_b):
        if phase is None:
            anchor = np.unravel_index(np.argmax(np.abs(x)), x.shape)
            if abs(y[anchor]) < 1e-14:
                return EquivalenceResult(False, "simulative", max_deviation=float("inf"))
            phase = complex(x[anchor] / y[anchor])
            if abs(abs(phase) - 1.0) > 1e-6:
                return EquivalenceResult(False, "simulative", max_deviation=float("inf"))
        worst = max(worst, float(np.abs(x - phase * y).max()))
    return EquivalenceResult(worst <= atol, "simulative", phase=phase, max_deviation=worst)


def check(a: Circuit, b: Circuit, prefer: str = "auto") -> EquivalenceResult:
    """Equivalence check with method selection.

    ``auto`` uses the exact DD check for narrow circuits and falls back to
    simulative checking above 14 qubits (where the product DD may blow up).
    """
    if prefer == "exact":
        return check_exact(a, b)
    if prefer == "simulative":
        return check_simulative(a, b)
    if prefer != "auto":
        raise SimulationError(f"unknown method {prefer!r}")
    if a.num_qubits <= 14:
        return check_exact(a, b)
    return check_simulative(a, b)
