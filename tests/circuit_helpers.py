"""Circuit rewrites and an equivalence oracle shared by several tests.

:func:`decompose_to_basis` produces an "equivalent but different" circuit
for the equivalence-checking tests, and :func:`circuits_equivalent`
decides equivalence on the dense statevector reference.
"""

from __future__ import annotations

import math

import numpy as np

from repro.circuit import Circuit, Gate, random_batch
from repro.errors import CircuitError
from repro.sim.statevector import simulate_batch


def decompose_to_basis(circuit: Circuit) -> Circuit:
    """Rewrite into {h, rz, cx, ccx} (Z-rotations + Hadamard + controlled X).

    Global phases are dropped, so the result is equivalent only up to phase
    — exactly the equivalence class simulative checking works with.
    """
    out = Circuit(circuit.num_qubits, name=f"{circuit.name}_basis")
    for gate in circuit.gates:
        _emit_basis(out, gate)
    return out


def _emit_ry(out: Circuit, theta: float, q: int) -> None:
    """ry(theta) up to global phase: rz(-pi/2) h rz(theta) h rz(pi/2)."""
    out.rz(-math.pi / 2, q)
    out.h(q)
    out.rz(theta, q)
    out.h(q)
    out.rz(math.pi / 2, q)


def _emit_basis(out: Circuit, gate: Gate) -> None:
    name = gate.name
    ctr = gate.controls
    q = gate.qubits[0] if gate.qubits else None

    # already in the basis (controlled-x of any arity included)
    if name == "x" or (name == "h" and not ctr) or (name == "rz" and not ctr):
        out.append(gate)
        return
    # controlled-z via h . c..x . h on the target
    if name == "z" and ctr:
        out.h(q)
        out.append(Gate("x", (q,), (), ctr))
        out.h(q)
        return
    # controlled rotations/phases are kept (already DD/simulator friendly)
    if ctr:
        out.append(gate)
        return

    phase_angles = {
        "z": math.pi, "s": math.pi / 2, "sdg": -math.pi / 2,
        "t": math.pi / 4, "tdg": -math.pi / 4, "p": None, "u1": None,
    }
    if name in phase_angles:
        angle = phase_angles[name]
        out.rz(gate.params[0] if angle is None else angle, q)
        return
    if name == "id":
        return
    if name == "y":
        out.rz(math.pi, q)
        out.x(q)
        return
    if name == "rx":
        out.h(q)
        out.rz(gate.params[0], q)
        out.h(q)
        return
    if name == "ry":
        _emit_ry(out, gate.params[0], q)
        return
    if name == "sx":
        out.h(q)
        out.rz(math.pi / 2, q)
        out.h(q)
        return
    if name == "sxdg":
        out.h(q)
        out.rz(-math.pi / 2, q)
        out.h(q)
        return
    if name == "swap":
        a, b = gate.qubits
        out.cx(a, b)
        out.cx(b, a)
        out.cx(a, b)
        return
    if name == "rzz":
        a, b = gate.qubits
        out.cx(a, b)
        out.rz(gate.params[0], b)
        out.cx(a, b)
        return
    if name in ("u3", "u", "u2"):
        if name == "u2":
            theta, (phi, lam) = math.pi / 2, gate.params
        else:
            theta, phi, lam = gate.params
        out.rz(lam, q)
        _emit_ry(out, theta, q)
        out.rz(phi, q)
        return
    raise CircuitError(f"no basis decomposition for {gate}")


def circuits_equivalent(
    a: Circuit,
    b: Circuit,
    num_inputs: int = 8,
    seed: int = 0,
    atol: float = 1e-8,
) -> bool:
    """Batch-simulative equivalence up to one global phase.

    Simulates both circuits on a shared batch of random inputs; they are
    equivalent iff a single unit phase aligns every output column.
    """
    if a.num_qubits != b.num_qubits:
        return False
    batch = random_batch(a.num_qubits, num_inputs, rng=seed)
    out_a = simulate_batch(a, batch)
    out_b = simulate_batch(b, batch)
    # estimate the global phase from the largest amplitude of input 0
    anchor = np.argmax(np.abs(out_a[:, 0]))
    if abs(out_b[anchor, 0]) < 1e-14:
        return False
    phase = out_a[anchor, 0] / out_b[anchor, 0]
    if abs(abs(phase) - 1.0) > 1e-6:
        return False
    return bool(np.allclose(out_a, phase * out_b, atol=atol))
