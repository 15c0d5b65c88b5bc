"""Engine-parity contracts.

Three guarantees the kernel-engine refactor must keep:

1. The numpy engine is **bit-identical** to the pre-refactor direct-NumPy
   code (the historical implementations are embedded here as references).
2. The ``fake-gpu`` engine — which reassociates floating point like a real
   device — agrees with the numpy engine within tolerance, across every
   simulator.
3. The hot paths contain no direct ``np.`` calls (AST lint): all numerics
   go through ``engine.xp``.
"""

from __future__ import annotations

import ast
import pathlib

import numpy as np
import pytest

from repro.circuit import Circuit, random_batch
from repro.circuit.generators import make_circuit
from repro.circuit.gates import Gate
from repro.ell.spmm import GatherPlan, ell_spmm, ell_spmm_loop
from repro.kernels import ENGINE_ENV, use_engine
from repro.sim.base import BatchSpec
from repro.sim.bqsim import BQSimSimulator
from repro.sim.cuquantum import CuQuantumSimulator
from repro.sim.flatdd import FlatDDSimulator
from repro.sim.multigpu import MultiGpuBQSimSimulator
from repro.sim.qiskit_aer import QiskitAerSimulator
from repro.sim.statevector import apply_gate, simulate_batch

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SIMULATORS = {
    "bqsim": BQSimSimulator,
    "bqsim-multigpu": MultiGpuBQSimSimulator,
    "cuquantum": CuQuantumSimulator,
    "qiskit-aer": QiskitAerSimulator,
    "flatdd": FlatDDSimulator,
}


# ---------------------------------------------------------------------------
# 1. numpy engine == the pre-refactor direct-NumPy code, bit for bit
# ---------------------------------------------------------------------------

def _reference_blocked_spmm(values, cols, states):
    """The pre-engine ``GatherPlan._apply_blocked`` body, verbatim."""
    num_rows, width = values.shape
    batch = states.shape[1] if states.ndim == 2 else 1
    block = max(16, min(num_rows, (1 << 16) // max(batch, 1)))
    out = np.empty_like(states)
    for r0 in range(0, num_rows, block):
        r1 = min(r0 + block, num_rows)
        acc = np.zeros((r1 - r0,) + states.shape[1:], dtype=states.dtype)
        for k in range(width):
            acc += values[r0:r1, k : k + 1] * states[cols[r0:r1, k], :]
        out[r0:r1] = acc
    return out


def _reference_gather_axes(num_qubits, operands):
    """The pre-engine ``repro.sim.statevector._gather_axes``, verbatim."""
    rest = [q for q in range(num_qubits) if q not in operands]
    k = len(operands)
    rest_values = np.zeros(1 << len(rest), dtype=np.int64)
    for i, q in enumerate(rest):
        bit = (np.arange(1 << len(rest)) >> i) & 1
        rest_values |= bit << q
    local_values = np.zeros(1 << k, dtype=np.int64)
    for i, q in enumerate(operands):
        bit = (np.arange(1 << k) >> i) & 1
        local_values |= bit << q
    return rest_values[:, None] + local_values[None, :]


def _reference_apply_gate(states, gate, num_qubits):
    """The pre-engine ``apply_gate`` body, verbatim (direct NumPy)."""
    matrix = gate.matrix()
    idx = _reference_gather_axes(num_qubits, gate.all_qubits)
    if gate.controls:
        k_t = len(gate.qubits)
        ctrl_mask = ((1 << len(gate.controls)) - 1) << k_t
        idx = idx[:, ctrl_mask : ctrl_mask + (1 << k_t)]
    gathered = states[idx, :]
    states[idx, :] = np.einsum("ij,gjb->gib", matrix, gathered)
    return states


@pytest.fixture
def random_plan(rng):
    rows, width = 64, 3
    values = rng.standard_normal((rows, width)) + 1j * rng.standard_normal(
        (rows, width)
    )
    cols = rng.integers(0, rows, size=(rows, width)).astype(np.int64)
    return GatherPlan(6, values, cols)


def test_numpy_spmm_bit_identical_to_prerefactor(rng, random_plan):
    states = rng.standard_normal((64, 7)) + 1j * rng.standard_normal((64, 7))
    expected = _reference_blocked_spmm(
        random_plan.values, random_plan.cols, states
    )
    result = ell_spmm(random_plan, states, backend="numpy", engine="numpy")
    np.testing.assert_array_equal(result, expected)


def test_numpy_spmm_loop_bit_identical_to_prerefactor(rng, random_plan):
    states = rng.standard_normal((64, 4)) + 1j * rng.standard_normal((64, 4))
    expected = np.zeros_like(states)
    for k in range(random_plan.width):
        expected += (
            random_plan.values[:, k : k + 1]
            * states[random_plan.cols[:, k], :]
        )
    result = random_plan.apply(states, backend="loop", engine="numpy")
    np.testing.assert_array_equal(result, expected)


def test_numpy_apply_gate_bit_identical_to_prerefactor(small_circuit, batch4):
    ours = batch4.states.copy()
    reference = batch4.states.copy()
    for gate in small_circuit.gates:
        apply_gate(ours, gate, 4, engine="numpy")
        _reference_apply_gate(reference, gate, 4)
    np.testing.assert_array_equal(ours, reference)


def test_numpy_simulate_batch_bit_identical_to_prerefactor(batch4):
    circuit = make_circuit("qft", 4)
    reference = batch4.states.copy()
    for gate in circuit.gates:
        _reference_apply_gate(reference, gate, 4)
    np.testing.assert_array_equal(
        simulate_batch(circuit, batch4, engine="numpy"), reference
    )


# ---------------------------------------------------------------------------
# 2. fake-gpu engine == numpy engine, within tolerance, all simulators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(SIMULATORS))
def test_simulator_engine_parity(name):
    circuit = make_circuit("qft", 5)
    spec = BatchSpec(num_batches=2, batch_size=4, seed=3)
    host = SIMULATORS[name](engine="numpy").run(circuit, spec)
    device = SIMULATORS[name](engine="fake-gpu").run(circuit, spec)
    assert host.stats["engine"] == "numpy"
    assert device.stats["engine"] == "fake-gpu"
    assert len(host.outputs) == len(device.outputs) == 2
    for h, d in zip(host.outputs, device.outputs):
        np.testing.assert_allclose(d, h, atol=1e-10)
    # the device model itself is engine-independent
    assert device.modeled_time == pytest.approx(host.modeled_time)


@pytest.mark.parametrize("name", sorted(SIMULATORS))
def test_simulator_numpy_engine_matches_unset_engine(name, monkeypatch):
    """engine=None resolves to numpy and stays bit-identical to history."""
    monkeypatch.delenv(ENGINE_ENV, raising=False)
    circuit = make_circuit("ghz", 4)
    spec = BatchSpec(num_batches=1, batch_size=3, seed=1)
    default = SIMULATORS[name]().run(circuit, spec)
    explicit = SIMULATORS[name](engine="numpy").run(circuit, spec)
    assert default.stats["engine"] == "numpy"
    for a, b in zip(default.outputs, explicit.outputs):
        np.testing.assert_array_equal(a, b)


def test_env_var_reaches_simulator_stats(monkeypatch):
    monkeypatch.setenv(ENGINE_ENV, "fake-gpu")
    result = BQSimSimulator().run(
        make_circuit("ghz", 3), BatchSpec(num_batches=1, batch_size=2)
    )
    assert result.stats["engine"] == "fake-gpu"


def test_use_engine_scopes_a_whole_run():
    with use_engine("fake-gpu"):
        result = FlatDDSimulator().run(
            make_circuit("qft", 3), BatchSpec(num_batches=1, batch_size=2)
        )
    assert result.stats["engine"] == "fake-gpu"


def test_fake_gpu_statevector_matches_numpy(small_circuit, batch4):
    host = simulate_batch(small_circuit, batch4, engine="numpy")
    device = simulate_batch(small_circuit, batch4, engine="fake-gpu")
    np.testing.assert_allclose(device, host, atol=1e-12)
    # fake-gpu must not have mutated the input batch (device copy)
    assert batch4.states.flags.writeable


def test_controlled_gates_parity():
    circuit = Circuit(3).h(0).ccx(0, 1, 2).cp(0.7, 1, 0).cx(2, 1)
    batch = random_batch(3, 4, rng=5)
    host = simulate_batch(circuit, batch, engine="numpy")
    device = simulate_batch(circuit, batch, engine="fake-gpu")
    np.testing.assert_allclose(device, host, atol=1e-12)


def test_spmm_loop_engine_kwarg_parity(rng, random_plan):
    states = rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3))
    host = random_plan.apply(states, backend="loop", engine="numpy")
    device = random_plan.apply(states, backend="loop", engine="fake-gpu")
    np.testing.assert_allclose(device, host, atol=1e-12)
    host = ell_spmm_loop(random_plan, states, engine="numpy")
    device = ell_spmm_loop(random_plan, states, engine="fake-gpu")
    np.testing.assert_allclose(device, host, atol=1e-12)


# ---------------------------------------------------------------------------
# 3. lint: no direct numpy in the hot paths
# ---------------------------------------------------------------------------

#: (file, function qualname) pairs whose bodies must compute via engine.xp
#: only; host numpy may appear solely in (skipped) type annotations
HOT_FUNCTIONS = {
    "repro/ell/spmm.py": {
        "GatherPlan.apply",
        "ell_spmm",
        "ell_spmm_loop",
    },
    "repro/sim/statevector.py": {
        "apply_gate",
        "simulate_batch",
    },
    "repro/sim/bqsim.py": {
        "BQSimSimulator._simulate",
    },
    "repro/kernels/ops.py": {
        "ell_gather_width1",
        "ell_gather_spmm",
        "ell_gather_slots",
        "dense_gate_apply",
        "copy_into",
        "statevector_init",
        "normalize_states",
    },
}

#: names a hot function must never dereference (host numpy aliases)
_FORBIDDEN = {"np", "numpy", "_host_np"}


def _function_index(tree):
    """qualname -> FunctionDef for every (possibly nested) function."""
    index = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                index[qual] = child
                visit(child, f"{qual}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return index


def _annotation_nodes(fn):
    """Every AST node inside an annotation subtree of ``fn``."""
    roots = []
    args = fn.args
    for arg in (
        args.posonlyargs + args.args + args.kwonlyargs
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        if arg.annotation is not None:
            roots.append(arg.annotation)
    if fn.returns is not None:
        roots.append(fn.returns)
    for node in ast.walk(fn):
        if isinstance(node, ast.AnnAssign) and node.annotation is not None:
            roots.append(node.annotation)
    skip = set()
    for root in roots:
        for node in ast.walk(root):
            skip.add(id(node))
    return skip


def _numpy_violations(fn):
    skip = _annotation_nodes(fn)
    violations = []
    for node in ast.walk(fn):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in _FORBIDDEN:
                violations.append(f"line {node.lineno}: "
                                  f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in _FORBIDDEN:
                violations.append(f"line {node.lineno}: {node.func.id}(...)")
    return violations


@pytest.mark.parametrize("rel_path", sorted(HOT_FUNCTIONS))
def test_hot_paths_have_no_direct_numpy(rel_path):
    source = (SRC / rel_path).read_text(encoding="utf-8")
    index = _function_index(ast.parse(source))
    missing = HOT_FUNCTIONS[rel_path] - set(index)
    assert not missing, f"{rel_path}: lint targets not found: {missing}"
    problems = []
    for qual in sorted(HOT_FUNCTIONS[rel_path]):
        for violation in _numpy_violations(index[qual]):
            problems.append(f"{rel_path}:{qual} {violation}")
    assert not problems, (
        "direct numpy in engine-routed hot paths:\n" + "\n".join(problems)
    )
