"""Tests for the cuQuantum / Qiskit Aer / FlatDD baseline simulators."""

import math

import numpy as np
import pytest

from repro.circuit import generate_batches
from repro.circuit.generators import make_circuit
from repro.fusion.bqcs import bqcs_fusion
from repro.gpu import GpuSpec
from repro.sim import (
    BQSimSimulator,
    BatchSpec,
    CuQuantumSimulator,
    FlatDDSimulator,
    QiskitAerSimulator,
)
from repro.sim.statevector import simulate_batch


@pytest.fixture
def spec():
    return BatchSpec(num_batches=3, batch_size=8, seed=4)


@pytest.mark.parametrize(
    "simulator_cls",
    [BQSimSimulator, CuQuantumSimulator, QiskitAerSimulator, FlatDDSimulator],
)
def test_baseline_outputs_match_reference(simulator_cls, spec, random_circuits):
    sim = simulator_cls()
    for circuit in random_circuits:
        batches = list(generate_batches(4, spec.num_batches, spec.batch_size, spec.seed))
        result = sim.run(circuit, spec, batches=batches)
        for out, batch in zip(result.outputs, batches):
            assert np.allclose(out, simulate_batch(circuit, batch), atol=1e-8)


def test_aer_host_model_dominates(spec):
    circuit = make_circuit("vqe", 8)
    result = QiskitAerSimulator().run(circuit, spec, execute=False)
    assert result.breakdown["host"] > result.breakdown["kernels"]
    expected = (
        QiskitAerSimulator().cpu.aer_run_overhead
        + QiskitAerSimulator().cpu.aer_amp_time * 256
        + QiskitAerSimulator().cpu.aer_gate_time * len(circuit.gates)
    ) * spec.num_inputs
    assert result.breakdown["host"] == pytest.approx(expected)


def test_aer_scales_with_inputs_not_batches():
    circuit = make_circuit("vqe", 8)
    sim = QiskitAerSimulator()
    a = sim.run(circuit, BatchSpec(2, 32), execute=False).modeled_time
    b = sim.run(circuit, BatchSpec(8, 8), execute=False).modeled_time
    assert a == pytest.approx(b)


def test_flatdd_time_linear_in_inputs():
    circuit = make_circuit("vqe", 8)
    sim = FlatDDSimulator()
    t1 = sim.run(circuit, BatchSpec(1, 16), execute=False).modeled_time
    t4 = sim.run(circuit, BatchSpec(4, 16), execute=False).modeled_time
    assert t4 == pytest.approx(4 * t1, rel=1e-6)
    assert sim.run(circuit, BatchSpec(1, 16), execute=False).power.gpu_watts == 0


def test_cuquantum_stream_has_no_overlap(spec):
    circuit = make_circuit("vqe", 8)
    result = CuQuantumSimulator().run(circuit, spec, execute=False)
    assert result.timeline.overlap_fraction() == 0.0


def test_cuquantum_plus_b_out_of_memory(spec):
    """BQSim's fused gates span all qubits; the dense batched API cannot hold
    their 4^n matrices on a small device (Table 4's failed runs)."""
    circuit = make_circuit("vqe", 12)
    tiny = GpuSpec(memory_bytes=256 * 1024 * 1024)
    sim = CuQuantumSimulator(
        gpu=tiny, plan_provider=bqcs_fusion, variant_name="cuquantum+B"
    )
    result = sim.run(circuit, spec, execute=False)
    assert result.stats.get("failed")
    assert math.isinf(result.modeled_time)


def test_cuquantum_plus_b_slower_than_bqsim(spec):
    circuit = make_circuit("vqe", 10)
    bq = BQSimSimulator().run(circuit, spec, execute=False)
    plus_b = CuQuantumSimulator(
        plan_provider=bqcs_fusion, variant_name="cuquantum+B"
    ).run(circuit, spec, execute=False)
    if not plus_b.stats.get("failed"):
        assert plus_b.modeled_time > bq.breakdown["simulation"]


def test_modeled_ordering_matches_paper_at_scale():
    """At paper-like scale BQSim < cuQuantum < Aer, and FlatDD is slowest or
    close to it (Table 2's ordering)."""
    circuit = make_circuit("vqe", 12)
    spec = BatchSpec(num_batches=200, batch_size=256)
    times = {}
    for sim in (BQSimSimulator(), CuQuantumSimulator(), QiskitAerSimulator(),
                FlatDDSimulator()):
        times[sim.name] = sim.run(circuit, spec, execute=False).modeled_time
    assert times["bqsim"] < times["cuquantum"]
    assert times["cuquantum"] < times["qiskit-aer"]
    assert times["bqsim"] * 50 < times["flatdd"]


def test_power_ordering(spec):
    """BQSim draws less GPU power than cuQuantum and less CPU power than the
    host-heavy baselines (Figure 11)."""
    circuit = make_circuit("vqe", 12)
    big = BatchSpec(num_batches=50, batch_size=256)
    bq = BQSimSimulator().run(circuit, big, execute=False)
    cu = CuQuantumSimulator().run(circuit, big, execute=False)
    aer = QiskitAerSimulator().run(circuit, big, execute=False)
    fd = FlatDDSimulator().run(circuit, big, execute=False)
    assert bq.power.gpu_watts < cu.power.gpu_watts
    assert bq.power.cpu_watts < aer.power.cpu_watts
    assert bq.power.cpu_watts < fd.power.cpu_watts
