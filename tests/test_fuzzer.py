"""Tests for the mutation operators and the differential fuzzer."""

import warnings

import numpy as np
import pytest

from repro.circuit import Circuit, generate_batches
from repro.circuit.generators import random_circuit, vqe
from repro.errors import ReproError, SimulationError
from repro.sim import BQSimSimulator, BatchSpec
from repro.testing import (
    BREAKING,
    DifferentialFuzzer,
    PRESERVING,
    commute_disjoint_pair,
    drop_gate,
    insert_identity_pair,
    perturb_angle,
    rewrite_gate,
    swap_operands,
)

from .circuit_helpers import circuits_equivalent


@pytest.fixture
def seed_circuit():
    return random_circuit(4, 20, seed=9)


@pytest.mark.parametrize("name,mutate", sorted(PRESERVING.items()))
def test_preserving_mutations_keep_semantics(name, mutate, seed_circuit):
    rng = np.random.default_rng(0)
    for _ in range(5):
        mutant = mutate(seed_circuit, rng)
        assert circuits_equivalent(seed_circuit, mutant), name


@pytest.mark.parametrize("name,mutate", sorted(BREAKING.items()))
def test_breaking_mutations_usually_change_semantics(name, mutate, seed_circuit):
    rng = np.random.default_rng(1)
    changed = sum(
        not circuits_equivalent(seed_circuit, mutate(seed_circuit, rng))
        for _ in range(5)
    )
    assert changed >= 4, name  # breaking mutations rarely no-op


def test_insert_identity_grows_by_two(seed_circuit):
    rng = np.random.default_rng(2)
    assert len(insert_identity_pair(seed_circuit, rng)) == len(seed_circuit) + 2


def test_drop_gate_shrinks(seed_circuit):
    rng = np.random.default_rng(2)
    assert len(drop_gate(seed_circuit, rng)) == len(seed_circuit) - 1


def test_mutations_do_not_touch_the_seed(seed_circuit):
    rng = np.random.default_rng(3)
    before = list(seed_circuit.gates)
    for mutate in (*PRESERVING.values(), *BREAKING.values()):
        mutate(seed_circuit, rng)
    assert seed_circuit.gates == before


def test_commute_on_fully_entangled_is_identity():
    c = Circuit(2)
    c.cx(0, 1).cx(1, 0).cx(0, 1)  # every adjacent pair overlaps
    rng = np.random.default_rng(0)
    assert [g.all_qubits for g in commute_disjoint_pair(c, rng)] == [
        g.all_qubits for g in c
    ]


def test_perturb_angle_injects_when_no_rotations():
    c = Circuit(2)
    c.h(0).cx(0, 1)
    rng = np.random.default_rng(0)
    mutant = perturb_angle(c, rng)
    assert len(mutant) == len(c) + 1


def test_swap_operands_flips_cx():
    c = Circuit(2)
    c.cx(0, 1)
    rng = np.random.default_rng(0)
    mutant = swap_operands(c, rng)
    assert mutant[0].controls == (1,) and mutant[0].qubits == (0,)


def test_fuzzer_clean_on_healthy_simulator(seed_circuit):
    report = DifferentialFuzzer(batch_size=16).run(seed_circuit, iterations=16, seed=4)
    assert report.ok
    assert report.detection_rate == 1.0
    assert report.preserving_checked + report.breaking_checked == 16


def test_fuzzer_catches_an_unsound_rewrite(seed_circuit):
    """A deliberately wrong 'preserving' mutation must be flagged."""

    def bogus_rewrite(circuit, rng):
        out = Circuit(circuit.num_qubits, list(circuit.gates))
        out.rz(0.3, 0)  # not semantics-preserving at all
        return out

    report = DifferentialFuzzer(batch_size=16).run(
        seed_circuit,
        iterations=6,
        seed=5,
        preserving={"bogus": bogus_rewrite},
        breaking={},
    )
    assert not report.ok
    assert all(f.mutation == "bogus" for f in report.findings)
    assert all(f.kind == "preserving-deviation" for f in report.findings)


def test_fuzzer_reports_oracle_blind_spot(seed_circuit):
    """A 'breaking' mutation that changes nothing must be reported as
    undetected."""

    def noop(circuit, rng):
        return Circuit(circuit.num_qubits, list(circuit.gates))

    report = DifferentialFuzzer(batch_size=16).run(
        seed_circuit, iterations=4, seed=6, preserving={}, breaking={"noop": noop}
    )
    assert report.breaking_detected == 0
    assert all(f.kind == "breaking-undetected" for f in report.findings)
    assert report.detection_rate == 0.0


def test_fuzzer_validates_iterations(seed_circuit):
    with pytest.raises(SimulationError, match="at least one"):
        DifferentialFuzzer().run(seed_circuit, iterations=0)


def test_chaos_mode_surfaces_only_typed_errors():
    """Random low-rate fault plans over the full pipeline: a run either
    completes with unit-norm outputs or fails with a :class:`ReproError`
    subclass — never a bare ``KeyError``/``IndexError``/``ValueError``."""
    circuit = random_circuit(4, 16, seed=11)
    spec = BatchSpec(num_batches=2, batch_size=4, seed=3)
    batches = list(generate_batches(4, 2, 4, 3))
    rng = np.random.default_rng(7)
    sites = ["kernel", "copy", "bitflip", "oom", "spmm"]
    completed = 0
    for trial in range(8):
        chosen = rng.choice(sites, size=2, replace=False)
        plan = ",".join(
            [f"seed={trial}"]
            + [f"{site}={rng.uniform(0.0, 0.15):.3f}" for site in chosen]
        )
        sim = BQSimSimulator(faults=plan, max_splits=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                result = sim.run(circuit, spec, batches=batches)
            except Exception as exc:  # noqa: BLE001 - the assertion is the point
                assert isinstance(exc, ReproError), (
                    f"plan {plan!r} leaked {type(exc).__name__}: {exc}"
                )
                continue
        completed += 1
        for out in result.outputs:
            assert np.allclose(np.linalg.norm(out, axis=0), 1.0, atol=1e-6)
    assert completed >= 1, "every chaos trial failed; rates are too hot"
