"""Tests for the four fusion planners."""

import numpy as np
import pytest

from repro.circuit import Circuit, random_batch
from repro.circuit.generators import graphstate, make_circuit, random_circuit
from repro.dd import DDManager, matrix_to_dense
from repro.ell import ell_from_dd, ell_spmm
from repro.errors import FusionError
from repro.fusion import (
    aer_fusion,
    bqcs_fusion,
    cuquantum_plan,
    dense_gate_cost,
    flatdd_fusion,
    no_fusion_plan,
)
from repro.fusion.bqcs import _fuse_cost_one_runs, _fuse_cost_two_pairs, _lift
from repro.sim.statevector import simulate_batch

ALL_PLANNERS = [cuquantum_plan, aer_fusion, flatdd_fusion, bqcs_fusion, no_fusion_plan]


def apply_plan(plan, batch):
    states = batch.states
    for fused in plan.gates:
        states = ell_spmm(ell_from_dd(fused.dd, plan.num_qubits), states)
    return states


@pytest.mark.parametrize("planner", ALL_PLANNERS)
def test_plans_preserve_semantics(planner, random_circuits):
    for circuit in random_circuits:
        mgr = DDManager(4)
        plan = planner(mgr, circuit)
        batch = random_batch(4, 3, rng=5)
        got = apply_plan(plan, batch)
        want = simulate_batch(circuit, batch)
        assert np.allclose(got, want, atol=1e-8), planner.__name__


@pytest.mark.parametrize("planner", ALL_PLANNERS)
def test_plans_cover_every_gate_once(planner, small_circuit):
    mgr = DDManager(4)
    plan = planner(mgr, small_circuit)
    indices = sorted(i for fg in plan.gates for i in fg.gate_indices)
    assert indices == list(range(len(small_circuit)))


def test_width_mismatch_raises(small_circuit):
    with pytest.raises(FusionError, match="width|qubits"):
        bqcs_fusion(DDManager(5), small_circuit)
    with pytest.raises(FusionError, match="width|qubits"):
        flatdd_fusion(DDManager(5), small_circuit)
    with pytest.raises(FusionError, match="width|qubits"):
        aer_fusion(DDManager(5), small_circuit)


def test_step1_fuses_diagonal_runs():
    c = Circuit(3)
    c.rz(0.1, 0).cz(0, 1).cx(1, 2).rz(0.2, 2)  # all cost-1
    mgr = DDManager(3)
    items = _fuse_cost_one_runs(mgr, _lift(mgr, c))
    assert len(items) == 1
    assert items[0].cost == 1


def test_step2_fuses_cost_two_pairs():
    c = Circuit(3)
    c.h(0).h(1).h(2)
    mgr = DDManager(3)
    items = _fuse_cost_two_pairs(mgr, _lift(mgr, c))
    # three cost-2 gates -> one fused pair (cost 4) + one leftover
    assert [i.cost for i in items] == [4, 2]


def test_greedy_fuses_at_equal_cost():
    """The paper's Figure 4: everything collapses into one fused gate."""
    c = Circuit(3)
    c.ry(0.9, 0).ry(0.8, 1).cx(1, 2).cx(0, 1)
    c.ry(0.7, 2).ry(0.6, 0).cx(1, 2).cx(0, 1)
    mgr = DDManager(3)
    plan = bqcs_fusion(mgr, c)
    assert len(plan) == 1
    assert plan.gates[0].cost <= 8


def test_max_cost_caps_fusion():
    c = make_circuit("vqe", 6)
    mgr = DDManager(6)
    capped = bqcs_fusion(mgr, c, max_cost=2)
    assert all(fg.cost <= 2 for fg in capped.gates)


def test_bqcs_beats_or_matches_everyone(random_circuits):
    for circuit in random_circuits:
        mgr = DDManager(4)
        bq = bqcs_fusion(mgr, circuit).total_cost
        assert bq <= cuquantum_plan(mgr, circuit).total_cost
        assert bq <= aer_fusion(mgr, circuit).total_cost
        assert bq <= flatdd_fusion(mgr, circuit).total_cost


def test_table3_exact_values():
    """Circuits where our plans hit the paper's Table 3 numbers exactly."""
    expectations = {
        ("graphstate", 16): {"cuquantum": 128, "aer": 64, "bqsim": 32},
        ("tsp", 16): {"cuquantum": 684, "bqsim": 192},
        ("routing", 12): {"cuquantum": 324, "bqsim": 96},
        ("portfolio", 16): {"cuquantum": 1696, "bqsim": 128},
    }
    for (family, n), expected in expectations.items():
        circuit = make_circuit(family, n)
        mgr = DDManager(n)
        if "cuquantum" in expected:
            assert cuquantum_plan(mgr, circuit).total_cost == expected["cuquantum"]
        if "aer" in expected:
            assert aer_fusion(mgr, circuit).total_cost == expected["aer"]
        if "bqsim" in expected:
            assert bqcs_fusion(mgr, circuit).total_cost == expected["bqsim"]


def test_flatdd_never_below_bqsim_on_suite():
    for family, n in [("vqe", 10), ("routing", 8), ("graphstate", 10)]:
        circuit = make_circuit(family, n)
        mgr = DDManager(n)
        assert (
            flatdd_fusion(mgr, circuit).total_cost
            >= bqcs_fusion(mgr, circuit).total_cost
        )


def test_cuquantum_plan_counts_dense_macs(small_circuit):
    mgr = DDManager(4)
    plan = cuquantum_plan(mgr, small_circuit)
    assert plan.total_cost == sum(dense_gate_cost(g) for g in small_circuit.gates)
    assert len(plan) == len(small_circuit)


def test_aer_fusion_respects_qubit_cap():
    circuit = make_circuit("portfolio", 8)
    mgr = DDManager(8)
    for cap in (2, 3, 4):
        plan = aer_fusion(mgr, circuit, max_fused_qubits=cap)
        for fused in plan.gates:
            support = set()
            for i in fused.gate_indices:
                support.update(circuit.gates[i].all_qubits)
            # single gates may exceed the cap; fused groups must not
            if len(fused.gate_indices) > 1:
                assert len(support) <= cap


def test_aer_fusion_rejects_bad_cap(small_circuit):
    with pytest.raises(FusionError, match="positive"):
        aer_fusion(DDManager(4), small_circuit, max_fused_qubits=0)


def test_plan_macs_accounting(small_circuit):
    mgr = DDManager(4)
    plan = bqcs_fusion(mgr, small_circuit)
    assert plan.macs_per_input() == plan.total_cost * 16
    assert plan.macs(10) == plan.macs_per_input() * 10
    assert "bqcs" in plan.summary()


def test_graphstate_plan_structure():
    """16 H + 16 CZ fuse into few gates with total cost 32 (paper value)."""
    mgr = DDManager(16)
    plan = bqcs_fusion(mgr, graphstate(16))
    assert plan.total_cost == 32
    assert len(plan) < 32
