"""Tests for the fidelity-budgeted approximate tier (:mod:`repro.approx`).

Covers the pruning pass itself (edge pruning, the fidelity ledger and
its end-to-end guarantee), the exactness contract at budget 1.0 across
every simulator, the serving-layer wiring (group keys, achieved
fidelity, ``stats["approx"]``, SLO attainment), plan-archive
persistence, and the regression test that the *documented* coalescing
group-key attributes match what :meth:`group_key_for` actually hashes.
"""

import numpy as np
import pytest

from repro.approx import (
    FidelityLedger,
    GateApproximation,
    THRESHOLD_LADDER,
    gate_fidelity,
    prune_edge,
    prune_plan,
)
from repro.bench.runner import make_simulators
from repro.circuit.generators import make_circuit
from repro.circuit.inputs import random_batch
from repro.dd.build import gate_matrix_dd
from repro.dd.export import count_nodes
from repro.dd.manager import DDManager
from repro.errors import ApproximationError, ServiceError
from repro.fusion.bqcs import bqcs_fusion
from repro.resilience.failover import rescue_queued
from repro.service import BatchSimulationService
from repro.sim.base import BatchSpec
from repro.sim.bqsim import BQSimSimulator
from repro.sim.statevector import simulate_batch


# ---------------------------------------------------------------------------
# pruning primitives
# ---------------------------------------------------------------------------

class TestPruneEdge:
    def test_zero_threshold_is_identity(self):
        mgr = DDManager(2)
        circuit = make_circuit("vqe_finetune", 2)
        dd = gate_matrix_dd(mgr, circuit.gates[0])
        pruned, dropped = prune_edge(mgr, dd, 0.0)
        assert pruned == dd and dropped == 0

    def test_small_angle_rotation_prunes_to_diagonal(self):
        mgr = DDManager(1)
        circuit = make_circuit("ghz", 1)  # structural placeholder
        from repro.circuit import Circuit

        c = Circuit(1, name="tiny_ry")
        c.ry(0.02, 0)
        dd = gate_matrix_dd(mgr, c.gates[0])
        pruned, dropped = prune_edge(mgr, dd, 0.05)
        assert dropped == 2  # both off-diagonal branches
        fid = gate_fidelity(mgr, dd, pruned)
        # pruning RY(theta) off-diagonals costs cos^2(theta/2)
        assert fid == pytest.approx(np.cos(0.01) ** 2, abs=1e-12)

    def test_unit_magnitude_weights_never_prune(self):
        mgr = DDManager(3)
        circuit = make_circuit("qft", 3)
        for gate in circuit.gates:
            dd = gate_matrix_dd(mgr, gate)
            _, dropped = prune_edge(mgr, dd, THRESHOLD_LADDER[0])
            assert dropped == 0

    def test_node_count_shrinks(self):
        mgr = DDManager(4)
        plan = bqcs_fusion(mgr, make_circuit("vqe_finetune", 4))
        pruned, ledger = prune_plan(mgr, plan, 0.99)
        assert ledger.pruned_gates > 0
        before = sum(count_nodes(g.dd) for g in plan.gates)
        after = sum(count_nodes(g.dd) for g in pruned.gates)
        assert after < before


class TestFidelityLedger:
    def test_achieved_is_product_of_gate_fidelities(self):
        ledger = FidelityLedger(budget=0.9)
        for i, fid in enumerate((0.99, 0.98)):
            ledger.spend(GateApproximation(
                gate_index=i, threshold=0.1, fidelity=fid,
                nodes_before=4, nodes_after=2,
                edges_before=8, edges_after=4,
                cost_before=4.0, cost_after=2.0, dropped_branches=2,
            ))
        assert ledger.achieved == pytest.approx(0.99 * 0.98)
        assert ledger.pruned_gates == 2
        assert ledger.dropped_branches == 4

    def test_spend_below_budget_raises_and_rolls_back(self):
        ledger = FidelityLedger(budget=0.99)
        overdraft = GateApproximation(
            gate_index=0, threshold=0.5, fidelity=0.5,
            nodes_before=4, nodes_after=2,
            edges_before=8, edges_after=4,
            cost_before=4.0, cost_after=2.0, dropped_branches=2,
        )
        with pytest.raises(ApproximationError):
            ledger.spend(overdraft)
        assert ledger.achieved == 1.0 and ledger.pruned_gates == 0

    def test_bad_budget_rejected(self):
        mgr = DDManager(2)
        plan = bqcs_fusion(mgr, make_circuit("ghz", 2))
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ApproximationError):
                prune_plan(mgr, plan, bad)


# ---------------------------------------------------------------------------
# the guarantee, property-style over a seeded corpus
# ---------------------------------------------------------------------------

CORPUS = [
    ("vqe_finetune", 5), ("vqe_finetune", 7),
    ("vqe", 5), ("supremacy", 5), ("qft", 5), ("ghz", 5),
]
BUDGETS = (0.999, 0.99, 0.9)


@pytest.mark.parametrize("family,n", CORPUS)
def test_achieved_meets_budget_across_corpus(family, n):
    mgr = DDManager(n)
    plan = bqcs_fusion(mgr, make_circuit(family, n))
    for budget in BUDGETS:
        pruned, ledger = prune_plan(mgr, plan, budget)
        assert ledger.achieved >= budget
        assert ledger.budget == budget
        # pruning can only shrink the plan
        assert pruned.total_cost <= plan.total_cost


@pytest.mark.parametrize("budget", BUDGETS)
def test_simulator_reports_achieved_at_least_budget(budget):
    circuit = make_circuit("vqe_finetune", 6)
    sim = BQSimSimulator(fidelity=budget)
    result = sim.run(
        circuit, BatchSpec(num_batches=1, batch_size=4, seed=3),
        execute=True,
    )
    approx = result.stats["approx"]
    assert approx["budget"] == budget
    assert approx["achieved"] >= budget


def test_measured_state_fidelity_tracks_the_ledger():
    """The plan-fidelity guarantee translates to per-column overlaps."""
    circuit = make_circuit("vqe_finetune", 6)
    batch = random_batch(6, 6, 11)
    exact = simulate_batch(circuit, batch)
    sim = BQSimSimulator(fidelity=0.99)
    run = sim.run(
        circuit, BatchSpec(num_batches=1, batch_size=6, seed=0),
        batches=[batch], execute=True,
    )
    approx = run.outputs[0]
    for col in range(exact.shape[1]):
        overlap = abs(np.vdot(exact[:, col], approx[:, col])) ** 2
        overlap /= (np.vdot(approx[:, col], approx[:, col]).real
                    * np.vdot(exact[:, col], exact[:, col]).real)
        assert overlap >= 0.99 - 5e-3


# ---------------------------------------------------------------------------
# budget 1.0 is bit-identical, across every simulator
# ---------------------------------------------------------------------------

def test_budget_one_is_bit_identical_across_simulators():
    circuit = make_circuit("vqe_finetune", 5)
    batch = random_batch(5, 4, 7)
    spec = BatchSpec(num_batches=1, batch_size=4, seed=0)

    plain = make_simulators()
    budgeted = make_simulators(fidelity=1.0)
    for name in plain:
        a = plain[name].run(circuit, spec, batches=[batch], execute=True)
        b = budgeted[name].run(circuit, spec, batches=[batch], execute=True)
        assert np.array_equal(a.outputs[0], b.outputs[0]), name

    # the fifth simulator: the dense statevector reference is the anchor
    reference = simulate_batch(circuit, batch)
    exact_bqsim = budgeted["bqsim"].run(
        circuit, spec, batches=[batch], execute=True
    )
    np.testing.assert_allclose(
        exact_bqsim.outputs[0], reference, atol=1e-10
    )


def test_budget_one_never_records_drift():
    circuit = make_circuit("vqe_finetune", 5)
    sim = BQSimSimulator(fidelity=1.0)
    result = sim.run(
        circuit, BatchSpec(num_batches=1, batch_size=2, seed=0),
        execute=True,
    )
    approx = result.stats["approx"]
    assert approx["achieved"] == 1.0
    assert approx["pruned_gates"] == 0
    assert approx["dropped_branches"] == 0


# ---------------------------------------------------------------------------
# serving layer: group keys, achieved fidelity, stats
# ---------------------------------------------------------------------------

def _batch(n, cols, seed):
    return random_batch(n, cols, seed)


class TestServiceWiring:
    def test_fidelity_classes_never_coalesce(self):
        svc = BatchSimulationService()
        circuit = make_circuit("vqe_finetune", 5)
        exact = svc.submit(circuit, _batch(5, 2, 0))
        apx = svc.submit(circuit, _batch(5, 2, 1), fidelity=0.99)
        apx2 = svc.submit(circuit, _batch(5, 2, 2), fidelity=0.99)
        other = svc.submit(circuit, _batch(5, 2, 3), fidelity=0.9)
        assert exact.group_key != apx.group_key
        assert apx.group_key == apx2.group_key
        assert apx.group_key != other.group_key

    def test_achieved_fidelity_lands_on_the_job(self):
        svc = BatchSimulationService()
        circuit = make_circuit("vqe_finetune", 5)
        job = svc.submit(circuit, _batch(5, 2, 0), fidelity=0.99)
        exact = svc.submit(circuit, _batch(5, 2, 1))
        svc.drain()
        assert job.achieved_fidelity is not None
        assert job.achieved_fidelity >= 0.99
        assert exact.achieved_fidelity == 1.0
        described = job.describe()
        assert described["fidelity"] == 0.99
        assert described["achieved_fidelity"] == job.achieved_fidelity

    def test_stats_approx_block(self):
        svc = BatchSimulationService()
        circuit = make_circuit("vqe_finetune", 5)
        svc.submit(circuit, _batch(5, 2, 0), fidelity=0.99)
        svc.submit(circuit, _batch(5, 2, 1))
        svc.drain()
        block = svc.stats()["approx"]
        assert block["approx_jobs"] == 1
        assert block["exact_jobs"] == 1
        assert block["attainment_rate"] == 1.0
        assert block["pruned_gates"] > 0
        slo = svc.stats()["slo"]
        assert slo["approx_jobs"] == 1
        assert slo["fidelity_attained"] == 1
        assert slo["fidelity_attainment_rate"] == 1.0

    def test_bad_budget_rejected_at_admission(self):
        svc = BatchSimulationService()
        circuit = make_circuit("ghz", 3)
        with pytest.raises(ServiceError):
            svc.submit(circuit, _batch(3, 2, 0), fidelity=0.0)
        with pytest.raises(ServiceError):
            svc.submit(circuit, _batch(3, 2, 0), fidelity=1.5)

    def test_solo_fallback_preserves_achieved_fidelity(self):
        """Regression: an approximate job that completes via the process
        pool's per-job isolation fallback still reports its achieved
        fidelity (the solo runs carry the ledger when the mega-batch
        degrades), so the SLO tracker never counts it as fidelity-missed.
        """
        from repro.circuit import InputBatch
        from repro.service import JobStatus

        svc = BatchSimulationService(
            num_workers=1,
            parallelism="process",
            simulator_kwargs={"health": "fail"},
        )
        circuit = make_circuit("vqe_finetune", 5)
        try:
            good = svc.submit(circuit, _batch(5, 2, 0), fidelity=0.99)
            poison = svc.submit(
                circuit,
                InputBatch(np.full((32, 2), np.nan, dtype=np.complex128)),
                fidelity=0.99,
            )
            svc.drain()
        finally:
            svc.close()
        assert good.status is JobStatus.DONE and good.solo_retry
        assert poison.status is JobStatus.FAILED
        assert good.achieved_fidelity is not None
        assert good.achieved_fidelity >= 0.99
        slo = svc.stats()["slo"]
        assert slo["fidelity_attained"] == 1

    def test_rescued_jobs_keep_their_fidelity_class(self):
        svc = BatchSimulationService()
        circuit = make_circuit("vqe_finetune", 5)
        svc.submit(circuit, _batch(5, 2, 0), fidelity=0.99)
        rescued = rescue_queued(svc, "s0")
        assert len(rescued) == 1
        assert rescued[0].fidelity == 0.99


class TestGroupKeyDocumentation:
    """Regression: the documented group-key attributes are the real ones.

    ``docs`` and the coalescer module docstring promise the key covers
    circuit structure, compilation settings, per-job options, and the
    fidelity class — each must actually change the key, and nothing
    else submitted alongside (priority, deadline) may.
    """

    def test_each_documented_attribute_partitions(self):
        svc = BatchSimulationService()
        circuit = make_circuit("vqe_finetune", 5)
        base = svc.group_key_for(circuit)

        # circuit structure
        assert svc.group_key_for(make_circuit("qft", 5)) != base
        # per-job options
        assert svc.group_key_for(circuit, options=("opt",)) != base
        # fidelity class (and 1.0 folds back into the exact class)
        assert svc.group_key_for(circuit, fidelity=0.99) != base
        assert svc.group_key_for(circuit, fidelity=1.0) == base
        assert (svc.group_key_for(circuit, fidelity=0.99)
                != svc.group_key_for(circuit, fidelity=0.9))
        # compilation settings
        other = BatchSimulationService(
            simulator_kwargs={"max_fused_cost": 2}
        )
        assert other.group_key_for(circuit) != base

    def test_scheduling_attributes_do_not_partition(self):
        svc = BatchSimulationService()
        circuit = make_circuit("vqe_finetune", 5)
        a = svc.submit(circuit, _batch(5, 2, 0), priority=0)
        b = svc.submit(circuit, _batch(5, 2, 1), priority=7, deadline=99.0)
        assert a.group_key == b.group_key

    def test_group_key_for_does_not_mutate_the_template(self):
        """Regression: fingerprinting a budget must not write through the
        shared template simulator — the gateway calls ``group_key_for``
        from concurrent executor threads without holding the shard lock,
        so a temporary mutation could leak another job's fidelity class
        into an unrelated key."""
        svc = BatchSimulationService()
        circuit = make_circuit("vqe_finetune", 5)
        assert svc._template.fidelity == 1.0
        svc.group_key_for(circuit, fidelity=0.9)
        assert svc._template.fidelity == 1.0

    def test_group_key_for_is_stable_under_concurrent_mixed_budgets(self):
        """Concurrent exact/approximate fingerprints never cross-contaminate:
        every thread sees exactly the key serial computation produces."""
        import threading

        svc = BatchSimulationService()
        circuit = make_circuit("vqe_finetune", 5)
        budgets = [1.0, 0.99, 0.9]
        expected = {b: svc.group_key_for(circuit, fidelity=b) for b in budgets}
        mismatches = []

        def fingerprint(budget):
            for _ in range(100):
                key = svc.group_key_for(circuit, fidelity=budget)
                if key != expected[budget]:
                    mismatches.append(budget)
                    return

        threads = [
            threading.Thread(target=fingerprint, args=(b,))
            for b in budgets * 4
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert mismatches == []


# ---------------------------------------------------------------------------
# plan-archive persistence
# ---------------------------------------------------------------------------

def test_disk_cached_plan_preserves_the_ledger(tmp_path):
    circuit = make_circuit("vqe_finetune", 5)
    spec = BatchSpec(num_batches=1, batch_size=3, seed=0)
    warm = BQSimSimulator(fidelity=0.99, cache_dir=str(tmp_path))
    first = warm.run(circuit, spec, execute=True)
    assert first.stats["plan_source"] in ("built", "memory")

    cold = BQSimSimulator(fidelity=0.99, cache_dir=str(tmp_path))
    second = cold.run(circuit, spec, execute=True)
    assert second.stats["plan_source"] == "disk"
    assert second.stats["approx"] == first.stats["approx"]
    assert np.array_equal(second.outputs[0], first.outputs[0])


@pytest.mark.parametrize("budget", [1.0, 0.99])
def test_disk_tier_reports_the_built_approx_block(budget, tmp_path):
    """An exact archive carries no ledger, yet its plan reports the
    ``stats["approx"]`` block a fresh build does (``num_gates`` included)."""
    circuit = make_circuit("qft", 6)
    spec = BatchSpec(num_batches=1, batch_size=2, seed=0)
    built = BQSimSimulator(fidelity=budget, cache_dir=str(tmp_path))
    first = built.run(circuit, spec, execute=True)
    loaded = BQSimSimulator(fidelity=budget, cache_dir=str(tmp_path))
    second = loaded.run(circuit, spec, execute=True)
    assert (first.stats["plan_source"], second.stats["plan_source"]) == (
        "built",
        "disk",
    )
    assert second.stats["approx"] == first.stats["approx"]
    assert first.stats["approx"]["num_gates"] == first.stats["fused_gates"]


def test_exact_plan_archive_has_no_approx_payload(tmp_path):
    from repro.ell.persist import load_compiled_plan

    circuit = make_circuit("ghz", 4)
    spec = BatchSpec(num_batches=1, batch_size=2, seed=0)
    sim = BQSimSimulator(cache_dir=str(tmp_path))
    sim.run(circuit, spec, execute=True)
    archives = list(tmp_path.glob("*.npz"))
    assert archives
    compiled = load_compiled_plan(archives[0])
    assert compiled.approx is None
