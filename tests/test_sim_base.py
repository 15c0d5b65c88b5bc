"""Tests for the simulator base types (BatchSpec, results, plan cache)."""

import numpy as np
import pytest

from repro.circuit import Circuit, generate_batches, random_batch
from repro.circuit.generators import make_circuit
from repro.errors import SimulationError
from repro.sim import BQSimSimulator, BatchSpec
from repro.sim.base import PlanCache


def test_batch_spec_num_inputs():
    assert BatchSpec(num_batches=200, batch_size=256).num_inputs == 51200


def test_resolve_batches_generates_deterministically():
    circuit = make_circuit("vqe", 6)
    spec = BatchSpec(num_batches=3, batch_size=4, seed=5)
    sim = BQSimSimulator()
    a = sim._resolve_batches(circuit, spec, None, True)
    b = sim._resolve_batches(circuit, spec, None, True)
    for x, y in zip(a, b):
        assert np.array_equal(x.states, y.states)
    assert sim._resolve_batches(circuit, spec, None, False) is None


def test_resolve_batches_validates_width_and_size():
    circuit = make_circuit("vqe", 6)
    spec = BatchSpec(num_batches=1, batch_size=4)
    sim = BQSimSimulator()
    with pytest.raises(SimulationError, match="width"):
        sim._resolve_batches(circuit, spec, [random_batch(5, 4, rng=0)], True)
    with pytest.raises(SimulationError, match="size"):
        sim._resolve_batches(circuit, spec, [random_batch(6, 8, rng=0)], True)


def test_plan_cache_keyed_by_circuit_structure():
    cache = PlanCache()
    calls = []
    a = Circuit(2, name="a").h(0).cx(0, 1)
    first = cache.get(a, lambda: calls.append(1) or "plan-a")
    again = cache.get(a, lambda: calls.append(1) or "plan-a2")
    assert first == again == "plan-a"
    assert calls == [1]
    # a structurally identical circuit shares the plan, even though it is a
    # distinct object with a different display name
    twin = Circuit(2, name="twin").h(0).cx(0, 1)
    assert cache.get(twin, lambda: "plan-twin") == "plan-a"
    # a structurally different circuit gets its own entry
    b = Circuit(2, name="b").x(0)
    assert cache.get(b, lambda: "plan-b") == "plan-b"


def test_plan_cache_detects_in_place_mutation():
    # the old id(circuit) keying returned stale plans after an in-place
    # edit; structural keying must not
    cache = PlanCache()
    circuit = Circuit(2, name="mut").h(0)
    assert cache.get(circuit, lambda: "before") == "before"
    circuit.add("rz", 0, (0.25,))
    assert cache.get(circuit, lambda: "after") == "after"


def test_plan_cache_extra_settings_partition_entries():
    cache = PlanCache()
    circuit = Circuit(2, name="c").h(0)
    assert cache.get(circuit, lambda: "loose", extra=("tau", 1)) == "loose"
    assert cache.get(circuit, lambda: "tight", extra=("tau", 2)) == "tight"
    assert cache.get(circuit, lambda: "again", extra=("tau", 1)) == "loose"


def test_plan_cache_disk_tier_paths(tmp_path):
    cache = PlanCache(cache_dir=tmp_path / "plans")
    circuit = Circuit(2, name="d").h(0)
    key = cache.key(circuit)
    path = cache.disk_path(key)
    assert path is not None and path.suffix == ".npz"
    assert cache.disk_entries() == []
    path.write_bytes(b"stub")
    assert cache.disk_entries() == [path]
    cache.clear(disk=True)
    assert cache.disk_entries() == []
    # memory-only caches have no disk tier
    assert PlanCache().disk_path(key) is None


def test_result_modeled_time_ms():
    circuit = make_circuit("routing", 6)
    result = BQSimSimulator().run(circuit, BatchSpec(1, 4), execute=False)
    assert result.modeled_time_ms == pytest.approx(result.modeled_time * 1e3)
    assert result.circuit_name == circuit.name
    assert result.num_qubits == 6
    assert result.wall_time > 0
