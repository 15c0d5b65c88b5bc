"""Tests for the resilience subsystem: deterministic fault injection,
retries, degradation, checkpoint/resume, and the numerical health guard."""

import numpy as np
import pytest
from dataclasses import replace

from repro.circuit import generate_batches
from repro.circuit.generators import random_circuit
from repro.ell.format import ELLMatrix
from repro.ell.persist import load_compiled_plan
from repro.errors import (
    CheckpointError,
    ConversionError,
    MemoryFault,
    NumericalError,
    SimulationError,
    TransientFault,
)
from repro.gpu.device import VirtualGPU
from repro.gpu.spec import GpuSpec
from repro.resilience import (
    BackendLadder,
    FaultInjector,
    FaultPlan,
    HealthPolicy,
    RetryPolicy,
    RetrySession,
    apply_with_recovery,
    check_state_block,
    fault_injection,
    get_resilience_log,
    load_checkpoint,
)
from repro.sim import (
    BQSimSimulator,
    BatchSpec,
    FlatDDSimulator,
    QiskitAerSimulator,
)


N = 4


@pytest.fixture
def circuit():
    return random_circuit(N, 14, seed=3)


@pytest.fixture
def spec():
    return BatchSpec(num_batches=4, batch_size=4, seed=2)


@pytest.fixture
def batches(spec):
    return list(
        generate_batches(N, spec.num_batches, spec.batch_size, spec.seed)
    )


@pytest.fixture
def reference(circuit, spec, batches):
    """A fault-free run everything else is compared against."""
    return BQSimSimulator().run(circuit, spec, batches=batches)


# -- fault plans and injectors -------------------------------------------------


def test_fault_plan_parse_and_describe_round_trip():
    plan = FaultPlan.parse("seed=5, kernel=0.05:3:2, oom=1:1, copy=0.01")
    assert plan.seed == 5
    kernel = plan.specs[0]
    assert (kernel.site, kernel.rate, kernel.max_fires, kernel.skip) == (
        "kernel", 0.05, 3, 2,
    )
    assert FaultPlan.parse(plan.describe()) == plan


@pytest.mark.parametrize(
    "text,match",
    [
        ("bogus=0.1", "unknown fault site"),
        ("kernel=2", "outside"),
        ("kernel", "expected key=value"),
        ("kernel=x", "bad fault entry"),
    ],
)
def test_fault_plan_rejects_malformed_entries(text, match):
    with pytest.raises(SimulationError, match=match):
        FaultPlan.parse(text)


def test_injection_streams_are_independent_per_site():
    """Site decisions depend only on that site's query order, never on how
    other sites were interleaved — the core determinism property."""
    plan = FaultPlan.parse("seed=9,kernel=0.5,copy=0.5")
    a = FaultInjector(plan)
    seq_a = [a.check("kernel") for _ in range(30)]
    b = FaultInjector(plan)
    seq_b = []
    for _ in range(30):
        b.check("copy")
        seq_b.append(b.check("kernel"))
        b.check("copy")
    assert seq_a == seq_b
    assert any(seq_a) and not all(seq_a)


def test_injector_honours_skip_and_max_fires():
    injector = FaultInjector(FaultPlan.parse("kernel=1:2:3"))
    decisions = [injector.check("kernel") for _ in range(8)]
    assert decisions == [False] * 3 + [True, True] + [False] * 3


# -- retry policy --------------------------------------------------------------


def test_retry_backoff_grows_and_exhausts():
    session = RetrySession(RetryPolicy(max_attempts=3), seed=1)
    first = session.next_backoff("kernel", 1)
    second = session.next_backoff("kernel", 2)
    assert 0 < first < second
    assert session.next_backoff("kernel", 3) is None


def test_retry_run_budget_caps_total_retries():
    session = RetrySession(RetryPolicy(max_attempts=10, run_budget=2))
    assert session.next_backoff("copy", 1) is not None
    assert session.next_backoff("copy", 1) is not None
    assert session.next_backoff("copy", 1) is None


# -- virtual device fault handling ---------------------------------------------


def test_kernel_fault_is_retried_once_and_body_runs_once():
    with fault_injection("seed=1,kernel=1:1"):
        device = VirtualGPU(GpuSpec())
        calls = []
        device.kernel("k0", lambda: calls.append(1), macs=1e6, bytes_moved=1e6)
        timeline = device.run()
    assert calls == [1]  # injected fault fires *before* the body
    assert timeline.total_retries() == 1


def test_copy_fault_is_retried_and_data_survives(rng):
    data = rng.standard_normal((4, 4))
    with fault_injection("seed=1,copy=1:1"):
        device = VirtualGPU(GpuSpec())
        buffer = device.alloc("x", data.nbytes)
        device.h2d(buffer, data)
        timeline = device.run()
    assert np.array_equal(buffer.array, data)
    assert timeline.total_retries() == 1


def test_persistent_kernel_fault_exhausts_retries():
    with fault_injection("seed=1,kernel=1"):
        device = VirtualGPU(GpuSpec())
        with pytest.raises(TransientFault):
            device.kernel("k0", lambda: None, macs=1.0, bytes_moved=1.0)


def test_injected_oom_raises_memory_fault_on_device_and_pool():
    with fault_injection("oom=1"):
        device = VirtualGPU(GpuSpec())
        with pytest.raises(MemoryFault, match="injected"):
            device.alloc("x", 1024)


# -- degradation ladder --------------------------------------------------------


def _hadamard_ell() -> ELLMatrix:
    s = 1 / np.sqrt(2)
    values = np.array([[s, s], [s, -s]], dtype=np.complex128)
    cols = np.array([[0, 1], [0, 1]], dtype=np.int64)
    return ELLMatrix(1, values, cols)


def test_ladder_demotes_on_backend_fault_and_sticks():
    ell = _hadamard_ell()
    states = np.eye(2, dtype=np.complex128)
    expected = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
    with fault_injection("spmm=1:1"):
        ladder = BackendLadder()
        start = ladder.backend
        out = ladder.apply(ell, states)
    assert np.allclose(out, expected)
    assert ladder.demoted and ladder.backend != start


@pytest.mark.parametrize("start", ["csr", "numpy"])
def test_ladder_is_not_demoted_before_a_failure(start):
    assert BackendLadder(start).demoted is False


def test_apply_with_recovery_heals_injected_bitflip():
    ell = _hadamard_ell()
    states = np.eye(2, dtype=np.complex128)
    with fault_injection("seed=2,bitflip=1:1"):
        ladder = BackendLadder()
        out = apply_with_recovery(ladder, ell, states, RetrySession())
    assert np.all(np.isfinite(out))
    expected = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
    assert np.allclose(out, expected)


# -- end-to-end healing through the BQSim pipeline -----------------------------


def test_transient_kernel_faults_heal_bit_identically(
    circuit, spec, batches, reference
):
    sim = BQSimSimulator(faults="seed=7,kernel=0.2,copy=0.1")
    result = sim.run(circuit, spec, batches=batches)
    for out, ref in zip(result.outputs, reference.outputs):
        assert np.array_equal(out, ref)
    resilience = result.stats["resilience"]
    assert resilience["faults"] >= 1
    assert resilience["retries"] >= 1
    assert resilience["task_retries"] >= 1
    # retries extend the modeled makespan, they are never free
    assert result.modeled_time > reference.modeled_time


def test_injected_bitflip_is_detected_and_healed(
    circuit, spec, batches, reference
):
    sim = BQSimSimulator(faults="seed=2,bitflip=1:1")
    result = sim.run(circuit, spec, batches=batches)
    for out, ref in zip(result.outputs, reference.outputs):
        assert np.array_equal(out, ref)
    assert result.stats["resilience"]["retries"] >= 1


def test_spmm_backend_fault_demotes_ladder(circuit, spec, batches, reference):
    sim = BQSimSimulator(faults="spmm=1:1")
    result = sim.run(circuit, spec, batches=batches)
    for out, ref in zip(result.outputs, reference.outputs):
        assert np.allclose(out, ref, atol=1e-10)
    resilience = result.stats["resilience"]
    assert resilience["demotions"] == 1
    assert resilience["demoted"]
    assert resilience["backend"] != reference.stats["resilience"]["backend"]


@pytest.mark.parametrize("factory", [FlatDDSimulator, QiskitAerSimulator])
def test_per_input_baselines_report_the_demoted_ladder(
    factory, circuit, spec, batches, reference
):
    result = factory(faults="spmm=1:1").run(circuit, spec, batches=batches)
    for out, ref in zip(result.outputs, reference.outputs):
        assert np.allclose(out, ref, atol=1e-10)
    resilience = result.stats["resilience"]
    assert resilience["demotions"] == 1
    assert resilience["demoted"] is True
    assert resilience["backend"] != "csr"


def test_injected_oom_triggers_batch_split(circuit, spec, batches, reference):
    sim = BQSimSimulator(faults="seed=4,oom=1:1", max_splits=2)
    result = sim.run(circuit, spec, batches=batches)
    assert result.stats["resilience"]["batch_split"] == 2
    for out, ref in zip(result.outputs, reference.outputs):
        assert np.allclose(out, ref, atol=1e-10)


def test_capacity_overflow_splits_batches(circuit, spec, batches, reference):
    # 4 buffers of 16x8 amplitudes need 8192 B; 6000 B forces one split
    tiny = replace(GpuSpec(), memory_bytes=6000)
    wide = BatchSpec(num_batches=2, batch_size=8, seed=2)
    wide_batches = list(generate_batches(N, 2, 8, 2))
    ref = BQSimSimulator().run(circuit, wide, batches=wide_batches)
    sim = BQSimSimulator(gpu=tiny, max_splits=3)
    result = sim.run(circuit, wide, batches=wide_batches)
    assert result.stats["resilience"]["batch_split"] == 2
    for out, expected in zip(result.outputs, ref.outputs):
        assert np.allclose(out, expected, atol=1e-10)


def test_capacity_overflow_without_splits_still_raises(circuit, spec, batches):
    sim = BQSimSimulator(gpu=replace(GpuSpec(), memory_bytes=6000))
    wide = BatchSpec(num_batches=2, batch_size=8, seed=2)
    with pytest.raises(MemoryFault, match="exceed device memory"):
        sim.run(circuit, wide, batches=list(generate_batches(N, 2, 8, 2)))


def test_clean_run_reports_empty_resilience_summary(reference):
    resilience = reference.stats["resilience"]
    assert resilience["counts"] == {}
    assert resilience["events"] == []
    assert resilience["batch_split"] == 1
    assert resilience["task_retries"] == 0


# -- determinism ---------------------------------------------------------------


def test_faulted_runs_are_bit_identical_and_log_identically(
    circuit, spec, batches
):
    plan = "seed=3,kernel=0.15,bitflip=0.1:2,copy=0.05"
    results = [
        BQSimSimulator(faults=plan).run(circuit, spec, batches=batches)
        for _ in range(2)
    ]
    a, b = results
    for out_a, out_b in zip(a.outputs, b.outputs):
        assert np.array_equal(out_a, out_b)
    assert a.stats["resilience"]["events"] == b.stats["resilience"]["events"]
    assert a.stats["resilience"]["events"], "the plan should actually fire"
    assert a.modeled_time == b.modeled_time


# -- plan-cache corruption and transient I/O -----------------------------------


def test_injected_cache_corruption_quarantines_and_rebuilds(
    tmp_path, circuit, spec, batches
):
    cache = tmp_path / "plans"
    BQSimSimulator(cache_dir=cache).run(circuit, spec, batches=batches)
    sim = BQSimSimulator(cache_dir=cache, faults="cache=1:1")
    with pytest.warns(UserWarning, match="quarantined corrupt plan archive"):
        result = sim.run(circuit, spec, batches=batches)
    assert result.stats["plan_source"] == "built"
    assert result.stats["plan_cache"]["quarantined"] == 1
    assert result.stats["resilience"]["quarantines"] == 1
    assert len(list((cache / "corrupt").iterdir())) == 1
    # the rebuild re-saved a healthy archive alongside the quarantined one
    assert len(sim._plans.disk_entries()) == 1


def test_transient_cache_io_fault_degrades_to_a_miss(
    tmp_path, circuit, spec, batches
):
    cache = tmp_path / "plans"
    BQSimSimulator(cache_dir=cache).run(circuit, spec, batches=batches)
    sim = BQSimSimulator(cache_dir=cache, faults="cache_io=1")
    result = sim.run(circuit, spec, batches=batches)
    assert result.stats["plan_source"] == "built"
    resilience = result.stats["resilience"]
    assert resilience["retries"] == 2  # attempts 1 and 2 of max_attempts=3
    assert resilience["counts"]["retry_exhausted"] == 1
    assert result.stats["plan_cache"]["quarantined"] == 0


# -- typed persistence errors --------------------------------------------------


def test_truncated_plan_archive_raises_typed_error(tmp_path):
    path = tmp_path / "plan.npz"
    path.write_bytes(b"PK\x03\x04 this is not a real zip archive")
    with pytest.raises(ConversionError, match="unreadable"):
        load_compiled_plan(path)


def test_missing_plan_entry_names_the_key(tmp_path):
    path = tmp_path / "plan.npz"
    np.savez(path, format_version=np.array(2))
    with pytest.raises(ConversionError) as excinfo:
        load_compiled_plan(path)
    assert excinfo.value.key == "num_qubits"


def test_newer_plan_version_asks_for_an_upgrade(tmp_path):
    path = tmp_path / "plan.npz"
    np.savez(path, format_version=np.array(99))
    with pytest.raises(ConversionError, match="newer than supported") as excinfo:
        load_compiled_plan(path)
    assert excinfo.value.version == 99


def test_older_plan_version_is_rejected_with_version(tmp_path):
    path = tmp_path / "plan.npz"
    np.savez(path, format_version=np.array(1))
    with pytest.raises(ConversionError, match="not supported") as excinfo:
        load_compiled_plan(path)
    assert excinfo.value.version == 1


# -- checkpoint / resume -------------------------------------------------------


def test_killed_run_resumes_from_checkpoint_identically(
    tmp_path, circuit, spec, batches, reference
):
    kernels = reference.stats["fused_gates"]
    ckpt_dir = tmp_path / "ckpt"
    # arm the kernel site after exactly two batches' worth of launches, with
    # unlimited fires: every retry fails too, so the run dies in batch 2
    killer = BQSimSimulator(
        checkpoint_dir=ckpt_dir,
        faults=f"seed=5,kernel=1::{2 * kernels}",
    )
    with pytest.raises(TransientFault):
        killer.run(circuit, spec, batches=batches)
    paths = list(ckpt_dir.glob("*.ckpt.npz"))
    assert len(paths) == 1
    assert load_checkpoint(paths[0]).completed == 2

    result = BQSimSimulator().run(
        circuit, spec, batches=batches, resume=paths[0]
    )
    assert result.stats["resilience"]["resumed_batches"] == 2
    assert len(result.outputs) == spec.num_batches
    for out, ref in zip(result.outputs, reference.outputs):
        assert np.array_equal(out, ref)


def test_resume_rejects_mismatched_spec(tmp_path, circuit, spec, batches):
    ckpt_dir = tmp_path / "ckpt"
    BQSimSimulator(checkpoint_dir=ckpt_dir).run(
        circuit, spec, batches=batches
    )
    path = next(ckpt_dir.glob("*.ckpt.npz"))
    other = BatchSpec(num_batches=spec.num_batches, batch_size=8, seed=2)
    with pytest.raises(CheckpointError, match="batch spec"):
        BQSimSimulator().run(circuit, other, resume=path)


def test_resume_rejects_mismatched_plan(tmp_path, circuit, spec, batches):
    ckpt_dir = tmp_path / "ckpt"
    BQSimSimulator(checkpoint_dir=ckpt_dir).run(
        circuit, spec, batches=batches
    )
    path = next(ckpt_dir.glob("*.ckpt.npz"))
    other = random_circuit(N, 14, seed=99)
    with pytest.raises(CheckpointError, match="does not match"):
        BQSimSimulator().run(other, spec, resume=path)


def test_resume_requires_execution(tmp_path, circuit, spec, batches):
    ckpt_dir = tmp_path / "ckpt"
    BQSimSimulator(checkpoint_dir=ckpt_dir).run(
        circuit, spec, batches=batches
    )
    path = next(ckpt_dir.glob("*.ckpt.npz"))
    with pytest.raises(CheckpointError, match="execute"):
        BQSimSimulator().run(circuit, spec, execute=False, resume=path)


def test_unreadable_checkpoint_raises_typed_error(tmp_path):
    path = tmp_path / "bad.ckpt.npz"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(CheckpointError, match="unreadable"):
        load_checkpoint(path)


# -- numerical health guard ----------------------------------------------------


def _drifting_states() -> np.ndarray:
    states = np.zeros((4, 2), dtype=np.complex128)
    states[0, 0] = 1.5  # column norms 1.5 and 1.0
    states[1, 1] = 1.0
    return states


def test_health_warn_reports_norm_drift():
    with pytest.warns(RuntimeWarning, match="norm drift"):
        out = check_state_block(
            _drifting_states(), HealthPolicy(mode="warn"), label="b0"
        )
    assert np.array_equal(out, _drifting_states())  # untouched


def test_health_renormalize_restores_unit_norms():
    log = get_resilience_log()
    mark = log.mark()
    out = check_state_block(
        _drifting_states(), HealthPolicy(mode="renormalize"), label="b0"
    )
    assert np.allclose(np.linalg.norm(out, axis=0), 1.0)
    kinds = [e["kind"] for e in log.events_since(mark)]
    assert "renormalize" in kinds


def test_health_fail_raises_numerical_error():
    with pytest.raises(NumericalError, match="norm drift"):
        check_state_block(_drifting_states(), HealthPolicy(mode="fail"))
    bad = _drifting_states()
    bad[2, 0] = np.nan
    with pytest.raises(NumericalError, match="non-finite"):
        check_state_block(bad, HealthPolicy(mode="fail"))


def test_health_off_and_none_do_nothing():
    states = _drifting_states()
    assert check_state_block(states, HealthPolicy(mode="off")) is states
    assert check_state_block(states, None) is states
    assert HealthPolicy.coerce(None).mode == "off"
    assert HealthPolicy.coerce("fail").mode == "fail"
    with pytest.raises(SimulationError, match="unknown health mode"):
        HealthPolicy(mode="loud")
