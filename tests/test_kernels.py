"""Tests for the swappable array-backend kernel engine and registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.kernels import (
    ENGINE_ENV,
    ENGINE_NAMES,
    ArrayEngine,
    EngineUnavailableError,
    FakeGpuEngine,
    NumpyEngine,
    available_engines,
    call,
    cpu,
    engine_available,
    get_engine,
    get_kernel,
    gpu,
    kernel,
    kernel_names,
    ops,
    set_default_engine,
    use_engine,
)
from repro.obs import get_metrics


@pytest.fixture(autouse=True)
def _restore_default_engine(monkeypatch):
    # engine-resolution units pin their own selection; neutralize any
    # ambient REPRO_ENGINE (the CI parity job exports fake-gpu)
    monkeypatch.delenv(ENGINE_ENV, raising=False)
    previous = set_default_engine(None)
    yield
    set_default_engine(previous)


# ---------------------------------------------------------------------------
# engine resolution
# ---------------------------------------------------------------------------

def test_default_engine_is_numpy():
    eng = get_engine(None)
    assert eng.name == "numpy"
    assert isinstance(eng, NumpyEngine)
    assert not eng.is_device
    assert eng.host_memory


def test_engine_instances_are_cached():
    assert get_engine("numpy") is get_engine("numpy")
    assert get_engine("fake-gpu") is get_engine("fake-gpu")


def test_engine_instance_passes_through():
    eng = get_engine("fake-gpu")
    assert get_engine(eng) is eng


def test_unknown_engine_raises():
    with pytest.raises(SimulationError, match="unknown array engine"):
        get_engine("tpu")


def test_env_var_selects_engine(monkeypatch):
    monkeypatch.setenv(ENGINE_ENV, "fake-gpu")
    assert get_engine(None).name == "fake-gpu"


def test_explicit_argument_beats_env(monkeypatch):
    monkeypatch.setenv(ENGINE_ENV, "fake-gpu")
    assert get_engine("numpy").name == "numpy"


def test_set_default_engine_beats_env(monkeypatch):
    monkeypatch.setenv(ENGINE_ENV, "numpy")
    set_default_engine("fake-gpu")
    assert get_engine(None).name == "fake-gpu"


def test_use_engine_scopes_and_restores():
    assert get_engine(None).name == "numpy"
    with use_engine("fake-gpu") as eng:
        assert eng.name == "fake-gpu"
        assert get_engine(None).name == "fake-gpu"
    assert get_engine(None).name == "numpy"


def test_cpu_and_gpu_switches():
    eng = gpu(allow_fake=True)
    assert eng.is_device
    assert get_engine(None) is eng
    assert cpu().name == "numpy"
    assert get_engine(None).name == "numpy"


def test_gpu_without_cupy_requires_allow_fake():
    if engine_available("cupy"):
        pytest.skip("cupy installed; strict gpu() succeeds here")
    with pytest.raises(EngineUnavailableError):
        gpu(allow_fake=False)


def test_available_engines_lists_all_names():
    assert available_engines() == ENGINE_NAMES
    assert engine_available("numpy")
    assert engine_available("fake-gpu")
    assert not engine_available("tpu")


def test_cupy_engine_import_smoke():
    """CuPy engine: tiny round-trip when installed, typed error when not."""
    if not engine_available("cupy"):
        with pytest.raises(EngineUnavailableError, match="cupy"):
            get_engine("cupy")
        pytest.skip("cupy not installed")
    eng = get_engine("cupy")
    host = np.arange(8, dtype=np.complex128).reshape(4, 2)
    dev = eng.from_host(host)
    assert not eng.host_memory
    np.testing.assert_array_equal(eng.to_host(dev), host)


# ---------------------------------------------------------------------------
# the fake-gpu device stand-in
# ---------------------------------------------------------------------------

def test_fake_gpu_models_the_device_boundary():
    eng = get_engine("fake-gpu")
    assert eng.is_device
    assert eng.host_memory  # numpy-backed: scipy can still consume it
    host = np.ones((4, 2), dtype=np.complex128)
    dev = eng.from_host(host)
    dev[0, 0] = 5.0
    assert host[0, 0] == 1.0  # H2D copied
    back = eng.to_host_copy(dev)
    dev[1, 1] = 7.0
    assert back[1, 1] == 1.0  # D2H copied


def test_fake_gpu_reverses_slot_order():
    assert list(get_engine("numpy").slot_order(3)) == [0, 1, 2]
    assert list(get_engine("fake-gpu").slot_order(3)) == [2, 1, 0]


def test_poison_writes_nan():
    eng = get_engine("numpy")
    block = np.ones((2, 3), dtype=np.complex128)
    eng.poison(block, 4)
    assert np.isnan(block.flat[4])
    assert np.isfinite(block.flat[3])


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_registry_lists_all_named_kernels():
    names = kernel_names()
    for expected in (
        "ell.gather.width1",
        "ell.gather.spmm",
        "ell.gather.slots",
        "dense.apply",
        "batch.rotate.merge",
        "batch.rotate.copy",
        "state.init",
        "state.normalize",
    ):
        assert expected in names


def test_get_kernel_and_call_dispatch():
    fn = get_kernel("state.init")
    assert fn is ops.statevector_init
    states = call("state.init", "numpy", 3, 2)
    assert states.shape == (8, 2)
    assert states[0, 0] == 1.0


def test_unknown_kernel_raises():
    with pytest.raises(SimulationError, match="unknown kernel"):
        get_kernel("ell.gather.nope")


def test_duplicate_kernel_name_rejected():
    with pytest.raises(SimulationError, match="registered twice"):
        kernel("state.init")(lambda engine: None)


def test_kernel_calls_feed_per_backend_counters():
    get_metrics().reset()
    ops.statevector_init("numpy", 2)
    ops.statevector_init("numpy", 2)
    ops.statevector_init("fake-gpu", 2)
    counters = get_metrics().snapshot()["counters"]
    assert counters["kernel.state.init.numpy.calls"] == 2
    assert counters["kernel.state.init.fake-gpu.calls"] == 1


def test_kernel_resolves_default_engine():
    get_metrics().reset()
    with use_engine("fake-gpu"):
        ops.statevector_init(None, 2)
    counters = get_metrics().snapshot()["counters"]
    assert counters["kernel.state.init.fake-gpu.calls"] == 1


# ---------------------------------------------------------------------------
# kernel semantics
# ---------------------------------------------------------------------------

def _random_ell(rng, rows=16, width=3):
    values = rng.standard_normal((rows, width)) + 1j * rng.standard_normal(
        (rows, width)
    )
    cols = rng.integers(0, rows, size=(rows, width))
    return values, cols.astype(np.int64)


def test_gather_spmm_matches_slots_reference(rng):
    values, cols = _random_ell(rng)
    states = rng.standard_normal((16, 5)) + 1j * rng.standard_normal((16, 5))
    eng = get_engine("numpy")
    fast = ops.ell_gather_spmm(eng, values, cols, states)
    reference = ops.ell_gather_slots(
        eng, values, cols, states, np.zeros_like(states)
    )
    np.testing.assert_array_equal(fast, reference)


def test_gather_width1_is_a_permutation_multiply(rng):
    values = rng.standard_normal((8, 1)) + 1j * rng.standard_normal((8, 1))
    cols = rng.permutation(8).astype(np.int64).reshape(8, 1)
    states = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    eng = get_engine("numpy")
    out = ops.ell_gather_width1(eng, values, cols.ravel(), states)
    np.testing.assert_array_equal(out, values * states[cols.ravel(), :])


def test_batch_merge_single_part_identity():
    block = np.ones((4, 2), dtype=np.complex128)
    assert ops.batch_merge("numpy", [block]) is block


def test_batch_merge_hstacks_and_rejects_empty():
    a = np.ones((4, 2), dtype=np.complex128)
    b = 2 * np.ones((4, 3), dtype=np.complex128)
    merged = ops.batch_merge("numpy", [a, b])
    assert merged.shape == (4, 5)
    with pytest.raises(SimulationError, match="empty"):
        ops.batch_merge("numpy", [])


def test_copy_into_writes_buffer():
    out = np.zeros((3, 3), dtype=np.complex128)
    result = np.full((3, 3), 2.0, dtype=np.complex128)
    returned = ops.copy_into("numpy", out, result)
    assert returned is out
    np.testing.assert_array_equal(out, result)


def test_normalize_states_unit_columns(rng):
    states = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    states = states.astype(np.complex128)
    ops.normalize_states("numpy", states)
    norms = np.linalg.norm(states, axis=0)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_custom_engine_subclass_plugs_in(rng):
    """Any ArrayEngine subclass works as an explicit designator."""

    class Tagged(FakeGpuEngine):
        name = "fake-gpu"  # reuse the counter bucket

    eng = Tagged()
    assert isinstance(eng, ArrayEngine)
    states = ops.statevector_init(eng, 3, 2)
    assert states.shape == (8, 2)
