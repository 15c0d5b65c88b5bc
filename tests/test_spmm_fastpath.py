"""Property tests for the compiled GatherPlan spMM fast path.

The contract of :mod:`repro.ell.spmm`:

* the ``numpy`` backend is **bit-identical** to the reference per-slot loop
  (it performs the same floating-point operations in the same order);
* the ``csr`` backend (SciPy) agrees to a few ULPs;
* composed width-1 plans match sequential application.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ell import (
    ELLMatrix,
    GatherPlan,
    build_apply_plans,
    ell_spmm,
    ell_spmm_loop,
    gather_plan,
)
from repro.ell.spmm import _scipy_sparse
from repro.errors import SimulationError

HAVE_SCIPY = _scipy_sparse is not None


def random_ell(
    rng: np.random.Generator,
    num_qubits: int,
    width: int,
    pad_fraction: float = 0.0,
) -> ELLMatrix:
    """Random ELL matrix with optional zero-padded slots."""
    rows = 1 << num_qubits
    values = rng.standard_normal((rows, width)) + 1j * rng.standard_normal(
        (rows, width)
    )
    cols = rng.integers(0, rows, size=(rows, width), dtype=np.int64)
    if pad_fraction > 0:
        padded = rng.random((rows, width)) < pad_fraction
        values[padded] = 0.0
        cols[padded] = 0  # padded slots point at row 0, like the converters
    return ELLMatrix(num_qubits, values, cols)


def random_states(
    rng: np.random.Generator, num_qubits: int, batch: int
) -> np.ndarray:
    rows = 1 << num_qubits
    return rng.standard_normal((rows, batch)) + 1j * rng.standard_normal(
        (rows, batch)
    )


ell_cases = st.tuples(
    st.integers(min_value=1, max_value=6),  # num_qubits
    st.integers(min_value=1, max_value=5),  # width (clamped to 2^n below)
    st.integers(min_value=1, max_value=8),  # batch size
    st.floats(min_value=0.0, max_value=0.8),  # padded-slot fraction
    st.integers(min_value=0, max_value=2**32 - 1),  # rng seed
)


@settings(max_examples=60, deadline=None)
@given(case=ell_cases)
def test_numpy_backend_bit_identical_to_loop(case):
    n, width, batch, pad, seed = case
    width = min(width, 1 << n)
    rng = np.random.default_rng(seed)
    ell = random_ell(rng, n, width, pad)
    states = random_states(rng, n, batch)
    expected = ell_spmm_loop(ell, states)
    got = ell_spmm(ell, states, backend="numpy")
    assert np.array_equal(got, expected)


@settings(max_examples=40, deadline=None)
@given(case=ell_cases)
def test_default_backend_matches_loop(case):
    n, width, batch, pad, seed = case
    width = min(width, 1 << n)
    rng = np.random.default_rng(seed)
    ell = random_ell(rng, n, width, pad)
    states = random_states(rng, n, batch)
    expected = ell_spmm_loop(ell, states)
    got = ell_spmm(ell, states)
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.skipif(not HAVE_SCIPY, reason="csr backend requires scipy")
@settings(max_examples=40, deadline=None)
@given(case=ell_cases)
def test_csr_backend_matches_loop(case):
    n, width, batch, pad, seed = case
    width = min(width, 1 << n)
    rng = np.random.default_rng(seed)
    ell = random_ell(rng, n, width, pad)
    states = random_states(rng, n, batch)
    expected = ell_spmm_loop(ell, states)
    got = ell_spmm(ell, states, backend="csr")
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    batch=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_composed_width_one_plans_match_sequential(n, batch, seed):
    rng = np.random.default_rng(seed)
    first = gather_plan(random_ell(rng, n, 1))
    second = gather_plan(random_ell(rng, n, 1))
    states = random_states(rng, n, batch)
    sequential = second.apply(first.apply(states))
    composed = first.compose(second)
    assert composed.is_width_one
    assert np.allclose(composed.apply(states), sequential, rtol=1e-12, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5),
    widths=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_build_apply_plans_pipeline_matches_loop(n, widths, seed):
    rng = np.random.default_rng(seed)
    ells = [random_ell(rng, n, min(w, 1 << n)) for w in widths]
    states = random_states(rng, n, 4)
    expected = states
    for ell in ells:
        expected = ell_spmm_loop(ell, expected)
    plans = build_apply_plans(ells)
    # every width-1 run collapsed to one plan
    assert len(plans) <= len(ells)
    for a, b in zip(plans, plans[1:]):
        assert not (a.is_width_one and b.is_width_one)
    got = states
    for plan in plans:
        got = plan.apply(got)
    assert np.allclose(got, expected, rtol=1e-10, atol=1e-10)


def test_width_one_short_circuit_is_single_gather(rng):
    ell = random_ell(rng, 4, 1)
    states = random_states(rng, 4, 8)
    plan = gather_plan(ell)
    assert plan.is_width_one
    expected = ell_spmm_loop(ell, states)
    assert np.array_equal(plan.apply(states), expected)


def test_padded_rows_match_loop(rng):
    # rows whose every slot is padding must produce exact zeros
    values = np.zeros((8, 3), dtype=np.complex128)
    values[::2] = rng.standard_normal((4, 3)) + 1j
    cols = rng.integers(0, 8, size=(8, 3), dtype=np.int64)
    cols[1::2] = 0
    ell = ELLMatrix(3, values, cols)
    states = random_states(rng, 3, 5)
    expected = ell_spmm_loop(ell, states)
    for backend in ("numpy",) + (("csr",) if HAVE_SCIPY else ()):
        got = ell_spmm(ell, states, backend=backend)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)
        assert not got[1::2].any()


def test_out_buffer_semantics(rng):
    ell = random_ell(rng, 3, 2)
    states = random_states(rng, 3, 4)
    out = np.empty_like(states)
    returned = ell_spmm(ell, states, out=out)
    assert returned is out
    assert np.allclose(out, ell_spmm_loop(ell, states), rtol=1e-12, atol=1e-12)
    with pytest.raises(SimulationError, match="in place"):
        ell_spmm(ell, states, out=states)
    with pytest.raises(SimulationError, match="shape"):
        ell_spmm(ell, states, out=np.empty((4, 4), dtype=states.dtype))
    with pytest.raises(SimulationError, match="state dim"):
        ell_spmm(ell, random_states(rng, 4, 4))


def test_unknown_backend_rejected(rng):
    ell = random_ell(rng, 2, 2)
    states = random_states(rng, 2, 2)
    with pytest.raises(SimulationError, match="unknown spMM backend"):
        ell_spmm(ell, states, backend="cuda")


def test_compose_rejects_wide_or_mismatched_plans(rng):
    wide = gather_plan(random_ell(rng, 3, 2))
    narrow = gather_plan(random_ell(rng, 3, 1))
    with pytest.raises(SimulationError, match="width-1"):
        wide.compose(narrow)
    with pytest.raises(SimulationError, match="width-1"):
        narrow.compose(wide)
    other = gather_plan(random_ell(rng, 2, 1))
    with pytest.raises(SimulationError, match="different sizes"):
        narrow.compose(other)


def test_plan_memoized_on_matrix(rng):
    ell = random_ell(rng, 3, 2)
    assert ell.plan() is ell.plan()
    assert gather_plan(ell) is ell.plan()


def test_ell_spmm_accepts_prebuilt_plan(rng):
    ell = random_ell(rng, 3, 2)
    states = random_states(rng, 3, 4)
    plan = GatherPlan.from_ell(ell)
    assert np.allclose(
        ell_spmm(plan, states), ell_spmm_loop(ell, states), rtol=1e-12, atol=1e-12
    )
    roundtrip = plan.to_ell()
    assert np.array_equal(roundtrip.values, ell.values)
    assert np.array_equal(roundtrip.cols, ell.cols)


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
    result = ell_spmm(random_plan, states, backend="numpy")
    np.testing.assert_array_equal(result, expected)


def test_numpy_spmm_loop_bit_identical_to_prerefactor(rng, random_plan):
    states = rng.standard_normal((64, 4)) + 1j * rng.standard_normal((64, 4))
    expected = np.zeros_like(states)
    for k in range(random_plan.width):
        expected += (
            random_plan.values[:, k : k + 1]
            * states[random_plan.cols[:, k], :]
        )
    result = random_plan.apply(states, backend="loop")
    np.testing.assert_array_equal(result, expected)
