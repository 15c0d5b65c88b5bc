"""The named kernels every numeric hot path routes through.

Each function here is one registry kernel (see
:mod:`repro.kernels.registry`): it receives a resolved
:class:`~repro.kernels.engine.ArrayEngine` and computes exclusively with
``engine.xp``, so the same body runs on NumPy, the deterministic CI
``fake-gpu`` engine, or CuPy.  The numpy engine performs the identical
operation sequence, in the identical order, as the pre-engine direct
NumPy code — bit-identical outputs are a contract the engine-parity
tests enforce.

Kernels:

* ``ell.gather.width1`` — permutation/diagonal gates: one gather-multiply.
* ``ell.gather.spmm`` — the cache-blocked ELL gather + multiply-accumulate.
* ``ell.gather.slots`` — the reference per-slot loop.
* ``dense.apply`` — dense gate application by amplitude-index gather +
  ``einsum`` (the statevector ground truth).
* ``batch.rotate.merge`` / ``batch.rotate.copy`` — buffer-rotation data
  movement: merging split sub-batches and writing an output buffer.
* ``state.init`` / ``state.normalize`` — statevector initialization and
  column normalization.
"""

from __future__ import annotations

import numpy as _host_np

from ..errors import SimulationError
from .engine import ArrayEngine
from .registry import kernel

#: target element count of one row-block's scratch in the blocked spMM
#: (64k complex128 ~= 1 MiB, small enough to stay cache-resident)
BLOCK_ELEMS = 1 << 16


# ---------------------------------------------------------------------------
# ELL spMM gather kernels
# ---------------------------------------------------------------------------

@kernel("ell.gather.width1")
def ell_gather_width1(engine: ArrayEngine, values, flat_cols, states):
    """Width-1 ELL apply: ``out[r, b] = values[r] * states[cols[r], b]``."""
    return values * states[flat_cols, :]


@kernel("ell.gather.spmm")
def ell_gather_spmm(engine: ArrayEngine, values, cols, states):
    """Cache-blocked gather + multiply-accumulate over ELL slots.

    Processes row blocks small enough that per-block temporaries stay
    cache-resident.  On the numpy engine the slot order matches the
    reference loop exactly (bit-identical results); device-flavored
    engines may reassociate via :meth:`ArrayEngine.slot_order`.
    """
    xp = engine.xp
    num_rows, width = values.shape
    batch = states.shape[1] if states.ndim == 2 else 1
    block = max(16, min(num_rows, BLOCK_ELEMS // max(batch, 1)))
    out = xp.empty_like(states)
    for r0 in range(0, num_rows, block):
        r1 = min(r0 + block, num_rows)
        acc = xp.zeros((r1 - r0,) + states.shape[1:], dtype=states.dtype)
        for k in engine.slot_order(width):
            acc += values[r0:r1, k : k + 1] * states[cols[r0:r1, k], :]
        out[r0:r1] = acc
    return out


@kernel("ell.gather.slots")
def ell_gather_slots(engine: ArrayEngine, values, cols, states, out):
    """Reference per-slot loop: one whole-array gather-MAC per ELL slot."""
    out[:] = 0
    for k in engine.slot_order(values.shape[1]):
        out += values[:, k : k + 1] * states[cols[:, k], :]
    return out


# ---------------------------------------------------------------------------
# dense gate application
# ---------------------------------------------------------------------------

def gather_axes(num_qubits: int, operands: tuple[int, ...]) -> _host_np.ndarray:
    """Amplitude-index table for a dense gate application (host-side plan).

    Rows enumerate assignments of non-operand qubits, columns the local
    index over ``operands`` (``operands[i]`` is local bit ``i``).  This
    is plan construction, not a kernel: the table is built once per gate
    shape and shipped to whatever engine executes the apply.
    """
    rest = [q for q in range(num_qubits) if q not in operands]
    k = len(operands)
    rest_values = _host_np.zeros(1 << len(rest), dtype=_host_np.int64)
    for i, q in enumerate(rest):
        bit = (_host_np.arange(1 << len(rest)) >> i) & 1
        rest_values |= bit << q
    local_values = _host_np.zeros(1 << k, dtype=_host_np.int64)
    for i, q in enumerate(operands):
        bit = (_host_np.arange(1 << k) >> i) & 1
        local_values |= bit << q
    return rest_values[:, None] + local_values[None, :]


@kernel("dense.apply")
def dense_gate_apply(engine: ArrayEngine, matrix, states, idx):
    """Apply one dense gate in place via gather + ``einsum`` + scatter.

    ``states`` is ``(2^n, batch)``, ``idx`` the (possibly control-sliced)
    gather table from :func:`gather_axes`, ``matrix`` the base unitary.
    """
    xp = engine.xp
    gathered = states[idx, :]
    states[idx, :] = xp.einsum("ij,gjb->gib", matrix, gathered)
    return states


# ---------------------------------------------------------------------------
# batch buffer rotation
# ---------------------------------------------------------------------------

@kernel("batch.rotate.merge")
def batch_merge(engine: ArrayEngine, parts):
    """Merge split sub-batch columns back into one block (host-side).

    Sub-batches produced by OOM-driven batch splitting come back from
    D2H as host blocks; a single part passes through untouched — the
    same object identity the pre-engine ``np.hstack`` fast path had.
    """
    parts = list(parts)
    if not parts:
        raise SimulationError("cannot merge an empty sub-batch list")
    if len(parts) == 1:
        return parts[0]
    return _host_np.hstack(parts)


@kernel("batch.rotate.copy")
def copy_into(engine: ArrayEngine, out, result):
    """Write a kernel result into a caller-provided rotation buffer."""
    engine.xp.copyto(out, result)
    return out


# ---------------------------------------------------------------------------
# statevector init / normalize
# ---------------------------------------------------------------------------

@kernel("state.init")
def statevector_init(engine: ArrayEngine, num_qubits: int, batch_size: int = 1):
    """Batch of ``|0...0>`` states in engine space: ``(2^n, batch)``."""
    xp = engine.xp
    states = xp.zeros((1 << num_qubits, batch_size), dtype=xp.complex128)
    states[0, :] = 1.0
    return states


@kernel("state.normalize")
def normalize_states(engine: ArrayEngine, states):
    """Normalize every column to unit 2-norm, in place."""
    xp = engine.xp
    states /= xp.linalg.norm(states, axis=0, keepdims=True)
    return states
