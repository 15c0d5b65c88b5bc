"""Batch input generation for BQCS.

The paper feeds "hundreds to thousands of batches of inputs" (random state
vectors) into one circuit.  An :class:`InputBatch` is a dense complex matrix
of shape ``(2**num_qubits, batch_size)`` — one normalized state vector per
column — which is exactly the operand layout the ELL spMM kernel consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..errors import SimulationError
from ..obs import get_metrics


@dataclass(frozen=True)
class InputBatch:
    """A batch of state vectors stored column-wise.

    The operand layout every kernel consumes: a ``(2**n, batch)``
    complex128 block whose column ``j`` is input state ``j`` — so a
    batched gate application is one matrix-matrix product, which is the
    whole point of BQCS.  Example::

        batch = zero_state_batch(num_qubits=3, batch_size=4)
        assert batch.states.shape == (8, 4) and batch.num_qubits == 3
    """

    states: np.ndarray  # complex128, shape (2**n, batch)

    def __post_init__(self) -> None:
        if self.states.ndim != 2:
            raise SimulationError("InputBatch expects a 2-D (dim, batch) array")
        dim = self.states.shape[0]
        if dim == 0 or dim & (dim - 1):
            raise SimulationError(f"state dimension {dim} is not a power of two")

    @property
    def num_qubits(self) -> int:
        return int(self.states.shape[0]).bit_length() - 1

    @property
    def batch_size(self) -> int:
        return int(self.states.shape[1])

    @property
    def nbytes(self) -> int:
        return int(self.states.nbytes)

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.states, axis=0)

    def column(self, i: int) -> np.ndarray:
        return self.states[:, i]


def _normalize_columns(states: np.ndarray) -> np.ndarray:
    """Normalize every column to unit 2-norm, in place."""
    get_metrics().inc("kernel.state.normalize.numpy.calls")
    states /= np.linalg.norm(states, axis=0, keepdims=True)
    return states


def random_batch(
    num_qubits: int, batch_size: int, rng: np.random.Generator | int | None = None
) -> InputBatch:
    """Haar-like random normalized states (complex Gaussian, normalized)."""
    rng = np.random.default_rng(rng)
    dim = 1 << num_qubits
    raw = rng.standard_normal((dim, batch_size)) + 1j * rng.standard_normal(
        (dim, batch_size)
    )
    raw = _normalize_columns(raw)
    return InputBatch(raw.astype(np.complex128))


def basis_batch(num_qubits: int, indices: Sequence[int]) -> InputBatch:
    """Batch of computational-basis states ``|indices[i]>``."""
    dim = 1 << num_qubits
    states = np.zeros((dim, len(indices)), dtype=np.complex128)
    for col, idx in enumerate(indices):
        if not 0 <= idx < dim:
            raise SimulationError(f"basis index {idx} out of range for n={num_qubits}")
        states[idx, col] = 1.0
    return InputBatch(states)


def zero_state_batch(num_qubits: int, batch_size: int) -> InputBatch:
    """Batch of ``|0...0>`` states (the usual single-input QCS start state)."""
    return basis_batch(num_qubits, [0] * batch_size)


def perturbed_batch(
    num_qubits: int,
    epsilon: float,
    batch_size: int,
    base: np.ndarray | int = 0,
    rng: np.random.Generator | int | None = None,
) -> InputBatch:
    """A batch of copies of a base state with Gaussian amplitude noise.

    The workload of robustness/state-analysis studies: each column is the
    base state (a basis index or a dense vector) plus ``epsilon`` times
    complex Gaussian noise, re-normalized.
    """
    rng = np.random.default_rng(rng)
    dim = 1 << num_qubits
    if isinstance(base, (int, np.integer)):
        column = np.zeros(dim, dtype=np.complex128)
        if not 0 <= int(base) < dim:
            raise SimulationError(f"basis index {base} out of range")
        column[int(base)] = 1.0
    else:
        column = np.asarray(base, dtype=np.complex128).reshape(-1)
        if column.shape[0] != dim:
            raise SimulationError("base state has wrong length")
    states = np.repeat(column[:, None], batch_size, axis=1)
    if epsilon:
        noise = rng.standard_normal(states.shape) + 1j * rng.standard_normal(
            states.shape
        )
        states = states + epsilon * noise
    states = _normalize_columns(states)
    return InputBatch(states)


def generate_batches(
    num_qubits: int,
    num_batches: int,
    batch_size: int,
    seed: int = 0,
) -> Iterator[InputBatch]:
    """Deterministic stream of random input batches (the paper's 200 x 256).

    Yields ``num_batches`` normalized Haar-ish random
    :class:`InputBatch` blocks of ``batch_size`` columns, reproducible
    from ``seed`` — the same stream a :class:`~repro.sim.BatchSpec` with
    equal numbers describes.  Example::

        batches = list(generate_batches(3, num_batches=2, batch_size=5))
        assert [b.states.shape for b in batches] == [(8, 5), (8, 5)]
    """
    rng = np.random.default_rng(seed)
    for _ in range(num_batches):
        yield random_batch(num_qubits, batch_size, rng)
