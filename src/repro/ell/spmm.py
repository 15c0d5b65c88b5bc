"""ELL-based sparse-matrix multiplication — the BQCS kernel's math.

``out[r, b] = sum_k values[r, k] * states[cols[r, k], b]``: a gather plus a
multiply-accumulate per ELL slot, applied to the whole batch at once.
Padded slots contribute ``0 * states[0, b]`` and are harmless, exactly like
the idle lanes of the real kernel.

The hot path runs through a :class:`GatherPlan`: a compiled form of the ELL
matrix (flattened gather indices, contiguous value array, and — when SciPy
is available — a CSR mirror) built once per fused gate and reused for every
batch.  Three interchangeable backends implement the same math:

* ``"csr"`` — SciPy's compiled CSR spMM; the fastest path (one C pass,
  no Python-level temporaries).  Results agree with the loop to the last
  few ULPs but are not bit-identical (the C code may contract to FMAs).
* ``"numpy"`` — a cache-blocked gather + multiply-accumulate that performs
  the *same* floating-point operations in the same order as the reference
  loop, so its output is bit-identical, while keeping every temporary
  small enough to stay in cache.
* ``"loop"`` — the original per-slot loop (:func:`ell_spmm_loop`), kept as
  the reference kernel and as the baseline the fast paths are benchmarked
  against.

Width-1 matrices (pure permutation/diagonal gates) short-circuit to a
single gather-multiply, and consecutive width-1 plans can be *composed*
into one plan (:meth:`GatherPlan.compose`), collapsing a chain of kernels
into a single pass over the state block.
"""

from __future__ import annotations

import os

import numpy as np

from ..errors import SimulationError
from ..obs import get_metrics
from ..resilience.faults import get_fault_injector
from .format import ELLMatrix

try:  # SciPy is optional: the numpy backend is the self-contained fallback
    from scipy import sparse as _scipy_sparse
except ImportError:  # pragma: no cover - exercised only without scipy
    _scipy_sparse = None

#: backends accepted by :func:`ell_spmm` / :meth:`GatherPlan.apply`
BACKENDS = ("auto", "csr", "numpy", "loop")

#: process-wide default backend; ``auto`` picks csr when SciPy is present
DEFAULT_BACKEND = os.environ.get("REPRO_SPMM_BACKEND", "auto")

#: target element count of one row-block's scratch in the blocked spMM
#: (64k complex128 ~= 1 MiB, small enough to stay cache-resident)
BLOCK_ELEMS = 1 << 16


def _resolve_backend(backend: str | None) -> str:
    backend = backend or DEFAULT_BACKEND
    if backend not in BACKENDS:
        raise SimulationError(
            f"unknown spMM backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend == "auto":
        return "csr" if _scipy_sparse is not None else "numpy"
    if backend == "csr" and _scipy_sparse is None:
        raise SimulationError("spMM backend 'csr' requires scipy")
    return backend


def default_backend() -> str:
    """The concrete backend ``auto`` resolves to in this process."""
    return _resolve_backend(None)


# The kernels below count their calls as ``kernel.<name>.numpy.calls``;
# the end-to-end benchmark sums every ``kernel.*.calls`` counter.

def _gather_width1(values, flat_cols, states):
    """Width-1 ELL apply: ``out[r, b] = values[r] * states[cols[r], b]``."""
    get_metrics().inc("kernel.ell.gather.width1.numpy.calls")
    return values * states[flat_cols, :]


def _gather_spmm(values, cols, states):
    """Cache-blocked gather + multiply-accumulate over ELL slots.

    Processes row blocks small enough that per-block temporaries stay
    cache-resident, accumulating slot 0 first — the order of the
    reference loop, so results are bit-identical to it.
    """
    get_metrics().inc("kernel.ell.gather.spmm.numpy.calls")
    num_rows, width = values.shape
    batch = states.shape[1] if states.ndim == 2 else 1
    block = max(16, min(num_rows, BLOCK_ELEMS // max(batch, 1)))
    out = np.empty_like(states)
    for r0 in range(0, num_rows, block):
        r1 = min(r0 + block, num_rows)
        acc = np.zeros((r1 - r0,) + states.shape[1:], dtype=states.dtype)
        for k in range(width):
            acc += values[r0:r1, k : k + 1] * states[cols[r0:r1, k], :]
        out[r0:r1] = acc
    return out


def _gather_slots(values, cols, states, out):
    """Reference per-slot loop: one whole-array gather-MAC per ELL slot."""
    get_metrics().inc("kernel.ell.gather.slots.numpy.calls")
    out[:] = 0
    for k in range(values.shape[1]):
        out += values[:, k : k + 1] * states[cols[:, k], :]
    return out


def _copy_into(out, result):
    """Write a kernel result into a caller-provided output buffer."""
    get_metrics().inc("kernel.batch.rotate.copy.numpy.calls")
    np.copyto(out, result)
    return out


class GatherPlan:
    """Compiled gather/accumulate program for one ELL matrix.

    Built once per fused gate (see :func:`gather_plan`) and applied to every
    batch; holds contiguous copies of the value/column arrays, the flattened
    gather index, and a lazily built CSR mirror for the SciPy backend.
    """

    __slots__ = (
        "num_qubits",
        "num_rows",
        "width",
        "values",
        "cols",
        "flat_cols",
        "_csr",
    )

    def __init__(self, num_qubits: int, values: np.ndarray, cols: np.ndarray):
        values = np.ascontiguousarray(values, dtype=np.complex128)
        cols = np.ascontiguousarray(cols, dtype=np.int64)
        if values.shape != cols.shape or values.ndim != 2:
            raise SimulationError("gather plan value/column shapes differ")
        self.num_qubits = int(num_qubits)
        self.num_rows = int(values.shape[0])
        self.width = int(values.shape[1])
        self.values = values
        self.cols = cols
        self.flat_cols = np.ascontiguousarray(cols.ravel())
        self._csr = None

    @classmethod
    def from_ell(cls, ell: ELLMatrix) -> "GatherPlan":
        return cls(ell.num_qubits, ell.values, ell.cols)

    def to_ell(self) -> ELLMatrix:
        return ELLMatrix(self.num_qubits, self.values, self.cols)

    @property
    def is_width_one(self) -> bool:
        """True for pure permutation/diagonal gates: a single gather."""
        return self.width == 1

    @property
    def macs_per_input(self) -> int:
        return self.num_rows * self.width

    # -- composition ---------------------------------------------------------

    def compose(self, later: "GatherPlan") -> "GatherPlan":
        """Fuse two width-1 plans into one (``self`` applied first).

        ``(later @ self) s`` for width-1 matrices is again width 1:
        ``out[r] = later.v[r] * self.v[later.c[r]] * s[self.c[later.c[r]]]``.
        """
        if not (self.is_width_one and later.is_width_one):
            raise SimulationError("only width-1 gather plans can be composed")
        if self.num_rows != later.num_rows:
            raise SimulationError("cannot compose plans of different sizes")
        mid = later.flat_cols
        cols = self.flat_cols[mid].reshape(-1, 1)
        values = (later.values[:, 0] * self.values[mid, 0]).reshape(-1, 1)
        return GatherPlan(self.num_qubits, values, cols)

    # -- application ---------------------------------------------------------

    def apply(
        self,
        states,
        out=None,
        backend: str | None = None,
    ) -> np.ndarray:
        """Multiply the planned matrix by a ``(2^n, batch)`` state block.

        ``backend`` picks the algorithm (csr/numpy/loop); ``out`` receives
        a copy of the result when given.
        """
        if states.shape[0] != self.num_rows:
            raise SimulationError(
                f"state dim {states.shape[0]} != ELL rows {self.num_rows}"
            )
        if out is not None:
            if out is states:
                raise SimulationError("ell_spmm cannot run in place")
            if out.shape != states.shape:
                raise SimulationError("output buffer shape mismatch")
        injector = get_fault_injector()
        if self.is_width_one:
            get_metrics().inc("spmm.backend.width1")
            result = _gather_width1(self.values, self.flat_cols, states)
        else:
            mode = _resolve_backend(backend)
            if injector is not None and injector.check(f"spmm.{mode}"):
                raise SimulationError(f"injected spMM backend fault ({mode})")
            get_metrics().inc(f"spmm.backend.{mode}")
            if mode == "csr":
                result = self._csr_matrix() @ states
            elif mode == "numpy":
                result = _gather_spmm(self.values, self.cols, states)
            else:
                result = _gather_slots(
                    self.values, self.cols, states, np.zeros_like(states)
                )
        if injector is not None and injector.check("bitflip"):
            # every branch above produced a fresh array, so the corruption
            # never reaches the caller's inputs; the device-level output
            # check turns the NaN into a healed retry
            result.flat[injector.draw_index("bitflip", result.size)] = np.nan
        if out is None:
            return result
        return _copy_into(out, result)

    def _csr_matrix(self):
        """CSR mirror, keeping padded slots as explicit zeros so the
        accumulation order matches the ELL layout."""
        if self._csr is None:
            indptr = np.arange(self.num_rows + 1, dtype=np.int64) * self.width
            self._csr = _scipy_sparse.csr_matrix(
                (self.values.ravel(), self.flat_cols, indptr),
                shape=(self.num_rows, self.num_rows),
            )
        return self._csr


def gather_plan(ell: ELLMatrix) -> GatherPlan:
    """Return the (memoized) compiled gather plan of an ELL matrix."""
    plan = getattr(ell, "_gather_plan", None)
    if plan is None:
        plan = GatherPlan.from_ell(ell)
        # ELLMatrix is a frozen dataclass; attach the plan out-of-band so
        # repeated applications of the same matrix reuse one plan
        object.__setattr__(ell, "_gather_plan", plan)
    return plan


def build_apply_plans(
    matrices, compose_width_one: bool = True
) -> list[GatherPlan]:
    """Compile a gate sequence into gather plans, fusing width-1 runs.

    Consecutive width-1 matrices (pure permutation/diagonal kernels) are
    composed into a single plan, so a chain of such gates costs one gather
    instead of one pass per gate.  Matrices are applied left to right.
    """
    plans: list[GatherPlan] = []
    for item in matrices:
        plan = gather_plan(item) if isinstance(item, ELLMatrix) else item
        if (
            compose_width_one
            and plans
            and plans[-1].is_width_one
            and plan.is_width_one
        ):
            get_metrics().inc("spmm.width1_composed")
            plans[-1] = plans[-1].compose(plan)
        else:
            plans.append(plan)
    return plans


def ell_spmm(
    ell: ELLMatrix | GatherPlan,
    states: np.ndarray,
    out: np.ndarray | None = None,
    backend: str | None = None,
) -> np.ndarray:
    """Multiply an ELL gate matrix by a ``(2^n, batch)`` state block.

    Accepts either an :class:`ELLMatrix` (its compiled plan is built and
    memoized on first use) or a prebuilt :class:`GatherPlan`.
    """
    plan = gather_plan(ell) if isinstance(ell, ELLMatrix) else ell
    return plan.apply(states, out=out, backend=backend)


def ell_spmm_loop(
    ell: ELLMatrix,
    states: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Reference per-slot loop kernel (the original implementation).

    One fancy-indexing gather, multiply, and accumulate per ELL slot; kept
    as the ground truth the compiled plans are validated (bit-identical,
    numpy backend) and benchmarked (>= 2x, csr backend) against.
    """
    if states.shape[0] != ell.num_rows:
        raise SimulationError(
            f"state dim {states.shape[0]} != ELL rows {ell.num_rows}"
        )
    if out is None:
        out = np.zeros_like(states)
    elif out.shape != states.shape:
        raise SimulationError("output buffer shape mismatch")
    else:
        if out is states:
            raise SimulationError("ell_spmm cannot run in place")
    plan = gather_plan(ell) if isinstance(ell, ELLMatrix) else ell
    return _gather_slots(plan.values, plan.cols, states, out)


def spmm_macs(ell: ELLMatrix, batch_size: int) -> int:
    """#MAC for one kernel call: rows x width x batch."""
    return ell.macs_per_input * batch_size


def spmm_bytes(ell: ELLMatrix, batch_size: int, complex_bytes: int = 16) -> int:
    """Device memory traffic of one kernel call (reads + writes).

    Gate data is read once; the state block is gathered ``width`` times and
    written once.
    """
    state_block = ell.num_rows * batch_size * complex_bytes
    gathers = ell.width * state_block
    return ell.nbytes + gathers + state_block
