"""Persisting compiled execution plans.

The paper highlights that "the circuit is optimized once into a reusable
simulation task graph"; this module makes that one-time work reusable
*across processes* by saving it to a single ``.npz`` archive.

A :class:`CompiledPlan` (archive format 2) is the full compiled execution
plan: the fusion-plan metadata (per-fused-gate costs, source-gate
provenance, non-zero totals), the hybrid conversion decisions
(``conv_infos``), and optionally the converted ELL matrices.  The disk
tier of :class:`~repro.sim.base.PlanCache` round-trips it, so a warm
process skips stages 1-2 (fusion + conversion) entirely.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import ConversionError
from .format import ELLMatrix

_PLAN_FORMAT_VERSION = 2


def plan_fingerprint(circuit, extra: tuple = ()) -> str:
    """The canonical structural key of a compiled execution plan.

    Combines :meth:`Circuit.fingerprint` — qubit count plus every gate's
    name, operands, and exact parameter bits — with a hashed ``extra``
    tuple of compilation settings.  For the BQSim simulator the tuple is
    its ``_cache_extra()``: fusion algorithm, cost cap, tau, ELL on/off,
    plus — only when below 1.0 — the requested fidelity budget; the
    serving layer appends per-job coalescing options on top.  Everything
    that names a compiled plan goes through this one function: the
    :class:`~repro.sim.base.PlanCache` memory and disk tiers key entries
    with it, archives record it as :attr:`CompiledPlan.fingerprint`, the
    serving layer's coalescer uses it to decide which queued jobs can
    share one mega-batch (so exact jobs never coalesce with approximate
    ones, and different budgets never coalesce with each other), and the
    gateway's consistent-hash router uses it to pick a home shard — so
    "same fingerprint" always means "same compiled plan" at every layer.

    Two structurally equal circuits fingerprint equally regardless of
    object identity, display name, or process; any gate edit, parameter
    bit flip, or settings change produces a different key.  The result is
    filesystem-safe (hex, plus one ``-`` separator when ``extra`` is
    non-empty).
    """
    digest = circuit.fingerprint()
    if extra:
        salt = hashlib.sha256(repr(extra).encode()).hexdigest()[:16]
        return f"{digest[:48]}-{salt}"
    return digest[:48]


@contextmanager
def _open_archive(path: str | Path):
    """Open a plan archive, mapping every I/O-level failure — missing
    file, truncation, zip corruption, bad compression stream — to a typed
    :class:`ConversionError` instead of leaking ``OSError``/``BadZipFile``."""
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            yield data
    except ConversionError:
        raise
    except (
        OSError,
        ValueError,
        EOFError,
        zipfile.BadZipFile,
        zlib.error,
    ) as exc:
        raise ConversionError(
            f"unreadable plan archive {path.name!r}: {exc}"
        ) from exc


def _read(data, key: str):
    """Read one archive entry, naming the offending key on failure."""
    try:
        return data[key]
    except KeyError:
        raise ConversionError(
            f"plan archive is missing entry {key!r}", key=key
        ) from None
    except (ValueError, zipfile.BadZipFile, zlib.error) as exc:
        raise ConversionError(
            f"plan archive entry {key!r} is corrupt: {exc}", key=key
        ) from exc


def _check_version(data) -> int:
    version = int(_read(data, "format_version"))
    if version == _PLAN_FORMAT_VERSION:
        return version
    if version > _PLAN_FORMAT_VERSION:
        raise ConversionError(
            f"plan format {version} is newer than supported "
            f"({_PLAN_FORMAT_VERSION}); upgrade to read this archive",
            version=version,
        )
    raise ConversionError(
        f"plan format {version} not supported "
        f"(expected {_PLAN_FORMAT_VERSION})",
        version=version,
    )


@dataclass(frozen=True)
class CompiledPlan:
    """Everything stages 1-2 produce for one circuit, minus the DDs.

    ``matrices`` is ``None`` when the plan was compiled model-only
    (``execute=False``): the metadata still lets a warm run skip fusion and
    conversion *timing* work, but numeric execution needs the matrices and
    falls back to a rebuild.
    """

    fingerprint: str
    circuit_name: str
    num_qubits: int
    algorithm: str
    source_gate_count: int
    fused_nodes: int
    gate_costs: tuple[int, ...]
    gate_indices: tuple[tuple[int, ...], ...]
    gate_nnz: tuple[float, ...]
    conv_infos: tuple[dict, ...]
    matrices: tuple[ELLMatrix, ...] | None = None
    #: fidelity-ledger summary of the approximation pass that produced this
    #: plan (``None`` for exact plans and archives predating the pass); a
    #: warm process reports ``achieved_fidelity`` without re-pruning
    approx: dict | None = None

    def __len__(self) -> int:
        return len(self.gate_costs)

    @property
    def has_matrices(self) -> bool:
        return self.matrices is not None

    def to_fusion_plan(self):
        """Reconstruct a :class:`~repro.fusion.plan.FusionPlan` skeleton.

        The fused-gate DDs are gone (``dd=None``); costs, provenance, and
        nnz totals — everything stage 3 and the stats consumers read — are
        intact.
        """
        from ..fusion.plan import FusedGate, FusionPlan

        gates = tuple(
            FusedGate(dd=None, cost=cost, gate_indices=indices, nnz=nnz)
            for cost, indices, nnz in zip(
                self.gate_costs, self.gate_indices, self.gate_nnz
            )
        )
        return FusionPlan(
            num_qubits=self.num_qubits,
            gates=gates,
            algorithm=self.algorithm,
            source_gate_count=self.source_gate_count,
        )


def save_compiled_plan(plan: CompiledPlan, path: str | Path) -> Path:
    """Write a compiled plan as a compressed ``.npz`` archive (atomically)."""
    path = Path(path)
    indices_flat = np.array(
        [i for indices in plan.gate_indices for i in indices], dtype=np.int64
    )
    offsets = np.cumsum([0] + [len(i) for i in plan.gate_indices]).astype(np.int64)
    payload: dict[str, np.ndarray] = {
        "format_version": np.array(_PLAN_FORMAT_VERSION),
        "fingerprint": np.array(plan.fingerprint),
        "circuit_name": np.array(plan.circuit_name),
        "num_qubits": np.array(plan.num_qubits),
        "algorithm": np.array(plan.algorithm),
        "source_gate_count": np.array(plan.source_gate_count),
        "fused_nodes": np.array(plan.fused_nodes),
        "num_gates": np.array(len(plan.gate_costs)),
        "gate_costs": np.array(plan.gate_costs, dtype=np.int64),
        "gate_nnz": np.array(plan.gate_nnz, dtype=np.float64),
        "gate_indices_flat": indices_flat,
        "gate_indices_offsets": offsets,
        "conv_routes": np.array([i["route"] for i in plan.conv_infos]),
        "conv_edges": np.array(
            [i["edges"] for i in plan.conv_infos], dtype=np.int64
        ),
        "conv_widths": np.array(
            [i["width"] for i in plan.conv_infos], dtype=np.int64
        ),
        "conv_times": np.array(
            [i["time"] for i in plan.conv_infos], dtype=np.float64
        ),
        "has_matrices": np.array(1 if plan.has_matrices else 0),
    }
    if plan.approx is not None:
        payload["approx_json"] = np.array(json.dumps(plan.approx))
    if plan.matrices is not None:
        for i, matrix in enumerate(plan.matrices):
            payload[f"values_{i}"] = matrix.values
            payload[f"cols_{i}"] = matrix.cols
    final = path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")
    # pid-unique scratch name: concurrent writers (pool workers racing on
    # one shared cache dir) must never interleave bytes in one temp file
    tmp = final.with_name(f"{final.name}.tmp{os.getpid()}.npz")
    np.savez_compressed(tmp, **payload)
    tmp.replace(final)
    return final


def load_compiled_plan(path: str | Path) -> CompiledPlan:
    """Load a compiled plan previously written by :func:`save_compiled_plan`.

    Every failure mode — missing file, truncated zip, missing entry, bad
    format version — raises :class:`ConversionError` carrying the
    offending key or version (never a bare ``KeyError`` or
    ``BadZipFile``), so callers can treat the archive as a cache miss or
    quarantine it.
    """
    with _open_archive(path) as data:
        _check_version(data)
        num_qubits = int(_read(data, "num_qubits"))
        num_gates = int(_read(data, "num_gates"))
        flat = _read(data, "gate_indices_flat")
        offsets = _read(data, "gate_indices_offsets")
        gate_indices = tuple(
            tuple(int(i) for i in flat[offsets[g] : offsets[g + 1]])
            for g in range(num_gates)
        )
        conv_infos = tuple(
            {
                "route": str(route),
                "edges": int(edges),
                "width": int(width),
                "time": float(t),
            }
            for route, edges, width, t in zip(
                _read(data, "conv_routes"),
                _read(data, "conv_edges"),
                _read(data, "conv_widths"),
                _read(data, "conv_times"),
            )
        )
        approx: dict | None = None
        if "approx_json" in getattr(data, "files", ()):
            try:
                approx = json.loads(str(_read(data, "approx_json")))
            except (TypeError, ValueError) as exc:
                raise ConversionError(
                    f"plan archive entry 'approx_json' is corrupt: {exc}",
                    key="approx_json",
                ) from exc
        matrices: tuple[ELLMatrix, ...] | None = None
        if int(_read(data, "has_matrices")):
            loaded = []
            for i in range(num_gates):
                values = _read(data, f"values_{i}")
                cols = _read(data, f"cols_{i}")
                loaded.append(ELLMatrix(num_qubits, values, cols))
            matrices = tuple(loaded)
        return CompiledPlan(
            fingerprint=str(_read(data, "fingerprint")),
            circuit_name=str(_read(data, "circuit_name")),
            num_qubits=num_qubits,
            algorithm=str(_read(data, "algorithm")),
            source_gate_count=int(_read(data, "source_gate_count")),
            fused_nodes=int(_read(data, "fused_nodes")),
            gate_costs=tuple(int(c) for c in _read(data, "gate_costs")),
            gate_indices=gate_indices,
            gate_nnz=tuple(float(x) for x in _read(data, "gate_nnz")),
            conv_infos=conv_infos,
            matrices=matrices,
            approx=approx,
        )
