"""Swappable array-backend kernel engine.

Public surface of the engine layer (ROADMAP item 1):

* engines — :func:`get_engine`, :func:`set_default_engine`,
  :func:`use_engine`, :func:`cpu`, :func:`gpu`, the ``REPRO_ENGINE``
  environment variable, and the :class:`ArrayEngine` hierarchy;
* the named-kernel registry — :func:`kernel_names`, :func:`get_kernel`,
  :func:`call`, with per-backend call counters in ``repro.obs`` metrics;
* the kernels themselves (:mod:`repro.kernels.ops`).
"""

from .engine import (
    ENGINE_ENV,
    ENGINE_NAMES,
    ArrayEngine,
    CupyEngine,
    EngineUnavailableError,
    FakeGpuEngine,
    NumpyEngine,
    available_engines,
    cpu,
    engine_available,
    get_engine,
    gpu,
    set_default_engine,
    use_engine,
)
from .registry import call, get_kernel, kernel, kernel_names
from . import ops

__all__ = [
    "ENGINE_ENV",
    "ENGINE_NAMES",
    "ArrayEngine",
    "CupyEngine",
    "EngineUnavailableError",
    "FakeGpuEngine",
    "NumpyEngine",
    "available_engines",
    "call",
    "cpu",
    "engine_available",
    "get_engine",
    "get_kernel",
    "gpu",
    "kernel",
    "kernel_names",
    "ops",
    "set_default_engine",
    "use_engine",
]
