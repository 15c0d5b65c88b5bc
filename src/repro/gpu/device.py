"""The virtual GPU device: buffers, kernels, and memcpys.

The device plays two roles at once:

* **numerics** — buffer contents are real NumPy arrays, kernels run real
  functions eagerly at submission time (valid because tasks are submitted in
  a topological order, like building a CUDA graph stream-by-stream);
* **timing** — every submission also appends a task to a
  :class:`~repro.gpu.graph.TaskGraph`, whose analytic schedule provides the
  device-model runtime, utilization, and power.

This split is the substitution documented in DESIGN.md: results are exact,
times come from the calibrated device model.

**Resilience.**  Every submission consults the process fault injector
(:func:`repro.resilience.faults.get_fault_injector`): transient ``kernel``
and ``copy`` faults are healed in place with bounded, backoff-priced retries
(the extra attempts and modeled backoff extend the task's duration on the
timeline), ``oom`` faults and genuine capacity overflows raise a typed
:class:`~repro.errors.MemoryFault`, and kernels submitted with an ``output``
buffer get a post-launch non-finite check that detects injected bit-flips
and retries the (idempotent) kernel body.  With no injector installed, the
fault paths cost one ``None`` check per submission.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..errors import DeviceError, MemoryFault, TransientFault
from ..resilience.faults import get_fault_injector
from ..resilience.retry import RetryPolicy, RetrySession
from .engine import Timeline
from .graph import TaskGraph, TaskHandle
from .spec import GpuSpec


@dataclass
class DeviceBuffer:
    """A named device allocation holding a dense complex block."""

    name: str
    nbytes: int
    array: np.ndarray | None = None

    def require(self) -> np.ndarray:
        if self.array is None:
            raise DeviceError(f"buffer {self.name!r} read before any write")
        return self.array


class VirtualGPU:
    """One virtual device with a task graph attached."""

    def __init__(
        self,
        spec: GpuSpec | None = None,
        mode: str = "graph",
        retry: RetryPolicy | None = None,
        seed: int = 0,
    ):
        self.spec = spec or GpuSpec()
        self.graph = TaskGraph(self.spec, mode=mode)
        self._buffers: dict[str, DeviceBuffer] = {}
        self._allocated = 0
        #: the injector active at construction governs this device's run
        self._injector = get_fault_injector()
        self._retry = (
            RetrySession(retry, seed=seed) if self._injector is not None else None
        )

    # -- memory ---------------------------------------------------------------

    def alloc(self, name: str, nbytes: int) -> DeviceBuffer:
        if name in self._buffers:
            raise DeviceError(f"buffer {name!r} already allocated")
        if self._injector is not None and self._injector.check("oom"):
            raise MemoryFault(
                f"injected allocation failure for buffer {name!r} "
                f"({nbytes} bytes)"
            )
        if self._allocated + nbytes > self.spec.memory_bytes:
            raise MemoryFault(
                f"device out of memory: {self._allocated + nbytes} bytes "
                f"requested, capacity {self.spec.memory_bytes}"
            )
        buffer = DeviceBuffer(name=name, nbytes=nbytes)
        self._buffers[name] = buffer
        self._allocated += nbytes
        return buffer

    def free(self, buffer: DeviceBuffer) -> None:
        stored = self._buffers.pop(buffer.name, None)
        if stored is None:
            raise DeviceError(f"buffer {buffer.name!r} not allocated")
        self._allocated -= stored.nbytes
        stored.array = None

    @property
    def allocated_bytes(self) -> int:
        return self._allocated

    # -- fault handling ---------------------------------------------------------

    def _attempt(self, site: str, body: Callable[[], object], name: str):
        """Run ``body`` under transient-fault injection with bounded retries.

        The injected fault fires *before* the body runs, so a retried body
        always starts from intact inputs.  Bodies may also raise
        :class:`TransientFault` themselves (the kernel output check does)
        to request a retry.  Returns ``(result, attempts, backoff_total)``.
        """
        if self._injector is None:
            return body(), 1, 0.0
        attempt = 0
        backoff_total = 0.0
        while True:
            attempt += 1
            try:
                if self._injector.check(site):
                    raise TransientFault(
                        f"injected {site} fault in {name!r}", site=site
                    )
                return body(), attempt, backoff_total
            except TransientFault as exc:
                backoff = self._retry.next_backoff(exc.site or site, attempt, exc)
                if backoff is None:
                    raise
                backoff_total += backoff

    # -- work submission --------------------------------------------------------

    def h2d(
        self,
        buffer: DeviceBuffer,
        host_array: np.ndarray,
        deps: Sequence[TaskHandle] = (),
        name: str | None = None,
    ) -> TaskHandle:
        """Host-to-device copy (eagerly stores a private copy)."""
        if host_array.nbytes > buffer.nbytes:
            raise DeviceError(
                f"copy of {host_array.nbytes} B into {buffer.nbytes} B buffer"
            )
        name = name or f"h2d:{buffer.name}"

        def body():
            buffer.array = np.array(host_array, copy=True)

        _, attempts, backoff = self._attempt("copy", body, name)
        duration = self.spec.copy_time(host_array.nbytes) * attempts + backoff
        return self.graph.add(name, "h2d", duration, deps, retries=attempts - 1)

    def d2h(
        self,
        buffer: DeviceBuffer,
        deps: Sequence[TaskHandle] = (),
        name: str | None = None,
    ) -> tuple[TaskHandle, np.ndarray]:
        """Device-to-host copy; returns the handle and the snapshot."""
        name = name or f"d2h:{buffer.name}"

        def body():
            return np.array(buffer.require(), copy=True)

        snapshot, attempts, backoff = self._attempt("copy", body, name)
        duration = self.spec.copy_time(snapshot.nbytes) * attempts + backoff
        handle = self.graph.add(name, "d2h", duration, deps, retries=attempts - 1)
        return handle, snapshot

    def kernel(
        self,
        name: str,
        fn: Callable[[], None],
        macs: float = 0.0,
        bytes_moved: float = 0.0,
        deps: Sequence[TaskHandle] = (),
        duration: float | None = None,
        output: DeviceBuffer | None = None,
    ) -> TaskHandle:
        """Submit a compute kernel; ``fn`` performs the real math eagerly.

        Duration defaults to the roofline model over ``macs``/``bytes_moved``;
        pass ``duration`` to pin a pre-priced cost instead.  Pass ``output``
        — the buffer ``fn`` writes, which must be distinct from its inputs so
        re-running is safe — to enable the post-launch non-finite check that
        catches injected bit-flips and heals them with a retry.
        """

        def body():
            fn()
            if output is not None and self._injector is not None:
                result = output.array
                if result is not None and not bool(
                    np.all(np.isfinite(result))
                ):
                    raise TransientFault(
                        f"non-finite output detected after kernel {name!r}",
                        site="bitflip",
                    )

        _, attempts, backoff = self._attempt("kernel", body, name)
        if duration is None:
            duration = self.spec.kernel_time(macs, bytes_moved)
        return self.graph.add(
            name,
            "compute",
            duration * attempts + backoff,
            deps,
            retries=attempts - 1,
        )

    def raw_task(
        self,
        name: str,
        engine: str,
        duration: float,
        deps: Sequence[TaskHandle] = (),
    ) -> TaskHandle:
        """Submit a pre-priced task (e.g. conversion kernels, host stages)."""
        return self.graph.add(name, engine, duration, deps)

    def run(self) -> Timeline:
        """Schedule everything submitted so far."""
        return self.graph.execute()
