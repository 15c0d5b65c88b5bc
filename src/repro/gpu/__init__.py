"""Virtual GPU: specs, engines, task graphs, device buffers, power model."""

from .device import DeviceBuffer, VirtualGPU
from .engine import ENGINES, Task, Timeline, schedule
from .graph import TaskGraph, TaskHandle
from .power import PowerReport, cpu_power_from_utilization, gpu_power_from_work
from .spec import (
    COMPLEX_BYTES,
    CpuSpec,
    DEFAULT_CPU,
    DEFAULT_GPU,
    GpuSpec,
    dense_kernel_bytes,
    ell_kernel_bytes,
    state_block_bytes,
)

__all__ = [
    "COMPLEX_BYTES",
    "cpu_power_from_utilization",
    "CpuSpec",
    "DEFAULT_CPU",
    "DEFAULT_GPU",
    "dense_kernel_bytes",
    "DeviceBuffer",
    "ell_kernel_bytes",
    "ENGINES",
    "gpu_power_from_work",
    "GpuSpec",
    "PowerReport",
    "schedule",
    "state_block_bytes",
    "Task",
    "TaskGraph",
    "TaskHandle",
    "Timeline",
    "VirtualGPU",
]
