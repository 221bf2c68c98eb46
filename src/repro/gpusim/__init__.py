"""SIMT GPU simulator substrate.

The execution and timing substrate that stands in for the NVIDIA V100 and
AMD MI250X GPUs of the paper's evaluation (see DESIGN.md §1 for the
substitution argument).  Public surface:

* :class:`DeviceSpec` with :func:`nvidia_v100` / :func:`amd_mi250x` presets
  and :func:`get_device` lookup;
* :class:`GridContext` — the vectorized SIMT execution context kernels run
  against;
* :func:`launch` / :class:`KernelResult` — run a kernel and get a timing
  breakdown;
* the occupancy and memory analysis helpers used by the figure benches.
"""

from repro.gpusim.arena import ScratchArena
from repro.gpusim.context import GridContext
from repro.gpusim.cost import CycleCounters
from repro.gpusim.device import (
    MEMORY_SEGMENT_BYTES,
    DeviceSpec,
    amd_mi250x,
    get_device,
    known_devices,
    nvidia_v100,
)
from repro.gpusim.kernel import KernelResult, launch, round_up, validate_launch
from repro.gpusim.memory import (
    DeviceMemory,
    TransferModel,
    TransferStats,
    coalesced_transactions,
    global_memory_fraction_for_tables,
    per_thread_table_bytes,
)
from repro.gpusim.occupancy import (
    OccupancyReport,
    blocks_resident_per_sm,
    hiding_efficiency,
    hiding_requirement,
    occupancy,
)
from repro.gpusim.shared import SharedMemoryPool
from repro.gpusim.timing import KernelTiming, ProgramTiming, time_kernel

__all__ = [
    "MEMORY_SEGMENT_BYTES",
    "CycleCounters",
    "DeviceMemory",
    "DeviceSpec",
    "GridContext",
    "KernelResult",
    "KernelTiming",
    "OccupancyReport",
    "ProgramTiming",
    "ScratchArena",
    "SharedMemoryPool",
    "TransferModel",
    "TransferStats",
    "amd_mi250x",
    "blocks_resident_per_sm",
    "coalesced_transactions",
    "get_device",
    "global_memory_fraction_for_tables",
    "hiding_efficiency",
    "hiding_requirement",
    "known_devices",
    "launch",
    "nvidia_v100",
    "occupancy",
    "per_thread_table_bytes",
    "round_up",
    "time_kernel",
    "validate_launch",
]
