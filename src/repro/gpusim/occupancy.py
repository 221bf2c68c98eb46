"""Occupancy and latency-hiding model.

GPUs hide ALU and memory latency by switching among warps resident on each
SM.  The paper's Fig 8c hinges on this: raising *items per thread* (fewer,
longer-lived threads) increases approximation opportunity but starves the
SMs of resident warps until latency can no longer be hidden — speedup peaks
at ~2048 items/thread on the 80-SM V100 and ~1024 on the 220-SM MI250X,
because more SMs need more blocks in flight.

The model here is the standard first-order one:

1. *Residency*: how many blocks fit on an SM simultaneously, limited by the
   warp, block, and shared-memory budgets (shared memory matters because
   HPAC-Offload's AC state lives there, §3.1.1 — big AC tables reduce
   occupancy, a real trade-off the simulator preserves).
2. *Utilization*: if the grid has fewer blocks than SMs, the surplus SMs
   idle.
3. *Hiding efficiency*: with ``a`` resident warps per SM and a kernel whose
   cycle mix needs ``need`` warps to cover its latency, throughput scales as
   ``min(1, a / need)``; ``need`` interpolates between the ALU and memory
   hiding requirements by the kernel's memory-cycle fraction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpusim.device import DeviceSpec


@dataclass(frozen=True)
class OccupancyReport:
    """Residency analysis for a launch configuration on a device."""

    blocks_per_sm: int
    active_warps_per_sm: float
    used_sms: int
    sm_utilization: float
    limited_by: str


def blocks_resident_per_sm(
    device: DeviceSpec, threads_per_block: int, shared_bytes_per_block: int = 0
) -> tuple[int, str]:
    """How many blocks of this shape fit on one SM, and what limits them."""
    warps_per_block = max(1, threads_per_block // device.warp_size)
    limits = {
        "warps": device.max_warps_per_sm // warps_per_block,
        "blocks": device.max_blocks_per_sm,
        "threads": device.max_threads_per_sm // threads_per_block,
    }
    if shared_bytes_per_block > 0:
        limits["shared_memory"] = device.shared_mem_per_sm // max(
            shared_bytes_per_block, 1
        )
    limiter = min(limits, key=lambda k: limits[k])
    return max(int(limits[limiter]), 0), limiter


def occupancy(
    device: DeviceSpec,
    num_blocks: int,
    threads_per_block: int,
    shared_bytes_per_block: int = 0,
) -> OccupancyReport:
    """Full residency report for a launch."""
    warps_per_block = max(1, threads_per_block // device.warp_size)
    per_sm, limiter = blocks_resident_per_sm(
        device, threads_per_block, shared_bytes_per_block
    )
    if per_sm == 0:
        # The block cannot be scheduled at all (e.g. AC state exceeding the
        # per-SM shared memory); callers should have rejected this earlier.
        return OccupancyReport(0, 0.0, 0, 0.0, limiter)
    used_sms = min(device.num_sms, num_blocks)
    # Average resident blocks per *used* SM over the kernel's lifetime.
    avg_blocks = min(per_sm, num_blocks / used_sms)
    active_warps = avg_blocks * warps_per_block
    return OccupancyReport(
        blocks_per_sm=per_sm,
        active_warps_per_sm=float(active_warps),
        used_sms=used_sms,
        sm_utilization=used_sms / device.num_sms,
        limited_by=limiter,
    )


def hiding_requirement(device: DeviceSpec, memory_fraction: float) -> float:
    """Resident warps per SM needed to hide this kernel's latency mix."""
    f = min(max(float(memory_fraction), 0.0), 1.0)
    return device.alu_hiding_warps + f * (
        device.mem_hiding_warps - device.alu_hiding_warps
    )


def hiding_efficiency(
    device: DeviceSpec, active_warps_per_sm: float, memory_fraction: float
) -> float:
    """Throughput scaling factor in (0, 1] from latency hiding."""
    need = hiding_requirement(device, memory_fraction)
    if active_warps_per_sm <= 0.0:
        return 0.0
    return min(1.0, active_warps_per_sm / need)
