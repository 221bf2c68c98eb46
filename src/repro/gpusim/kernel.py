"""Kernel abstraction and launch entry point.

A kernel is a Python callable ``fn(ctx, **params)`` operating on the lane
vectors of a :class:`~repro.gpusim.context.GridContext`.  :func:`launch`
builds the context, validates the configuration against device limits, runs
the body, and returns a :class:`KernelResult` bundling the timing breakdown
with the raw counters, so callers (the OpenMP runtime, the DSE harness,
tests) never touch simulator internals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import LaunchError
from repro.gpusim.context import GridContext
from repro.gpusim.cost import CycleCounters
from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import DeviceMemory
from repro.gpusim.timing import KernelTiming, time_kernel


@dataclass
class KernelResult:
    """Everything produced by one simulated launch."""

    timing: KernelTiming
    counters: CycleCounters
    context: GridContext
    value: Any = None

    @property
    def seconds(self) -> float:
        return self.timing.seconds


def round_up(value: int, multiple: int) -> int:
    """Smallest multiple of ``multiple`` that is >= ``value``."""
    return ((int(value) + multiple - 1) // multiple) * multiple


def validate_launch(
    device: DeviceSpec,
    num_blocks: int,
    threads_per_block: int,
    shared_capacity: int | None = None,
) -> None:
    """Reject launch shapes the device cannot schedule.

    ``shared_capacity`` is the requested per-block shared-memory budget
    (the runtime's AC carve-out, footnote 2); a request above the device's
    per-block limit can never be scheduled, so it fails here at launch
    validation instead of surfacing later as an allocation error — or not
    at all, for kernels that never fill the budget.
    """
    if num_blocks <= 0:
        raise LaunchError(f"num_blocks must be positive, got {num_blocks}")
    if threads_per_block <= 0:
        raise LaunchError(f"threads_per_block must be positive, got {threads_per_block}")
    if threads_per_block > device.max_threads_per_block:
        raise LaunchError(
            f"threads_per_block {threads_per_block} exceeds device limit "
            f"{device.max_threads_per_block}"
        )
    if threads_per_block % device.warp_size:
        raise LaunchError(
            f"threads_per_block {threads_per_block} is not a multiple of the "
            f"warp size {device.warp_size}"
        )
    if shared_capacity is not None:
        if shared_capacity < 0:
            raise LaunchError(
                f"shared_capacity must be non-negative, got {shared_capacity}"
            )
        if shared_capacity > device.shared_mem_per_block:
            raise LaunchError(
                f"shared_capacity {shared_capacity} B exceeds the device "
                f"shared-memory limit of {device.shared_mem_per_block} B "
                f"per block"
            )


def launch(
    fn: Callable[..., Any],
    device: DeviceSpec,
    num_blocks: int,
    threads_per_block: int,
    *,
    name: str | None = None,
    memory: DeviceMemory | None = None,
    shared_capacity: int | None = None,
    params: dict | None = None,
    sanitizer=None,
    nowait: bool = False,
) -> KernelResult:
    """Execute ``fn`` as a kernel on a simulated grid and time it.

    ``fn`` receives the :class:`GridContext` followed by ``params`` as
    keyword arguments; its return value is surfaced on the result.  When a
    ``sanitizer`` (ApproxSan) is attached it observes the launch through the
    context; the timing and counter paths are identical with or without it.
    ``nowait`` marks the launch asynchronous for the sanitizer's
    cross-launch happens-before engine (the simulator still executes
    launches serially; timing and counters are unaffected).
    """
    validate_launch(device, num_blocks, threads_per_block, shared_capacity)
    ctx = GridContext(
        device,
        num_blocks,
        threads_per_block,
        memory=memory,
        shared_capacity=shared_capacity,
        sanitizer=sanitizer,
    )
    kname = name or getattr(fn, "__name__", "kernel")
    if sanitizer is not None:
        sanitizer.begin_launch(kname, params or {}, nowait=nowait)
        try:
            value = fn(ctx, **(params or {}))
        finally:
            sanitizer.end_launch()
    else:
        value = fn(ctx, **(params or {}))
    # ``ctx.counters`` finalizes the context's deferred journal: every
    # per-call contribution folds into the public counters here, once per
    # launch, in call order (bit-identical to eager accumulation).
    counters = ctx.counters
    timing = time_kernel(
        device,
        kname,
        ctx.warp_cycles,
        counters,
        num_blocks,
        threads_per_block,
        shared_bytes_per_block=ctx.shared.used_per_block,
    )
    return KernelResult(timing=timing, counters=counters, context=ctx, value=value)
