"""Kernel abstraction and launch entry point.

A kernel is a Python callable ``fn(ctx, **params)`` operating on the lane
vectors of a :class:`~repro.gpusim.context.GridContext`.  :func:`launch`
builds the context (which validates the configuration against device
limits, :func:`~repro.gpusim.context.validate_launch`), runs
the body, and returns a :class:`KernelResult` bundling the timing breakdown
with the raw counters, so callers (the OpenMP runtime, the DSE harness,
tests) never touch simulator internals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.gpusim.context import GridContext, validate_launch  # noqa: F401 (re-export)
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
