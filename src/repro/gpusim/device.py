"""Device models for the SIMT simulator.

The paper evaluates HPAC-Offload on two platforms (§4):

* 4× NVIDIA Tesla V100, each with 80 streaming multiprocessors (SMs) and
  32-thread warps;
* 4× AMD Instinct MI250X, each with 220 compute units (the paper calls them
  SMs) and 64-thread wavefronts.

:class:`DeviceSpec` captures the architectural parameters that matter to the
first-order performance effects the paper analyses: SM count, warp width,
occupancy limits, the shared-memory budget that bounds AC state (§3.1.1), and
the latency/throughput constants used by the cost model.  Two presets,
:func:`nvidia_v100` and :func:`amd_mi250x`, reproduce the evaluation
platforms; both are plain data so tests can build synthetic devices.

Only one GPU (one MI250X GCD pair counted as a single 220-SM device, as the
paper does) is modelled; the evaluation never uses multi-GPU runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError

#: Size in bytes of one global-memory transaction segment.  32-byte sectors
#: are the finest granularity on both vendors' DRAM paths.
MEMORY_SEGMENT_BYTES = 32


@dataclass(frozen=True)
class DeviceSpec:
    """Architectural description of a simulated GPU.

    Attributes mirror vendor documentation; the cost-model constants
    (``*_cycles``) are calibrated to first-order published latencies, not
    microbenchmarks — the simulator targets *shape* fidelity, not absolute
    runtimes (see DESIGN.md §1).
    """

    name: str
    vendor: str
    #: Number of streaming multiprocessors / compute units.
    num_sms: int
    #: SIMD width of a warp (NVIDIA) or wavefront (AMD).
    warp_size: int
    #: Core clock in Hz.
    clock_hz: float
    #: Device global-memory capacity in bytes.
    global_mem_bytes: int
    #: Sustained global-memory bandwidth in bytes/second.
    mem_bandwidth: float
    #: Host-to-device interconnect bandwidth in bytes/second.
    interconnect_bandwidth: float
    #: Host-to-device transfer launch latency in seconds.
    transfer_latency_s: float
    #: Kernel launch latency in seconds.
    launch_latency_s: float

    # --- occupancy limits -------------------------------------------------
    max_threads_per_block: int = 1024
    max_threads_per_sm: int = 2048
    max_warps_per_sm: int = 64
    max_blocks_per_sm: int = 32
    #: Shared memory available to one block (the HPAC-Offload AC-state
    #: budget is carved out of this, §3.1.1/§3.3).
    shared_mem_per_block: int = 48 * 1024
    #: Shared memory per SM; bounds how many blocks are co-resident.
    shared_mem_per_sm: int = 96 * 1024

    # --- cost-model constants (cycles per warp instruction) ---------------
    #: Cycles to issue one single-precision FLOP for a full warp.
    alu_cycles: float = 1.0
    #: Cycles for a special-function op (exp, log, sqrt, ...) per warp.
    sfu_cycles: float = 4.0
    #: Issue/throughput cycles per global-memory transaction (32 B segment).
    #: This is LSU occupancy, not latency — exposed latency is captured by
    #: the hiding-efficiency model, and sustained bandwidth by the roofline
    #: bound in :mod:`repro.gpusim.timing`.
    mem_txn_cycles: float = 2.0
    #: Cycles per shared-memory access instruction (conflict-free).
    shared_cycles: float = 2.0
    #: Cycles for one warp-collective intrinsic (ballot/shfl/popc).
    intrinsic_cycles: float = 2.0
    #: Cycles for a block barrier per warp.
    barrier_cycles: float = 16.0
    #: Cycles for one shared-memory atomic operation per warp.
    atomic_cycles: float = 8.0

    # --- latency-hiding model ---------------------------------------------
    #: Resident warps per SM needed to hide pure-ALU latency.
    alu_hiding_warps: float = 4.0
    #: Resident warps per SM needed to hide global-memory latency.
    mem_hiding_warps: float = 24.0

    extra: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.num_sms <= 0:
            raise ConfigurationError("num_sms must be positive")
        if self.warp_size <= 0 or self.warp_size & (self.warp_size - 1):
            raise ConfigurationError("warp_size must be a positive power of two")
        if self.max_threads_per_block % self.warp_size:
            raise ConfigurationError(
                "max_threads_per_block must be a multiple of warp_size"
            )
        if self.clock_hz <= 0 or self.mem_bandwidth <= 0:
            raise ConfigurationError("clock and bandwidth must be positive")

    # ------------------------------------------------------------------
    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert a cycle count into seconds at this device's clock."""
        return float(cycles) / self.clock_hz

    def with_overrides(self, **kwargs) -> "DeviceSpec":
        """Return a copy with selected fields replaced (for ablations)."""
        return replace(self, **kwargs)


def _scaled(spec: DeviceSpec, scale: float) -> DeviceSpec:
    """Shrink a device to ``scale`` of its SMs (bandwidth follows).

    The reproduction runs problems ~1-2 orders of magnitude smaller than
    the paper's (DESIGN.md §3); a proportionally scaled device keeps every
    *relative* quantity — blocks per SM at a given items-per-thread, the
    NVIDIA:AMD SM ratio, the compute:bandwidth balance — so occupancy
    crossovers (Fig 8c) land at the same place in the scaled coordinates.
    Per-SM resources (warp size, shared memory, occupancy limits) are
    untouched.
    """
    if scale == 1.0:
        return spec
    if not 0.0 < scale <= 1.0:
        raise ConfigurationError("device scale must be in (0, 1]")
    sms = max(1, round(spec.num_sms * scale))
    frac = sms / spec.num_sms
    return spec.with_overrides(
        name=f"{spec.name} (x{frac:.3g})",
        num_sms=sms,
        mem_bandwidth=spec.mem_bandwidth * frac,
        interconnect_bandwidth=spec.interconnect_bandwidth * frac,
        global_mem_bytes=max(1, int(spec.global_mem_bytes * frac)),
        extra={**spec.extra, "scale": frac, "full_name": spec.name},
    )


def nvidia_v100(scale: float = 1.0) -> DeviceSpec:
    """The NVIDIA Tesla V100 (Volta) used by the paper's IBM Power9 node."""
    return _scaled(
        DeviceSpec(
            name="NVIDIA Tesla V100",
            vendor="nvidia",
            num_sms=80,
            warp_size=32,
            clock_hz=1.53e9,
            global_mem_bytes=16 * 1024**3,
            mem_bandwidth=900e9,
            interconnect_bandwidth=32e9,  # NVLink2 on the Power9 platform
            transfer_latency_s=10e-6,
            launch_latency_s=5e-6,
            max_threads_per_block=1024,
            max_threads_per_sm=2048,
            max_warps_per_sm=64,
            max_blocks_per_sm=32,
            shared_mem_per_block=48 * 1024,
            shared_mem_per_sm=96 * 1024,
            alu_hiding_warps=4.0,
            mem_hiding_warps=24.0,
        ),
        scale,
    )


def amd_mi250x(scale: float = 1.0) -> DeviceSpec:
    """The AMD Instinct MI250X; the paper counts both GCDs as one 220-SM GPU."""
    return _scaled(
        DeviceSpec(
            name="AMD Instinct MI250X",
            vendor="amd",
            num_sms=220,
            warp_size=64,
            clock_hz=1.70e9,
            global_mem_bytes=128 * 1024**3,
            mem_bandwidth=3.2e12,
            interconnect_bandwidth=36e9,  # Infinity Fabric host link
            transfer_latency_s=10e-6,
            launch_latency_s=6e-6,
            max_threads_per_block=1024,
            max_threads_per_sm=2048,
            max_warps_per_sm=32,  # 32 wavefronts of 64 threads
            max_blocks_per_sm=16,
            shared_mem_per_block=64 * 1024,
            shared_mem_per_sm=64 * 1024,
            alu_hiding_warps=4.0,
            mem_hiding_warps=20.0,
        ),
        scale,
    )


#: Scale used by the figure benches: a 1/10 V100 (8 SMs) and 1/10 MI250X
#: (22 SMs), matching the reproduction's reduced problem sizes.
BENCH_SCALE = 0.1

_PRESETS = {
    "v100": nvidia_v100,
    "nvidia": nvidia_v100,
    "nvidia_v100": nvidia_v100,
    "mi250x": amd_mi250x,
    "amd": amd_mi250x,
    "amd_mi250x": amd_mi250x,
    "v100_small": lambda: nvidia_v100(BENCH_SCALE),
    "nvidia_small": lambda: nvidia_v100(BENCH_SCALE),
    "mi250x_small": lambda: amd_mi250x(BENCH_SCALE),
    "amd_small": lambda: amd_mi250x(BENCH_SCALE),
}


def get_device(name: str | DeviceSpec) -> DeviceSpec:
    """Resolve a preset name ("v100", "amd_small", ...) or pass a spec through."""
    if isinstance(name, DeviceSpec):
        return name
    key = name.strip().lower().replace("-", "_").replace(" ", "_")
    try:
        return _PRESETS[key]()
    except KeyError:
        raise ConfigurationError(
            f"unknown device {name!r}; known presets: {sorted(set(_PRESETS))}"
        ) from None


def known_devices() -> list[str]:
    """Names of the built-in device presets (canonical spellings)."""
    return ["nvidia_v100", "amd_mi250x"]
