"""Instruction and traffic counters for the SIMT cost model.

Every charge made through :class:`~repro.gpusim.context.GridContext` is
recorded twice: as per-warp cycles (the timing model input) and in a
:class:`CycleCounters` record (the analysis/assertion input).  The counters
let tests state properties such as "herded perforation issues no more global
transactions than the accurate run" without reverse-engineering cycle sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CycleCounters:
    """Aggregate instruction/traffic statistics for one kernel execution."""

    #: Warp-instructions' worth of ALU cycles charged.
    alu_cycles: float = 0.0
    #: Special-function-unit cycles (exp/log/sqrt/...).
    sfu_cycles: float = 0.0
    #: Cycles spent on global-memory transactions.
    mem_cycles: float = 0.0
    #: Cycles spent on shared-memory accesses.
    shared_cycles: float = 0.0
    #: Cycles spent on warp intrinsics (ballot/popc/shfl).
    intrinsic_cycles: float = 0.0
    #: Cycles spent in block barriers.
    barrier_cycles: float = 0.0
    #: Cycles spent in atomics.
    atomic_cycles: float = 0.0

    #: Number of global-memory transactions issued.
    global_transactions: int = 0
    #: DRAM bytes moved (transactions × segment size).
    dram_bytes: int = 0
    #: Count of global access *instructions* (warp-wide).
    global_accesses: int = 0
    #: Count of shared access instructions.
    shared_accesses: int = 0
    #: Count of barrier instructions.
    barriers: int = 0
    #: Count of warp-intrinsic instructions.
    intrinsics: int = 0
    #: Count of atomic instructions.
    atomics: int = 0

    extra: dict = field(default_factory=dict)

    @property
    def total_cycles(self) -> float:
        """Sum of all charged cycle categories."""
        return (
            self.alu_cycles
            + self.sfu_cycles
            + self.mem_cycles
            + self.shared_cycles
            + self.intrinsic_cycles
            + self.barrier_cycles
            + self.atomic_cycles
        )

    @property
    def memory_fraction(self) -> float:
        """Fraction of charged cycles that are global-memory cycles.

        Drives the latency-hiding model: memory-bound kernels need more
        resident warps to stay busy.
        """
        total = self.total_cycles
        if total <= 0.0:
            return 0.0
        return self.mem_cycles / total

    def merge(self, other: "CycleCounters") -> None:
        """Accumulate another counter record into this one."""
        self.alu_cycles += other.alu_cycles
        self.sfu_cycles += other.sfu_cycles
        self.mem_cycles += other.mem_cycles
        self.shared_cycles += other.shared_cycles
        self.intrinsic_cycles += other.intrinsic_cycles
        self.barrier_cycles += other.barrier_cycles
        self.atomic_cycles += other.atomic_cycles
        self.global_transactions += other.global_transactions
        self.dram_bytes += other.dram_bytes
        self.global_accesses += other.global_accesses
        self.shared_accesses += other.shared_accesses
        self.barriers += other.barriers
        self.intrinsics += other.intrinsics
        self.atomics += other.atomics

    def snapshot(self) -> dict:
        """Plain-dict view for the harness results database."""
        return {
            "alu_cycles": self.alu_cycles,
            "sfu_cycles": self.sfu_cycles,
            "mem_cycles": self.mem_cycles,
            "shared_cycles": self.shared_cycles,
            "intrinsic_cycles": self.intrinsic_cycles,
            "barrier_cycles": self.barrier_cycles,
            "atomic_cycles": self.atomic_cycles,
            "total_cycles": self.total_cycles,
            "global_transactions": self.global_transactions,
            "dram_bytes": self.dram_bytes,
            "global_accesses": self.global_accesses,
            "shared_accesses": self.shared_accesses,
            "barriers": self.barriers,
            "intrinsics": self.intrinsics,
            "atomics": self.atomics,
        }
