"""Vectorized SIMT execution context.

The simulator executes a whole grid in lockstep: every simulated thread is a
*lane* of flat numpy vectors, organized grid-major as

    lane = block_id * threads_per_block + lane_in_block
    warp = lane // warp_size            (warps never straddle blocks)

Kernel bodies are ordinary Python functions that receive a
:class:`GridContext` and operate on these lane vectors.  Divergence is
modelled with boolean *masks* plus SIMD cost accounting: a warp pays for an
instruction when **any** of its lanes executes it, so a half-masked warp is
exactly as slow as a full one — the thread-divergence penalty that motivates
warp-level decisions and herded perforation in the paper (§3.1.2, §3.1.5).

The context exposes:

* identity vectors (``thread_id``, ``block_id``, ``lane_in_warp``, ...);
* cost-charging primitives (``flops``, ``sfu``, ``global_read/write``,
  ``shared_access``, ``barrier``, ``atomic``);
* warp collectives (``ballot``, ``warp_active_count``, ``warp_reduce``) and
  block counts built from the ballot+atomic pattern of §3.3
  (``block_count``, ``block_active_count``);
* shared-memory allocation through :class:`~repro.gpusim.shared.SharedMemoryPool`;
* a grid-stride loop helper matching OpenMP
  ``target teams distribute parallel for`` scheduling.

Lockstep execution is semantically safe for the data-parallel kernels the
paper evaluates; block barriers become synchronization *checks* — reaching a
barrier under block-divergent masks raises
:class:`~repro.errors.SimulatedDeadlockError`, reproducing the deadlock
hazard of §3.1.2 instead of hanging.

Steady-state cost
-----------------

The primitives do near-zero allocations in steady state: temporaries live
in a per-launch :class:`~repro.gpusim.arena.ScratchArena` (the TAF and
iACT runtimes bind theirs from it once per launch and region, and the
arena still counts them), the per-warp active vector of a given mask
object is identity-cached, and the depth-1 all-true mask short-circuits
every reshape-reduce.  Their results are pinned by recorded
digests: ``tests/gpusim/goldens/primitives.json`` (randomized primitive
programs) and ``tests/approx/goldens/equivalence.json`` (full
application runs).

Invariants callers must respect:

* arrays returned by collectives (``ballot``, ``warp_active_count``,
  ``warp_reduce``, ``block_count``, ``block_active_count``) are **borrowed**
  scratch — valid until the same collective is called again on this
  context.  (``global_read`` results are always fresh.)
* mask arrays passed to charging primitives are treated as immutable;
  in-place mutation of a previously used mask object must be followed by
  :meth:`GridContext.invalidate_mask_cache` (pushing/popping masks and the
  approximation runtime's invocation boundaries do this automatically).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.errors import LaunchError, SimulatedDeadlockError
from repro.gpusim.arena import ScratchArena
from repro.gpusim.cost import CycleCounters
from repro.gpusim.device import MEMORY_SEGMENT_BYTES, DeviceSpec
from repro.gpusim.memory import DeviceMemory, coalesced_transactions
from repro.gpusim.shared import SharedMemoryPool

#: Size of the identity-keyed per-warp active-vector cache.  Entries own a
#: reference to their key array, so an ``id()`` can never be recycled while
#: its entry is live; the cache is cleared before its 16th insertion, so a
#: rotation slot is never overwritten while a live entry still points at it.
_ACTIVE_CACHE_SLOTS = 16


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


class GridContext:
    """Execution state for one simulated kernel launch."""

    def __init__(
        self,
        device: DeviceSpec,
        num_blocks: int,
        threads_per_block: int,
        memory: DeviceMemory | None = None,
        shared_capacity: int | None = None,
        sanitizer=None,
    ) -> None:
        validate_launch(device, num_blocks, threads_per_block, shared_capacity)
        self.device = device
        self.num_blocks = int(num_blocks)
        self.threads_per_block = int(threads_per_block)
        self.warp_size = int(device.warp_size)
        self.warps_per_block = self.threads_per_block // self.warp_size
        self.num_warps = self.num_blocks * self.warps_per_block
        self.total_threads = self.num_blocks * self.threads_per_block

        lane = np.arange(self.total_threads, dtype=np.int64)
        #: Global thread id of each lane.
        self.thread_id = lane
        #: Block owning each lane.
        self.block_id = lane // self.threads_per_block
        #: Thread index within the block.
        self.lane_in_block = lane % self.threads_per_block
        #: Lane index within the warp.
        self.lane_in_warp = lane % self.warp_size
        #: Warp index within the block.
        self.warp_in_block = self.lane_in_block // self.warp_size
        #: Global warp id of each lane.
        self.warp_id = lane // self.warp_size

        self.memory = memory if memory is not None else DeviceMemory(device)
        #: Optional ApproxSan observer (:mod:`repro.analysis.sanitizer`).
        #: Every hook below is gated on ``is not None`` and charges nothing,
        #: so the ``sanitizer=None`` path is byte-identical in timings and
        #: counters.
        self.sanitizer = sanitizer
        cap = device.shared_mem_per_block if shared_capacity is None else shared_capacity
        self.shared = SharedMemoryPool(self.num_blocks, cap, observer=sanitizer)

        #: Cycles accumulated by each warp (timing-model input).
        self.warp_cycles = np.zeros(self.num_warps, dtype=np.float64)
        #: Public cycle counters; every primitive charges them as it runs.
        self.counters = CycleCounters()
        self._mask_stack: list[np.ndarray] = [
            np.ones(self.total_threads, dtype=bool)
        ]
        #: Free-form per-launch scratch used by the approximation runtime to
        #: keep region state across invocations.
        self.region_state: dict = {}

        #: The arena holds every steady-state temporary.
        self.arena = ScratchArena()
        self._base_mask = self._mask_stack[0]
        self._uniform_active = np.ones(self.num_warps, dtype=bool)
        self._uniform_active.setflags(write=False)
        #: Shared read-only all-False lane mask (a thread-level decision's
        #: ``forced`` and ``denied``).
        self._no_lanes = np.zeros(self.total_threads, dtype=bool)
        self._no_lanes.setflags(write=False)
        self._active_cache: dict[int, tuple] = {}
        self._active_slot = 0

    # ------------------------------------------------------------------
    # masks / divergence
    # ------------------------------------------------------------------
    @property
    def mask(self) -> np.ndarray:
        """Current active-lane mask (top of the divergence stack)."""
        return self._mask_stack[-1]

    def push_mask(self, mask: np.ndarray) -> None:
        """Enter a divergent region: new mask = current AND ``mask``."""
        m = np.logical_and(self.mask, np.asarray(mask, dtype=bool))
        self._mask_stack.append(m)
        self._active_cache.clear()

    def pop_mask(self) -> np.ndarray:
        """Leave the innermost divergent region."""
        if len(self._mask_stack) == 1:
            raise RuntimeError("mask stack underflow")
        self._active_cache.clear()
        return self._mask_stack.pop()

    @contextmanager
    def masked(self, mask: np.ndarray):
        """Context manager form of push_mask/pop_mask."""
        self.push_mask(mask)
        try:
            yield self.mask
        finally:
            self.pop_mask()

    def invalidate_mask_cache(self) -> None:
        """Drop cached per-warp active vectors.

        Required only if a mask array previously passed to a charging
        primitive has been mutated **in place** (the cache is keyed by
        array identity).  The approximation runtime calls this at every
        region-invocation and perforation-step boundary.
        """
        self._active_cache.clear()

    # -- mask helpers ---------------------------------------------------
    def _combined_mask(self, mask) -> np.ndarray:
        """Effective bool mask = divergence-stack top AND ``mask``.

        Returns the base all-true mask object itself when nothing masks,
        which the primitives below test by identity to short-circuit.
        """
        if mask is None:
            return self._mask_stack[-1]
        if len(self._mask_stack) == 1:
            if isinstance(mask, np.ndarray) and mask.dtype == np.bool_:
                return mask
            return np.asarray(mask, dtype=bool)
        return np.logical_and(self._mask_stack[-1], mask)

    def _active_info(self, mask) -> tuple[np.ndarray, int]:
        """Per-warp active vector (does any lane of the warp execute?) plus
        the number of active warps, cached by the identity of the combined
        mask object (borrowed; do not mutate)."""
        if mask is None:
            m = self._mask_stack[-1]
        elif len(self._mask_stack) == 1:
            if isinstance(mask, np.ndarray) and mask.dtype == np.bool_:
                m = mask
            else:
                m = np.asarray(mask, dtype=bool)
        else:
            m = np.logical_and(self._mask_stack[-1], mask)
        if m is self._base_mask:
            return self._uniform_active, self.num_warps
        cache = self._active_cache
        ent = cache.get(id(m))
        if ent is not None and ent[0] is m:
            return ent[1], ent[2]
        if len(cache) >= _ACTIVE_CACHE_SLOTS:
            cache.clear()
        buf = self.arena.buf(
            ("warp_any", self._active_slot), (self.num_warps,), np.bool_
        )
        self._active_slot = (self._active_slot + 1) % _ACTIVE_CACHE_SLOTS
        np.any(m.reshape(self.num_warps, self.warp_size), axis=1, out=buf)
        count = int(np.count_nonzero(buf))
        cache[id(m)] = (m, buf, count)
        return buf, count

    def _charge_warps_counted(self, cyc, active: np.ndarray, count: int) -> None:
        """``charge_warps`` given a precomputed active-warp count: the
        all-warps case adds unmasked (bitwise-identical to the fancy-index
        add over an all-true mask) and skips indexing entirely."""
        if count == self.num_warps:
            self.warp_cycles += cyc
        else:
            self.warp_cycles[active] += cyc

    # ------------------------------------------------------------------
    # cycle charging
    # ------------------------------------------------------------------
    def charge_warps(self, cycles, warp_mask: np.ndarray | None = None) -> None:
        """Add ``cycles`` to each warp selected by ``warp_mask``.

        ``cycles`` may be a scalar or a per-warp array.
        """
        if warp_mask is None:
            self.warp_cycles += cycles
        else:
            if np.isscalar(cycles):
                self.warp_cycles[warp_mask] += cycles
            else:
                self.warp_cycles += np.where(warp_mask, cycles, 0.0)

    def flops(self, n: float, mask: np.ndarray | None = None) -> None:
        """Charge ``n`` single-precision-equivalent FLOPs per active lane.

        SIMD semantics: a warp with at least one active lane pays the full
        ``n * alu_cycles``; fully inactive warps pay nothing.
        """
        active, count = self._active_info(mask)
        cyc = float(n) * self.device.alu_cycles
        self._charge_warps_counted(cyc, active, count)
        self.counters.alu_cycles += cyc * count

    def flops_per_lane(self, n_per_lane: np.ndarray, mask: np.ndarray | None = None) -> None:
        """Charge a per-lane variable FLOP count; warps pay their max lane.

        Models per-lane loops with data-dependent trip counts (e.g. LavaMD
        neighbour loops): SIMD warps run as long as their slowest lane.
        """
        m = self._combined_mask(mask)
        arena = self.arena
        lanes = arena.buf("fpl_lanes", (self.total_threads,), np.float64)
        lanes.fill(0.0)
        np.copyto(lanes, n_per_lane, where=m)
        per_warp = arena.buf("fpl_warp", (self.num_warps,), np.float64)
        lanes.reshape(self.num_warps, self.warp_size).max(axis=1, out=per_warp)
        cyc = arena.buf("fpl_cyc", (self.num_warps,), np.float64)
        np.multiply(per_warp, self.device.alu_cycles, out=cyc)
        self.warp_cycles += cyc
        self.counters.alu_cycles += float(cyc.sum())

    def sfu(self, n: float, mask: np.ndarray | None = None) -> None:
        """Charge ``n`` special-function ops (exp/log/sqrt/...) per lane."""
        active, count = self._active_info(mask)
        cyc = float(n) * self.device.sfu_cycles
        self._charge_warps_counted(cyc, active, count)
        self.counters.sfu_cycles += cyc * count

    # ------------------------------------------------------------------
    # global memory
    # ------------------------------------------------------------------
    def _charge_global(self, addr: np.ndarray, m: np.ndarray, uniform: bool) -> None:
        arena = self.arena
        txns = coalesced_transactions(
            addr,
            m,
            self.warp_size,
            # True: skip the all-lanes check; None: let the helper test the
            # mask itself (a non-base mask can still be all-true, e.g. full
            # grid-stride steps) so affine address vectors stay analytic.
            full_mask=True if uniform else None,
            out=arena.buf("gmem_txns", (self.num_warps,), np.int64),
            scratch=arena,
        )
        cyc = np.multiply(
            txns,
            self.device.mem_txn_cycles,
            out=arena.buf("gmem_cyc", (self.num_warps,), np.float64),
        )
        self.warp_cycles += cyc
        ntx = int(txns.sum())
        c = self.counters
        c.mem_cycles += float(cyc.sum())
        c.global_transactions += ntx
        c.dram_bytes += ntx * MEMORY_SEGMENT_BYTES
        c.global_accesses += 1

    def global_read(
        self, arr: np.ndarray, idx: np.ndarray, mask: np.ndarray | None = None
    ) -> np.ndarray:
        """Read ``arr[idx]`` per lane, charging coalescing-aware cost.

        ``idx`` is a per-lane element index into a flat device array.  Lanes
        outside the mask return 0 and issue no memory request.  The returned
        array is always freshly allocated (it escapes to application code).
        """
        m = self._combined_mask(mask)
        uniform = m is self._base_mask
        arena = self.arena
        safe = arena.buf("gmem_safe", (self.total_threads,), np.int64)
        if uniform:
            np.copyto(safe, idx, casting="unsafe")
        else:
            safe.fill(0)
            np.copyto(safe, idx, where=m, casting="unsafe")
        addr = arena.buf("gmem_addr", (self.total_threads,), np.int64)
        np.multiply(safe, arr.itemsize, out=addr)
        self._charge_global(addr, m, uniform)
        if self.sanitizer is not None:
            self.sanitizer.on_global_read(arr, safe, m)
        flat = arr.reshape(-1)
        gathered = arena.buf("gmem_gather", (self.total_threads,), flat.dtype)
        np.take(flat, safe, out=gathered)
        if uniform:
            return gathered.copy()
        return np.where(m, gathered, np.zeros((), dtype=arr.dtype))

    def global_write(
        self,
        arr: np.ndarray,
        idx: np.ndarray,
        values: np.ndarray,
        mask: np.ndarray | None = None,
    ) -> None:
        """Write ``values`` to ``arr[idx]`` per lane with coalescing cost."""
        m = self._combined_mask(mask)
        uniform = m is self._base_mask
        arena = self.arena
        safe = arena.buf("gmem_safe", (self.total_threads,), np.int64)
        if uniform:
            np.copyto(safe, idx, casting="unsafe")
        else:
            safe.fill(0)
            np.copyto(safe, idx, where=m, casting="unsafe")
        addr = arena.buf("gmem_addr", (self.total_threads,), np.int64)
        np.multiply(safe, arr.itemsize, out=addr)
        self._charge_global(addr, m, uniform)
        if self.sanitizer is not None:
            self.sanitizer.on_global_write(arr, safe, m, self)
        flat = arr.reshape(-1)
        if uniform:
            flat[safe] = np.asarray(values) if np.ndim(values) else values
        else:
            flat[safe[m]] = np.asarray(values)[m] if np.ndim(values) else values

    def charge_global_streamed(
        self,
        elements: float,
        itemsize: int = 8,
        mask: np.ndarray | None = None,
        buffers: str | tuple | None = None,
        indices=None,
        writes: str | tuple | None = None,
    ) -> None:
        """Charge a perfectly coalesced access of ``elements`` per lane.

        Fast path for unit-stride sweeps where building explicit address
        vectors would dominate simulation wall-clock: each warp moves
        ``warp_size * itemsize`` contiguous bytes per element.

        ``buffers`` optionally names the *input* buffer(s) this access
        covers and ``writes`` the output buffer(s) it stores to (names or
        tuples of names from the kernel's parameter namespace).
        ``indices`` upgrades the hint to element precision: a dict mapping
        buffer name to a per-lane flat-index vector, a 2-D
        ``(lanes, width)`` index block (negative entries ignored), or a
        ``(base, width)`` tuple meaning each lane touches
        ``[base[lane], base[lane]+width)``.  All three are pure attribution
        hints for ApproxSan — the cost model ignores them entirely.

        Accounting convention for fractional ``elements`` (an *average*
        per-lane element count): ``mem_cycles`` stay exact — time is
        continuous, so each active warp pays the un-rounded
        ``elements * ceil(warp_size*itemsize/segment) * mem_txn_cycles`` —
        while the discrete event counters (``global_transactions`` and the
        ``dram_bytes`` derived from them) round the per-warp transaction
        count **once**, half-to-even, and reuse that single rounded value
        for both, so transactions and bytes can never disagree.  Integral
        ``elements`` are unaffected.
        """
        if self.sanitizer is not None and (buffers or writes):
            m = self._combined_mask(mask)
            self.sanitizer.on_streamed_read(
                buffers, indices=indices, mask=m, writes=writes)
        active, count = self._active_info(mask)
        txns_per_warp = float(elements) * np.ceil(
            self.warp_size * itemsize / MEMORY_SEGMENT_BYTES
        )
        ntx_warp = int(round(txns_per_warp))
        cyc = txns_per_warp * self.device.mem_txn_cycles
        self._charge_warps_counted(cyc, active, count)
        c = self.counters
        c.mem_cycles += cyc * count
        c.global_transactions += ntx_warp * count
        c.dram_bytes += ntx_warp * count * MEMORY_SEGMENT_BYTES
        c.global_accesses += 1

    # ------------------------------------------------------------------
    # shared memory traffic
    # ------------------------------------------------------------------
    def shared_access(self, n: float = 1.0, mask: np.ndarray | None = None) -> None:
        """Charge ``n`` conflict-free shared-memory accesses per lane."""
        active, count = self._active_info(mask)
        cyc = float(n) * self.device.shared_cycles
        self._charge_warps_counted(cyc, active, count)
        c = self.counters
        c.shared_cycles += cyc * count
        c.shared_accesses += 1

    def shared_table_write(
        self,
        region: str,
        table_ids: np.ndarray,
        mask: np.ndarray | None = None,
        accesses: float = 1.0,
    ) -> None:
        """Insert into warp-shared memo tables: cost of :meth:`shared_access`
        plus ApproxSan's single-writer race check.

        ``table_ids`` gives each lane's target table; ``mask`` selects the
        writing lanes.  Charges exactly ``shared_access(accesses, mask)`` —
        the mediation adds no cycles — but when a sanitizer is attached,
        two active lanes of one warp writing the same table in a single
        phase is reported as a write-write race (HPAC204).  The iACT write
        phase routes through here; its single-writer election stays clean
        by construction.
        """
        self.shared_access(float(accesses), mask)
        if self.sanitizer is not None:
            m = self._combined_mask(mask)
            self.sanitizer.on_table_write(region, np.asarray(table_ids), m, self)

    # ------------------------------------------------------------------
    # warp collectives / intrinsics
    # ------------------------------------------------------------------
    def _charge_intrinsic(self, n: float = 1.0, mask: np.ndarray | None = None) -> None:
        active, count = self._active_info(mask)
        cyc = float(n) * self.device.intrinsic_cycles
        self._charge_warps_counted(cyc, active, count)
        c = self.counters
        c.intrinsic_cycles += cyc * count
        c.intrinsics += 1

    def _ballot_counts(self, pred: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        """Ballot without the per-lane broadcast: per-warp counts
        of active predicate-true lanes (borrowed buffer).  Charges exactly
        like :meth:`ballot`."""
        m = self._combined_mask(mask)
        arena = self.arena
        if (
            m is self._base_mask
            and isinstance(pred, np.ndarray)
            and pred.dtype == np.bool_
        ):
            # AND with the all-true base mask is the identity.
            p = pred
        else:
            p = arena.buf("ballot_pred", (self.total_threads,), np.bool_)
            np.logical_and(pred, m, out=p)
        counts = arena.buf("ballot_counts", (self.num_warps,), np.int64)
        p.reshape(self.num_warps, self.warp_size).sum(axis=1, out=counts)
        self._charge_intrinsic(1.0, mask)
        return counts

    def ballot(self, pred: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        """``__ballot_sync`` + ``popc``: per-lane broadcast of the number of
        active lanes in the lane's warp whose predicate is true."""
        counts = self._ballot_counts(pred, mask)
        out = self.arena.buf("ballot_lanes", (self.total_threads,), np.int64)
        out.reshape(self.num_warps, self.warp_size)[:] = counts[:, None]
        return out

    def _warp_counts(self, m: np.ndarray) -> np.ndarray:
        """Per-warp active-lane counts of an already-combined mask
        (borrowed buffer; no cycles charged)."""
        counts = self.arena.buf("warp_counts", (self.num_warps,), np.int64)
        if m is self._base_mask:
            counts.fill(self.warp_size)
        else:
            m.reshape(self.num_warps, self.warp_size).sum(axis=1, out=counts)
        return counts

    def warp_active_count(self, mask: np.ndarray | None = None) -> np.ndarray:
        """Per-lane broadcast of the number of active lanes in its warp."""
        counts = self._warp_counts(self._combined_mask(mask))
        out = self.arena.buf("wac_lanes", (self.total_threads,), np.int64)
        out.reshape(self.num_warps, self.warp_size)[:] = counts[:, None]
        return out

    def warp_reduce(
        self, values: np.ndarray, op: str = "sum", mask: np.ndarray | None = None
    ) -> np.ndarray:
        """Butterfly-shuffle warp reduction; result broadcast to all lanes.

        Charges log2(warp_size) shuffle intrinsics, like the shfl.down tree
        a real implementation would use.
        """
        m = self._combined_mask(mask)
        arena = self.arena
        if op == "sum":
            ident = 0.0
        elif op == "max":
            ident = -np.inf
        elif op == "min":
            ident = np.inf
        else:
            raise ValueError(f"unknown warp reduction {op!r}")
        if m is self._base_mask:
            grid = np.asarray(values, dtype=np.float64).reshape(
                self.num_warps, self.warp_size
            )
        else:
            tmp = arena.buf("wred_vals", (self.total_threads,), np.float64)
            tmp.fill(ident)
            np.copyto(tmp, values, where=m)
            grid = tmp.reshape(self.num_warps, self.warp_size)
        red = arena.buf("wred_red", (self.num_warps,), np.float64)
        if op == "sum":
            grid.sum(axis=1, out=red)
        elif op == "max":
            grid.max(axis=1, out=red)
        else:
            grid.min(axis=1, out=red)
        self._charge_intrinsic(float(np.log2(self.warp_size)), mask)
        out = arena.buf("wred_lanes", (self.total_threads,), np.float64)
        out.reshape(self.num_warps, self.warp_size)[:] = red[:, None]
        return out

    # ------------------------------------------------------------------
    # block-level operations
    # ------------------------------------------------------------------
    def barrier(self, mask: np.ndarray | None = None) -> None:
        """Block barrier with deadlock detection.

        Raises :class:`SimulatedDeadlockError` when, inside any block, some
        threads reach the barrier while others were masked off by divergent
        control flow — the hang scenario of §3.1.2.
        """
        m = self._combined_mask(mask)
        if m is self._base_mask:
            active, count = self._uniform_active, self.num_warps
        else:
            per_block = m.reshape(self.num_blocks, self.threads_per_block)
            arena = self.arena
            some = arena.buf("bar_some", (self.num_blocks,), np.bool_)
            per_block.any(axis=1, out=some)
            diverged = arena.buf("bar_div", (self.num_blocks,), np.bool_)
            per_block.all(axis=1, out=diverged)
            np.logical_not(diverged, out=diverged)
            np.logical_and(some, diverged, out=diverged)
            if diverged.any():
                bad = int(np.argmax(diverged))
                raise SimulatedDeadlockError(
                    f"barrier reached under divergent control flow in block {bad}: "
                    f"{int(per_block[bad].sum())}/{self.threads_per_block} threads arrived"
                )
            active, count = self._active_info(mask)
        cyc = self.device.barrier_cycles
        self._charge_warps_counted(cyc, active, count)
        c = self.counters
        c.barrier_cycles += cyc * count
        c.barriers += 1
        if self.sanitizer is not None:
            # Synchronizing boundary: the race detector opens a new epoch.
            self.sanitizer.on_barrier()

    def atomic_shared(self, n: float = 1.0, mask: np.ndarray | None = None) -> None:
        """Charge ``n`` shared-memory atomic ops (one per active warp)."""
        active, count = self._active_info(mask)
        cyc = float(n) * self.device.atomic_cycles
        self._charge_warps_counted(cyc, active, count)
        c = self.counters
        c.atomic_cycles += cyc * count
        c.atomics += 1

    def _block_counts(self, pred: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        """:meth:`block_count` without the per-lane broadcast:
        per-block counts (borrowed buffer), charging the identical §3.3
        sequence (ballot+popc, leader atomic, full barrier, readback)."""
        m = self._combined_mask(mask)
        arena = self.arena
        p = arena.buf("bc_pred", (self.total_threads,), np.bool_)
        np.logical_and(pred, m, out=p)
        per_block = arena.buf("bc_counts", (self.num_blocks,), np.int64)
        p.reshape(self.num_blocks, self.threads_per_block).sum(axis=1, out=per_block)
        self._charge_intrinsic(1.0, mask)  # ballot + popc
        self.atomic_shared(1.0, mask)  # leader atomicAdd
        # The barrier is block-wide: ``mask`` selects who *votes*, not who
        # reaches the synchronization point — every converged thread of the
        # block arrives (a ragged tail still synchronizes on real hardware).
        self.barrier()
        self.shared_access(1.0, mask)  # read back the total
        return per_block

    def block_count(self, pred: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        """Count predicate-true threads per block, broadcast per lane.

        Models the §3.3 block-decision sequence: per-warp ballot+popc, the
        first lane of each warp atomically adding into shared memory, a
        barrier, then every thread reading the total.
        """
        per_block = self._block_counts(pred, mask)
        out = self.arena.buf("bc_lanes", (self.total_threads,), np.int64)
        out.reshape(self.num_blocks, self.threads_per_block)[:] = per_block[:, None]
        return out

    def _block_active_counts(self, m: np.ndarray) -> np.ndarray:
        """Per-block active-lane counts of an already-combined mask
        (borrowed buffer; no cost)."""
        counts = self.arena.buf("bact_counts", (self.num_blocks,), np.int64)
        if m is self._base_mask:
            counts.fill(self.threads_per_block)
        else:
            m.reshape(self.num_blocks, self.threads_per_block).sum(axis=1, out=counts)
        return counts

    def block_active_count(self, mask: np.ndarray | None = None) -> np.ndarray:
        """Active threads per block (no cost — a compile-time constant)."""
        counts = self._block_active_counts(self._combined_mask(mask))
        out = self.arena.buf("bac_lanes", (self.total_threads,), np.int64)
        out.reshape(self.num_blocks, self.threads_per_block)[:] = counts[:, None]
        return out

    # ------------------------------------------------------------------
    # loop scheduling
    # ------------------------------------------------------------------
    def grid_stride(self, n: int, start: int = 0):
        """Iterate a ``parallel for`` of ``n`` iterations grid-stride style.

        Iterates indices ``range(start, n)``.  Yields ``(step, idx, mask)``
        where ``idx`` is the loop index each lane handles this step and
        ``mask`` marks lanes with a live index.  This is the OpenMP-offload
        distribution the paper's TAF algorithm is built around (§3.1.3 /
        Fig 4d): successive steps of one thread are ``stride`` apart, giving
        temporal — not spatial — output locality.
        """
        n = int(n)
        start = int(start)
        stride = self.total_threads
        step = 0
        base = start + self.thread_id
        while start + step * stride < n:
            idx = base + step * stride
            if len(self._mask_stack) == 1:
                # Full steps (every lane live) yield the base mask object,
                # which downstream charging recognizes by identity.
                if start + (step + 1) * stride <= n:
                    yield step, idx, self._base_mask
                else:
                    yield step, idx, idx < n
            else:
                live = idx < n
                yield step, idx, np.logical_and(self.mask, live)
            step += 1

    def block_stride(self, n: int):
        """Iterate ``n`` work items distributed one per *block* per step.

        Yields ``(step, item, mask)`` where ``item`` is the per-lane item id
        (same for every thread of a block).  Models kernels where an entire
        block cooperates on one item, like Binomial Options (§4.1).
        """
        n = int(n)
        step = 0
        while step * self.num_blocks < n:
            item = self.block_id + step * self.num_blocks
            if len(self._mask_stack) == 1:
                if (step + 1) * self.num_blocks <= n:
                    yield step, item, self._base_mask
                else:
                    yield step, item, item < n
            else:
                live = item < n
                yield step, item, np.logical_and(self.mask, live)
            step += 1

    def team_chunk_stride(self, n: int):
        """OpenMP ``teams distribute parallel for`` scheduling.

        ``distribute`` hands each team a *contiguous chunk* of the
        iteration space; the ``parallel for`` inside walks the chunk
        cyclically with stride ``threads_per_block`` (Clang's
        ``schedule(static,1)`` on GPUs), so adjacent lanes touch adjacent
        iterations — coalesced — and a thread's successive iterations are
        ``threads_per_block`` apart regardless of the team count.  That
        fixed stride is the temporal-locality granularity HPAC-Offload's
        TAF sees (§3.1.3).

        Yields ``(step, idx, mask)`` like :meth:`grid_stride`.
        """
        n = int(n)
        chunk = (n + self.num_blocks - 1) // self.num_blocks
        base = self.block_id * chunk + self.lane_in_block
        step = 0
        while step * self.threads_per_block < chunk:
            idx = base + step * self.threads_per_block
            if len(self._mask_stack) == 1:
                # Full step: the last lane of the last block stays in its
                # chunk and inside the iteration space.
                if (step + 1) * self.threads_per_block <= chunk and (
                    (self.num_blocks - 1) * chunk
                    + (step + 1) * self.threads_per_block
                    <= n
                ):
                    yield step, idx, self._base_mask
                else:
                    offset = self.lane_in_block + step * self.threads_per_block
                    yield step, idx, np.logical_and(offset < chunk, idx < n)
            else:
                offset = self.lane_in_block + step * self.threads_per_block
                live = np.logical_and(offset < chunk, idx < n)
                yield step, idx, np.logical_and(self.mask, live)
            step += 1

    def block_chunk_stride(self, n: int):
        """``distribute`` for block-cooperative items: contiguous per block.

        Each block processes a contiguous run of items (one at a time, all
        threads cooperating), so a block's successive items are *adjacent* —
        the locality granularity for block-level TAF (Binomial Options).
        Yields ``(step, item, mask)``.
        """
        n = int(n)
        chunk = (n + self.num_blocks - 1) // self.num_blocks
        step = 0
        while step < chunk:
            item = self.block_id * chunk + step
            if len(self._mask_stack) == 1:
                if (self.num_blocks - 1) * chunk + step < n:
                    yield step, item, self._base_mask
                else:
                    yield step, item, item < n
            else:
                live = item < n
                yield step, item, np.logical_and(self.mask, live)
            step += 1
