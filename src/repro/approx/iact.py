"""Approximate input memoization (iACT) for the GPU.

iACT (§2.3, [35]) caches (input, output) pairs from accurate region
executions; a new invocation whose inputs lie within a euclidean-distance
threshold of a cached input returns the cached output instead of computing.

GPU adaptation (§3.1.4, §3.3):

* **Table sharing.** CPU-HPAC gives every thread its own table; on the GPU
  that drowns shared memory and starves occupancy.  HPAC-Offload shares
  ``tables_per_warp`` tables among each warp's lanes (``tperwarp`` in the
  ``memo(in:tsize:threshold:tperwarp)`` clause).  ``tperwarp == warp_size``
  degenerates to thread-private tables; ``1`` shares one table per warp,
  letting lanes hit on *neighbouring* lanes' cached work at the price of
  serialized writes.
* **Two-phase access.** Each invocation has a read phase (all lanes search
  their table) and a write phase (a *single writer* per table inserts),
  separated by a warp barrier.  The writer is the missing lane with the
  largest euclidean distance from any table value — the most
  cache-improving insertion.
* **Replacement.** Round-robin by default; CLOCK available (footnote 3).

Unlike TAF, iACT pays its decision cost — the distance scan — on *every*
invocation, which is why the paper finds it slower (insight 4) and a net
loss where the region itself is cheap (Leukocyte, LavaMD).

That per-invocation cost is kept flat on the host side:
:func:`allocate_state` binds every buffer an invocation uses from the
launch's arena once (:class:`IACTScratch`), each branch mask is counted
once, and thread-private tables (``tperwarp == warp_size``) skip the
writer election while every input seen is finite — each accurate lane is
then its table's only candidate, so it writes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.approx.base import HierarchyLevel, IACTParams, RegionSpec, RegionStats
from repro.approx.hierarchy import Decision, decide
from repro.approx.replacement import make_policy
from repro.errors import UnsupportedApproximationError
from repro.gpusim.context import GridContext

#: Writer-election sentinel: a lane index no real lane can have.
INT64_MAX = np.iinfo(np.int64).max


#: Lane vectors one invocation rewrites: arena tag suffix and dtype.
_LANE_BUFS = (
    ("nearest", np.intp), ("nd2", np.float64), ("lt", np.bool_),
    ("itmp", np.intp), ("flat", np.intp), ("has", np.bool_),
    ("want", np.bool_), ("tmpb", np.bool_), ("rest", np.bool_),
    ("approx", np.bool_), ("fallback", np.bool_), ("accurate", np.bool_),
    ("vidx", np.intp), ("score", np.float64), ("tmpf", np.float64),
    ("bestg", np.float64), ("cand", np.bool_), ("lanem", np.int64),
    ("wing", np.int64), ("writer", np.bool_),
)


class IACTScratch:
    """A region's per-invocation temporaries, taken from the launch's
    :class:`~repro.gpusim.arena.ScratchArena` once, when its tables are
    allocated (the arena still owns and counts them).

    Every shape is fixed by the launch and the spec: lane vectors, table
    vectors, ``(tsize, lanes)`` planes of the width-1 transposed scan,
    ``(lanes, tsize[, in_width])`` planes of the generic scan and the
    ``(lanes, out_width)`` value planes.  The lane and table vectors sit
    under the same arena keys for every iACT region of the launch and
    are rewritten by each invocation; the planes are keyed by region, so
    a region's returned ``values`` survive other regions' invocations
    until its own next one.
    """

    __slots__ = tuple(name for name, _ in _LANE_BUFS) + (
        "xfin", "best", "winner", "values", "vgath",
        "kT", "kT3", "vT", "vgT", "vgT3", "d2mT",
        "keys_g", "diffs", "dist2", "valid_g", "d2m",
    )

    def __init__(self, ctx: GridContext, spec: RegionSpec, ntab: int) -> None:
        arena = ctx.arena
        total = ctx.total_threads
        tsize = spec.params.table_size  # type: ignore[union-attr]
        iw, ow = spec.in_width, max(spec.out_width, 1)
        name = spec.name
        for tag, dtype in _LANE_BUFS:
            setattr(self, tag, arena.buf("iact_" + tag, (total,), dtype))
        self.xfin = arena.buf(("iact_xfin", name), (total, iw), np.bool_)
        self.best = arena.buf("iact_best", (ntab,), np.float64)
        self.winner = arena.buf("iact_winner", (ntab,), np.int64)
        self.values = arena.buf(("iact_values", name), (total, ow), np.float64)
        self.vgath = arena.buf(("iact_vgath", name), (total, ow), np.float32)
        if iw == 1:
            # Width-1 transposed scan; the (slot, table, lane-of-table)
            # views broadcast each table's row over its lanes.
            self.kT = arena.buf(("iact_kT", name), (tsize, total), np.float64)
            self.kT3 = self.kT.reshape(tsize, ntab, -1)
            self.vT = arena.buf(("iact_vT", name), (tsize, ntab), np.bool_)
            self.vgT = arena.buf(("iact_vgT", name), (tsize, total), np.bool_)
            self.vgT3 = self.vgT.reshape(tsize, ntab, -1)
            self.d2mT = arena.buf(("iact_d2mT", name), (tsize, total), np.float64)
        # The generic scan also serves width-1 regions once an input was
        # not finite.
        tshape = (total, tsize, iw)
        self.keys_g = arena.buf(("iact_keys", name), tshape, np.float32)
        self.diffs = arena.buf(("iact_diffs", name), tshape, np.float64)
        self.dist2 = arena.buf(("iact_dist2", name), (total, tsize), np.float64)
        self.valid_g = arena.buf(("iact_valid", name), (total, tsize), np.bool_)
        self.d2m = arena.buf(("iact_d2m", name), (total, tsize), np.float64)


@dataclass
class IACTState:
    """Shared-memory memoization tables for one region."""

    keys: np.ndarray  # (num_tables, tsize, in_width) float32
    vals: np.ndarray  # (num_tables, tsize, out_width) float32
    valid: np.ndarray  # (num_tables, tsize) bool
    #: ``lane // lanes_per_table``: ``tables_per_warp`` divides the warp
    #: size and lanes are numbered grid-major, so each table's lanes are
    #: contiguous and every (num_tables, lanes_per_table) reshape of a
    #: lane vector groups lanes by table.
    table_of_lane: np.ndarray  # (total_threads,) int32
    #: ``table_of_lane * tsize``: each lane's first slot in the flattened
    #: (num_tables * tsize) entry axis.
    slot_base: np.ndarray  # (total_threads,) intp
    policy: object
    tables_per_warp: int
    scratch: IACTScratch
    #: True while every input vector seen so far was finite.  Finite inputs
    #: can never put a NaN into the distance matrix (the float32 key cast
    #: saturates to ±inf, and inf−finite, overflow, and squaring all stay
    #: ±inf), which licenses the strict-< nearest-entry sweep in the read
    #: phase and, on thread-private tables, the trivial writer election.
    finite_inputs: bool = True
    #: Latched once every entry is valid: the write phase never clears a
    #: valid flag, so the read phase stops re-reducing ``valid``.
    all_valid: bool = False
    #: Lazily-built float64 mirror of the width-1 keys, laid out
    #: (slot, table) so per-slot scans are contiguous.  Holds exactly
    #: ``float64(float32 key)`` — the value the mixed-dtype subtract of the
    #: generic path would promote to — and is kept in sync by the write
    #: phase.
    keys64T: np.ndarray | None = None

    @staticmethod
    def bytes_per_table(params: IACTParams, in_width: int, out_width: int) -> int:
        """Shared-memory footprint of one table (float32 entries + flags)."""
        return params.table_size * (4 * in_width + 4 * out_width + 1)


def allocate_state(ctx: GridContext, spec: RegionSpec, policy: str = "round_robin") -> IACTState:
    """Carve the region's warp-shared tables out of shared memory and bind
    its scratch."""
    params: IACTParams = spec.params  # type: ignore[assignment]
    tpw = params.resolved_tables_per_warp(ctx.warp_size)
    iw, ow = spec.in_width, max(spec.out_width, 1)
    ntab = ctx.num_warps * tpw
    lanes_per_table = ctx.warp_size // tpw
    pre = f"iact:{spec.name}:"
    keys = ctx.shared.alloc_per_warp(
        pre + "keys", ctx.warps_per_block, (tpw, params.table_size, iw), np.float32
    ).reshape(ntab, params.table_size, iw)
    vals = ctx.shared.alloc_per_warp(
        pre + "vals", ctx.warps_per_block, (tpw, params.table_size, ow), np.float32
    ).reshape(ntab, params.table_size, ow)
    valid = ctx.shared.alloc_per_warp(
        pre + "valid", ctx.warps_per_block, (tpw, params.table_size), np.bool_
    ).reshape(ntab, params.table_size)
    table_of_lane = (ctx.thread_id // lanes_per_table).astype(np.int32)
    return IACTState(
        keys=keys,
        vals=vals,
        valid=valid,
        table_of_lane=table_of_lane,
        slot_base=table_of_lane.astype(np.intp) * params.table_size,
        policy=make_policy(policy, ntab, params.table_size),
        tables_per_warp=tpw,
        scratch=IACTScratch(ctx, spec, ntab),
    )


def get_state(ctx: GridContext, spec: RegionSpec, policy: str = "round_robin") -> IACTState:
    """Fetch (or lazily allocate) the region's tables for this launch."""
    if ctx.sanitizer is not None:
        ctx.sanitizer.on_state_access("iact", spec.name)
    key = ("iact", spec.name)
    st = ctx.region_state.get(key)
    if st is None:
        st = allocate_state(ctx, spec, policy)
        ctx.region_state[key] = st
    return st


def check_uniform_inputs(inputs: np.ndarray, spec: RegionSpec) -> np.ndarray:
    """Validate the captured region inputs.

    iACT requires every thread to capture the same number of input scalars
    (§4.1: MiniFE's CSR rows have varying non-zero counts, so "iACT is not
    suitable... HPAC-Offload only supports computations with uniform input
    sizes for all threads").  Ragged inputs raise
    :class:`UnsupportedApproximationError`.
    """
    arr = np.asarray(inputs)
    if arr.dtype == object or arr.ndim != 2:
        raise UnsupportedApproximationError(
            f"iACT region {spec.name!r} requires uniform per-thread input "
            f"vectors; got ragged or non-2D inputs"
        )
    if arr.shape[1] != spec.in_width:
        raise UnsupportedApproximationError(
            f"iACT region {spec.name!r} declared in_width={spec.in_width} "
            f"but captured {arr.shape[1]} scalars per thread"
        )
    return arr.astype(np.float64, copy=False)


def iact_invoke(
    ctx: GridContext,
    spec: RegionSpec,
    inputs: np.ndarray,
    compute,
    mask: np.ndarray | None = None,
    stats: RegionStats | None = None,
    policy: str = "round_robin",
) -> tuple[np.ndarray, Decision]:
    """Execute one iACT-approximated region invocation.

    ``inputs`` is the ``(total_threads, in_width)`` capture of the region's
    declared inputs (the app gathers them, charging memory cost).
    ``compute(mask) -> (lanes, out_width)`` runs the accurate path for the
    masked lanes, charging its own cost.  Returns per-lane output values and
    the hierarchy :class:`Decision`.
    """
    params: IACTParams = spec.params  # type: ignore[assignment]
    ow = max(spec.out_width, 1)
    st = get_state(ctx, spec, policy)
    s = st.scratch
    x = check_uniform_inputs(inputs, spec)
    tid = st.table_of_lane
    total = ctx.total_threads
    ntab = st.keys.shape[0]
    tsize = params.table_size

    # The bound buffers below are rewritten every invocation under stable
    # ids; drop any per-warp active vectors cached against them.
    ctx.invalidate_mask_cache()
    m = ctx._combined_mask(mask)

    # --------------------------------------------------------------
    # Read phase: every lane scans its table for the nearest valid
    # entry.  Paid on every invocation — iACT's unavoidable decision
    # cost.  float32 keys are promoted to float64 before subtracting.
    # --------------------------------------------------------------
    ctx.shared_access(float(tsize * spec.in_width), m)
    ctx.flops(3.0 * tsize * spec.in_width, m)
    nearest_slot, nearest_d2 = s.nearest, s.nd2
    if st.finite_inputs:
        np.isfinite(x, out=s.xfin)
        if np.count_nonzero(s.xfin) != x.size:
            # A ±inf/NaN input can seed the tables with values whose
            # distances go NaN, and NaN orders differently under the
            # sweep below than under argmin — fall back permanently.
            st.finite_inputs = False
    if not st.all_valid:
        st.all_valid = bool(st.valid.all())
    lt, itmp = s.lt, s.itmp
    if spec.in_width == 1 and st.finite_inputs:
        # Transposed scan for the width-1 case: a float64 mirror of the
        # keys laid out (slot, table) makes every per-slot gather,
        # subtract, square, and sweep pass contiguous, and skips the
        # buffered float32→float64 cast of the generic path.  The
        # mirror holds exactly float64(float32 key), the same value the
        # mixed-dtype subtract would promote to.
        if st.keys64T is None:
            st.keys64T = np.ascontiguousarray(
                st.keys[:, :, 0].T, dtype=np.float64
            )
        kT = s.kT
        # Lanes of a table are contiguous, so the gather is a broadcast
        # duplication of each table's row.
        np.copyto(s.kT3, st.keys64T[:, :, None])
        np.subtract(kT, x[:, 0], out=kT)
        np.multiply(kT, kT, out=kT)  # kT is now dist2 transposed
        if st.all_valid:
            rows = kT
        else:
            s.vT[:] = st.valid.T
            np.copyto(s.vgT3, s.vT[:, :, None])
            rows = s.d2mT
            rows.fill(np.inf)
            np.copyto(rows, kT, where=s.vgT)
        # First-occurrence argmin as tsize-1 strict-< sweeps.  Finite
        # inputs keep the distances NaN-free (see
        # IACTState.finite_inputs), so ties and ±inf resolve exactly as
        # np.argmin does — and the running minimum is nearest_d2.
        nearest_d2[:] = rows[0]
        nearest_slot.fill(0)
        for k in range(1, tsize):
            row = rows[k]
            np.less(row, nearest_d2, out=lt)
            # Branchless select: masked copyto degrades badly on dense
            # random masks, while min + xor-select stay vectorized.
            np.minimum(nearest_d2, row, out=nearest_d2)
            np.bitwise_xor(nearest_slot, k, out=itmp)
            np.multiply(itmp, lt, out=itmp)
            np.bitwise_xor(nearest_slot, itmp, out=nearest_slot)
    else:
        keys_g, diffs, dist2 = s.keys_g, s.diffs, s.dist2
        np.take(st.keys, tid, axis=0, out=keys_g)
        np.subtract(keys_g, x[:, None, :], out=diffs)
        if spec.in_width == 1:
            # Width-1 contraction is a plain square — no accumulation,
            # so this is trivially bit-identical to the einsum and
            # skips its setup cost.
            d0 = diffs[:, :, 0]
            np.multiply(d0, d0, out=dist2)
        else:
            np.einsum("lti,lti->lt", diffs, diffs, out=dist2)
        if st.all_valid:
            # Steady state: every entry valid, the +inf masking is the
            # identity, and the (lanes, tsize) gather/fill/copy
            # disappears.
            d2m = dist2
        else:
            np.take(st.valid, tid, axis=0, out=s.valid_g)
            d2m = s.d2m
            d2m.fill(np.inf)
            np.copyto(d2m, dist2, where=s.valid_g)
        if st.finite_inputs:
            # Same strict-< sweep as above, over strided columns.
            nearest_d2[:] = d2m[:, 0]
            nearest_slot.fill(0)
            for k in range(1, tsize):
                col = d2m[:, k]
                np.less(col, nearest_d2, out=lt)
                np.minimum(nearest_d2, col, out=nearest_d2)
                np.bitwise_xor(nearest_slot, k, out=itmp)
                np.multiply(itmp, lt, out=itmp)
                np.bitwise_xor(nearest_slot, itmp, out=nearest_slot)
        else:
            np.argmin(d2m, axis=1, out=nearest_slot)
            flatidx = s.flat
            np.multiply(ctx.thread_id, tsize, out=flatidx)
            np.add(flatidx, nearest_slot, out=flatidx)
            np.take(d2m.reshape(-1), flatidx, out=nearest_d2)
    has_entry = s.has
    np.isfinite(nearest_d2, out=has_entry)

    want, tmpb, rest = s.want, s.tmpb, s.rest
    np.logical_and(m, has_entry, out=want)
    np.less_equal(nearest_d2, params.threshold**2, out=tmpb)
    if stats is not None:
        # Margins over the lanes that compared: active, with an entry.
        np.logical_not(tmpb, out=rest)
        np.logical_and(want, rest, out=rest)
    np.logical_and(want, tmpb, out=want)
    if stats is not None:
        stats.window.narrow(nearest_d2, want, rest)
    dec = decide(ctx, want, spec.level, m)

    approx, fallback, accurate = s.approx, s.fallback, s.accurate
    np.logical_and(dec.approx_mask, has_entry, out=approx)
    np.logical_not(has_entry, out=tmpb)
    np.logical_and(dec.approx_mask, tmpb, out=fallback)
    np.logical_or(dec.accurate_mask, fallback, out=accurate)

    values = s.values
    if m is not ctx._base_mask:
        # approx ∪ accurate == m, so under a full mask every row is
        # overwritten below and the zero prefill would be dead stores.
        values.fill(0.0)

    # --- approximate path: return the nearest cached output ---------------
    n_approx = int(np.count_nonzero(approx))
    if n_approx:
        ctx.shared_access(float(ow), approx)
        # Gather every lane's nearest entry (indices are always valid)
        # and copy only the approximating lanes.
        vidx = s.vidx
        np.add(st.slot_base, nearest_slot, out=vidx)
        np.take(st.vals.reshape(-1, ow), vidx, axis=0, out=s.vgath)
        np.copyto(values, s.vgath, where=approx[:, None])
        if getattr(st.policy, "tracks_hits", True):
            st.policy.on_hit(tid[approx], nearest_slot[approx])

    # --- accurate path + write phase ---------------------------------------
    n_accurate = int(np.count_nonzero(accurate))
    if n_accurate:
        computed = np.asarray(compute(accurate), dtype=np.float64)
        if computed.ndim == 1:
            computed = computed[:, None]
        values[accurate] = computed[accurate]

        # Warp barrier between read and write phases (§3.3).
        ctx._charge_intrinsic(2.0, m)

        if ntab == total and st.finite_inputs:
            # Thread-private tables: every accurate lane is its table's
            # only candidate, and finite inputs keep its score NaN-free,
            # so it wins its own election.
            writer = accurate
        else:
            writer = _elect_writers(ctx, st, nearest_d2, has_entry, accurate)
        ctx._charge_intrinsic(float(np.log2(ctx.warp_size)), m)  # election scan

        # One boolean scan, then integer gathers over the (sparse)
        # writer set.
        widx = np.flatnonzero(writer)
        if widx.size:
            wtabs = tid[widx]
            slots = st.policy.choose_slots(wtabs)
            st.keys[wtabs, slots] = x[widx].astype(np.float32)
            if st.keys64T is not None:
                # Mirror the rounded float32 value, not the raw input.
                st.keys64T[slots, wtabs] = st.keys[wtabs, slots, 0]
            st.vals[wtabs, slots] = computed[widx].astype(np.float32)
            st.valid[wtabs, slots] = True
            ctx.shared_table_write(
                spec.name,
                tid,
                writer,
                accesses=float(spec.in_width + ow) + st.policy.cost_accesses(),
            )

    if stats is not None:
        # approx and accurate partition the active lanes.
        stats.invocations += n_approx + n_accurate
        stats.approximated += n_approx
        if spec.level is not HierarchyLevel.THREAD:
            # Thread-level decisions force and deny no lane.
            np.logical_and(dec.forced, has_entry, out=tmpb)
            stats.forced += int(np.count_nonzero(tmpb))
            stats.denied += int(np.count_nonzero(dec.denied))
        stats.fallback_accurate += int(np.count_nonzero(fallback))

    return values, dec


def _elect_writers(
    ctx: GridContext,
    st: IACTState,
    nearest_d2: np.ndarray,
    has_entry: np.ndarray,
    accurate: np.ndarray,
) -> np.ndarray:
    """Single-writer election: per table, the missing lane with the
    largest distance from any cached value inserts its pair.  Lanes with
    empty tables have +inf distance and always win; ties go to the lowest
    lane.  Returns the (borrowed) writer mask."""
    s = st.scratch
    tid = st.table_of_lane
    ntab = st.keys.shape[0]
    # Masked full-array reductions: non-accurate lanes carry -inf (never
    # the maximum) and non-candidate lanes carry INT64_MAX (never the
    # minimum), so no boolean gathers are needed.
    score, tmpf = s.score, s.tmpf
    tmpf.fill(np.inf)
    np.copyto(tmpf, nearest_d2, where=has_entry)
    score.fill(-np.inf)
    np.copyto(score, tmpf, where=accurate)
    # A table's lanes are contiguous (IACTState.table_of_lane), so the
    # per-table reductions are row reductions.
    score.reshape(ntab, -1).max(axis=1, out=s.best)
    np.take(s.best, tid, out=s.bestg)
    cand = s.cand
    np.equal(score, s.bestg, out=cand)
    np.logical_and(accurate, cand, out=cand)
    lane_masked = s.lanem
    lane_masked.fill(INT64_MAX)
    np.copyto(lane_masked, ctx.thread_id, where=cand)
    lane_masked.reshape(ntab, -1).min(axis=1, out=s.winner)
    np.take(s.winner, tid, out=s.wing)
    writer = s.writer
    np.equal(ctx.thread_id, s.wing, out=writer)
    np.logical_and(cand, writer, out=writer)
    return writer
