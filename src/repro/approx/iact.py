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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.approx.base import IACTParams, RegionSpec, RegionStats
from repro.approx.hierarchy import Decision, decide
from repro.approx.replacement import make_policy
from repro.errors import UnsupportedApproximationError
from repro.gpusim.context import GridContext

#: Writer-election sentinel: a lane index no real lane can have.
INT64_MAX = np.iinfo(np.int64).max


@dataclass
class IACTState:
    """Shared-memory memoization tables for one region."""

    keys: np.ndarray  # (num_tables, tsize, in_width) float32
    vals: np.ndarray  # (num_tables, tsize, out_width) float32
    valid: np.ndarray  # (num_tables, tsize) bool
    table_of_lane: np.ndarray  # (total_threads,) int32
    policy: object
    tables_per_warp: int
    #: True while every input vector seen so far was finite.  Finite inputs
    #: can never put a NaN into the distance matrix (the float32 key cast
    #: saturates to ±inf, and inf−finite, overflow, and squaring all stay
    #: ±inf), which licenses the strict-< nearest-entry sweep in the read
    #: phase.
    finite_inputs: bool = True
    #: Lazily-built float64 mirror of the width-1 keys, laid out
    #: (slot, table) so per-slot scans are contiguous.  Holds exactly
    #: ``float64(float32 key)`` — the value the mixed-dtype subtract of the
    #: generic path would promote to — and is kept in sync by the write
    #: phase.
    keys64T: np.ndarray | None = None
    #: True when ``table_of_lane`` is ``repeat(arange(ntab), lanes_per_table)``
    #: — the warp-major layout ``allocate_state`` builds — so per-table
    #: gathers collapse into broadcast copies.
    repeat_layout: bool = False

    @staticmethod
    def bytes_per_table(params: IACTParams, in_width: int, out_width: int) -> int:
        """Shared-memory footprint of one table (float32 entries + flags)."""
        return params.table_size * (4 * in_width + 4 * out_width + 1)


def allocate_state(ctx: GridContext, spec: RegionSpec, policy: str = "round_robin") -> IACTState:
    """Carve the region's warp-shared tables out of shared memory."""
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
    table_of_lane = (ctx.warp_id * tpw + ctx.lane_in_warp // lanes_per_table).astype(
        np.int32
    )
    return IACTState(
        keys=keys,
        vals=vals,
        valid=valid,
        table_of_lane=table_of_lane,
        policy=make_policy(policy, ntab, params.table_size),
        tables_per_warp=tpw,
        repeat_layout=bool(
            np.array_equal(
                table_of_lane, np.repeat(np.arange(ntab), lanes_per_table)
            )
        ),
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
    x = check_uniform_inputs(inputs, spec)
    tid = st.table_of_lane
    total = ctx.total_threads
    lanes = (total,)

    # Arena buffers below are rewritten every invocation under stable
    # ids; drop any per-warp active vectors cached against them.
    ctx.invalidate_mask_cache()
    arena = ctx.arena
    m = ctx._combined_mask(mask)

    # --------------------------------------------------------------
    # Read phase: every lane scans its table for the nearest valid
    # entry.  Paid on every invocation — iACT's unavoidable decision
    # cost.  float32 keys are promoted to float64 before subtracting.
    # --------------------------------------------------------------
    ctx.shared_access(float(params.table_size * spec.in_width), m)
    ctx.flops(3.0 * params.table_size * spec.in_width, m)
    tsize = params.table_size
    nearest_slot = arena.buf("iact_nearest", lanes, np.intp)
    nearest_d2 = arena.buf("iact_nd2", lanes, np.float64)
    if st.finite_inputs:
        xfin = arena.buf(("iact_xfin", spec.name), x.shape, np.bool_)
        np.isfinite(x, out=xfin)
        if not bool(xfin.all()):
            # A ±inf/NaN input can seed the tables with values whose
            # distances go NaN, and NaN orders differently under the
            # sweep below than under argmin — fall back permanently.
            st.finite_inputs = False
    all_valid = bool(st.valid.all())
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
        kT = arena.buf(("iact_kT", spec.name), (tsize, total), np.float64)
        ntab = st.keys.shape[0]
        if st.repeat_layout:
            # Lanes of a table are contiguous, so the gather is a
            # broadcast duplication of each table's row.
            kT3 = kT.reshape(tsize, ntab, total // ntab)
            np.copyto(kT3, st.keys64T[:, :, None])
        else:
            for k in range(tsize):
                np.take(st.keys64T[k], tid, out=kT[k])
        x0 = x[:, 0]
        np.subtract(kT, x0[None, :], out=kT)
        np.multiply(kT, kT, out=kT)  # kT is now dist2 transposed
        if all_valid:
            rows = kT
        else:
            vT = arena.buf(("iact_vT", spec.name), (tsize, st.valid.shape[0]), np.bool_)
            vT[:] = st.valid.T
            vgT = arena.buf(("iact_vgT", spec.name), (tsize, total), np.bool_)
            if st.repeat_layout:
                vgT3 = vgT.reshape(tsize, ntab, total // ntab)
                np.copyto(vgT3, vT[:, :, None])
            else:
                for k in range(tsize):
                    np.take(vT[k], tid, out=vgT[k])
            rows = arena.buf(("iact_d2mT", spec.name), (tsize, total), np.float64)
            rows.fill(np.inf)
            np.copyto(rows, kT, where=vgT)
        # First-occurrence argmin as tsize-1 strict-< sweeps.  Finite
        # inputs keep the distances NaN-free (see
        # IACTState.finite_inputs), so ties and ±inf resolve exactly as
        # np.argmin does — and the running minimum is nearest_d2.
        nearest_d2[:] = rows[0]
        nearest_slot.fill(0)
        lt = arena.buf("iact_lt", lanes, np.bool_)
        itmp = arena.buf("iact_itmp", lanes, np.intp)
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
        tshape = (total, tsize, spec.in_width)
        keys_g = arena.buf(("iact_keys", spec.name), tshape, np.float32)
        np.take(st.keys, tid, axis=0, out=keys_g)
        diffs = arena.buf(("iact_diffs", spec.name), tshape, np.float64)
        np.subtract(keys_g, x[:, None, :], out=diffs)
        dist2 = arena.buf(("iact_dist2", spec.name), (total, tsize), np.float64)
        if spec.in_width == 1:
            # Width-1 contraction is a plain square — no accumulation,
            # so this is trivially bit-identical to the einsum and
            # skips its setup cost.
            d0 = diffs[:, :, 0]
            np.multiply(d0, d0, out=dist2)
        else:
            np.einsum("lti,lti->lt", diffs, diffs, out=dist2)
        if all_valid:
            # Steady state: every entry valid, the +inf masking is the
            # identity, and the (lanes, tsize) gather/fill/copy
            # disappears.
            d2m = dist2
        else:
            valid_g = arena.buf(("iact_valid", spec.name), (total, tsize), np.bool_)
            np.take(st.valid, tid, axis=0, out=valid_g)
            d2m = arena.buf(("iact_d2m", spec.name), (total, tsize), np.float64)
            d2m.fill(np.inf)
            np.copyto(d2m, dist2, where=valid_g)
        if st.finite_inputs:
            # Same strict-< sweep as above, over strided columns.
            nearest_d2[:] = d2m[:, 0]
            nearest_slot.fill(0)
            lt = arena.buf("iact_lt", lanes, np.bool_)
            itmp = arena.buf("iact_itmp", lanes, np.intp)
            for k in range(1, tsize):
                col = d2m[:, k]
                np.less(col, nearest_d2, out=lt)
                np.minimum(nearest_d2, col, out=nearest_d2)
                np.bitwise_xor(nearest_slot, k, out=itmp)
                np.multiply(itmp, lt, out=itmp)
                np.bitwise_xor(nearest_slot, itmp, out=nearest_slot)
        else:
            np.argmin(d2m, axis=1, out=nearest_slot)
            flatidx = arena.buf("iact_flat", lanes, np.intp)
            np.multiply(ctx.thread_id, tsize, out=flatidx)
            np.add(flatidx, nearest_slot, out=flatidx)
            np.take(d2m.reshape(-1), flatidx, out=nearest_d2)
    has_entry = arena.buf("iact_has", lanes, np.bool_)
    np.isfinite(nearest_d2, out=has_entry)

    want = arena.buf("iact_want", lanes, np.bool_)
    np.logical_and(m, has_entry, out=want)
    tmpb = arena.buf("iact_tmpb", lanes, np.bool_)
    np.less_equal(nearest_d2, params.threshold**2, out=tmpb)
    if stats is not None:
        # Margins over the lanes that compared: active, with an entry.
        rest = arena.buf("iact_rest", lanes, np.bool_)
        np.logical_not(tmpb, out=rest)
        np.logical_and(want, rest, out=rest)
    np.logical_and(want, tmpb, out=want)
    if stats is not None:
        stats.window.narrow(nearest_d2, want, rest)
    dec = decide(ctx, want, spec.level, m)

    approx = arena.buf("iact_approx", lanes, np.bool_)
    np.logical_and(dec.approx_mask, has_entry, out=approx)
    np.logical_not(has_entry, out=tmpb)
    fallback = arena.buf("iact_fallback", lanes, np.bool_)
    np.logical_and(dec.approx_mask, tmpb, out=fallback)
    accurate = arena.buf("iact_accurate", lanes, np.bool_)
    np.logical_or(dec.accurate_mask, fallback, out=accurate)

    values = arena.buf(("iact_values", spec.name), (total, ow), np.float64)
    if m is not ctx._base_mask:
        # approx ∪ accurate == m, so under a full mask every row is
        # overwritten below and the zero prefill would be dead stores.
        values.fill(0.0)

    # --- approximate path: return the nearest cached output ---------------
    if approx.any():
        ctx.shared_access(float(ow), approx)
        # Gather every lane's nearest entry (indices are always valid)
        # and copy only the approximating lanes.
        vidx = arena.buf("iact_vidx", lanes, np.intp)
        np.multiply(tid, params.table_size, out=vidx)
        np.add(vidx, nearest_slot, out=vidx)
        vgath = arena.buf(("iact_vgath", spec.name), (total, ow), np.float32)
        np.take(st.vals.reshape(-1, st.vals.shape[2]), vidx, axis=0, out=vgath)
        np.copyto(values, vgath, where=approx[:, None])
        if getattr(st.policy, "tracks_hits", True):
            st.policy.on_hit(tid[approx], nearest_slot[approx])

    # --- accurate path + write phase ---------------------------------------
    if accurate.any():
        computed = np.asarray(compute(accurate), dtype=np.float64)
        if computed.ndim == 1:
            computed = computed[:, None]
        values[accurate] = computed[accurate]

        # Warp barrier between read and write phases (§3.3).
        ctx._charge_intrinsic(2.0, m)

        # Single-writer election: per table, the missing lane with the
        # largest distance from any cached value inserts its pair.  Lanes
        # with empty tables have +inf distance and always win.
        lane_idx = ctx.thread_id
        ntab = st.keys.shape[0]
        # Masked full-array reductions: non-accurate lanes carry -inf
        # (never the maximum) and non-candidate lanes carry INT64_MAX
        # (never the minimum), so no boolean gathers are needed.
        score = arena.buf("iact_score", lanes, np.float64)
        tmpf = arena.buf("iact_tmpf", lanes, np.float64)
        tmpf.fill(np.inf)
        np.copyto(tmpf, nearest_d2, where=has_entry)
        score.fill(-np.inf)
        np.copyto(score, tmpf, where=accurate)
        best = arena.buf("iact_best", (ntab,), np.float64)
        best.fill(-np.inf)
        np.maximum.at(best, tid, score)
        gathered = arena.buf("iact_bestg", lanes, np.float64)
        np.take(best, tid, out=gathered)
        cand = arena.buf("iact_cand", lanes, np.bool_)
        np.equal(score, gathered, out=cand)
        np.logical_and(accurate, cand, out=cand)
        winner = arena.buf("iact_winner", (ntab,), np.int64)
        winner.fill(INT64_MAX)
        lane_masked = arena.buf("iact_lanem", lanes, np.int64)
        lane_masked.fill(INT64_MAX)
        np.copyto(lane_masked, lane_idx, where=cand)
        np.minimum.at(winner, tid, lane_masked)
        wgather = arena.buf("iact_wing", lanes, np.int64)
        np.take(winner, tid, out=wgather)
        writer = arena.buf("iact_writer", lanes, np.bool_)
        np.equal(lane_idx, wgather, out=writer)
        np.logical_and(cand, writer, out=writer)
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
        stats.invocations += int(m.sum())
        stats.approximated += int(approx.sum())
        stats.forced += int(np.logical_and(dec.forced, has_entry).sum())
        stats.denied += int(dec.denied.sum())
        stats.fallback_accurate += int(fallback.sum())

    return values, dec
