"""GridContext tests: identity, masks, cost semantics, collectives, loops."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulatedDeadlockError
from repro.gpusim.context import GridContext
from repro.gpusim.device import nvidia_v100


@pytest.fixture
def dev():
    return nvidia_v100()


@pytest.fixture
def ctx(dev):
    return GridContext(dev, num_blocks=4, threads_per_block=128)


class TestIdentity:
    def test_shape_constants(self, ctx):
        assert ctx.total_threads == 512
        assert ctx.warps_per_block == 4
        assert ctx.num_warps == 16

    def test_thread_ids_are_flat_range(self, ctx):
        assert (ctx.thread_id == np.arange(512)).all()

    def test_block_and_lane_decomposition(self, ctx):
        assert (
            ctx.block_id * ctx.threads_per_block + ctx.lane_in_block == ctx.thread_id
        ).all()

    def test_warp_decomposition(self, ctx):
        assert (ctx.warp_id * ctx.warp_size + ctx.lane_in_warp == ctx.thread_id).all()
        assert (ctx.warp_in_block == ctx.warp_id % ctx.warps_per_block).all()

    def test_warps_never_straddle_blocks(self, ctx):
        blocks_of_warp = ctx.block_id.reshape(ctx.num_warps, ctx.warp_size)
        assert (blocks_of_warp == blocks_of_warp[:, :1]).all()


class TestValidation:
    def test_rejects_non_warp_multiple_block(self, dev):
        with pytest.raises(ConfigurationError):
            GridContext(dev, 1, 100)

    def test_rejects_oversized_block(self, dev):
        with pytest.raises(ConfigurationError):
            GridContext(dev, 1, 2048)

    def test_rejects_zero_blocks(self, dev):
        with pytest.raises(ConfigurationError):
            GridContext(dev, 0, 128)


class TestMasks:
    def test_default_mask_all_active(self, ctx):
        assert ctx.mask.all()

    def test_push_pop(self, ctx):
        m = ctx.thread_id < 100
        ctx.push_mask(m)
        assert ctx.mask.sum() == 100
        ctx.pop_mask()
        assert ctx.mask.all()

    def test_masks_intersect(self, ctx):
        ctx.push_mask(ctx.thread_id < 100)
        ctx.push_mask(ctx.thread_id >= 50)
        assert ctx.mask.sum() == 50
        ctx.pop_mask()
        assert ctx.mask.sum() == 100

    def test_masked_context_manager(self, ctx):
        with ctx.masked(ctx.thread_id < 10):
            assert ctx.mask.sum() == 10
        assert ctx.mask.all()

    def test_pop_underflow(self, ctx):
        with pytest.raises(RuntimeError):
            ctx.pop_mask()


class TestSIMDCostSemantics:
    """A warp pays for an instruction when ANY lane executes (§3.1.2)."""

    def test_full_grid_flops(self, ctx):
        ctx.flops(10)
        assert ctx.warp_cycles.sum() == pytest.approx(10 * ctx.num_warps)

    def test_half_masked_warp_pays_full(self, ctx):
        # One active lane per warp: every warp still pays everything.
        ctx.flops(10, ctx.lane_in_warp == 0)
        assert ctx.warp_cycles.sum() == pytest.approx(10 * ctx.num_warps)

    def test_fully_inactive_warp_pays_nothing(self, ctx):
        ctx.flops(10, ctx.warp_id == 0)
        assert (ctx.warp_cycles[1:] == 0).all()
        assert ctx.warp_cycles[0] == pytest.approx(10)

    def test_flops_per_lane_charges_max(self, ctx):
        per_lane = np.zeros(ctx.total_threads)
        per_lane[ctx.lane_in_warp == 3] = 50.0
        per_lane[ctx.lane_in_warp == 7] = 20.0
        ctx.flops_per_lane(per_lane)
        assert (ctx.warp_cycles == 50.0).all()

    def test_sfu_uses_sfu_cost(self, ctx, dev):
        ctx.sfu(2)
        assert ctx.warp_cycles[0] == pytest.approx(2 * dev.sfu_cycles)

    def test_counters_track_categories(self, ctx):
        ctx.flops(5)
        ctx.sfu(1)
        ctx.shared_access(2)
        assert ctx.counters.alu_cycles > 0
        assert ctx.counters.sfu_cycles > 0
        assert ctx.counters.shared_cycles > 0
        assert ctx.counters.total_cycles == pytest.approx(ctx.warp_cycles.sum())


class TestGlobalMemory:
    def test_read_returns_values(self, ctx):
        arr = np.arange(512, dtype=np.float64) * 2
        vals = ctx.global_read(arr, ctx.thread_id)
        assert (vals == arr).all()

    def test_read_masks_inactive_lanes(self, ctx):
        arr = np.ones(512)
        vals = ctx.global_read(arr, ctx.thread_id, ctx.thread_id < 10)
        assert vals[:10].sum() == 10
        assert (vals[10:] == 0).all()

    def test_write_only_touches_masked_lanes(self, ctx):
        arr = np.zeros(512)
        ctx.global_write(arr, ctx.thread_id, np.ones(512), ctx.thread_id < 5)
        assert arr.sum() == 5

    def test_unit_stride_read_cost(self, ctx, dev):
        arr = np.zeros(512)
        ctx.global_read(arr, ctx.thread_id)
        # 8 segments per warp of 32 lanes × 8B.
        assert ctx.counters.global_transactions == 8 * ctx.num_warps

    def test_scattered_read_costs_more(self, dev):
        a = GridContext(dev, 1, 64)
        b = GridContext(dev, 1, 64)
        arr = np.zeros(64 * 64)
        a.global_read(arr, a.thread_id)  # coalesced
        b.global_read(arr, b.thread_id * 64)  # scattered
        assert b.counters.global_transactions > a.counters.global_transactions

    def test_streamed_charge(self, ctx, dev):
        ctx.charge_global_streamed(4, itemsize=8)
        per_warp = 4 * np.ceil(32 * 8 / 32)
        assert ctx.warp_cycles[0] == pytest.approx(per_warp * dev.mem_txn_cycles)
        assert ctx.counters.dram_bytes > 0


class TestWarpCollectives:
    def test_ballot_counts_predicate(self, ctx):
        counts = ctx.ballot(ctx.lane_in_warp < 5)
        assert (counts == 5).all()

    def test_ballot_respects_mask(self, ctx):
        counts = ctx.ballot(
            np.ones(ctx.total_threads, bool), mask=ctx.lane_in_warp < 8
        )
        assert (counts == 8).all()

    def test_warp_active_count(self, ctx):
        assert (ctx.warp_active_count() == 32).all()
        assert (ctx.warp_active_count(ctx.lane_in_warp < 3) == 3).all()

    @pytest.mark.parametrize("op,expect", [("sum", 496.0), ("max", 31.0), ("min", 0.0)])
    def test_warp_reduce(self, ctx, op, expect):
        vals = ctx.lane_in_warp.astype(float)
        out = ctx.warp_reduce(vals, op)
        assert (out == expect).all()

    def test_warp_reduce_unknown_op(self, ctx):
        with pytest.raises(ValueError):
            ctx.warp_reduce(np.ones(512), "median")

    def test_collectives_charge_intrinsics(self, ctx):
        ctx.ballot(np.ones(512, bool))
        assert ctx.counters.intrinsics == 1
        assert ctx.counters.intrinsic_cycles > 0


class TestBlockOps:
    def test_block_count(self, ctx):
        counts = ctx.block_count(ctx.lane_in_block < 10)
        assert (counts == 10).all()

    def test_block_count_models_ballot_atomic_barrier(self, ctx):
        ctx.block_count(np.ones(512, bool))
        assert ctx.counters.atomics == 1
        assert ctx.counters.barriers == 1
        assert ctx.counters.intrinsics == 1

    def test_block_active_count(self, ctx):
        assert (ctx.block_active_count() == 128).all()

    def test_barrier_uniform_ok(self, ctx):
        ctx.barrier()
        assert ctx.counters.barriers == 1

    def test_barrier_whole_block_masked_ok(self, ctx):
        # Entire blocks absent: no divergence within any block.
        with ctx.masked(ctx.block_id == 0):
            ctx.barrier()

    def test_barrier_divergent_deadlocks(self, ctx):
        with ctx.masked(ctx.lane_in_block < 64):
            with pytest.raises(SimulatedDeadlockError, match="block 0"):
                ctx.barrier()


class TestLoops:
    def _collect(self, it, n):
        seen = np.zeros(n, dtype=int)
        for _step, idx, m in it:
            np.add.at(seen, idx[m], 1)
        return seen

    def test_grid_stride_covers_exactly_once(self, ctx):
        seen = self._collect(ctx.grid_stride(1000), 1000)
        assert (seen == 1).all()

    def test_grid_stride_with_start(self, ctx):
        seen = self._collect(ctx.grid_stride(1000, start=200), 1000)
        assert (seen[:200] == 0).all()
        assert (seen[200:] == 1).all()

    def test_grid_stride_stride_is_grid(self, ctx):
        steps = list(ctx.grid_stride(2 * ctx.total_threads))
        assert len(steps) == 2
        _, idx0, _ = steps[0]
        _, idx1, _ = steps[1]
        assert ((idx1 - idx0) == ctx.total_threads).all()

    def test_team_chunk_covers_exactly_once(self, ctx):
        seen = self._collect(ctx.team_chunk_stride(1000), 1000)
        assert (seen == 1).all()

    def test_team_chunk_thread_stride_is_block_size(self, ctx):
        # A thread's successive iterations are threads_per_block apart —
        # the temporal-locality granularity of §3.1.3.
        n = 4 * ctx.total_threads
        last = {}
        for _step, idx, m in ctx.team_chunk_stride(n):
            for t in (0, 130, 400):
                if m[t]:
                    if t in last:
                        assert idx[t] - last[t] == ctx.threads_per_block
                    last[t] = idx[t]

    def test_team_chunks_are_contiguous_per_block(self, ctx):
        n = 4 * ctx.total_threads
        per_block: dict[int, list] = {b: [] for b in range(ctx.num_blocks)}
        for _step, idx, m in ctx.team_chunk_stride(n):
            for b in range(ctx.num_blocks):
                sel = m & (ctx.block_id == b)
                per_block[b].extend(idx[sel].tolist())
        chunk = n // ctx.num_blocks
        for b, ids in per_block.items():
            assert min(ids) == b * chunk
            assert max(ids) == (b + 1) * chunk - 1

    def test_block_chunk_covers_items_once(self, ctx):
        seen = np.zeros(17, dtype=int)
        for _step, item, m in ctx.block_chunk_stride(17):
            # Count one per block (items are per-block).
            for b in range(ctx.num_blocks):
                sel = m & (ctx.block_id == b)
                if sel.any():
                    vals = np.unique(item[sel])
                    assert len(vals) == 1
                    seen[vals[0]] += 1
        assert (seen == 1).all()

    def test_block_stride_covers_items_once(self, ctx):
        seen = np.zeros(10, dtype=int)
        for _step, item, m in ctx.block_stride(10):
            for b in range(ctx.num_blocks):
                sel = m & (ctx.block_id == b)
                if sel.any():
                    seen[np.unique(item[sel])[0]] += 1
        assert (seen == 1).all()

    def test_empty_loop(self, ctx):
        assert list(ctx.grid_stride(0)) == []
