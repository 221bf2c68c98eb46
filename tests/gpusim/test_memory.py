"""Memory subsystem tests: allocator, coalescing model, transfers, Fig 3."""

import numpy as np
import pytest

from repro.errors import GlobalMemoryError
from repro.gpusim.device import nvidia_v100
from repro.gpusim.memory import (
    DeviceMemory,
    TransferModel,
    coalesced_transactions,
    global_memory_fraction_for_tables,
    per_thread_table_bytes,
)


@pytest.fixture
def mem():
    return DeviceMemory(nvidia_v100())


class TestDeviceMemory:
    def test_alloc_returns_zeroed_array(self, mem):
        arr = mem.alloc("x", (100,), np.float64)
        assert arr.shape == (100,)
        assert (arr == 0).all()

    def test_alloc_with_fill(self, mem):
        arr = mem.alloc("x", (10,), np.float32, fill=3.0)
        assert (arr == 3.0).all()

    def test_usage_accounting(self, mem):
        mem.alloc("x", (1000,), np.float64)
        assert mem.in_use == 8000
        assert mem.free == mem.capacity - 8000

    def test_duplicate_name_rejected(self, mem):
        mem.alloc("x", (10,))
        with pytest.raises(ValueError, match="already allocated"):
            mem.alloc("x", (10,))

    def test_capacity_exceeded(self, mem):
        with pytest.raises(GlobalMemoryError) as ei:
            mem.alloc("huge", (mem.capacity,), np.float64)  # 8x capacity
        assert ei.value.requested == mem.capacity * 8

    def test_free_buffer_returns_capacity(self, mem):
        mem.alloc("x", (1000,))
        mem.free_buffer("x")
        assert mem.in_use == 0
        assert "x" not in mem

    def test_upload_copies_host_data(self, mem):
        host = np.arange(16, dtype=np.float32)
        dev = mem.upload("x", host)
        assert (dev == host).all()
        dev[0] = -1
        assert host[0] == 0  # distinct storage

    def test_reset(self, mem):
        mem.alloc("x", (10,))
        mem.alloc("y", (10,))
        mem.reset()
        assert mem.in_use == 0
        assert "x" not in mem and "y" not in mem

    def test_get(self, mem):
        arr = mem.alloc("x", (5,))
        assert mem.get("x") is arr

    def test_huge_shape_does_not_wrap_int64(self, mem):
        # 2^31 x 2^33 float64 = 2^67 bytes overflows int64; np.prod-based
        # sizing wrapped to a small/negative nbytes and sailed past the
        # capacity check.  Pure-Python sizing must reject it.
        with pytest.raises(GlobalMemoryError) as ei:
            mem.alloc("huge", (2**31, 2**33), np.float64)
        assert ei.value.requested == 2**67
        assert mem.in_use == 0

    def test_negative_dimension_rejected(self, mem):
        # A negative dim makes np.prod go negative, which always passed the
        # `nbytes > free` check; it must be an explicit ValueError instead.
        with pytest.raises(ValueError, match="negative dimension"):
            mem.alloc("bad", (16, -4))
        assert mem.in_use == 0 and "bad" not in mem

    def test_name_of_resolves_identity_only(self, mem):
        arr = mem.alloc("x", (8,))
        assert mem.name_of(arr) == "x"
        assert mem.name_of(arr[:4]) is None  # view, not the buffer
        assert mem.name_of(arr.copy()) is None

    def test_name_of_after_free(self, mem):
        arr = mem.alloc("x", (8,))
        mem.free_buffer("x")
        assert mem.name_of(arr) is None

    def test_name_of_after_reset(self, mem):
        arr = mem.alloc("x", (8,))
        mem.reset()
        assert mem.name_of(arr) is None

    def test_name_of_survives_id_reuse(self, mem):
        # CPython recycles id()s aggressively: a freed buffer's id can be
        # handed to the next allocation.  A stale reverse-index entry must
        # never attribute the old array to a live buffer (or vice versa).
        old = mem.alloc("x", (8,))
        old_id = id(old)
        mem.free_buffer("x")
        del old
        arrays = {}
        for i in range(64):  # loop until numpy recycles the id (it usually
            name = f"b{i}"   # does within a few allocations of equal size)
            arrays[name] = mem.alloc(name, (8,))
            if id(arrays[name]) == old_id:
                break
        for name, arr in arrays.items():
            assert mem.name_of(arr) == name

    def test_name_of_consistent_under_churn(self, mem):
        rng = np.random.default_rng(11)
        live: dict[str, np.ndarray] = {}
        for step in range(200):
            if live and rng.random() < 0.4:
                name = str(rng.choice(sorted(live)))
                mem.free_buffer(name)
                dead = live.pop(name)
                assert mem.name_of(dead) is None
            else:
                name = f"n{step}"
                live[name] = mem.alloc(name, (int(rng.integers(1, 64)),))
            for n, a in live.items():
                assert mem.name_of(a) == n


class TestCoalescing:
    """The Fig-3/§3.1.5 memory model: distinct 32-byte segments per warp."""

    def test_unit_stride_float64_is_eight_segments(self):
        # 32 lanes × 8 B contiguous = 256 B = 8 segments.
        addr = np.arange(32, dtype=np.int64) * 8
        txns = coalesced_transactions(addr, np.ones(32, bool), 32)
        assert txns.tolist() == [8]

    def test_fully_scattered_is_one_per_lane(self):
        addr = np.arange(32, dtype=np.int64) * 4096
        txns = coalesced_transactions(addr, np.ones(32, bool), 32)
        assert txns.tolist() == [32]

    def test_broadcast_same_address_is_one(self):
        addr = np.zeros(32, dtype=np.int64)
        txns = coalesced_transactions(addr, np.ones(32, bool), 32)
        assert txns.tolist() == [1]

    def test_inactive_lanes_do_not_count(self):
        addr = np.arange(32, dtype=np.int64) * 4096
        mask = np.zeros(32, bool)
        mask[:4] = True
        txns = coalesced_transactions(addr, mask, 32)
        assert txns.tolist() == [4]

    def test_fully_inactive_warp_is_zero(self):
        addr = np.zeros(64, dtype=np.int64)
        mask = np.zeros(64, bool)
        mask[32:] = True  # second warp only
        txns = coalesced_transactions(addr, mask, 32)
        assert txns.tolist() == [0, 1]

    def test_strided_access_fragments(self):
        # Stride-2 float64: same bytes span twice the segments of unit
        # stride — the fragmentation effect of divergent perforation.
        unit = coalesced_transactions(
            np.arange(32, dtype=np.int64) * 8, np.ones(32, bool), 32
        )
        strided = coalesced_transactions(
            np.arange(32, dtype=np.int64) * 16, np.ones(32, bool), 32
        )
        assert strided[0] == 2 * unit[0]

    def test_multiple_warps_independent(self):
        addr = np.concatenate(
            [np.arange(32, dtype=np.int64) * 8, np.zeros(32, dtype=np.int64)]
        )
        txns = coalesced_transactions(addr, np.ones(64, bool), 32)
        assert txns.tolist() == [8, 1]

    def test_lane_count_must_be_warp_multiple(self):
        with pytest.raises(ValueError):
            coalesced_transactions(np.zeros(33, np.int64), np.ones(33, bool), 32)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_set_reference_on_random_patterns(self, seed):
        # Property test: for random masks/addresses the vectorized
        # sort-and-diff must agree with the obvious per-warp set() count.
        rng = np.random.default_rng(seed)
        warp_size = int(rng.choice([4, 8, 32]))
        num_warps = int(rng.integers(1, 12))
        n = warp_size * num_warps
        segment_bytes = 32
        pattern = rng.integers(0, 3)
        if pattern == 0:  # strided with random base/stride per warp
            base = np.repeat(rng.integers(0, 2**20, num_warps), warp_size)
            stride = np.repeat(rng.integers(1, 64, num_warps), warp_size)
            addr = base + stride * np.tile(np.arange(warp_size), num_warps)
        elif pattern == 1:  # fully random scatter
            addr = rng.integers(0, 2**16, n)
        else:  # heavy duplication: few distinct addresses
            addr = rng.choice(rng.integers(0, 4096, 8), n)
        addr = addr.astype(np.int64)
        mask = rng.random(n) < rng.choice([0.0, 0.3, 0.7, 1.0])
        got = coalesced_transactions(addr, mask, warp_size, segment_bytes)
        expect = [
            len({
                int(a) // segment_bytes
                for a, m in zip(addr[w * warp_size:(w + 1) * warp_size],
                                mask[w * warp_size:(w + 1) * warp_size])
                if m
            })
            for w in range(num_warps)
        ]
        assert got.tolist() == expect


class TestTransferModel:
    def test_htod_time_includes_latency_and_bandwidth(self):
        dev = nvidia_v100()
        tm = TransferModel(dev)
        t = tm.htod(dev.interconnect_bandwidth)  # 1 second of payload
        assert t == pytest.approx(1.0 + dev.transfer_latency_s)

    def test_stats_accumulate(self):
        tm = TransferModel(nvidia_v100())
        tm.htod(1000)
        tm.htod(2000)
        tm.dtoh(500)
        assert tm.stats.htod_bytes == 3000
        assert tm.stats.htod_count == 2
        assert tm.stats.dtoh_bytes == 500
        assert tm.stats.dtoh_count == 1
        assert tm.stats.seconds > 0


class TestFig3Model:
    def test_entry_size_matches_paper(self):
        # Fig 3 caption: 5 entries of 36 bytes each.
        assert per_thread_table_bytes(5, 36) == 180

    def test_v100_exhausted_near_2_27_threads(self):
        # Fig 3: tables fill the 16 GB V100 at ~2^27 threads.
        below = global_memory_fraction_for_tables(2**26)
        above = global_memory_fraction_for_tables(2**27)
        assert below < 1.0 < above * 1.01
        assert above == pytest.approx(2**27 * 180 / (16 * 1024**3))

    def test_fraction_linear_in_threads(self):
        f1 = global_memory_fraction_for_tables(2**20)
        f2 = global_memory_fraction_for_tables(2**21)
        assert f2 == pytest.approx(2 * f1)


class TestAffineCoalescing:
    """The closed-form affine path must be bit-identical to the sort path."""

    def _sort_reference(self, addr, warp_size, segment_bytes):
        n = len(addr)
        return [
            len({int(a) // segment_bytes
                 for a in addr[w * warp_size:(w + 1) * warp_size]})
            for w in range(n // warp_size)
        ]

    @pytest.mark.parametrize("seed", range(16))
    def test_affine_matches_sort_reference(self, seed):
        # Random affine vectors spanning every stride regime: broadcast
        # (s=0), intra-segment (0<|s|<seg), and fully scattered (|s|>=seg),
        # both signs, random bases (so segment floors straddle boundaries).
        rng = np.random.default_rng(seed)
        warp_size = int(rng.choice([4, 8, 32]))
        num_warps = int(rng.integers(1, 9))
        n = warp_size * num_warps
        segment_bytes = 32
        stride = int(rng.choice([0, 1, 3, 7, 8, 16, 31, 32, 33, 4096]))
        if rng.random() < 0.5:
            stride = -stride
        base = int(rng.integers(0, 2**20))
        addr = (base + stride * np.arange(n)).astype(np.int64)
        if stride < 0:
            addr -= addr.min()  # keep addresses non-negative
        mask = np.ones(n, bool)
        got = coalesced_transactions(addr, mask, warp_size, segment_bytes)
        assert got.tolist() == self._sort_reference(addr, warp_size, segment_bytes)

    def test_affine_with_scratch_and_out(self):
        from repro.gpusim.arena import ScratchArena

        addr = np.arange(64, dtype=np.int64) * 8
        scratch = ScratchArena()
        out = np.empty(2, dtype=np.int64)
        got = coalesced_transactions(
            addr, np.ones(64, bool), 32, 32, full_mask=True, out=out, scratch=scratch
        )
        assert got is out
        assert got.tolist() == [8, 8]
        # Second call reuses every scratch buffer.
        coalesced_transactions(
            addr, np.ones(64, bool), 32, 32, full_mask=True, out=out, scratch=scratch
        )
        assert scratch.misses == len(scratch._buffers)
        assert scratch.hits == scratch.misses

    def test_full_mask_false_forces_sort_path(self):
        # Same affine vector, full_mask=False: must still give the same
        # counts (through the sort path).
        addr = np.arange(32, dtype=np.int64) * 8
        mask = np.ones(32, bool)
        a = coalesced_transactions(addr, mask, 32, 32, full_mask=True)
        b = coalesced_transactions(addr, mask, 32, 32, full_mask=False)
        assert a.tolist() == b.tolist() == [8]

    def test_non_affine_full_mask_falls_back(self):
        addr = np.arange(32, dtype=np.int64) * 8
        addr[17] += 8192  # break affinity
        got = coalesced_transactions(addr, np.ones(32, bool), 32, 32)
        assert got.tolist() == self._sort_reference(addr, 32, 32)


class TestUploadAllocation:
    def test_upload_respects_capacity(self, mem):
        # The uninitialized-alloc path must go through the same capacity
        # check as a normal alloc.
        huge = np.lib.stride_tricks.as_strided(
            np.zeros(1), shape=(mem.capacity,), strides=(0,)
        )
        with pytest.raises(GlobalMemoryError):
            mem.upload("huge", huge)
        assert "huge" not in mem
        assert mem.in_use == 0

    def test_upload_accounts_and_is_named(self, mem):
        host = np.arange(10, dtype=np.float32)
        dev = mem.upload("x", host)
        assert mem.in_use == host.nbytes
        assert mem.name_of(dev) == "x"
        np.testing.assert_array_equal(dev, host)

    def test_upload_fills_storage_exactly_once(self, mem, monkeypatch):
        # upload() allocates uninitialized storage and lets the copy do the
        # single fill; a zeroing alloc would touch every byte twice.
        calls = {"zeros": 0}
        real_zeros = np.zeros

        def counting_zeros(*a, **k):
            calls["zeros"] += 1
            return real_zeros(*a, **k)

        monkeypatch.setattr(np, "zeros", counting_zeros)
        host = np.arange(128, dtype=np.float64)
        dev = mem.upload("y", host)
        assert calls["zeros"] == 0
        np.testing.assert_array_equal(dev, host)


class TestStreamedFractionalAccounting:
    """charge_global_streamed with fractional per-lane element counts.

    Time is continuous: mem_cycles keep the exact fractional transaction
    count.  Event counters are discrete: the per-warp transaction count is
    rounded once (half-to-even) and that single value feeds both
    global_transactions and dram_bytes, so they can never disagree.
    """

    ELEMENTS = 0.3125  # x 8 txns/element = 2.5 txns/warp: exercises rounding

    def _run(self):
        from repro.gpusim import launch

        def kernel(ctx):
            ctx.charge_global_streamed(self.ELEMENTS, itemsize=8)

        return launch(kernel, nvidia_v100(), 2, 64)

    def test_round_once_half_to_even(self):
        r = self._run()
        c = r.counters
        nwarps = 4
        txns_exact = self.ELEMENTS * 8  # 2.5 per warp
        # Discrete counters: 2.5 rounds half-to-even to 2, once.
        assert c.global_transactions == 2 * nwarps
        assert c.dram_bytes == c.global_transactions * 32
        # Continuous counter: the un-rounded 2.5 txns/warp.
        dev = nvidia_v100()
        assert c.mem_cycles == pytest.approx(
            txns_exact * dev.mem_txn_cycles * nwarps
        )
