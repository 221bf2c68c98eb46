"""Property-based tests for simulator invariants (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim.context import GridContext
from repro.gpusim.device import MEMORY_SEGMENT_BYTES, amd_mi250x, nvidia_v100
from repro.gpusim.memory import coalesced_transactions

DEV = nvidia_v100()


@given(
    addrs=st.lists(st.integers(0, 2**30), min_size=32, max_size=32),
    active=st.lists(st.booleans(), min_size=32, max_size=32),
)
@settings(max_examples=100, deadline=None)
def test_coalescing_bounded_by_active_lanes(addrs, active):
    """Transactions per warp ∈ [min(1, active), active_count]."""
    a = np.asarray(addrs, dtype=np.int64)
    m = np.asarray(active, dtype=bool)
    txns = int(coalesced_transactions(a, m, 32)[0])
    n_active = int(m.sum())
    if n_active == 0:
        assert txns == 0
    else:
        assert 1 <= txns <= n_active


@given(
    base=st.integers(0, 2**20),
    itemsize=st.sampled_from([4, 8]),
)
@settings(max_examples=50, deadline=None)
def test_unit_stride_is_optimal(base, itemsize):
    """Unit-stride access always achieves the minimal transaction count."""
    a = base + np.arange(32, dtype=np.int64) * itemsize
    txns = int(coalesced_transactions(a, np.ones(32, bool), 32)[0])
    span = int(a[-1]) + itemsize - int(a[0])
    optimal = -(-span // MEMORY_SEGMENT_BYTES)  # ceil
    assert txns <= optimal + 1  # +1 for segment misalignment of the base


@given(
    perm_seed=st.integers(0, 2**31),
)
@settings(max_examples=30, deadline=None)
def test_coalescing_invariant_under_lane_permutation(perm_seed):
    """Transaction count depends on the address *set*, not lane order."""
    rng = np.random.default_rng(perm_seed)
    a = rng.integers(0, 2**20, size=32).astype(np.int64)
    m = np.ones(32, bool)
    t1 = coalesced_transactions(a, m, 32)[0]
    p = rng.permutation(32)
    t2 = coalesced_transactions(a[p], m, 32)[0]
    assert t1 == t2


@given(
    n=st.integers(1, 5000),
    blocks=st.integers(1, 8),
    warps=st.integers(1, 8),
)
@settings(max_examples=50, deadline=None)
def test_loop_schedules_partition_iteration_space(n, blocks, warps):
    """Every scheduler covers [0, n) exactly once."""
    ctx = GridContext(DEV, blocks, warps * 32)
    for scheduler in (ctx.grid_stride, ctx.team_chunk_stride):
        seen = np.zeros(n, dtype=int)
        for _s, idx, m in scheduler(n):
            np.add.at(seen, idx[m], 1)
        assert (seen == 1).all(), scheduler.__name__


DEVICES = st.sampled_from([nvidia_v100(), amd_mi250x()])


@given(
    pred_seed=st.integers(0, 2**31),
    blocks=st.integers(1, 4),
    dev=DEVICES,
)
@settings(max_examples=50, deadline=None)
def test_ballot_matches_numpy_count(pred_seed, blocks, dev):
    """Per-lane broadcast of each warp's active predicate-true count,
    under a random partial mask."""
    ctx = GridContext(dev, blocks, 2 * dev.warp_size)
    rng = np.random.default_rng(pred_seed)
    pred = rng.random(ctx.total_threads) < 0.5
    m = rng.random(ctx.total_threads) < rng.random()
    counts = ctx.ballot(pred, m)
    expected = (pred & m).reshape(ctx.num_warps, ctx.warp_size).sum(axis=1)
    assert (counts.reshape(ctx.num_warps, ctx.warp_size) == expected[:, None]).all()


@given(
    vals_seed=st.integers(0, 2**31),
    op=st.sampled_from(["sum", "max", "min"]),
    dev=DEVICES,
)
@settings(max_examples=50, deadline=None)
def test_warp_reduce_matches_numpy(vals_seed, op, dev):
    """Reduction over each warp's active lanes under a random partial
    mask; a warp with no active lane yields the operation's identity."""
    ctx = GridContext(dev, 2, 2 * dev.warp_size)
    rng = np.random.default_rng(vals_seed)
    vals = rng.standard_normal(ctx.total_threads)
    m = rng.random(ctx.total_threads) < rng.random()
    out = ctx.warp_reduce(vals, op, m)
    ident = {"sum": 0.0, "max": -np.inf, "min": np.inf}[op]
    grid = np.where(m, vals, ident).reshape(ctx.num_warps, ctx.warp_size)
    expected = {"sum": grid.sum, "max": grid.max, "min": grid.min}[op](axis=1)
    assert np.allclose(out.reshape(ctx.num_warps, ctx.warp_size), expected[:, None])


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_charges_are_monotone_nonnegative(data):
    """No operation ever reduces accumulated cycles."""
    ctx = GridContext(DEV, 2, 64)
    prev = 0.0
    for _ in range(10):
        op = data.draw(st.sampled_from(["flops", "sfu", "shared", "intrinsic"]))
        n = data.draw(st.floats(0.0, 100.0))
        if op == "flops":
            ctx.flops(n)
        elif op == "sfu":
            ctx.sfu(n)
        elif op == "shared":
            ctx.shared_access(n)
        else:
            ctx._charge_intrinsic(n)
        total = float(ctx.warp_cycles.sum())
        assert total >= prev
        prev = total
    assert np.isclose(ctx.counters.total_cycles, ctx.warp_cycles.sum())
