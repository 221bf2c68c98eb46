"""Property-based tests on approximation-runtime invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.approx.base import (
    HierarchyLevel,
    IACTParams,
    PerfoParams,
    PerforationKind,
    RegionSpec,
    RegionStats,
    TAFParams,
    Technique,
)
from repro.approx.hierarchy import decide
from repro.approx.iact import iact_invoke
from repro.approx.perforation import perforated_grid_stride
from repro.approx.taf import taf_invoke
from repro.gpusim.context import GridContext
from repro.gpusim.device import amd_mi250x, nvidia_v100

DEV = nvidia_v100()


@given(
    h=st.integers(1, 5),
    p=st.integers(1, 8),
    thr=st.floats(0.0, 5.0),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=40, deadline=None)
def test_taf_never_approximates_before_window_fills(h, p, thr, seed):
    """The first history_size invocations of every thread are accurate."""
    ctx = GridContext(DEV, 1, 32)
    spec = RegionSpec("r", Technique.TAF, TAFParams(h, p, thr))
    rng = np.random.default_rng(seed)
    stats = RegionStats()
    for i in range(h):
        taf_invoke(
            ctx, spec, lambda am: rng.random((32, 1)), stats=stats
        )
        assert stats.approximated == 0, f"approximated at invocation {i} < h={h}"


@given(
    h=st.integers(1, 4),
    p=st.integers(1, 8),
    n_inv=st.integers(1, 40),
)
@settings(max_examples=40, deadline=None)
def test_taf_approx_fraction_bounded_by_cycle(h, p, n_inv):
    """approximated/invocations ≤ p/(h+p) + boundary slack, for constant
    signals (which always stabilize)."""
    ctx = GridContext(DEV, 1, 32)
    spec = RegionSpec("r", Technique.TAF, TAFParams(h, p, 0.5))
    stats = RegionStats()
    for _ in range(n_inv):
        taf_invoke(ctx, spec, lambda am: np.ones((32, 1)), stats=stats)
    bound = p / (h + p) * n_inv + p
    assert stats.approximated / 32 <= bound


@given(
    thr=st.floats(0.01, 10.0),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=40, deadline=None)
def test_iact_hit_implies_within_threshold(thr, seed):
    """At THREAD level, every approximating lane's input lies within the
    threshold of the nearest valid key its table held before the
    invocation (squared distances, computed like the runtime: float32 keys
    promoted to float64, then the sum of squares)."""
    ctx = GridContext(DEV, 1, 32)
    spec = RegionSpec(
        "r", Technique.IACT, IACTParams(4, thr), in_width=2
    )
    rng = np.random.default_rng(seed)
    from repro.approx.iact import get_state

    st_ = get_state(ctx, spec)
    for _ in range(6):
        x = rng.random((32, 2)) * 2
        keys_before = st_.keys.copy()
        valid_before = st_.valid.copy()
        _, dec = iact_invoke(ctx, spec, x, lambda am: np.ones((32, 1)))
        for lane in np.flatnonzero(dec.approx_mask):
            tid = st_.table_of_lane[lane]
            keys = keys_before[tid][valid_before[tid]].astype(np.float64)
            assert len(keys), f"lane {lane} approximated from an empty table"
            d2 = ((keys - x[lane]) ** 2).sum(axis=1).min()
            assert d2 <= thr**2, f"lane {lane}: d2={d2} > {thr}**2"


@given(
    kind=st.sampled_from(["small", "large"]),
    m=st.integers(2, 16),
    n=st.integers(1, 2000),
)
@settings(max_examples=60, deadline=None)
def test_perforation_survival_matches_pattern(kind, m, n):
    """Executed iterations == the pattern's analytic count, exactly."""
    ctx = GridContext(DEV, 2, 64)
    spec = RegionSpec(
        "p", Technique.PERFORATION, PerfoParams(PerforationKind(kind), m)
    )
    executed = np.zeros(n, dtype=bool)
    for _s, idx, mask in perforated_grid_stride(ctx, spec, n):
        executed[idx[mask]] = True
    i = np.arange(n)
    expected = (i % m) != (m - 1) if kind == "small" else (i % m) == 0
    assert (executed == expected).all()


@given(
    pct=st.integers(1, 99),
    n=st.integers(10, 2000),
    kind=st.sampled_from(["ini", "fini"]),
)
@settings(max_examples=60, deadline=None)
def test_bound_perforation_drops_exact_prefix_suffix(pct, n, kind):
    ctx = GridContext(DEV, 2, 64)
    spec = RegionSpec(
        "p", Technique.PERFORATION, PerfoParams(PerforationKind(kind), pct)
    )
    executed = np.zeros(n, dtype=bool)
    for _s, idx, mask in perforated_grid_stride(ctx, spec, n):
        executed[idx[mask]] = True
    dropped = int(np.ceil(n * pct / 100.0))
    if kind == "ini":
        assert not executed[:dropped].any()
        assert executed[dropped:].all()
    else:
        assert executed[: n - dropped].all()
        assert not executed[n - dropped:].any()


@given(
    seed=st.integers(0, 2**31),
    level=st.sampled_from(list(HierarchyLevel)),
    dev=st.sampled_from([nvidia_v100(), amd_mi250x()]),
)
@settings(max_examples=60, deadline=None)
def test_hierarchy_group_uniformity(seed, level, dev):
    """Under a random partial mask, thread decisions equal the masked
    wishes and warp/team decisions follow the strict majority of each
    group's active lanes (``2 * votes > active``); the accurate, forced and
    denied masks are the matching set differences."""
    ctx = GridContext(dev, 2, 2 * dev.warp_size)
    rng = np.random.default_rng(seed)
    want = rng.random(ctx.total_threads) < rng.random()
    m = rng.random(ctx.total_threads) < rng.uniform(0.1, 1.0)
    d = decide(ctx, want, level, m)
    wm = want & m
    if level is HierarchyLevel.THREAD:
        expected = wm
    else:
        size = ctx.warp_size if level is HierarchyLevel.WARP else ctx.threads_per_block
        votes = wm.reshape(-1, size).sum(axis=1)
        active = m.reshape(-1, size).sum(axis=1)
        expected = np.repeat(2 * votes > active, size) & m
    assert (d.approx_mask == expected).all()
    assert (d.accurate_mask == (m & ~expected)).all()
    assert (d.forced == (expected & ~wm)).all()
    assert (d.denied == (wm & ~expected)).all()


@given(seed=st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_taf_outputs_always_come_from_real_computations(seed):
    """Every value TAF returns was produced by some accurate execution."""
    ctx = GridContext(DEV, 1, 32)
    spec = RegionSpec("r", Technique.TAF, TAFParams(1, 4, 1.0))
    rng = np.random.default_rng(seed)
    produced: set = set()
    for _ in range(10):
        v = float(rng.integers(0, 5))

        def compute(am, v=v):
            produced.add(v)
            return np.full((32, 1), v)

        vals, _ = taf_invoke(ctx, spec, compute)
        assert set(np.unique(vals)).issubset(produced)
