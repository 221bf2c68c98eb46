"""The flat TAF/iACT invocation path.

Each region binds its scratch from the launch's arena once, when its
state is allocated; a thread-level decision hands out one shared
read-only all-False mask for ``forced`` and ``denied``; and thread-private
iACT tables skip the writer election while every input is finite.  The
byte-level results are pinned by the equivalence and primitive goldens;
these tests pin the structure.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np
import pytest

import repro.approx.iact as iact_mod
from repro.approx.base import (
    HierarchyLevel,
    IACTParams,
    RegionSpec,
    RegionStats,
    TAFParams,
    Technique,
)
from repro.approx.hierarchy import decide
from repro.approx.iact import get_state, iact_invoke
from repro.approx.taf import taf_invoke
from repro.gpusim import ScratchArena, launch
from repro.gpusim.context import GridContext
from repro.gpusim.device import amd_mi250x, nvidia_v100

DEVICES = {32: nvidia_v100(), 64: amd_mi250x()}


def iact_spec(name, inw, out, level=HierarchyLevel.THREAD, tpw=None, ts=4, thr=0.3):
    return RegionSpec(
        name, Technique.IACT, IACTParams(ts, thr, tpw), level,
        in_width=inw, out_width=out,
    )


def taf_spec(name, level=HierarchyLevel.THREAD, out=1):
    return RegionSpec(
        name, Technique.TAF, TAFParams(2, 3, 0.5), level, out_width=out
    )


class TestThreadDecision:
    @pytest.mark.parametrize("warp", [32, 64])
    @pytest.mark.parametrize("seed", range(4))
    def test_nobody_forced_or_denied_and_paths_partition_the_mask(self, warp, seed):
        ctx = GridContext(DEVICES[warp], 3, 2 * warp)
        rng = np.random.default_rng(seed)
        want = rng.random(ctx.total_threads) < rng.random()
        for mask in (None, rng.random(ctx.total_threads) < rng.random()):
            m = np.ones(ctx.total_threads, bool) if mask is None else mask
            d = decide(ctx, want, HierarchyLevel.THREAD, mask)
            for none in (d.forced, d.denied):
                assert not none.any()
                assert not none.flags.writeable
            assert d.forced is d.denied
            assert np.array_equal(d.approx_mask, want & m)
            assert not (d.approx_mask & d.accurate_mask).any()
            assert np.array_equal(d.approx_mask | d.accurate_mask, m)


class TestRegionValues:
    def test_values_survive_another_regions_invocation(self):
        ctx = GridContext(nvidia_v100(), 2, 64)
        a = iact_spec("a", inw=1, out=1)
        b = iact_spec("b", inw=3, out=2)
        rng = np.random.default_rng(5)
        xa = rng.normal(size=(ctx.total_threads, 1))
        xb = rng.normal(size=(ctx.total_threads, 3))
        vals_a, _ = iact_invoke(ctx, a, xa, lambda m: 2.0 * xa)
        kept = vals_a.copy()
        vals_b, _ = iact_invoke(ctx, b, xb, lambda m: xb[:, :2] - 1.0)
        assert vals_b is not vals_a
        assert np.array_equal(vals_a, kept)
        assert np.array_equal(vals_b, xb[:, :2] - 1.0)


class TestNoSteadyStateLookups:
    @pytest.mark.parametrize(
        "level", [HierarchyLevel.THREAD, HierarchyLevel.WARP, HierarchyLevel.TEAM]
    )
    def test_no_arena_lookup_from_the_runtimes_after_the_first_call(
        self, level, monkeypatch
    ):
        """Every buffer an invocation uses is bound with the region's
        state; later invocations (masked or not, tables filling or full)
        look nothing up in the arena from taf.py or iact.py."""
        callers: list[str] = []
        real_buf = ScratchArena.buf

        def counting_buf(self, tag, shape, dtype):
            callers.append(sys._getframe(1).f_code.co_filename)
            return real_buf(self, tag, shape, dtype)

        monkeypatch.setattr(ScratchArena, "buf", counting_buf)
        ctx = GridContext(nvidia_v100(), 2, 64)
        rng = np.random.default_rng(11)
        regions = [
            (taf_spec("t", level), None),
            (iact_spec("i1", 1, 1, level, ts=3), 1),
            (iact_spec("i2", 2, 2, level, tpw=4), 2),
        ]
        base = rng.uniform(1.0, 2.0, (ctx.total_threads, 2))
        for step in range(8):
            mask = None if step % 2 else rng.random(ctx.total_threads) < 0.7
            for spec, inw in regions:
                if step == 1:
                    callers.clear()
                out = base[:, : spec.out_width] * (1.0 + 0.01 * (step % 2))
                if inw is None:
                    taf_invoke(ctx, spec, lambda m, out=out: out, mask=mask)
                else:
                    x = np.round(base[:, :inw] * 4) / 4 + 0.1 * (step % 3)
                    iact_invoke(
                        ctx, spec, x, lambda m, out=out: out, mask=mask,
                        stats=RegionStats(),
                    )
        runtime = [f for f in callers if f.endswith(("taf.py", "iact.py"))]
        assert runtime == []


def _inf_kernel(ctx, sink):
    """Thread-private width-1 iACT: finite steps, then ±inf inputs."""
    spec = iact_spec("p", inw=1, out=2)
    stats = RegionStats()
    rng = np.random.default_rng(23)
    pool = rng.normal(size=(3, ctx.total_threads, 1))
    for step in range(9):
        x = pool[step % 3].copy()
        if step in (4, 7):
            x[::7, 0] = np.inf
            x[3::11, 0] = -np.inf

        def compute(mask, x=x):
            ctx.flops(6.0, mask)
            return np.hstack([0.5 * x + 1.0, x * x])

        with np.errstate(invalid="ignore"):
            values, _ = iact_invoke(ctx, spec, x, compute, stats=stats)
        sink.append(values.tobytes())
        sink.append(repr(sorted(stats.snapshot().items())).encode())
        sink.append(get_state(ctx, spec).finite_inputs)


#: sha256 over ``_inf_kernel``'s per-invocation values and region stats,
#: then ``warp_cycles`` and the counters, on a 2x64 V100 grid; recorded
#: from the implementation that ran the general writer election on every
#: invocation.
INF_KERNEL_DIGEST = "38c49b660a7d3d30b54937d2c320447bf17b26fedbcd09253f9a3a1eccf911b1"


class TestThreadPrivateElection:
    def test_inf_input_takes_the_general_election_and_matches_its_golden(
        self, monkeypatch
    ):
        elections: list[int] = []
        real_elect = iact_mod._elect_writers

        def counting_elect(*args):
            elections.append(len(sink) // 3)
            return real_elect(*args)

        monkeypatch.setattr(iact_mod, "_elect_writers", counting_elect)
        sink: list = []
        r = launch(lambda ctx: _inf_kernel(ctx, sink), nvidia_v100(), 2, 64)
        finite = sink[2::3]
        blobs = [b for i, b in enumerate(sink) if i % 3 != 2]
        # Thread-private tables and finite inputs: no election at all;
        # from the first ±inf input on, only the general one.
        assert finite == [True] * 4 + [False] * 5
        assert elections and min(elections) >= 4
        h = hashlib.sha256(b"".join(blobs))
        h.update(r.context.warp_cycles.tobytes())
        h.update(repr(sorted(
            (k, float(v).hex() if isinstance(v, float) else v)
            for k, v in vars(r.counters).items()
        )).encode())
        assert h.hexdigest() == INF_KERNEL_DIGEST
