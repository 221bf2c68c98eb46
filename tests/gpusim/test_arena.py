"""Scratch arena + context plumbing.

The arena is the simulator's allocation backbone: launch-constant-shaped
temporaries are borrowed, rewritten in place, and — after a warmup
invocation — served entirely from cache.  These tests pin the arena's
contract (identity reuse, hit/miss accounting) and the context-level
invariants (stable counter reads, cycles and counters equal to
the recorded reference, steady-state misses frozen).  The randomized
primitive goldens (``tests/gpusim/test_primitive_goldens.py``) pin the
same bytes over the whole primitive surface.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.approx.base import (
    HierarchyLevel,
    IACTParams,
    RegionSpec,
    TAFParams,
    Technique,
)
from repro.approx.iact import iact_invoke
from repro.approx.taf import taf_invoke
from repro.gpusim import ScratchArena, launch, nvidia_v100

DEV = nvidia_v100()


class TestScratchArena:
    def test_same_key_returns_same_buffer(self):
        a = ScratchArena()
        b1 = a.buf("x", (16,), np.float64)
        b2 = a.buf("x", (16,), np.float64)
        assert b1 is b2
        assert a.hits == 1 and a.misses == 1

    def test_distinct_tags_shapes_dtypes_are_distinct_buffers(self):
        a = ScratchArena()
        base = a.buf("x", (16,), np.float64)
        assert a.buf("y", (16,), np.float64) is not base
        assert a.buf("x", (8,), np.float64) is not base
        assert a.buf("x", (16,), np.float32) is not base
        assert a.misses == 4 and a.hits == 0
        assert len(a) == 4

    def test_tuple_tags_are_stable_keys(self):
        a = ScratchArena()
        b1 = a.buf(("taf_values", "region"), (4, 2), np.float64)
        b2 = a.buf(("taf_values", "region"), (4, 2), np.float64)
        assert b1 is b2

    def test_buffers_keep_shape_and_dtype(self):
        a = ScratchArena()
        b = a.buf("m", (3, 5), np.bool_)
        assert b.shape == (3, 5) and b.dtype == np.bool_

    def test_snapshot_accounting(self):
        a = ScratchArena()
        a.buf("x", (16,), np.float64)
        a.buf("x", (16,), np.float64)
        a.buf("y", (4,), np.int64)
        snap = a.snapshot()
        assert snap == {
            "buffers": 2,
            "nbytes": 16 * 8 + 4 * 8,
            "hits": 1,
            "misses": 2,
        }


def _region_kernel(ctx):
    """A kernel exercising both techniques for several steady-state steps."""
    taf_spec = RegionSpec(
        name="t",
        technique=Technique.TAF,
        params=TAFParams(history_size=3, prediction_size=4, rsd_threshold=0.5),
        level=HierarchyLevel.WARP,
        in_width=0,
        out_width=1,
    )
    iact_spec = RegionSpec(
        name="i",
        technique=Technique.IACT,
        params=IACTParams(table_size=4, threshold=1.0),
        level=HierarchyLevel.WARP,
        in_width=1,
        out_width=1,
    )
    base = np.sin(ctx.thread_id.astype(np.float64))
    for step in range(12):
        def taf_compute(mask, s=step):
            ctx.flops(4.0, mask)
            return (base * (1.0 + 1e-5 * (s % 3)))[:, None]

        taf_invoke(ctx, taf_spec, taf_compute)
        x = np.cos(base + step % 3)[:, None]

        def iact_compute(mask):
            ctx.flops(8.0, mask)
            return x

        iact_invoke(ctx, iact_spec, x, iact_compute)


#: sha256 over ``warp_cycles`` and the counters of ``_region_kernel`` on a
#: 4x64 V100 grid, recorded from the original reference implementation.
REGION_KERNEL_DIGEST = "d374aea5f5bb718d088766d809886bea6684916943451c5170f8391ad3cc74f6"


class TestFastPathContext:
    def test_counters_and_cycles_byte_identical(self):
        r = launch(_region_kernel, DEV, 4, 64)
        h = hashlib.sha256(r.context.warp_cycles.tobytes())
        h.update(repr(sorted(
            (k, float(v).hex() if isinstance(v, float) else v)
            for k, v in vars(r.counters).items()
        )).encode())
        assert h.hexdigest() == REGION_KERNEL_DIGEST

    def test_journal_is_finalized_exactly_once(self):
        r = launch(_region_kernel, DEV, 2, 64)
        ctx = r.context
        # Re-reading the counters after the launch must be stable.
        first = vars(ctx.counters).copy()
        assert vars(ctx.counters) == first

    def test_steady_state_misses_frozen(self):
        """After warmup, every region invocation must be served from the
        arena cache: misses stop growing while hits keep climbing."""
        observed = []

        def kernel(ctx):
            taf_spec = RegionSpec(
                name="t",
                technique=Technique.TAF,
                params=TAFParams(history_size=3, prediction_size=4, rsd_threshold=0.5),
                level=HierarchyLevel.WARP,
                in_width=0,
                out_width=1,
            )
            base = np.sin(ctx.thread_id.astype(np.float64))
            for step in range(30):
                def compute(mask, s=step):
                    ctx.flops(4.0, mask)
                    return (base * (1.0 + 1e-5 * (s % 3)))[:, None]

                taf_invoke(ctx, taf_spec, compute)
                observed.append(ctx.arena.snapshot())

        launch(kernel, DEV, 2, 64)
        # Warmup covers every taf branch plus one full rotation of the
        # 16-slot per-warp active-vector pool.
        warm = observed[23]
        final = observed[-1]
        assert final["misses"] == warm["misses"], (
            f"arena misses grew in steady state: {warm} -> {final}"
        )
        assert final["hits"] > warm["hits"]

    def test_fast_context_exposes_arena(self):
        r = launch(_region_kernel, DEV, 2, 64)
        snap = r.context.arena.snapshot()
        assert snap["buffers"] > 0 and snap["hits"] > snap["misses"]


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
