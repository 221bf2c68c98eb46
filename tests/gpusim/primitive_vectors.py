"""Randomized :class:`GridContext` programs for the primitive goldens.

Each ``(seed, device)`` pair drives one deterministic random program over
the public simulator surface and digests everything it can observe:

* every charging primitive (``flops``, ``flops_per_lane``, ``sfu``,
  ``global_read``/``global_write`` on affine and scattered indices,
  fractional ``charge_global_streamed``, ``shared_access``,
  ``atomic_shared``, block-uniform and divergent ``barrier``);
* every collective (``ballot``, ``warp_active_count``, ``warp_reduce``,
  ``block_count``, ``block_active_count``);
* all four loop schedulers and ``perforated_grid_stride``;
* ``decide``, ``taf_invoke`` and ``iact_invoke`` at every hierarchy level;

all under ``push_mask`` nesting of depth 0 to 2.  The digest covers every
returned array (hashed immediately, since collectives return borrowed
scratch), every written device array, the final ``warp_cycles`` bytes and
``vars(counters)``.

``tests/gpusim/test_primitive_goldens.py`` checks the digests against
``tests/gpusim/goldens/primitives.json``; re-record them with
``tests/approx/record_primitive_goldens.py`` only for an intentional
change to the cost model or a runtime's semantics.
"""

from __future__ import annotations

import hashlib

import numpy as np

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
from repro.errors import SimulatedDeadlockError
from repro.gpusim import amd_mi250x, launch, nvidia_v100

SEEDS = tuple(range(32))
DEVICES = {"v100": nvidia_v100, "mi250x": amd_mi250x}
LEVELS = tuple(HierarchyLevel)

#: Ops drawn after the one guaranteed pass over every op.
EXTRA_OPS = 24


class _Digest:
    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def tag(self, *parts) -> None:
        self._h.update(repr(parts).encode())

    def array(self, a) -> None:
        a = np.asarray(a)
        self._h.update(f"{a.dtype}{a.shape}".encode())
        self._h.update(np.ascontiguousarray(a).tobytes())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _block_uniform(ctx, m) -> bool:
    per_block = np.asarray(m, dtype=bool).reshape(ctx.num_blocks, ctx.threads_per_block)
    return bool((per_block.all(axis=1) | ~per_block.any(axis=1)).all())


class _Program:
    """One random program; every draw comes from ``rng`` in program order,
    so the op sequence never depends on what the simulator returns."""

    def __init__(self, ctx, rng: np.random.Generator, digest: _Digest) -> None:
        self.ctx = ctx
        self.rng = rng
        self.d = digest
        self.depth = 0
        self.last_mask = None
        self.taf_specs = self._taf_specs()
        self.iact_specs = self._iact_specs()
        n = ctx.total_threads
        self.arrays = [
            (rng.standard_normal(4 * n + 64)).astype(dtype)
            for dtype in (np.float32, np.float64, np.int32)
        ]

    # -- helpers ---------------------------------------------------------
    def mask(self, block_uniform: bool = False):
        """``None``, a reused mask object, or a fresh bool mask."""
        ctx, rng = self.ctx, self.rng
        choice = int(rng.integers(6))
        if choice == 5 and self.last_mask is not None and not block_uniform:
            return self.last_mask
        if choice == 0:
            return None
        if choice == 1:
            m = np.ones(ctx.total_threads, dtype=bool)
        elif block_uniform or choice == 2:
            m = np.repeat(rng.random(ctx.num_blocks) < 0.7, ctx.threads_per_block)
        elif choice == 3:
            m = np.repeat(rng.random(ctx.num_warps) < 0.6, ctx.warp_size)
        else:
            m = rng.random(ctx.total_threads) < rng.uniform(0.2, 0.9)
        self.last_mask = m
        return m

    def team_ok(self) -> bool:
        """Block-wide barriers are legal only under a block-uniform stack."""
        return _block_uniform(self.ctx, self.ctx.mask)

    def level(self):
        lv = LEVELS[int(self.rng.integers(len(LEVELS)))]
        if lv is HierarchyLevel.TEAM and not self.team_ok():
            return HierarchyLevel.WARP
        return lv

    def indices(self, size: int) -> np.ndarray:
        ctx, rng = self.ctx, self.rng
        if rng.random() < 0.5:
            base = int(rng.integers(0, 64))
            stride = int(rng.integers(0, 4))
            return base + ctx.thread_id * stride
        return rng.integers(0, size, ctx.total_threads)

    def _taf_specs(self):
        rng, out = self.rng, []
        for i in range(3):
            ow = int(rng.integers(1, 3))
            out.append(RegionSpec(
                f"taf{i}",
                Technique.TAF,
                TAFParams(int(rng.integers(1, 4)), int(rng.integers(1, 6)),
                          float(rng.uniform(0.01, 0.5))),
                LEVELS[i],
                out_width=ow,
                meta={"rsd_mode": "norm" if rng.random() < 0.3 else "components"},
            ))
        return out

    def _iact_specs(self):
        rng, ws, out = self.rng, self.ctx.warp_size, []
        for i in range(3):
            tpw = [None, 1, 2, 4][int(rng.integers(4))]
            out.append((RegionSpec(
                f"iact{i}",
                Technique.IACT,
                IACTParams(int(rng.integers(1, 5)), float(rng.uniform(0.05, 1.0)),
                           tpw if tpw is None or ws % tpw == 0 else None),
                LEVELS[i],
                in_width=int(rng.integers(1, 3)),
                out_width=int(rng.integers(1, 3)),
            ), "clock" if rng.random() < 0.3 else "round_robin"))
        return out

    def stats(self, name: str, stats: RegionStats) -> None:
        w = stats.window
        self.d.tag(name, sorted(stats.snapshot().items()), float(w.lo).hex(), float(w.hi).hex())

    def decision(self, dec) -> None:
        for m in (dec.approx_mask, dec.accurate_mask, dec.forced, dec.denied):
            self.d.array(m)

    # -- ops -------------------------------------------------------------
    def op_flops(self):
        self.ctx.flops(float(self.rng.uniform(0, 8)), self.mask())

    def op_flops_per_lane(self):
        n = self.rng.integers(0, 10, self.ctx.total_threads).astype(np.float64)
        self.ctx.flops_per_lane(n, self.mask())

    def op_sfu(self):
        self.ctx.sfu(float(self.rng.integers(1, 4)), self.mask())

    def op_global_read(self):
        arr = self.arrays[int(self.rng.integers(len(self.arrays)))]
        self.d.array(self.ctx.global_read(arr, self.indices(arr.size), self.mask()))

    def op_global_write(self):
        ctx, rng = self.ctx, self.rng
        k = int(rng.integers(len(self.arrays)))
        arr = self.arrays[k]
        idx = self.indices(arr.size)
        if rng.random() < 0.2:
            values = arr.dtype.type(rng.integers(-5, 5))
        else:
            values = rng.standard_normal(ctx.total_threads).astype(arr.dtype)
        ctx.global_write(arr, idx, values, self.mask())
        self.d.array(arr)

    def op_streamed(self):
        elements = [0.1, 0.3125, 0.5, 1.0, 1.5, 2.5, 3.0][int(self.rng.integers(7))]
        itemsize = [4, 8][int(self.rng.integers(2))]
        self.ctx.charge_global_streamed(elements, itemsize=itemsize, mask=self.mask())

    def op_shared(self):
        self.ctx.shared_access(float(self.rng.uniform(0.5, 4)), self.mask())

    def op_ballot(self):
        pred = self.rng.random(self.ctx.total_threads) < 0.5
        self.d.array(self.ctx.ballot(pred, self.mask()))

    def op_warp_active_count(self):
        self.d.array(self.ctx.warp_active_count(self.mask()))

    def op_warp_reduce(self):
        op = ["sum", "max", "min"][int(self.rng.integers(3))]
        vals = self.rng.standard_normal(self.ctx.total_threads)
        self.d.array(self.ctx.warp_reduce(vals, op, self.mask()))

    def op_barrier(self):
        m = self.mask(block_uniform=self.rng.random() < 0.7)
        try:
            self.ctx.barrier(m)
            self.d.tag("barrier")
        except SimulatedDeadlockError:
            self.d.tag("deadlock")

    def op_atomic(self):
        self.ctx.atomic_shared(float(self.rng.integers(1, 3)), self.mask())

    def op_block_count(self):
        pred = self.rng.random(self.ctx.total_threads) < 0.5
        m = self.mask()
        if self.team_ok():
            self.d.array(self.ctx.block_count(pred, m))

    def op_block_active_count(self):
        self.d.array(self.ctx.block_active_count(self.mask()))

    def _loop(self, it):
        arr = self.arrays[1]
        for step, idx, m in it:
            self.d.tag("step", step)
            self.d.array(idx)
            self.d.array(m)
            self.ctx.flops(1.0, m)
            self.ctx.charge_global_streamed(1.0, mask=m)
            self.d.array(self.ctx.global_read(arr, idx % arr.size, m))

    def op_loop(self):
        ctx, rng = self.ctx, self.rng
        n = int(rng.integers(1, 4 * ctx.total_threads))
        which = int(rng.integers(4))
        if which == 0:
            it = ctx.grid_stride(n, start=int(rng.integers(0, 8)))
        elif which == 1:
            it = ctx.block_stride(int(rng.integers(1, 4 * ctx.num_blocks)))
        elif which == 2:
            it = ctx.team_chunk_stride(n)
        else:
            it = ctx.block_chunk_stride(int(rng.integers(1, 16)))
        self.d.tag("loop", which)
        self._loop(it)

    def op_perforation(self):
        ctx, rng = self.ctx, self.rng
        kind = list(PerforationKind)[int(rng.integers(4))]
        herded = bool(rng.random() < 0.5)
        if kind in (PerforationKind.SMALL, PerforationKind.LARGE):
            param = float(rng.integers(2, 6))
        else:
            param, herded = float(rng.integers(10, 91)), False
        spec = RegionSpec(
            "perfo",
            Technique.PERFORATION,
            PerfoParams(kind, param, herded=herded),
            self.level(),
        )
        stats = RegionStats()
        n = int(rng.integers(1, 4 * ctx.total_threads))
        self._loop(perforated_grid_stride(ctx, spec, n, stats=stats))
        self.stats("perfo", stats)

    def op_decide(self):
        want = self.rng.random(self.ctx.total_threads) < self.rng.random()
        self.decision(decide(self.ctx, want, self.level(), self.mask()))

    def op_taf(self):
        ctx, rng = self.ctx, self.rng
        spec = self.taf_specs[int(rng.integers(3))]
        if spec.level is HierarchyLevel.TEAM and not self.team_ok():
            return
        stats = RegionStats()
        base = rng.uniform(0.5, 2.0, (ctx.total_threads, spec.out_width))
        for _ in range(int(rng.integers(2, 7))):
            noise = 1.0 + rng.uniform(0, 0.2) * rng.standard_normal(base.shape)
            out = base * noise
            if spec.out_width == 1 and rng.random() < 0.5:
                out = out[:, 0]

            def compute(am, out=out):
                ctx.flops(3.0, am)
                return out

            values, dec = taf_invoke(ctx, spec, compute, self.mask(), stats=stats)
            self.d.array(values)
            self.decision(dec)
        self.stats(spec.name, stats)

    def op_iact(self):
        ctx, rng = self.ctx, self.rng
        spec, policy = self.iact_specs[int(rng.integers(3))]
        if spec.level is HierarchyLevel.TEAM and not self.team_ok():
            return
        stats = RegionStats()
        pool = rng.uniform(0, 1, (3, ctx.total_threads, spec.in_width))
        if rng.random() < 0.5:
            # Coarse inputs on the diagonal make equal distances, so slot
            # ties are common at every input width.
            pool = np.round(pool[..., :1] * 4).repeat(spec.in_width, axis=-1) / 4
        for _ in range(int(rng.integers(2, 7))):
            x = pool[int(rng.integers(3))].copy()
            if rng.random() < 0.5:
                x += rng.uniform(0, 0.05) * rng.random(x.shape)
            if rng.random() < 0.05:
                x[int(rng.integers(ctx.total_threads)), 0] = np.inf
            out = rng.standard_normal((ctx.total_threads, spec.out_width))

            def compute(am, out=out):
                ctx.flops(5.0, am)
                return out

            values, dec = iact_invoke(ctx, spec, x, compute, self.mask(),
                                      stats=stats, policy=policy)
            self.d.array(values)
            self.decision(dec)
        self.stats(spec.name, stats)

    def op_counters(self):
        self.d.tag(sorted(vars(self.ctx.counters).items()))

    OPS = (
        "flops", "flops_per_lane", "sfu", "global_read", "global_write",
        "streamed", "shared", "ballot", "warp_active_count", "warp_reduce",
        "barrier", "atomic", "block_count", "block_active_count", "loop",
        "perforation", "decide", "taf", "iact", "counters",
    )

    def run(self) -> None:
        rng = self.rng
        order = [self.OPS[i] for i in rng.permutation(len(self.OPS))]
        order += [self.OPS[int(i)] for i in rng.integers(0, len(self.OPS), EXTRA_OPS)]
        for name in order:
            r = rng.random()
            if r < 0.25 and self.depth < 2:
                block = rng.random() < 0.5
                m = (np.repeat(rng.random(self.ctx.num_blocks) < 0.8,
                               self.ctx.threads_per_block)
                     if block else rng.random(self.ctx.total_threads) < 0.8)
                self.ctx.push_mask(m)
                self.depth += 1
            elif r < 0.4 and self.depth > 0:
                self.ctx.pop_mask()
                self.depth -= 1
            self.d.tag(name, self.depth)
            getattr(self, f"op_{name}")()


def run_vector(seed: int, device: str) -> str:
    """Digest of the random program for ``(seed, device)``."""
    rng = np.random.default_rng([seed, list(DEVICES).index(device)])
    dev = DEVICES[device]()
    num_blocks = int(rng.integers(1, 4))
    tpb = dev.warp_size * int(rng.integers(1, 4))
    d = _Digest()

    def kernel(ctx):
        with np.errstate(all="ignore"):
            _Program(ctx, rng, d).run()

    result = launch(kernel, dev, num_blocks, tpb)
    ctx = result.context
    d.array(ctx.warp_cycles)
    d.tag(sorted(
        (k, float(v).hex() if isinstance(v, float) else v)
        for k, v in vars(ctx.counters).items()
    ))
    return d.hexdigest()
