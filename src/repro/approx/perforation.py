"""Loop perforation, including the GPU-aware *herded* variant (§3.1.5).

Perforation drops a user-specified subset of loop iterations:

* ``small``  — skip one of every M iterations;
* ``large``  — execute one of every M iterations;
* ``ini``    — drop the first P% of iterations;
* ``fini``   — drop the last P% of iterations.

In an offloaded ``parallel for``, iterations are distributed across threads,
so an iteration-indexed skip pattern (``i % M``) puts *adjacent lanes of the
same warp* on different paths: the warp still issues every instruction
(SIMD), the memory accesses fragment, and nothing is saved.  Herded
perforation instead drops the same *encounter* (grid-stride step) in every
thread of the grid, keeping warp control flow uniform: a skipped step costs
nothing at all, and surviving steps stay fully coalesced.

``ini``/``fini`` are lowered to loop-bound changes by the compiler (§3.3);
:func:`perforated_grid_stride` adjusts the range rather than masking, so no
divergence arises there either.
"""

from __future__ import annotations

import numpy as np

from repro.approx.base import PerfoParams, PerforationKind, RegionSpec, RegionStats
from repro.gpusim.context import GridContext


def iteration_bounds(params: PerfoParams, n: int) -> tuple[int, int]:
    """Adjusted ``[start, end)`` loop bounds for ``ini``/``fini`` perforation.

    Other kinds leave the bounds untouched (they skip inside the range).
    """
    n = int(n)
    if params.kind is PerforationKind.INI:
        return int(np.ceil(n * params.parameter / 100.0)), n
    if params.kind is PerforationKind.FINI:
        return 0, n - int(np.ceil(n * params.parameter / 100.0))
    return 0, n


def skip_iteration_mask(params: PerfoParams, index: np.ndarray) -> np.ndarray:
    """Which *loop indices* a divergent small/large pattern drops."""
    M = params.skip_factor
    if params.kind is PerforationKind.SMALL:
        return (index % M) == (M - 1)
    if params.kind is PerforationKind.LARGE:
        return (index % M) != 0
    raise ValueError(f"{params.kind} perforation has no per-iteration mask")


def skip_step(params: PerfoParams, step: int) -> bool:
    """Whether a herded pattern drops grid-stride encounter ``step``.

    The runtime "counts the number of times a thread has encountered the
    perforated code region" (§3.3); herding keys the skip on that count, so
    every thread in the grid drops the same encounters.
    """
    M = params.skip_factor
    if params.kind is PerforationKind.SMALL:
        return (step % M) == (M - 1)
    if params.kind is PerforationKind.LARGE:
        return (step % M) != 0
    raise ValueError(f"{params.kind} perforation has no per-step rule")


def perforated_grid_stride(
    ctx: GridContext,
    spec: RegionSpec,
    n: int,
    stats: RegionStats | None = None,
):
    """Grid-stride loop over ``n`` iterations with the region's perforation.

    Yields ``(step, idx, exec_mask)`` exactly like
    :meth:`GridContext.grid_stride`, except that perforated iterations are
    removed:

    * herded small/large — whole steps are elided (zero cost, no divergence);
    * divergent small/large — ``exec_mask`` masks out skipped lanes, leaving
      the warp divergent (the §3.1.5 penalty: SIMD cost and fragmented
      memory remain with the caller's charged operations);
    * ini/fini — the loop bounds shrink; surviving steps are dense.

    A region with no perforation (or ``Technique.NONE``) degrades to the
    plain grid-stride loop.
    """
    params = spec.params if isinstance(spec.params, PerfoParams) else None
    if params is None:
        yield from ctx.grid_stride(n)
        return

    start, end = iteration_bounds(params, n)
    if params.kind in (PerforationKind.INI, PerforationKind.FINI):
        if stats is not None:
            stats.skipped += (int(n) - (end - start))
        yield from ctx.grid_stride(end, start=start)
        return

    for step, idx, mask in ctx.grid_stride(n):
        if params.herded:
            if skip_step(params, step):
                if stats is not None:
                    stats.skipped += int(mask.sum())
                continue
            yield step, idx, mask
        else:
            # The divergent skip masks are arena buffers rewritten in place
            # each step, so per-warp vectors cached against their ids are
            # dropped first.
            ctx.invalidate_mask_cache()
            arena = ctx.arena
            M = params.skip_factor
            rem = arena.buf("perfo_rem", idx.shape, idx.dtype)
            np.remainder(idx, M, out=rem)
            skipm = arena.buf("perfo_skip", idx.shape, np.bool_)
            if params.kind is PerforationKind.SMALL:
                np.equal(rem, M - 1, out=skipm)
            else:
                np.not_equal(rem, 0, out=skipm)
            drop = arena.buf("perfo_drop", idx.shape, np.bool_)
            np.logical_and(mask, skipm, out=drop)
            if stats is not None:
                stats.skipped += int(drop.sum())
            exec_mask = arena.buf("perfo_exec", idx.shape, np.bool_)
            np.logical_not(drop, out=exec_mask)
            np.logical_and(mask, exec_mask, out=exec_mask)
            # The perforation check itself costs a modulo + compare per
            # encounter (the runtime counter of §3.3).
            ctx.flops(2.0, mask)
            yield step, idx, exec_mask


def expected_survival(params: PerfoParams) -> float:
    """Fraction of iterations a pattern retains (for tests/benches)."""
    return 1.0 - params.skip_fraction
