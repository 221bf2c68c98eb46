"""Hierarchical approximation decisions (§3.1.2, §3.3).

A technique's *activation function* yields a per-thread wish ("my criteria
say approximate").  Independent per-thread decisions cause warp divergence —
the worst case being one accurate thread stalling 31 approximating ones — so
HPAC-Offload lets threads decide collectively:

* ``thread`` — every lane follows its own wish (the CPU-HPAC behaviour);
* ``warp`` — ballot + popcount; if a majority of the warp's active lanes
  wish to approximate, the whole warp does, else the whole warp is accurate;
* ``team`` — per-warp ballots are combined through a shared-memory atomic
  add and a barrier; the block follows its majority.

The group decision *forces* minority lanes: a lane whose RSD is above the
threshold may approximate anyway ("HPAC-OFFLOAD increases approximation",
§4.1-LavaMD), and a lane that wished to approximate may be denied.  The
returned :class:`Decision` reports both so region stats can count them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.approx.base import HierarchyLevel
from repro.gpusim.context import GridContext


@dataclass
class Decision:
    """Outcome of a hierarchical activation decision.

    The four masks are **borrowed** arena buffers: they stay valid until
    the next ``decide`` call on the same context.  Every in-tree consumer
    (taf/iact invoke, the runtime, region stats) reads them within the
    same invocation.
    """

    #: Lanes that take the approximate execution path.
    approx_mask: np.ndarray
    #: Lanes that take the accurate execution path.
    accurate_mask: np.ndarray
    #: Lanes approximating although their own criterion said no.
    forced: np.ndarray
    #: Lanes accurate although their own criterion said yes.
    denied: np.ndarray


def decide(
    ctx: GridContext,
    want_approx: np.ndarray,
    level: HierarchyLevel,
    mask: np.ndarray | None = None,
) -> Decision:
    """Resolve per-lane wishes into a group decision at ``level``.

    ``mask`` bounds the active lanes; inactive lanes neither vote nor
    execute.  Majority is strict ("majority-rules", §3.3): the group
    approximates iff more than half of its active lanes wish to.  Group
    votes are resolved at group granularity (O(warps) / O(blocks)) and
    expanded once, with every temporary in the context arena; the charges
    are those of ``ballot`` (warp) or ``block_count`` (team).
    """
    arena = ctx.arena
    lanes = (ctx.total_threads,)
    m = ctx._combined_mask(mask)
    # AND with the all-true base mask is the identity, so under a full mask
    # the wish vector is borrowed as-is and the post-vote re-masking and
    # ``m ∧ ¬approx`` collapse are skipped.
    uniform = (
        m is ctx._base_mask
        and isinstance(want_approx, np.ndarray)
        and want_approx.dtype == np.bool_
    )
    if uniform:
        want = want_approx
    else:
        want = arena.buf("dec_want", lanes, np.bool_)
        np.logical_and(want_approx, m, out=want)

    if level is HierarchyLevel.THREAD:
        approx = want
    elif level is HierarchyLevel.WARP:
        votes = ctx._ballot_counts(want, m)  # charges like ballot()
        active = ctx._warp_counts(m)
        approve = arena.buf("dec_approve_w", (ctx.num_warps,), np.bool_)
        doubled = arena.buf("dec_votes2", (ctx.num_warps,), np.int64)
        np.multiply(votes, 2, out=doubled)
        np.greater(doubled, active, out=approve)
        approx = arena.buf("dec_approx", lanes, np.bool_)
        grid = approx.reshape(ctx.num_warps, ctx.warp_size)
        grid[:] = approve[:, None]
        if not uniform:
            np.logical_and(approx, m, out=approx)
    elif level is HierarchyLevel.TEAM:
        votes = ctx._block_counts(want, m)  # charges like block_count()
        active = ctx._block_active_counts(m)
        approve = arena.buf("dec_approve_b", (ctx.num_blocks,), np.bool_)
        doubled = arena.buf("dec_votes2b", (ctx.num_blocks,), np.int64)
        np.multiply(votes, 2, out=doubled)
        np.greater(doubled, active, out=approve)
        approx = arena.buf("dec_approx", lanes, np.bool_)
        grid = approx.reshape(ctx.num_blocks, ctx.threads_per_block)
        grid[:] = approve[:, None]
        if not uniform:
            np.logical_and(approx, m, out=approx)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown hierarchy level {level!r}")

    notapprox = arena.buf("dec_notapprox", lanes, np.bool_)
    np.logical_not(approx, out=notapprox)
    if uniform:
        accurate = notapprox
    else:
        accurate = arena.buf("dec_accurate", lanes, np.bool_)
        np.logical_and(m, notapprox, out=accurate)
    denied = arena.buf("dec_denied", lanes, np.bool_)
    np.logical_and(want, notapprox, out=denied)
    notwant = arena.buf("dec_notwant", lanes, np.bool_)
    np.logical_not(want, out=notwant)
    forced = arena.buf("dec_forced", lanes, np.bool_)
    np.logical_and(approx, notwant, out=forced)
    return Decision(approx_mask=approx, accurate_mask=accurate, forced=forced, denied=denied)
