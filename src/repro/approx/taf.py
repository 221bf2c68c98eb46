"""Temporal Approximate Function memoization (TAF) for the GPU.

TAF (§2.3, [51]) watches a sliding window of a code region's last
``history_size`` outputs; when their relative standard deviation (RSD =
sigma/mu) falls below a threshold, the region enters a *stable* regime and
replays the last accurate output for the next ``prediction_size``
invocations.

The GPU algorithm is the paper's Fig 4(d): each thread manages a private
TAF state machine in **shared memory** over the iterations of its own
grid-stride walk.  The original CPU spatial-locality assumption (adjacent
iterations, same thread) is deliberately relaxed — a thread's successive
grid-stride iterations are ``stride`` apart — because the
semantically-equivalent alternative (Fig 4(c)) would serialize the warp.
Per-thread state is ``history_size`` float32 outputs + the last value +
3 int32 counters; with the paper's hSize=5 scalar regions that is 36 bytes
per thread, the Fig-3 entry size.

:func:`taf_invoke` implements one region invocation; the state machine
transitions exactly as §3.3 describes: accurate executions append to the
window, a full window's RSD below threshold arms ``prediction_size``
approximate invocations, and exhausting them flushes the window and returns
to accumulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.approx.base import RegionSpec, RegionStats, TAFParams
from repro.approx.hierarchy import Decision, decide
from repro.gpusim.context import GridContext

#: State-machine encodings (int32 in shared memory).
ACCUMULATING = 0
STABLE = 1


@dataclass
class TAFState:
    """Per-thread TAF state, backed by the block's shared-memory pool."""

    history: np.ndarray  # (threads, history_size, out_width) float32
    hist_len: np.ndarray  # (threads,) int32
    state: np.ndarray  # (threads,) int32: ACCUMULATING | STABLE
    pred_left: np.ndarray  # (threads,) int32
    last: np.ndarray  # (threads, out_width) float32

    @staticmethod
    def bytes_per_thread(params: TAFParams, out_width: int) -> int:
        """Shared-memory footprint of one thread's TAF state."""
        return 4 * params.history_size * out_width + 4 * out_width + 3 * 4


def allocate_state(ctx: GridContext, spec: RegionSpec) -> TAFState:
    """Carve this region's per-thread TAF state out of shared memory.

    Raises :class:`~repro.errors.SharedMemoryError` when the state does not
    fit the per-block budget — the resource constraint that motivates the
    shared-memory design of §3.1.1 (and the reason approximation state
    cannot simply be replicated per thread in global memory, Fig 3).
    """
    params: TAFParams = spec.params  # type: ignore[assignment]
    ow = max(spec.out_width, 1)
    tpb = ctx.threads_per_block
    pre = f"taf:{spec.name}:"
    return TAFState(
        history=ctx.shared.alloc_per_thread(
            pre + "hist", tpb, (params.history_size, ow), np.float32
        ),
        hist_len=ctx.shared.alloc_per_thread(pre + "len", tpb, (), np.int32),
        state=ctx.shared.alloc_per_thread(pre + "state", tpb, (), np.int32),
        pred_left=ctx.shared.alloc_per_thread(pre + "pred", tpb, (), np.int32),
        last=ctx.shared.alloc_per_thread(pre + "last", tpb, (ow,), np.float32),
    )


def get_state(ctx: GridContext, spec: RegionSpec) -> TAFState:
    """Fetch (or lazily allocate) the region's state for this launch."""
    if ctx.sanitizer is not None:
        ctx.sanitizer.on_state_access("taf", spec.name)
    key = ("taf", spec.name)
    st = ctx.region_state.get(key)
    if st is None:
        st = allocate_state(ctx, spec)
        ctx.region_state[key] = st
    return st


def window_rsd(
    history: np.ndarray, hist_len: np.ndarray, full: int, mode: str = "components"
) -> np.ndarray:
    """RSD of each thread's full window.

    ``mode="components"`` (default, the scalar TAF generalized per output
    component): RSD = sigma/mu per component, worst component decides.
    ``mode="norm"``: RSD of the per-invocation output L2 norms — the right
    activation for force-like vector outputs whose components oscillate in
    sign (near-zero component means make the component RSD unbounded even
    when the outputs are physically negligible, e.g. LavaMD's far neighbour
    boxes).

    Threads whose window is not yet full get +inf (never stable).  A window
    with zero mean and nonzero spread is +inf; an all-zero window is
    perfectly stable (RSD 0), the 0/0 convention of the reference TAF
    implementation.
    """
    if mode == "norm" and history.shape[2] > 1:
        series = np.sqrt(np.einsum("twk,twk->tw", history, history))[:, :, None]
    elif mode in ("components", "norm"):
        series = history
    else:
        raise ValueError(f"unknown RSD mode {mode!r}")
    mean = series.mean(axis=1)
    sigma = series.std(axis=1)  # population std, as footnote 1 defines
    absmean = np.abs(mean)
    with np.errstate(divide="ignore", invalid="ignore"):
        rsd = np.where(
            absmean > 0.0,
            sigma / absmean,
            np.where(sigma > 0.0, np.inf, 0.0),
        )
    return np.where(hist_len >= full, rsd.max(axis=1), np.inf)


def taf_invoke(
    ctx: GridContext,
    spec: RegionSpec,
    compute,
    mask: np.ndarray | None = None,
    stats: RegionStats | None = None,
) -> tuple[np.ndarray, Decision]:
    """Execute one TAF-approximated region invocation for all active lanes.

    Parameters
    ----------
    ctx, spec:
        Execution context and the lowered ``memo(out:...)`` directive.
    compute:
        ``compute(mask) -> (lanes, out_width) float array``.  Called with
        the mask of lanes taking the accurate path; it must charge its own
        simulated cost against that mask (SIMD divergence accounting then
        happens for free) and return values for at least those lanes.
    mask:
        Active-lane mask for this invocation.

    Returns
    -------
    (values, decision):
        ``values`` has shape ``(total_threads, out_width)``; approximated
        lanes carry their replayed output, accurate lanes the computed one.
    """
    params: TAFParams = spec.params  # type: ignore[assignment]
    ow = max(spec.out_width, 1)
    st = get_state(ctx, spec)
    # The arena-backed masks below are rewritten every invocation under
    # stable ids; drop any per-warp active vectors cached against them.
    ctx.invalidate_mask_cache()
    arena = ctx.arena
    lanes = (ctx.total_threads,)
    m = ctx._combined_mask(mask)

    # Activation function: read the per-thread state machine (shared
    # memory) and evaluate the criterion.
    ctx.shared_access(1.0, m)
    ctx.flops(2.0, m)
    want = arena.buf("taf_want", lanes, np.bool_)
    np.equal(st.state, STABLE, out=want)
    np.logical_and(m, want, out=want)
    tmp = arena.buf("taf_tmp", lanes, np.bool_)
    np.greater(st.pred_left, 0, out=tmp)
    np.logical_and(want, tmp, out=want)
    dec = decide(ctx, want, spec.level, m)

    # Lanes the group forces to approximate can only comply if they have
    # a replayable value; warm-up lanes fall back to the accurate path.
    can = arena.buf("taf_can", lanes, np.bool_)
    np.greater(st.hist_len, 0, out=can)
    approx = arena.buf("taf_approx", lanes, np.bool_)
    np.logical_and(dec.approx_mask, can, out=approx)
    np.logical_not(can, out=tmp)
    fallback = arena.buf("taf_fallback", lanes, np.bool_)
    np.logical_and(dec.approx_mask, tmp, out=fallback)
    accurate = arena.buf("taf_accurate", lanes, np.bool_)
    np.logical_or(dec.accurate_mask, fallback, out=accurate)

    values = arena.buf(("taf_values", spec.name), (ctx.total_threads, ow), np.float64)
    if m is not ctx._base_mask:
        # approx ∪ accurate == m, so under a full mask every row is
        # overwritten below and the zero prefill would be dead stores.
        values.fill(0.0)

    # --- approximate path: replay the last accurate output ---------------
    if approx.any():
        ctx.shared_access(float(ow), approx)
        # Single-pass masked ops: each lane's last output and prediction
        # budget are touched only where it approximates.
        np.copyto(values, st.last, where=approx[:, None])
        np.subtract(st.pred_left, 1, out=st.pred_left, where=approx)
        done = arena.buf("taf_done", lanes, np.bool_)
        np.less_equal(st.pred_left, 0, out=done)
        np.logical_and(approx, done, out=done)
        if done.any():
            # Prediction budget exhausted: flush and re-monitor.
            np.copyto(st.state, ACCUMULATING, where=done)
            np.copyto(st.hist_len, 0, where=done)

    # --- accurate path: execute the region and update the window ---------
    if accurate.any():
        computed = np.asarray(compute(accurate), dtype=np.float64)
        if computed.ndim == 1:
            computed = computed[:, None]
        np.copyto(values, computed, where=accurate[:, None])

        # Append to the sliding window (shift when full).
        full = arena.buf("taf_full", lanes, np.bool_)
        np.greater_equal(st.hist_len, params.history_size, out=full)
        shift = arena.buf("taf_shift", lanes, np.bool_)
        np.logical_and(accurate, full, out=shift)
        if shift.any():
            w = shift[:, None]
            # Left-shift via per-column masked copies: column i reads
            # i+1 before iteration i+1 overwrites it.
            for i in range(params.history_size - 1):
                np.copyto(st.history[:, i], st.history[:, i + 1], where=w)
            np.copyto(st.history[:, -1], computed, where=w)
        np.logical_not(full, out=full)
        grow = arena.buf("taf_grow", lanes, np.bool_)
        np.logical_and(accurate, full, out=grow)
        if grow.any():
            st.history[grow, st.hist_len[grow]] = computed[grow]
            np.add(st.hist_len, 1, out=st.hist_len, where=grow)
        np.copyto(st.last, computed, where=accurate[:, None])
        ctx.shared_access(float(ow) + 1.0, accurate)

        # Windows that just became full evaluate the RSD criterion,
        # computed on the ready subset only (it is per-lane independent).
        ready = arena.buf("taf_ready", lanes, np.bool_)
        np.greater_equal(st.hist_len, params.history_size, out=ready)
        np.logical_and(accurate, ready, out=ready)
        if ready.any():
            ctx.flops(3.0 * params.history_size * ow, ready)
            ctx.sfu(2.0, ready)  # sqrt for sigma, divide for sigma/mu
            idx = np.flatnonzero(ready)
            rsd_sel = window_rsd(
                st.history[idx],
                st.hist_len[idx],
                params.history_size,
                mode=spec.meta.get("rsd_mode", "components"),
            )
            below = rsd_sel < params.rsd_threshold
            if stats is not None:
                stats.window.narrow(rsd_sel, below, ~below)
            arm_idx = idx[below]
            if arm_idx.size:
                st.state[arm_idx] = STABLE
                st.pred_left[arm_idx] = params.prediction_size

    if stats is not None:
        stats.invocations += int(m.sum())
        stats.approximated += int(approx.sum())
        stats.forced += int(np.logical_and(dec.forced, can).sum())
        stats.denied += int(dec.denied.sum())
        stats.fallback_accurate += int(fallback.sum())

    return values, dec
