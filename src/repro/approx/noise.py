"""Noise injection — the instrumentation behind region sensitivity analysis.

The paper's §4.2 calls for automation that "could integrate with
sensitivity analysis tools [31, 37, 53] to find code regions amenable to
approximation".  The standard instrument (ASAC [42], Puppeteer [37]) is to
*perturb* a candidate region's outputs with controlled relative noise and
measure how much the application's QoI moves: a region whose QoI barely
responds is a safe approximation target.

``Technique.NOISE`` regions execute the accurate path and then multiply
each output by ``1 + sigma·ξ`` with ξ ~ N(0,1), deterministic per
(region, invocation, lane) so runs are reproducible.  The perturbation is
free in simulated time (it is an analysis instrument, not an optimization).
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.approx.base import NoiseParams, RegionSpec, RegionStats
from repro.gpusim.context import GridContext


def noise_invoke(
    ctx: GridContext,
    spec: RegionSpec,
    compute,
    mask: np.ndarray | None = None,
    stats: RegionStats | None = None,
) -> np.ndarray:
    """Execute the accurate path and perturb its outputs.

    Returns ``(total_threads, out_width)`` values like the other technique
    implementations.  Counted as "approximated" in the stats so sensitivity
    reports can show perturbation coverage.
    """
    params: NoiseParams = spec.params  # type: ignore[assignment]
    m = ctx.mask if mask is None else np.logical_and(ctx.mask, mask)
    values = np.asarray(compute(m), dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    values = values.copy()

    # Deterministic per-invocation noise: key the stream on the region name,
    # the seed, and a per-launch invocation counter (crc32, not ``hash``:
    # ``str`` hashes are salted per process).
    key = ("noise_counter", spec.name)
    counter = ctx.region_state.get(key, 0)
    ctx.region_state[key] = counter + 1
    rng = np.random.default_rng(
        [zlib.crc32(spec.name.encode()), params.seed, counter]
    )
    xi = rng.standard_normal(values.shape)
    values[m] *= 1.0 + params.rel_sigma * xi[m]

    if stats is not None:
        stats.invocations += int(m.sum())
        stats.approximated += int(m.sum())
    return values
