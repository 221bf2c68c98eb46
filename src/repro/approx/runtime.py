"""The HPAC-Offload runtime facade.

:class:`ApproxRuntime` binds a set of lowered :class:`RegionSpec` directives
to an application and dispatches each region invocation to its technique's
implementation, mirroring the paper's design (§2.3): the compiler captures
the annotated region as a closure (here: the ``compute`` callable), and the
runtime's activation function picks the accurate or the approximate
execution path at each invocation.

Applications use two entry points inside kernels:

* ``rt.region(ctx, "name", compute, inputs=..., mask=...)`` — a memoized
  (TAF/iACT) or accurate region; returns the per-lane output values.
* ``rt.loop(ctx, "name", n)`` — a grid-stride loop with the region's
  perforation applied (plain grid-stride when the region is accurate).

Statistics accumulate per region across a launch (and across launches,
until :meth:`reset_stats`), feeding the harness' "% approximated" axes.
"""

from __future__ import annotations

import numpy as np

from repro.approx.base import (
    RegionSpec,
    RegionStats,
    Technique,
    ThresholdWindow,
)
from repro.approx.iact import iact_invoke
from repro.approx.noise import noise_invoke
from repro.approx.perforation import perforated_grid_stride
from repro.approx.taf import taf_invoke
from repro.errors import ConfigurationError
from repro.gpusim.context import GridContext


class ApproxRuntime:
    """Per-application registry of approximated regions."""

    def __init__(
        self,
        specs: list[RegionSpec] | dict[str, RegionSpec] | None = None,
        replacement_policy: str = "round_robin",
        sanitizer=None,
    ) -> None:
        self._specs: dict[str, RegionSpec] = {}
        self.stats: dict[str, RegionStats] = {}
        self.replacement_policy = replacement_policy
        #: Optional ApproxSan instance; region()/loop() notify it of region
        #: entry/exit so accesses are attributed to their pragma contract.
        self.sanitizer = sanitizer
        for spec in specs.values() if isinstance(specs, dict) else (specs or []):
            self.add(spec)

    # ------------------------------------------------------------------
    def add(self, spec: RegionSpec) -> None:
        if spec.name in self._specs:
            raise ConfigurationError(f"region {spec.name!r} registered twice")
        self._specs[spec.name] = spec
        self.stats[spec.name] = RegionStats()

    def spec(self, name: str) -> RegionSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise ConfigurationError(f"unknown approx region {name!r}") from None

    @property
    def specs(self) -> dict[str, RegionSpec]:
        return dict(self._specs)

    def needs_inputs(self, name: str) -> bool:
        """Whether the region's technique reads the captured inputs.

        iACT must capture (and pay for reading) the region inputs on every
        invocation to evaluate distances; TAF and perforation never touch
        them, so apps keep input loads inside the accurate path's closure —
        the cost asymmetry behind the paper's insight 4.
        """
        return self.spec(name).technique is Technique.IACT

    def reset_stats(self) -> None:
        for name in self.stats:
            self.stats[name] = RegionStats()

    def stats_snapshot(self) -> dict[str, dict]:
        return {name: s.snapshot() for name, s in self.stats.items()}

    def threshold_window(self) -> ThresholdWindow:
        """Intersection of every region's :class:`ThresholdWindow`: the
        thresholds that reproduce every decision since the last reset.
        Meaningful when the TAF/iACT regions share one technique."""
        window = ThresholdWindow()
        for s in self.stats.values():
            window = window.intersect(s.window)
        return window

    # ------------------------------------------------------------------
    def region(
        self,
        ctx: GridContext,
        name: str,
        compute,
        inputs: np.ndarray | None = None,
        mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Invoke a (possibly approximated) code region for all active lanes.

        ``compute(mask) -> (total_threads, out_width)`` is the accurate
        execution path; it must charge its simulated cost against the mask
        it receives.  For iACT regions ``inputs`` is the required
        ``(total_threads, in_width)`` capture of the declared inputs.
        Returns per-lane output values (shape ``(total_threads, out_width)``,
        squeezed to 1-D when ``out_width == 1``).
        """
        spec = self.spec(name)
        stats = self.stats[name]
        san = self.sanitizer if self.sanitizer is not None else ctx.sanitizer
        if san is not None:
            with san.region_scope(spec):
                if inputs is not None:
                    san.on_inputs_captured(spec.name)
                values = self._invoke(ctx, spec, stats, compute, inputs, mask)
                san.on_region_returned(spec.name)
        else:
            values = self._invoke(ctx, spec, stats, compute, inputs, mask)
        return values[:, 0] if spec.out_width <= 1 else values

    def _invoke(self, ctx, spec, stats, compute, inputs, mask) -> np.ndarray:
        """Technique dispatch for one region invocation."""
        if spec.technique is Technique.NONE:
            m = ctx.mask if mask is None else np.logical_and(ctx.mask, mask)
            values = np.asarray(compute(m), dtype=np.float64)
            if values.ndim == 1:
                values = values[:, None]
            stats.invocations += int(np.count_nonzero(m))
        elif spec.technique is Technique.TAF:
            values, _ = taf_invoke(ctx, spec, compute, mask=mask, stats=stats)
        elif spec.technique is Technique.IACT:
            if inputs is None:
                raise ConfigurationError(
                    f"iACT region {spec.name!r} requires the captured inputs "
                    f"(the in(...) clause of the pragma)"
                )
            values, _ = iact_invoke(
                ctx,
                spec,
                inputs,
                compute,
                mask=mask,
                stats=stats,
                policy=self.replacement_policy,
            )
        elif spec.technique is Technique.NOISE:
            values = noise_invoke(ctx, spec, compute, mask=mask, stats=stats)
        elif spec.technique is Technique.PERFORATION:
            raise ConfigurationError(
                f"region {spec.name!r} uses perforation; drive it with "
                f"ApproxRuntime.loop(), not region()"
            )
        else:  # pragma: no cover - exhaustive enum
            raise ConfigurationError(f"unhandled technique {spec.technique}")
        return values

    # ------------------------------------------------------------------
    def loop(self, ctx: GridContext, name: str, n: int):
        """Grid-stride loop with the named region's perforation applied."""
        spec = self.spec(name)
        if spec.technique not in (Technique.NONE, Technique.PERFORATION):
            raise ConfigurationError(
                f"region {name!r} uses {spec.technique.value}; loop() applies "
                f"only to perforated or accurate loops"
            )
        san = self.sanitizer if self.sanitizer is not None else ctx.sanitizer
        if san is not None:
            with san.region_scope(spec):
                yield from perforated_grid_stride(ctx, spec, n, stats=self.stats[name])
        else:
            yield from perforated_grid_stride(ctx, spec, n, stats=self.stats[name])
