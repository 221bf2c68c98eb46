"""Unified sweep configuration: one frozen policy object for every entry point.

Every way of evaluating work — :meth:`repro.harness.batch.BatchEngine.submit`
and what runs on it (:func:`repro.harness.batch.run_sweep_parallel`, the
figures, the searches and the CLI) — takes its execution policy as one
frozen :class:`SweepConfig`, so a policy chosen once holds everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class SweepConfig:
    """Execution policy for one sweep / batch / engine session.

    Identity of the work (app, device, points, problems, seed) stays on the
    call; *how* the work runs lives here.  Instances are frozen — derive
    variants with :meth:`replace` — so a config shared by an engine and
    several calls cannot drift mid-session.
    """

    #: Process-pool workers; ``<= 1`` runs in-process, ``> 1`` on the
    #: engine's one pool (created with this many workers on first use).
    #: Records are byte-identical either way.
    workers: int = 1
    #: JSONL / ``.jsonl.gz`` file records stream into and resume from.
    checkpoint: str | Path | None = None
    #: Retries per point on unexpected worker errors (each on a freshly
    #: rebuilt runner).
    retries: int = 1
    #: ``True`` for a stderr line per completed chunk (per point
    #: in-process), or a callable receiving
    #: :class:`~repro.harness.reporting.SweepProgress` — accepted uniformly
    #: by every entry point.
    progress: bool | Callable = False
    #: Static preflight: ``True`` records each statically infeasible point
    #: without simulating it
    #: (:func:`repro.analysis.preflight.make_preflight` on the engine's
    #: problems).
    preflight: bool = False
    #: Run every point under ApproxSan, storing the violation report in
    #: ``record.extra["approxsan"]`` (timings unaffected).
    sanitize: bool = False
    #: Subsumption-lattice pruning, applied by every
    #: :meth:`~repro.harness.batch.BatchEngine.submit`: a point with a less
    #: aggressive lattice ancestor whose error exceeds the QoI bound is
    #: recorded as ``pruned`` without simulating.  ``True`` uses the default
    #: 10% bound; a float sets the bound.  See :mod:`repro.harness.pruning`.
    prune: bool | float = False
    #: Content-hash record cache shared across campaigns: a
    #: :class:`repro.harness.pruning.VariantCache` instance.  Its owner
    #: saves it (``VariantCache(path)`` loads one, ``save()`` persists it).
    variant_cache: object | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.preflight, bool):
            raise TypeError(
                f"SweepConfig.preflight takes a bool, not "
                f"{type(self.preflight).__name__}"
            )
        if self.variant_cache is not None:
            from repro.harness.pruning import VariantCache

            if not isinstance(self.variant_cache, VariantCache):
                raise TypeError(
                    f"SweepConfig.variant_cache takes a VariantCache or None, "
                    f"not {type(self.variant_cache).__name__}; pass "
                    f"VariantCache(path) and save() it when done"
                )

    def replace(self, **changes) -> "SweepConfig":
        """A copy with ``changes`` applied (the dataclasses idiom)."""
        return replace(self, **changes)

    def merged(self, other: "SweepConfig | None") -> "SweepConfig":
        """Overlay ``other``'s non-default fields onto this config."""
        if other is None:
            return self
        changes = {
            f.name: getattr(other, f.name)
            for f in fields(other)
            if getattr(other, f.name) != f.default
        }
        return self.replace(**changes) if changes else self
