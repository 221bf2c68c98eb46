"""Unified sweep configuration: one frozen policy object for every entry point.

Every way of evaluating work — ``ExperimentRunner.run_sweep``,
:func:`repro.harness.batch.run_sweep_parallel`,
:meth:`repro.harness.batch.BatchEngine.submit`, the figures, the searches
and the CLI — takes its execution policy as one frozen :class:`SweepConfig`,
so a policy decided once holds everywhere.
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

    #: Process-pool workers; ``<= 1`` runs in-process (byte-identical
    #: records either way).
    workers: int = 1
    #: Points per pool-worker chunk; ``None`` sizes chunks adaptively from
    #: observed throughput.  In-process streams evaluate one job per step.
    chunk_size: int | None = None
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
    #: Static preflight: ``True`` for the stock analyzer, or a callable
    #: ``(app, device, point, site=...) -> RunRecord | None``.
    preflight: bool | Callable = False
    #: Run every point under ApproxSan, storing the violation report in
    #: ``record.extra["approxsan"]`` (timings unaffected).
    sanitize: bool = False
    #: Subsumption-lattice pruning for sweeps: ``True`` prunes un-evaluated
    #: descendants of points violating the default 10% QoI bound; a float
    #: sets the bound.  See :mod:`repro.harness.pruning`.
    prune: bool | float = False
    #: Content-hash record cache shared across campaigns: a
    #: :class:`repro.harness.pruning.VariantCache` instance, or a path to
    #: persist one as JSONL.
    variant_cache: object | str | Path | None = None

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
