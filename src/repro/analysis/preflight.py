"""Sweep preflight: prune statically infeasible points before simulating.

The bridge between the analyzer and the PR-1 sweep executor.  For one sweep
point, :func:`preflight_point` builds the app's region specs, runs the
device-aware rules, and — when a rule flagged ``preflight`` reports an
error — returns the same infeasible :class:`~repro.harness.runner.RunRecord`
shape the simulator would have produced, with the diagnostic code as the
note.  Points that pass return ``None`` and proceed to simulation, so a
preflighted sweep yields byte-identical *feasible* records to an
unpreflighted one; only the infeasible rows change provenance (note says
``preflight HPAC0xx: ...`` instead of the runtime exception).

Soundness: only per-region guarantees prune.  A benchmark's regions may
live in different kernels (LavaMD has two), so an *aggregate* shared-memory
overflow (HPAC021) is a warning, never a pruning error.

Cost: :func:`preflight_point` runs only the rules that can prune — the
device-aware region rules (HPAC02x) and HPAC030 on a region-construction
failure.  The app-level static ApproxSan findings (contract text HPAC21x,
the stored-baseline check HPAC212, the launch-plan dataflow walk
HPAC213/214) do not depend on the point and never prune, so they are
report-only: :func:`preflight_diagnostics` still returns them for the
``lint`` and ``sanitize`` commands, but a sweep never pays for them per
point.
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.lint import RULES, lint_regions
from repro.errors import ReproError
from repro.gpusim.device import DeviceSpec, get_device
from repro.gpusim.kernel import round_up
from repro.harness.runner import RunRecord
from repro.harness.sweep import SweepPoint

#: Signature the executor's ``preflight=`` hook expects.
PreflightFn = Callable[..., "RunRecord | None"]


def _region_diagnostics(
    app, dev: DeviceSpec, point: SweepPoint, site: str | None
) -> list[Diagnostic]:
    """Device-aware region rules for one point (HPAC030 if unbuildable)."""
    try:
        regions = app.build_regions(
            point.technique, level=point.level, site=site, **point.params
        )
    except ReproError as exc:
        return [RULES["HPAC030"].diag(f"{type(exc).__name__}: {exc}")]
    # The OpenMP layer launches blocks of the app's default num_threads
    # rounded up to a warp multiple (repro.openmp.runtime.target_teams);
    # predict against the same geometry the simulator will use.
    tpb = round_up(app.default_num_threads, dev.warp_size)
    return lint_regions(regions, dev, tpb)


def preflight_diagnostics(
    app_name: str,
    device: str | DeviceSpec,
    point: SweepPoint,
    site: str | None = None,
    problems: dict | None = None,
) -> list[Diagnostic]:
    """All device-aware diagnostics for one sweep point, report-only
    app-level findings included."""
    from repro.analysis.contracts import lint_contracts
    from repro.analysis.infer import lint_baseline
    from repro.analysis.rules.dataflow import lint_dataflow
    from repro.apps import get_benchmark

    dev = get_device(device)
    app = get_benchmark(app_name, problem=(problems or {}).get(app_name))
    # Static half of ApproxSan: contract text vs SiteInfo widths (HPAC21x).
    # Never preflight-pruning — a bad contract doesn't make the point
    # infeasible, it makes the *sanitizer* report unreliable.  HPAC212
    # joins here too: declared contracts vs the stored inferred baseline
    # (silent when no baseline has been written for the app), as does the
    # contract-dataflow walk over the app's launch plan (HPAC213/214,
    # silent when no plan is declared).
    diags = lint_contracts(app) + lint_baseline(app) + lint_dataflow(app)
    return diags + _region_diagnostics(app, dev, point, site)


def preflight_point(
    app_name: str,
    device: str | DeviceSpec,
    point: SweepPoint,
    site: str | None = None,
    problems: dict | None = None,
) -> RunRecord | None:
    """Infeasible record for a statically doomed point, else ``None``.

    Runs only the pruning rules; the verdict equals the first
    preflight-flagged error of :func:`preflight_diagnostics`."""
    from repro.apps import get_benchmark

    dev = get_device(device)
    app = get_benchmark(app_name, problem=(problems or {}).get(app_name))
    blockers = [
        d for d in _region_diagnostics(app, dev, point, site)
        if d.severity is Severity.ERROR and RULES[d.code].preflight
    ]
    if not blockers:
        return None
    d = blockers[0]
    return RunRecord(
        app=app_name,
        device=dev.name,
        technique=point.technique,
        params=dict(point.params),
        level=point.level,
        items_per_thread=point.items_per_thread,
        feasible=False,
        note=f"preflight {d.code}: {d.message}",
    )


def make_preflight(problems: dict | None = None) -> PreflightFn:
    """A ``preflight=`` hook bound to the sweep's per-app problem overrides."""

    def hook(app_name, device, point, site=None):
        return preflight_point(
            app_name, device, point, site=site, problems=problems
        )

    return hook
