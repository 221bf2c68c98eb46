"""Plain-text reporting of sweep results and figure reproductions.

The benches print these tables so the bench output reads like the paper's
evaluation section: one block per table/figure with the same rows/series.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.runner import RunRecord


@dataclass
class SweepProgress:
    """Throughput snapshot emitted by the parallel sweep executor."""

    total: int
    done: int
    feasible: int
    infeasible: int
    skipped: int
    elapsed: float
    #: Duplicate job slots collapsed to a single evaluation (batch layer).
    deduped: int = 0

    @property
    def points_per_sec(self) -> float:
        return self.done / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def eta_seconds(self) -> float:
        rate = self.points_per_sec
        return (self.total - self.done) / rate if rate > 0 else float("inf")


def format_progress(p: SweepProgress) -> str:
    """One status line: ``[done/total] pct  rate  ETA  feas/infeas``."""
    pct = 100.0 * p.done / p.total if p.total else 100.0
    eta = p.eta_seconds
    eta_s = f"{eta:6.1f}s" if eta != float("inf") else "     --"
    return (
        f"[{p.done}/{p.total}] {pct:5.1f}%  {p.points_per_sec:7.2f} pts/s  "
        f"ETA {eta_s}  feasible={p.feasible} infeasible={p.infeasible}"
        + (f" (resumed past {p.skipped})" if p.skipped else "")
        + (f" (deduped {p.deduped})" if p.deduped else "")
    )


def format_engine_stats(stats) -> str:
    """One summary line for a :class:`~repro.harness.batch.EngineStats`."""
    spawns, respawns = stats.pool_spawns, stats.pool_respawns
    pool = ""
    if spawns:
        pool = f"; {spawns} pool spawn{'s' if spawns != 1 else ''}"
        if respawns:
            pool += f" ({respawns} after crashes)"
    return (
        f"batch engine: {stats.submitted} jobs submitted, "
        f"{stats.executed} simulated, {stats.cache_hits} served from cache, "
        f"{stats.deduped} deduped in-call, {stats.skipped} from checkpoint, "
        f"{stats.pruned} pruned; {stats.baseline_runs} baselines computed "
        f"({stats.worker_baseline_runs} redundantly in workers) "
        f"in {stats.elapsed:.2f}s"
        + pool
    )


def format_record(r: RunRecord) -> str:
    """One-line summary of a run record."""
    if not r.feasible:
        return f"{r.app:<12} {r.technique:<6} INFEASIBLE ({r.note.splitlines()[0][:50]})"
    pieces = ":".join(f"{v}" for _, v in sorted(r.params.items()))
    return (
        f"{r.app:<12} {r.technique:<6} [{pieces:<18}] lvl={r.level:<6} "
        f"ipt={r.items_per_thread:<4} speedup={r.reported_speedup:6.3f} "
        f"err%={r.error_percent:9.4f} approx={r.approx_fraction:5.3f}"
    )


def format_records_table(records: list[RunRecord], title: str = "") -> str:
    lines = []
    if title:
        lines.append(title)
        lines.append("-" * len(title))
    lines.extend(format_record(r) for r in records)
    return "\n".join(lines)


def format_fig6(result, apps: list[str], devices: list[str]) -> str:
    """Render the Fig-6 best-speedup bars as a text table."""
    lines = ["Fig 6 — highest speedup with error < 10%"]
    header = f"{'benchmark':<14}" + "".join(
        f"{t:>10}" for t in ("perfo", "taf", "iact")
    )
    for dkey in devices:
        lines.append(f"\n[{dkey}]  (geomean of per-app best: "
                     f"{result.geomean.get(dkey, float('nan')):.3f}x)")
        lines.append(header)
        for app in apps:
            row = result.row(dkey, app)
            cells = []
            for t in ("perfo", "taf", "iact"):
                rec = row.get(t)
                cells.append(f"{rec.reported_speedup:9.2f}x" if rec else "       --")
            lines.append(f"{app:<14}" + "".join(cells))
    return "\n".join(lines)


def format_series(series, header: str = "") -> str:
    """Render (x, y, ...) tuples as aligned columns."""
    lines = [header] if header else []
    for row in series:
        lines.append("  ".join(
            f"{v:>10.4f}" if isinstance(v, float) else f"{v:>10}" for v in row
        ))
    return "\n".join(lines)
