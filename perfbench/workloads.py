"""The benchmark's three workloads and their correctness checks.

Every workload is driven through the public ``repro.api`` surface, the
way a user of the reproduction runs it.  One *unit* is one complete
execution of the workload (a whole figure, or all six Table-2 sweeps);
a run times one or more units.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import api
from repro.apps import get_benchmark
from repro.harness.batch import BatchEngine
from repro.harness.config import SweepConfig
from repro.harness.database import dumps_record, record_status
from repro.harness.runner import ExperimentRunner
from repro.harness.sweep import table2_space

DEVICES = ("v100_small", "amd_small")
TABLE2_APPS = ("lulesh", "kmeans", "blackscholes")
#: Problem sizes for the Table-2 sweeps: small enough that fixed
#: per-launch and per-point harness costs carry a large share.
TABLE2_PROBLEMS = {
    "lulesh": {"mesh": 6, "time_steps": 4},
    "kmeans": {"num_obs": 1024, "max_iters": 4},
    "blackscholes": {"num_options": 1024, "num_runs": 2},
}
QOI_BOUND = 0.10
POOL_WORKERS = 2


@dataclass
class Unit:
    """Outcome of one timed execution of a workload."""

    wall_s: float
    records: list
    digest: str
    #: Exact counts the unit's results report (evaluated, pruned, ...).
    counts: dict = field(default_factory=dict)
    #: fig6 only: per-device geomean of the per-app best speedups.
    geomean: dict = field(default_factory=dict)
    #: Largest peak RSS (MiB) among this unit's pool workers.
    worker_peak_mb: float = 0.0
    workers: int = 0


def digest(records) -> str:
    """sha256 over every record's checkpoint line, in order."""
    h = hashlib.sha256()
    for rec in records:
        h.update(dumps_record(rec).encode())
        h.update(b"\n")
    return h.hexdigest()


def failed(records) -> int:
    return sum(1 for r in records if record_status(r) == "error")


def table2_requests(seed: int) -> list:
    """One SweepRequest per (app, device): the thinned Table-2 grid of all
    three techniques with the app's threshold scales."""
    reqs = []
    for app in TABLE2_APPS:
        bench = get_benchmark(app)
        for dev in DEVICES:
            points = (
                table2_space("taf", dev, threshold_scale=bench.taf_threshold_scale)
                + table2_space("iact", dev, threshold_scale=bench.iact_threshold_scale)
                + table2_space("perfo", dev)
            )
            reqs.append(
                api.SweepRequest(
                    app, dev, points=tuple(points),
                    problems=TABLE2_PROBLEMS, seed=seed,
                )
            )
    return reqs


def build(workload: str, seed: int):
    """What a user builds before the first request: the runner or engine.

    ``fig6_quick`` goes through ``api.figures``, which builds its own
    engine around a fresh runner; the Table-2 workloads share one engine
    across their six sweeps, built with the sweeps' problem sizes (an
    engine's own ``problems`` win over a request's, see NOTES.md)."""
    if workload == "fig6_quick":
        return ExperimentRunner(seed=seed)
    workers = POOL_WORKERS if workload == "table2_pool" else 1
    return BatchEngine(
        problems=TABLE2_PROBLEMS, seed=seed, config=SweepConfig(workers=workers)
    )


def _peak_rss_mb(pid: int) -> float:
    """VmHWM of a live process, in MiB (0 if it has already gone)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def reap_children(timeout: float = 60.0) -> None:
    """Wait for every multiprocessing child (pool workers) to exit."""
    deadline = time.monotonic() + timeout
    for proc in multiprocessing.active_children():
        proc.join(max(0.1, deadline - time.monotonic()))
        if proc.is_alive():
            proc.terminate()
            proc.join(5.0)


def run_fig6(seed: int) -> Unit:
    t0 = time.perf_counter()
    result = api.execute(
        api.FiguresRequest(names=("fig6",), effort="quick", seed=seed)
    )
    wall = time.perf_counter() - t0
    fig = result.results["fig6"]
    records = list(fig.db)
    return Unit(
        wall_s=wall,
        records=records,
        digest=digest(records),
        counts={
            "points": len(records),
            "evaluated": result.stats.executed,
            "baseline_computes": result.stats.baseline_runs,
            "pool_spawns": result.stats.pool_spawns,
        },
        geomean=dict(fig.geomean),
    )


def run_table2(workload: str, seed: int, ckdir: Path) -> Unit:
    """The six sweeps through one engine, each with a fresh checkpoint."""
    reqs = table2_requests(seed)
    engine = build(workload, seed)
    ckdir.mkdir(parents=True, exist_ok=True)
    configs = [
        SweepConfig(
            checkpoint=str(ckdir / f"{r.app}-{r.device}.jsonl"),
            preflight=True,
            prune=QOI_BOUND,
        )
        for r in reqs
    ]
    worker_peak = 0.0
    try:
        t0 = time.perf_counter()
        results = [
            api.execute(req, config=cfg, engine=engine)
            for req, cfg in zip(reqs, configs)
        ]
        wall = time.perf_counter() - t0
        for proc in multiprocessing.active_children():
            worker_peak = max(worker_peak, _peak_rss_mb(proc.pid))
    finally:
        engine.close()
        reap_children()
    records = [rec for res in results for rec in res.report.records]
    grid = sum(len(r.points) for r in reqs)
    if len(records) != grid:
        raise AssertionError(f"{len(records)} records for {grid} grid points")
    counts = {
        "points": grid,
        "evaluated": sum(res.report.evaluated for res in results),
        "lattice_pruned": sum(
            res.report.extra.get("lattice_pruned", 0) for res in results
        ),
        "preflight_infeasible": sum(res.report.pruned for res in results),
        "baseline_computes": engine.stats.baseline_runs,
        "pool_spawns": engine.stats.pool_spawns,
        "checkpoint_bytes": sum(
            os.path.getsize(cfg.checkpoint) for cfg in configs
        ),
    }
    resolved = (
        counts["evaluated"] + counts["lattice_pruned"]
        + counts["preflight_infeasible"]
    )
    if resolved != grid:
        raise AssertionError(
            f"evaluated+pruned+infeasible = {resolved}, grid = {grid}"
        )
    return Unit(
        wall_s=wall,
        records=records,
        digest=digest(records),
        counts=counts,
        worker_peak_mb=worker_peak,
        workers=engine.config.workers if counts["pool_spawns"] else 0,
    )


def run_unit(workload: str, seed: int, ckdir: Path) -> Unit:
    if workload == "fig6_quick":
        return run_fig6(seed)
    return run_table2(workload, seed, ckdir)
