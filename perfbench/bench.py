"""The benchmark proper: timed units, the traced unit, checks and output.

Imported by run.py once the environment is pinned and ``src/`` is on the
path; see NOTES.md for what is measured and why.
"""

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Fresh interpreters timed per run for ``setup_s``, after one untimed
#: warm-up probe that fills the page cache.
SETUP_SAMPLES = 9
#: Units per timed run, at the least: two units halve the weight of one
#: slow stretch on a shared machine.  Pool units vary more from one to the
#: next (chunk sizes follow observed timings), so the pool runs three.
MIN_UNITS = {"table2_pool": 3}
DEFAULT_MIN_UNITS = 2
#: Interpreter start -> repro imported -> runner/engine built, then exit.
SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.build(sys.argv[3], int(sys.argv[4]))"
)


def print_environment(cores: int) -> None:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    print(
        f"env nproc={cores} python={platform.python_version()} "
        f"numpy={numpy.__version__} blas={blas} "
        f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}"
    )


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import repro and build the
    workload's runner/engine."""
    cmd = [
        sys.executable, "-c", SETUP_CODE, str(HERE), str(SRC), workload, str(seed),
    ]
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples[1:]


class Checks:
    """Collects correctness failures; any failure fails the run."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        print(f"check {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            self.failures.append(what)


def check_goldens(checks: Checks, workload: str, seed: int, unit) -> None:
    goldens = json.loads((HERE / "goldens.json").read_text())
    if seed != goldens["seed"]:
        return
    checks.expect(
        unit.digest == goldens["digests"][workload],
        f"record digest matches the seed-{seed} golden",
    )
    if workload == "fig6_quick":
        got = {k: round(v, 4) for k, v in unit.geomean.items()}
        checks.expect(
            got == goldens["fig6_geomean"],
            f"fig6 geomean {got} == golden {goldens['fig6_geomean']}",
        )


def check_pool_reference(checks: Checks, seed: int, unit, ckdir: Path) -> None:
    """table2_pool must yield table2_sweep's records byte for byte."""
    ref = workloads.run_table2("table2_sweep", seed, ckdir)
    checks.expect(
        unit.digest == ref.digest,
        "table2_pool records == in-process table2_sweep records",
    )


def print_counts(label: str, counts: dict) -> None:
    body = " ".join(f"{k}={v}" for k, v in counts.items())
    print(f"exact {label} {body}")


def layer_metrics(t, unit, untraced_wall: float) -> dict:
    """Per-layer metrics from one traced unit (see NOTES.md)."""
    c = t.counts
    counts = unit.counts
    points = counts["points"]
    pruning_on = t.calls("pruning.run_sweep_pruned") > 0
    chunks = c.get("batch.chunks", 0)
    launches = t.calls("gpusim.launch")
    m = {
        "api.execute.self_s": (t.self_s("api.execute"), "s"),
        "runner.baseline.computes": (c.get("runner.baseline.computes", 0), "count"),
        "runner.baseline.s": (c.get("runner.baseline.ns", 0) / 1e9, "s"),
        "runner.run_point.calls": (t.calls("runner.run_point"), "count"),
        "runner.run_point.self_s": (t.self_s("runner.run_point"), "s"),
        "apps.run.calls": (t.calls("apps.run"), "count"),
        "apps.run.self_s": (t.self_s("apps.run"), "s"),
        "apps.build_regions.calls": (t.calls("apps.build_regions"), "count"),
        "apps.build_regions.self_s": (t.self_s("apps.build_regions"), "s"),
        "openmp.target_teams.calls": (t.calls("openmp.target_teams"), "count"),
        "openmp.target_teams.self_s": (t.self_s("openmp.target_teams"), "s"),
        "openmp.target_data.calls": (t.calls("openmp.target_data"), "count"),
        "openmp.target_data.self_s": (t.self_s("openmp.target_data"), "s"),
        "gpusim.launch.calls": (launches, "count"),
        "gpusim.launch.self_s": (t.self_s("gpusim.launch"), "s"),
        "gpusim.launch.us_per_call": (
            t.self_s("gpusim.launch") / launches * 1e6 if launches else 0.0, "us"
        ),
        "qoi.error.calls": (t.calls("qoi.error"), "count"),
        "qoi.error.self_s": (t.self_s("qoi.error"), "s"),
        "db.dumps_record.calls": (t.calls("db.dumps_record"), "count"),
        "db.dumps_record.self_s": (t.self_s("db.dumps_record"), "s"),
        "db.checkpoint_write.calls": (t.calls("db.checkpoint_write"), "count"),
        "db.checkpoint_write.self_s": (t.self_s("db.checkpoint_write"), "s"),
        "db.checkpoint_bytes": (counts.get("checkpoint_bytes", 0), "bytes"),
        "preflight.calls": (t.calls("preflight"), "count"),
        "preflight.self_s": (t.self_s("preflight"), "s"),
        "preflight.infeasible": (c.get("preflight.infeasible", 0), "count"),
        "pruning.run_sweep_pruned.calls": (t.calls("pruning.run_sweep_pruned"), "count"),
        "pruning.run_sweep_pruned.self_s": (t.self_s("pruning.run_sweep_pruned"), "s"),
        "pruning.evaluated": (counts["evaluated"] if pruning_on else 0, "count"),
        "pruning.pruned": (counts.get("lattice_pruned", 0), "count"),
        "pruning.evaluated_ratio": (
            counts["evaluated"] / points if pruning_on else 0.0, "ratio"
        ),
        "batch.submit.calls": (t.calls("batch.submit"), "count"),
        "batch.submit.self_s": (t.self_s("batch.submit"), "s"),
        "batch.wait_s": (t.total_s("batch.wait"), "s"),
        "batch.chunks": (chunks, "count"),
        "batch.chunk_points_mean": (
            c.get("batch.chunk_points", 0) / chunks if chunks else 0.0, "count"
        ),
        "batch.chunk_s": (
            c.get("batch.chunk_seconds", 0.0) / chunks if chunks else 0.0, "s"
        ),
        "batch.pool_spawns": (counts.get("pool_spawns", 0), "count"),
        "pragma.compile.calls": (t.calls("pragma.compile"), "count"),
        "trace.wall_s": (unit.wall_s, "s"),
        "trace.overhead_ratio": (unit.wall_s / untraced_wall, "ratio"),
        "trace.unattributed_s": (unit.wall_s - t.top_ns / 1e9, "s"),
        "trace.spans": (len(t.spans), "count"),
    }
    for tech in ("taf", "iact", "perfo"):
        m[f"approx.{tech}.calls"] = (t.calls(f"approx.{tech}"), "count")
        m[f"approx.{tech}.self_s"] = (t.self_s(f"approx.{tech}"), "s")
    return m


def print_shares(t, wall: float) -> None:
    """Self time per span name as a share of the traced wall time."""
    rows = sorted(t.stats.items(), key=lambda kv: -kv[1][2])
    for name, (calls, _total, self_ns) in rows:
        print(
            f"share {name:28s} calls={calls:<8d} self_s={self_ns / 1e9:9.4f} "
            f"share={self_ns / 1e9 / wall:7.2%}"
        )


def timed_unit(args, udir: Path):
    udir.mkdir()
    return workloads.run_unit(args.workload, args.seed, udir)


def point_percentiles(t) -> tuple[int, float, float]:
    """Sample count, p50 and p90 of the traced ``run_point`` durations
    (zeros when no call ran in this process, as on ``table2_pool``)."""
    samples = [(e - s) / 1e9 for name, _, s, e in t.spans if name == "runner.run_point"]
    if len(samples) < 2:
        return len(samples), 0.0, 0.0
    return len(samples), statistics.median(samples), statistics.quantiles(samples, n=10)[-1]


def run_timed(args, tmp: Path, checks: Checks):
    """Timed units until ``args.seconds`` have elapsed, and at least
    :data:`MIN_UNITS` of them; returns the end-to-end metrics."""
    min_units = MIN_UNITS.get(args.workload, DEFAULT_MIN_UNITS)
    units = []
    t_start = time.perf_counter()
    while len(units) < min_units or time.perf_counter() - t_start < args.seconds:
        unit = timed_unit(args, tmp / f"unit{len(units)}")
        units.append(unit)
        print(
            f"unit {len(units)} wall_s={unit.wall_s:.4f} points={unit.counts['points']} "
            f"digest={unit.digest}"
        )
    parent_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first = units[0]
    for unit in units[1:]:
        checks.expect(unit.digest == first.digest, "every unit yields the same records")
    check_goldens(checks, args.workload, args.seed, first)
    if args.workload == "table2_pool":
        check_pool_reference(checks, args.seed, first, tmp / "reference")
    setup = measure_setup(args.workload, args.seed)
    print(f"setup_s samples {' '.join(f'{s:.4f}' for s in setup)}")
    print_counts(args.workload, first.counts)
    attempted = sum(u.counts["points"] for u in units)
    failed = sum(workloads.failed(u.records) for u in units)
    print(f"exact failed={failed} attempted={attempted} failed_ratio={failed / attempted}")
    worker_peak = max(u.worker_peak_mb for u in units)
    workers = max(u.workers for u in units)
    metrics = {
        "wall_s": (statistics.median(u.wall_s for u in units), "s"),
        "points_per_s": (
            statistics.median(u.counts["points"] / u.wall_s for u in units),
            "points/s",
        ),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (parent_peak_mb + worker_peak * workers, "MB"),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
    }
    return metrics, attempted, failed


def run_traced(args, tmp: Path, checks: Checks):
    """One untraced unit, then one traced unit; returns the per-layer
    metrics."""
    untraced = timed_unit(args, tmp / "untraced")
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        unit = timed_unit(args, tmp / "traced")
    finally:
        tracer.uninstall()
    print(
        f"unit untraced wall_s={untraced.wall_s:.4f} traced wall_s={unit.wall_s:.4f} "
        f"digest={unit.digest}"
    )
    checks.expect(unit.digest == untraced.digest, "records identical with tracing on")
    checks.expect(tracer.calls("pragma.compile") == 0, "no pragma lowering on the path")
    check_goldens(checks, args.workload, args.seed, unit)
    if args.workload == "table2_pool":
        check_pool_reference(checks, args.seed, unit, tmp / "reference")
    out = ROOT / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(out)
    print(f"spans written to {out.relative_to(ROOT)}")
    print_shares(tracer, unit.wall_s)
    metrics = layer_metrics(tracer, unit, untraced.wall_s)
    n, p50, p90 = point_percentiles(tracer)
    metrics["runner.run_point.samples"] = (n, "count")
    metrics["runner.run_point.p50_s"] = (p50, "s")
    metrics["runner.run_point.p90_s"] = (p90, "s")
    print_counts(
        args.workload,
        {
            "launches": tracer.calls("gpusim.launch"),
            **{f"{t}_calls": tracer.calls(f"approx.{t}") for t in ("taf", "iact", "perfo")},
            "baseline_computes": int(tracer.counts.get("runner.baseline.computes", 0)),
            "evaluated": unit.counts["evaluated"],
            "lattice_pruned": unit.counts.get("lattice_pruned", 0),
            "preflight_infeasible": int(tracer.counts.get("preflight.infeasible", 0)),
            "checkpoint_bytes": unit.counts.get("checkpoint_bytes", 0),
            "pool_spawns": unit.counts.get("pool_spawns", 0),
        },
    )
    attempted = untraced.counts["points"] + unit.counts["points"]
    failed = workloads.failed(untraced.records) + workloads.failed(unit.records)
    return metrics, attempted, failed


def run(args, cores: int) -> int:
    print_environment(cores)
    print(f"workload {args.workload} seed={args.seed} trace={args.trace}")
    checks = Checks()
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        if args.trace:
            metrics, attempted, failed = run_traced(args, tmp, checks)
        else:
            metrics, attempted, failed = run_timed(args, tmp, checks)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    for name, (value, unit) in metrics.items():
        print(f"metric {name:32s} {value:14.6f} {unit}")
    result = {
        "correct": not checks.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not checks.failures else 1
