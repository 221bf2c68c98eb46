"""Per-figure reproduction entry points.

One function per table/figure of the paper's evaluation (the benches in
``benchmarks/`` call these and print the same rows/series the paper
reports).  Each function runs a curated mini-sweep — dense enough to show
the figure's shape, small enough for laptop time; ``effort="full"``
switches to the thinned Table-2 grids and ``effort="paper"`` to the full
grids (hours).

Every simulation-backed figure builds its whole ``device × app ×
technique × point`` grid as one job list and evaluates it through the
batch layer (:mod:`repro.harness.batch`): the given
:class:`~repro.harness.batch.BatchEngine` carries the policy (a pool of
workers, shared baselines, adaptive chunks), and passing one engine to
several figures dedupes their overlapping points (Fig 6 and Fig 7 share
the LULESH grid).  Without an engine each figure builds an in-process one
around the given runner; the records are byte-identical to one
``run_point`` per job either way.

The curated candidate grids below were chosen exactly the way the paper's
users would use the HPAC-Offload harness: sweep, look at the database, keep
the parameter regions that matter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.approx.base import TAFParams
from repro.approx.taf_variants import compare_variants
from repro.gpusim.device import get_device
from repro.gpusim.memory import global_memory_fraction_for_tables
from repro.harness.batch import BatchEngine, BatchJob
from repro.harness.database import ResultsDB
from repro.harness.metrics import geomean_speedup, r_squared
from repro.harness.runner import ExperimentRunner, RunRecord
from repro.harness.sweep import SweepPoint, table2_space

#: Devices used by the figure benches: 1/10-scale V100 and MI250X.
NVIDIA = "v100_small"
AMD = "amd_small"
DEVICES = {"nvidia": NVIDIA, "amd": AMD}


# ---------------------------------------------------------------------------
# Curated sweep points per (app, technique): the interesting region of
# Table 2 at this problem scale.
# ---------------------------------------------------------------------------
def _taf(h, p, t, level="thread", ipt=8):
    return SweepPoint("taf", {"hsize": h, "psize": p, "threshold": t}, level, ipt)


def _iact(ts, t, tpw, level="thread", ipt=8):
    return SweepPoint("iact", {"tsize": ts, "threshold": t, "tperwarp": tpw}, level, ipt)


def _perfo(kind, val, herded=False, ipt=8):
    key = "skip" if kind in ("small", "large") else "skip_percent"
    params = {"kind": kind, key: val}
    if kind in ("small", "large"):
        params["herded"] = herded
    return SweepPoint("perfo", params, "thread", ipt)


CANDIDATES: dict[tuple[str, str], list[SweepPoint]] = {
    ("lulesh", "taf"): [
        _taf(2, 4, 0.3), _taf(2, 8, 0.9), _taf(1, 4, 0.9), _taf(4, 8, 0.3),
        _taf(2, 16, 3.0),
    ],
    ("lulesh", "iact"): [
        _iact(4, 0.02, 32), _iact(4, 0.05, 32), _iact(2, 0.02, 16),
        _iact(8, 0.1, 16),
    ],
    ("lulesh", "perfo"): [
        _perfo("fini", 50), _perfo("fini", 70), _perfo("fini", 90),
        _perfo("ini", 10), _perfo("small", 2, herded=True),
        _perfo("small", 4, herded=True), _perfo("small", 4, herded=False),
        _perfo("large", 4, herded=True),
    ],
    ("leukocyte", "taf"): [
        _taf(2, 8, 0.01), _taf(2, 16, 0.05), _taf(2, 32, 0.1), _taf(2, 32, 0.3),
        _taf(4, 64, 0.3),
    ],
    ("leukocyte", "iact"): [
        _iact(4, 0.05, 8), _iact(4, 0.1, 8), _iact(8, 0.3, 4),
    ],
    ("binomial", "taf"): [
        _taf(2, 8, 0.3, "team", 32), _taf(2, 32, 0.3, "team", 128),
        _taf(2, 32, 0.3, "team", 512), _taf(2, 16, 0.9, "team", 512),
        _taf(1, 32, 0.9, "team", 512),
    ],
    ("binomial", "iact"): [
        _iact(8, 0.1, 2, "team", 128), _iact(8, 0.3, 2, "team", 512),
        _iact(8, 0.1, 2, "team", 512), _iact(4, 0.3, 1, "team", 512),
    ],
    ("minife", "taf"): [
        _taf(2, 4, 0.3), _taf(2, 8, 0.9), _taf(1, 8, 3.0),
    ],
    ("blackscholes", "taf"): [
        _taf(1, 8, 0.3, ipt=1), _taf(5, 16, 0.3), _taf(5, 16, 0.9),
        _taf(2, 8, 0.3), _taf(1, 4, 0.3, ipt=2),
    ],
    ("blackscholes", "iact"): [
        _iact(2, 0.3, None, ipt=2), _iact(4, 0.3, None, ipt=4),
        _iact(8, 0.3, None, ipt=8, level="thread"),
    ],
    ("lavamd", "taf"): [
        _taf(2, 4, 0.006, ipt=1), _taf(2, 4, 0.009, ipt=1), _taf(2, 4, 0.016, ipt=1),
        _taf(2, 8, 0.016, ipt=1), _taf(1, 8, 0.03, ipt=1),
        _taf(2, 4, 0.009, "warp", 1), _taf(2, 8, 0.016, "warp", 1),
    ],
    ("lavamd", "iact"): [
        _iact(8, 0.3, 1, ipt=1), _iact(8, 0.5, 2, ipt=1), _iact(4, 0.9, 1, ipt=1),
    ],
    ("kmeans", "taf"): [
        _taf(1, 3, 0.9), _taf(1, 7, 0.9), _taf(2, 6, 0.9), _taf(1, 7, 3.0, ipt=16),
        _taf(2, 14, 0.9, ipt=16),
    ],
    ("kmeans", "iact"): [
        _iact(4, 0.3, None), _iact(4, 0.5, None), _iact(8, 0.5, 16),
    ],
}

#: Fig-6 apps (MiniFE is excluded there: error always > 10%).
FIG6_APPS = ["lulesh", "leukocyte", "binomial", "blackscholes", "lavamd", "kmeans"]
ALL_APPS = FIG6_APPS + ["minife"]


def candidates(app: str, technique: str, effort: str = "quick") -> list[SweepPoint]:
    """Sweep points for one app/technique cell at the requested effort."""
    pts = CANDIDATES.get((app, technique), [])
    if effort == "quick":
        return pts
    # full / paper: Table-2 grids (thinned or complete).
    from repro.apps import get_benchmark

    bench = get_benchmark(app)
    scale = (
        bench.taf_threshold_scale if technique == "taf" else bench.iact_threshold_scale
    )
    return table2_space(
        technique, thinned=(effort != "paper"), threshold_scale=scale
    )


# ---------------------------------------------------------------------------
# Batch-layer plumbing shared by every simulation-backed figure.
# ---------------------------------------------------------------------------
def _eval(
    jobs: list[BatchJob],
    runner: ExperimentRunner | None,
    engine: BatchEngine | None,
) -> list[RunRecord]:
    """Evaluate a figure's job list on the given engine, or on an
    in-process one around ``runner`` that is closed once the records are
    in."""
    if engine is not None:
        return engine.run_jobs(jobs)
    with BatchEngine(runner=runner or ExperimentRunner()) as owned:
        return owned.run_jobs(jobs)


# ---------------------------------------------------------------------------
# Fig 3 — global memory needed for per-thread memo tables
# ---------------------------------------------------------------------------
@dataclass
class Fig3Result:
    rows: list  # (num_threads, fraction_of_global_memory)
    exhaust_threads: int  # first power of two that exceeds 100%


def fig3_memory_scaling(entries: int = 5, entry_bytes: int = 36) -> Fig3Result:
    """Fraction of a V100's global memory vs thread count (Fig 3)."""
    dev = get_device("v100")
    rows = []
    exhaust = None
    for exp in range(10, 32):
        n = 2**exp
        frac = global_memory_fraction_for_tables(n, entries, entry_bytes, dev)
        rows.append((n, frac))
        if exhaust is None and frac >= 1.0:
            exhaust = n
    return Fig3Result(rows=rows, exhaust_threads=exhaust or -1)


# ---------------------------------------------------------------------------
# Fig 4 — TAF algorithm variants
# ---------------------------------------------------------------------------
@dataclass
class Fig4Result:
    variants: dict  # name -> VariantResult
    serialized_slowdown: float  # makespan(c) / makespan(d)
    errors: dict  # name -> mean abs error vs the accurate signal


def fig4_taf_variants(
    n: int = 4096, num_threads: int = 64, hsize: int = 2, psize: int = 2,
    threshold: float = 0.3, seed: int = 7,
) -> Fig4Result:
    """Run the CPU / serialized-GPU / HPAC-Offload TAF algorithms (Fig 4)."""
    rng = np.random.default_rng(seed)
    # A slowly varying signal: the loop of Fig 4(a) with temporal locality.
    t = np.linspace(0, 6 * np.pi, n)
    signal = 10.0 + np.sin(t) + 0.01 * rng.standard_normal(n)
    params = TAFParams(hsize, psize, threshold)
    variants = compare_variants(signal, params, num_threads)
    errors = {
        name: float(np.abs(v.outputs - signal).mean()) for name, v in variants.items()
    }
    return Fig4Result(
        variants=variants,
        serialized_slowdown=variants["gpu_serialized"].makespan
        / variants["gpu_grid_stride"].makespan,
        errors=errors,
    )


# ---------------------------------------------------------------------------
# Fig 6 — best speedup under 10% error, per app × technique × platform
# ---------------------------------------------------------------------------
@dataclass
class Fig6Result:
    db: ResultsDB
    best: dict  # (device_key, app, technique) -> RunRecord | None
    geomean: dict  # device_key -> geomean of per-app best speedups

    def row(self, device_key: str, app: str) -> dict:
        return {
            t: self.best.get((device_key, app, t))
            for t in ("perfo", "taf", "iact")
        }


def fig6_best_speedup(
    apps: list[str] | None = None,
    devices: dict[str, str] | None = None,
    max_error: float = 0.10,
    effort: str = "quick",
    runner: ExperimentRunner | None = None,
    engine: BatchEngine | None = None,
) -> Fig6Result:
    """Highest speedup with error < 10% for every benchmark (Fig 6)."""
    apps = apps or FIG6_APPS
    devices = devices or DEVICES
    cells: list[tuple] = []  # (dkey, app, tech, job offset, count)
    jobs: list[BatchJob] = []
    for dkey, dev in devices.items():
        for app in apps:
            for tech in ("perfo", "taf", "iact"):
                if (app, tech) not in CANDIDATES:
                    continue
                pts = candidates(app, tech, effort)
                cells.append((dkey, app, tech, len(jobs), len(pts)))
                jobs.extend(BatchJob(app, dev, pt) for pt in pts)
    results = _eval(jobs, runner, engine)
    db = ResultsDB()
    best: dict = {}
    for dkey, app, tech, offset, count in cells:
        records = results[offset : offset + count]
        db.add(records)
        ok = [r for r in records if r.feasible and r.error <= max_error]
        best[(dkey, app, tech)] = (
            max(ok, key=lambda r: r.reported_speedup) if ok else None
        )
    geo = {}
    for dkey in devices:
        per_app = []
        for app in apps:
            cell = [
                best.get((dkey, app, t)) for t in ("perfo", "taf", "iact")
            ]
            cell = [r for r in cell if r is not None]
            if cell:
                per_app.append(max(r.reported_speedup for r in cell))
        geo[dkey] = geomean_speedup(per_app) if per_app else float("nan")
    return Fig6Result(db=db, best=best, geomean=geo)


# ---------------------------------------------------------------------------
# Fig 7 — LULESH scatter on both platforms
# ---------------------------------------------------------------------------
@dataclass
class ScatterResult:
    app: str
    records: dict  # (device_key, technique) -> list[RunRecord]

    def best_under(self, device_key: str, technique: str, max_error: float = 0.10):
        ok = [
            r for r in self.records.get((device_key, technique), [])
            if r.feasible and r.error <= max_error
        ]
        return max(ok, key=lambda r: r.reported_speedup) if ok else None


def _scatter_jobs(
    app: str, techniques: tuple[str, ...], effort: str,
    devices: dict[str, str] | None = None,
) -> tuple[list[tuple], list[BatchJob]]:
    """Job list for one app's per-device scatter; cells map slices back."""
    cells: list[tuple] = []  # ((dkey, tech), offset, count)
    jobs: list[BatchJob] = []
    for dkey, dev in (devices or DEVICES).items():
        for tech in techniques:
            pts = candidates(app, tech, effort)
            cells.append(((dkey, tech), len(jobs), len(pts)))
            jobs.extend(BatchJob(app, dev, pt) for pt in pts)
    return cells, jobs


def _slice_cells(cells: list[tuple], results: list[RunRecord]) -> dict:
    return {key: results[off : off + n] for key, off, n in cells}


def fig7_lulesh(
    effort: str = "quick",
    runner: ExperimentRunner | None = None,
    engine: BatchEngine | None = None,
) -> ScatterResult:
    """LULESH speedup/error scatter for TAF, iACT, perforation (Fig 7)."""
    cells, jobs = _scatter_jobs("lulesh", ("taf", "iact", "perfo"), effort)
    records = _slice_cells(cells, _eval(jobs, runner, engine))
    return ScatterResult(app="lulesh", records=records)


# ---------------------------------------------------------------------------
# Fig 8 — Binomial Options: scatter + items-per-thread trade-off
# ---------------------------------------------------------------------------
@dataclass
class Fig8Result:
    scatter: ScatterResult
    #: device_key -> list of (items_per_thread, speedup, approx_fraction)
    items_sweep: dict


def fig8_binomial(
    effort: str = "quick",
    items: list[int] | None = None,
    runner: ExperimentRunner | None = None,
    engine: BatchEngine | None = None,
) -> Fig8Result:
    """Binomial Options TAF/iACT results and the Fig-8c trade-off curve."""
    items = items or [2, 4, 8, 16, 32, 64, 128, 256, 512]
    cells, jobs = _scatter_jobs("binomial", ("taf", "iact"), effort)
    scatter_len = len(jobs)
    for dkey, dev in DEVICES.items():
        jobs.extend(
            BatchJob("binomial", dev, _taf(2, 32, 0.3, "team", ipt))
            for ipt in items
        )
    results = _eval(jobs, runner, engine)
    records = _slice_cells(cells, results)
    sweep: dict = {}
    offset = scatter_len
    for dkey in DEVICES:
        series = []
        for ipt, rec in zip(items, results[offset : offset + len(items)]):
            series.append((ipt, rec.reported_speedup, rec.approx_fraction))
        sweep[dkey] = series
        offset += len(items)
    return Fig8Result(
        scatter=ScatterResult(app="binomial", records=records), items_sweep=sweep
    )


# ---------------------------------------------------------------------------
# Fig 9 — Leukocyte scatter + MiniFE error blow-up
# ---------------------------------------------------------------------------
@dataclass
class Fig9Result:
    leukocyte: ScatterResult
    minife_records: list  # TAF records with exploding error


def fig9_leukocyte_minife(
    effort: str = "quick",
    runner: ExperimentRunner | None = None,
    engine: BatchEngine | None = None,
) -> Fig9Result:
    cells, jobs = _scatter_jobs("leukocyte", ("taf", "iact"), effort)
    scatter_len = len(jobs)
    minife_pts = candidates("minife", "taf", effort)
    jobs.extend(BatchJob("minife", NVIDIA, pt) for pt in minife_pts)
    results = _eval(jobs, runner, engine)
    return Fig9Result(
        leukocyte=ScatterResult(
            app="leukocyte", records=_slice_cells(cells, results)
        ),
        minife_records=results[scatter_len:],
    )


# ---------------------------------------------------------------------------
# Fig 10 — Blackscholes: kernel-only scatter + the RSD-threshold anomaly
# ---------------------------------------------------------------------------
@dataclass
class Fig10Result:
    scatter: ScatterResult
    #: threshold -> (error_fraction, approx_fraction, price quantiles)
    threshold_study: dict


def fig10_blackscholes(
    effort: str = "quick",
    thresholds: list[float] | None = None,
    runner: ExperimentRunner | None = None,
    engine: BatchEngine | None = None,
) -> Fig10Result:
    """Blackscholes on AMD (kernel-only) and the Fig-10c threshold study."""
    # The study below runs in the parent, on the runner backing the batch.
    if runner is None:
        runner = engine.runner if engine is not None else ExperimentRunner()
    thresholds = thresholds or [0.1, 0.3, 0.6, 1.0, 3.0, 20.0]
    cells, jobs = _scatter_jobs("blackscholes", ("taf", "iact"), effort)
    scatter_len = len(jobs)
    # Fig 10c configurations: history 5, prediction 512, threshold T.
    jobs.extend(
        BatchJob("blackscholes", AMD, _taf(5, 512, T, ipt=8)) for T in thresholds
    )
    results = _eval(jobs, runner, engine)
    records = _slice_cells(cells, results)
    study = {}
    # The quantile comparison needs the raw QoI vectors, not records, so it
    # re-runs the six Fig-10c configurations in the parent (deterministic —
    # same results the batched records were computed from).
    app = runner.app("blackscholes")
    base = runner.baseline("blackscholes", AMD)
    for T, rec in zip(thresholds, results[scatter_len:]):
        regs = app.build_regions("taf", hsize=5, psize=512, threshold=T)
        res = app.run(AMD, regs, items_per_thread=8, seed=runner.seed)
        q = np.quantile(res.qoi, [0.1, 0.25, 0.5, 0.75, 0.9])
        study[T] = {
            "error": rec.error,
            "approx_fraction": rec.approx_fraction,
            "price_quantiles": q,
            "exact_quantiles": np.quantile(base.qoi, [0.1, 0.25, 0.5, 0.75, 0.9]),
        }
    return Fig10Result(
        scatter=ScatterResult(app="blackscholes", records=records),
        threshold_study=study,
    )


# ---------------------------------------------------------------------------
# Fig 11 — LavaMD: scatter + hierarchy comparison
# ---------------------------------------------------------------------------
@dataclass
class Fig11Result:
    scatter: ScatterResult
    #: list of dicts: {threshold, thread_speedup, warp_speedup}
    hierarchy_pairs: list


def fig11_lavamd(
    effort: str = "quick",
    thresholds: list[float] | None = None,
    runner: ExperimentRunner | None = None,
    engine: BatchEngine | None = None,
) -> Fig11Result:
    """LavaMD TAF/iACT results and the warp-vs-thread pairing of Fig 11c."""
    thresholds = thresholds or [0.008, 0.009, 0.01, 0.012]
    cells, jobs = _scatter_jobs("lavamd", ("taf", "iact"), effort)
    scatter_len = len(jobs)
    combos = [(T, h, ps) for T in thresholds for h, ps in [(2, 4), (2, 8)]]
    for T, h, ps in combos:
        jobs.append(BatchJob("lavamd", AMD, _taf(h, ps, T, "thread", 1)))
        jobs.append(BatchJob("lavamd", AMD, _taf(h, ps, T, "warp", 1)))
    results = _eval(jobs, runner, engine)
    pairs = []
    for i, (T, h, ps) in enumerate(combos):
        t_rec = results[scatter_len + 2 * i]
        w_rec = results[scatter_len + 2 * i + 1]
        pairs.append(
            {
                "threshold": T,
                "hsize": h,
                "psize": ps,
                "thread_speedup": t_rec.reported_speedup,
                "warp_speedup": w_rec.reported_speedup,
            }
        )
    return Fig11Result(
        scatter=ScatterResult(app="lavamd", records=_slice_cells(cells, results)),
        hierarchy_pairs=pairs,
    )


# ---------------------------------------------------------------------------
# Fig 12 — K-Means: scatter + convergence-speedup correlation
# ---------------------------------------------------------------------------
@dataclass
class Fig12Result:
    scatter: ScatterResult
    #: (convergence_speedup, time_speedup) pairs and their R².
    correlation_points: list
    r2: float


def fig12_kmeans(
    effort: str = "quick",
    runner: ExperimentRunner | None = None,
    engine: BatchEngine | None = None,
) -> Fig12Result:
    cells, jobs = _scatter_jobs("kmeans", ("taf", "iact"), effort)
    records = _slice_cells(cells, _eval(jobs, runner, engine))
    points = []
    for recs in records.values():
        for r in recs:
            if r.feasible and "convergence_speedup" in r.extra:
                points.append((r.extra["convergence_speedup"], r.speedup))
    r2 = r_squared(*zip(*points)) if len(points) >= 2 else float("nan")
    return Fig12Result(
        scatter=ScatterResult(app="kmeans", records=records),
        correlation_points=points,
        r2=r2,
    )
