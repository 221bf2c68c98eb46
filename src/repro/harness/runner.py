"""Experiment runner: executes one DSE configuration end-to-end.

Implements the HPAC execution-harness protocol (§2.3): apply technique +
parameters to the program, run it, and record runtime and error against the
accurate baseline in a results database.  Baselines follow footnote 4: the
original application at its best configuration (each app declares its best
``num_threads`` and ``baseline_items_per_thread``), cached per
(app, device, problem).

Configurations the hardware cannot schedule — AC state exceeding the
shared-memory budget, invalid table sharing — are recorded as *infeasible*
rather than crashing the sweep, the behaviour a real DSE harness needs.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, field

from repro.apps.common import AppResult, Benchmark
from repro.approx.base import ThresholdWindow
from repro.errors import ReproError, SharedMemoryError, UnsupportedApproximationError
from repro.gpusim.device import DeviceSpec, get_device
from repro.harness.metrics import convergence_speedup, error, speedup
from repro.harness.sweep import SweepPoint


@dataclass(slots=True)
class RunRecord:
    """One row of the results database."""

    app: str
    device: str
    technique: str
    params: dict
    level: str
    items_per_thread: int
    feasible: bool = True
    note: str = ""
    #: End-to-end speedup over the accurate baseline (paper's default).
    speedup: float = 0.0
    #: Kernel-only speedup (what the paper reports for Blackscholes).
    kernel_speedup: float = 0.0
    #: Error fraction under the app's metric (MAPE or MCR).
    error: float = 0.0
    #: Fraction of region invocations that took the approximate path.
    approx_fraction: float = 0.0
    #: Per-region stats snapshots.
    region_stats: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # A sweep holds thousands of records whose device names and notes
        # repeat (a pruning ancestor's note, a preflight diagnostic): keep
        # one string object per value.
        if type(self.device) is str:
            self.device = sys.intern(self.device)
        if type(self.note) is str:
            self.note = sys.intern(self.note)

    @property
    def reported_speedup(self) -> float:
        """Kernel-only for kernel-only apps, end-to-end otherwise."""
        return self.kernel_speedup if self.extra.get("kernel_only") else self.speedup

    @property
    def error_percent(self) -> float:
        return self.error * 100.0

    def to_dict(self) -> dict:
        return asdict(self)


class ExperimentRunner:
    """Simulates one sweep point at a time (:meth:`run_point`), caching
    baselines; every multi-point evaluation is a
    :meth:`~repro.harness.batch.BatchEngine.submit`."""

    def __init__(self, problems: dict[str, dict] | None = None, seed: int = 2023) -> None:
        #: Per-app problem overrides (e.g. smaller meshes for quick tests).
        self.problems = problems or {}
        self.seed = seed
        self._baselines: dict[tuple, AppResult] = {}
        self._apps: dict[tuple, Benchmark] = {}
        #: Accurate baseline executions this instance actually performed
        #: (cache hits and primed entries excluded) — the batch layer's
        #: "each baseline computed exactly once" counter.
        self.baseline_computes = 0
        #: Threshold and items-per-thread window of the last
        #: :meth:`run_point` that simulated (``None`` otherwise).  Kept
        #: beside the record, never in it, so record bytes do not depend on
        #: it.
        self.last_window: ThresholdWindow | None = None

    # ------------------------------------------------------------------
    def _problem_key(self, app_name: str) -> str:
        """Stable fingerprint of the app's problem override, so caches
        invalidate when ``problems`` is mutated between sweeps."""
        problem = self.problems.get(app_name)
        return repr(sorted(problem.items())) if problem else ""

    def app(self, name: str) -> Benchmark:
        key = (name, self._problem_key(name))
        if key not in self._apps:
            from repro.apps import get_benchmark

            self._apps[key] = get_benchmark(name, problem=self.problems.get(name))
        return self._apps[key]

    def baseline(self, app_name: str, device: str | DeviceSpec) -> AppResult:
        """Accurate run at the app's best configuration, cached per
        (app, device, problem)."""
        dev = get_device(device)
        key = (app_name, dev.name, self._problem_key(app_name))
        if key not in self._baselines:
            app = self.app(app_name)
            self.baseline_computes += 1
            self._baselines[key] = app.run(
                dev,
                regions=None,
                items_per_thread=app.baseline_items_per_thread,
                seed=self.seed,
            )
        return self._baselines[key]

    def export_baselines(self) -> dict[tuple, AppResult]:
        """Snapshot of the baseline cache, keyed (app, device, problem).

        The batch layer ships this to pool workers so each unique
        (app, device) baseline is computed once in the parent instead of
        once per worker."""
        return dict(self._baselines)

    def prime_baselines(self, baselines: dict[tuple, AppResult]) -> None:
        """Seed the baseline cache with results computed elsewhere.

        Keys must come from :meth:`export_baselines` of a runner with the
        same ``problems``/``seed`` (the cache key embeds the problem
        fingerprint, so mismatched entries are simply never hit)."""
        self._baselines.update(baselines)

    # ------------------------------------------------------------------
    def run_point(
        self,
        app_name: str,
        device: str | DeviceSpec,
        point: SweepPoint,
        site: str | None = None,
        sanitize: bool = False,
    ) -> RunRecord:
        """Execute one sweep configuration and compare to the baseline.

        ``sanitize=True`` runs the point under ApproxSan and stores the
        violation report under ``record.extra["approxsan"]`` (dict form).
        Simulated timings — and therefore speedups — are unaffected.
        A simulated point leaves its window in :attr:`last_window`.
        """
        self.last_window = None
        dev = get_device(device)
        app = self.app(app_name)
        record = RunRecord(
            app=app_name,
            device=dev.name,
            technique=point.technique,
            params=dict(point.params),
            level=point.level,
            items_per_thread=point.items_per_thread,
        )
        base = self.baseline(app_name, dev)
        try:
            regions = app.build_regions(
                point.technique, level=point.level, site=site, **point.params
            )
            result = app.run(
                dev,
                regions,
                items_per_thread=point.items_per_thread,
                seed=self.seed,
                sanitize=sanitize,
            )
        except (SharedMemoryError, UnsupportedApproximationError, ReproError) as exc:
            record.feasible = False
            record.note = f"{type(exc).__name__}: {exc}"
            return record

        record.speedup = speedup(base.seconds, result.seconds)
        record.kernel_speedup = speedup(
            max(base.kernel_seconds, 1e-30), max(result.kernel_seconds, 1e-30)
        )
        record.error = error(app.error_metric, base.qoi, result.qoi)
        stats = result.region_stats or {}
        fractions = [
            s.get("approx_fraction", 0.0) for s in stats.values() if s.get("invocations")
        ]
        record.approx_fraction = max(fractions) if fractions else 0.0
        record.region_stats = stats
        record.extra = {
            "kernel_only": app.kernel_only,
            "num_teams": result.extra.get("num_teams"),
        }
        if sanitize and "approxsan" in result.extra:
            record.extra["approxsan"] = result.extra["approxsan"].to_dict()
        if "iterations" in result.extra:
            record.extra["iterations"] = result.extra["iterations"]
            record.extra["baseline_iterations"] = base.extra.get("iterations")
            if base.extra.get("iterations"):
                record.extra["convergence_speedup"] = convergence_speedup(
                    base.extra["iterations"], result.extra["iterations"]
                )
        self.last_window = result.threshold_window
        return record
