"""Exact threshold-window reuse.

A TAF or iACT threshold enters a run at one comparison, so every run
records the window of thresholds that leave each of those comparisons
unchanged (:class:`~repro.approx.base.ThresholdWindow`).  The batch engine
serves a threshold sibling inside that window from the simulated record
(:class:`~repro.harness.batch.ThresholdMemo`); these tests hold the served
records to byte equality with direct simulation.
"""

import math

import numpy as np
import pytest

from repro.approx.base import (
    HierarchyLevel,
    IACTParams,
    RegionSpec,
    RegionStats,
    TAFParams,
    Technique,
    ThresholdWindow,
)
from repro.approx.iact import iact_invoke
from repro.approx.taf import taf_invoke
from repro.gpusim.context import GridContext
from repro.gpusim.device import nvidia_v100
from repro.harness.batch import (
    BatchEngine,
    BatchJob,
    ThresholdMemo,
    run_sweep_parallel,
)
from repro.harness.config import SweepConfig
from repro.harness.database import RecordKey, dumps_record
from repro.harness.runner import ExperimentRunner
from repro.harness.sweep import SweepPoint

PROBLEMS = {
    "lulesh": {"mesh": 6, "time_steps": 4},
    "kmeans": {"num_obs": 512, "max_iters": 3},
    "blackscholes": {"num_options": 512, "num_runs": 1},
}
#: 32-wide warps and 64-wide wavefronts.
DEVICES = ("v100_small", "amd_small")
#: (app, technique) -> (params besides the threshold, items per thread,
#: simulated thresholds).  Chosen so the windows have finite bounds.
CASES = {
    ("lulesh", "taf"): ({"hsize": 2, "psize": 4}, 8, (0.01, 10.0)),
    ("lulesh", "iact"): ({"tsize": 4, "tperwarp": 4}, 8, (0.1, 1.0)),
    ("kmeans", "taf"): ({"hsize": 2, "psize": 4}, 2, (0.5, 1.0)),
    ("kmeans", "iact"): ({"tsize": 4, "tperwarp": 4}, 2, (0.1, 1.0)),
    ("blackscholes", "taf"): ({"hsize": 2, "psize": 4}, 2, (0.1, 0.5)),
    ("blackscholes", "iact"): ({"tsize": 4, "tperwarp": 4}, 2, (0.3, 0.9)),
}


def _record_key(job):
    """A :class:`RecordKey` of ``job`` at the default seed and problems."""
    return RecordKey(
        job.app, job.device, job.point.label(), job.site, False, 2023, "{}"
    )


def _point(app, tech, threshold, level="thread"):
    params, ipt, _bases = CASES[(app, tech)]
    return SweepPoint(tech, {**params, "threshold": threshold}, level, ipt)


def _nearest_admitted(window, tech, t, toward):
    """The first threshold from ``t`` (stepping one ulp toward ``toward``)
    that ``window`` admits."""
    for _ in range(16):
        if window.admits(tech, t):
            return t
        t = float(np.nextafter(t, toward))
    raise AssertionError(f"no admitted threshold near {t} in {window}")


def _inside(window, tech, base):
    """The lowest, a middle and the highest threshold inside ``window``."""
    to_t = math.sqrt if tech == "iact" else float
    lo = 0.0 if window.lo == -math.inf else to_t(max(window.lo, 0.0))
    hi = 4.0 * base + 1.0 if window.hi == math.inf else to_t(window.hi)
    low = _nearest_admitted(window, tech, lo, math.inf)
    high = _nearest_admitted(window, tech, hi, -math.inf)
    return [low, (low + high) / 2.0, high]


def _served(engine, job):
    stream = engine.submit([job])
    records = stream.records()
    return records[0], stream.reused


class TestWindowExactness:
    @pytest.mark.parametrize("device", DEVICES)
    @pytest.mark.parametrize("app,tech", sorted(CASES))
    def test_served_records_match_direct_simulation(self, app, tech, device):
        direct = ExperimentRunner(problems=PROBLEMS)
        for base in CASES[(app, tech)][2]:
            engine = BatchEngine(problems=PROBLEMS)
            job = BatchJob(app, device, _point(app, tech, base))
            record, reused = _served(engine, job)
            assert record.feasible and reused == 0
            window = engine.runner.last_window
            assert math.isfinite(window.lo) or math.isfinite(window.hi)
            key = ThresholdMemo.key(job.point, engine._key(job, False))

            inside = _inside(window, tech, base)
            # The simulated threshold itself is an engine-cache hit.
            for t in sorted(set(inside) - {base}):
                pt = _point(app, tech, t)
                record, reused = _served(engine, BatchJob(app, device, pt))
                assert reused == 1, (t, window)
                assert record.params == pt.params
                assert dumps_record(record) == dumps_record(
                    direct.run_point(app, device, pt)
                ), (t, window)

            # One ulp past either bound is never served; below a zero lower
            # bound that is a negative threshold, which fails validation.
            low, high = inside[0], inside[-1]
            below = float(np.nextafter(low, -math.inf))
            above = float(np.nextafter(high, math.inf))
            if math.isfinite(window.lo) or below < 0:
                assert engine.threshold_memo.get(key, _point(app, tech, below)) is None
            if math.isfinite(window.hi):
                assert engine.threshold_memo.get(key, _point(app, tech, above)) is None

    def test_warp_level_sibling_matches(self):
        direct = ExperimentRunner(problems=PROBLEMS)
        engine = BatchEngine(problems=PROBLEMS)
        _served(engine, BatchJob("kmeans", "amd_small",
                                 _point("kmeans", "iact", 0.5, level="warp")))
        window = engine.runner.last_window
        t = _inside(window, "iact", 0.5)[1]
        pt = _point("kmeans", "iact", t, level="warp")
        record, reused = _served(engine, BatchJob("kmeans", "amd_small", pt))
        assert reused == 1
        assert dumps_record(record) == dumps_record(
            direct.run_point("kmeans", "amd_small", pt)
        )

    def test_invalid_or_overflowing_threshold_never_served(self):
        window = ThresholdWindow()  # admits every float
        memo = ThresholdMemo()
        job = BatchJob("kmeans", "v100_small", _point("kmeans", "iact", 0.5))
        key = ThresholdMemo.key(job.point, _record_key(job))
        record = ExperimentRunner(problems=PROBLEMS).run_point(
            "kmeans", "v100_small", job.point
        )
        memo.put(key, record, window)
        assert memo.get(key, _point("kmeans", "iact", 0.25)) is not None
        for bad in (-1.0, math.inf, math.nan, 1e200):  # 1e200**2 overflows
            assert memo.get(key, _point("kmeans", "iact", bad)) is None

    def test_only_clean_feasible_records_are_stored(self):
        memo = ThresholdMemo()
        job = BatchJob("kmeans", "v100_small", _point("kmeans", "taf", 0.5))
        key = ThresholdMemo.key(job.point, _record_key(job))
        record = ExperimentRunner(problems=PROBLEMS).run_point(
            "kmeans", "v100_small", job.point
        )
        record.note = "WorkerError after 2 attempts: boom"
        memo.put(key, record, ThresholdWindow())
        assert len(memo) == 0
        # Perforation chains vary in items per thread alone; accurate
        # points have no chain.
        perfo = SweepPoint("perfo", {"kind": "small", "skip": 2})
        accurate = SweepPoint("none", {})
        for pt, has_chain in ((perfo, True), (accurate, False)):
            key = _record_key(BatchJob("lulesh", "v100_small", pt))
            assert (ThresholdMemo.key(pt, key) is not None) == has_chain


def _ctx():
    return GridContext(nvidia_v100(), 1, 64)


class TestMargins:
    """What narrows a window and what must not."""

    def test_nan_rsd_never_narrows(self):
        spec = RegionSpec("r", Technique.TAF, TAFParams(2, 3, 0.5),
                          HierarchyLevel.THREAD, out_width=1)

        def run(values):
            ctx, stats = _ctx(), RegionStats()
            with np.errstate(invalid="ignore"):
                for _ in range(3):
                    taf_invoke(ctx, spec, lambda am: values[:, None].copy(), stats=stats)
            return stats.window

        # An infinite output makes the window's sigma, and so its RSD, NaN.
        half_nan = np.where(np.arange(64) < 32, np.inf, 1.0)
        assert run(half_nan) == run(np.ones(64)) == ThresholdWindow(0.0, math.inf)
        assert run(np.full(64, np.inf)) == ThresholdWindow()

    def test_iact_lane_without_entry_never_narrows(self):
        spec = RegionSpec("r", Technique.IACT, IACTParams(2, 0.5, 32),
                          HierarchyLevel.THREAD, in_width=1, out_width=1)
        # Thread-private tables: lane i's table holds only lane i's writes.
        lane = np.arange(64)
        close = np.where(lane % 2 == 0, 0.3, 1.0)[:, None]  # d2 0.09 or 1.0

        def run(first_mask, second_mask):
            ctx, stats = _ctx(), RegionStats()
            out = lambda am: np.ones((64, 1))  # noqa: E731
            iact_invoke(ctx, spec, np.zeros((64, 1)), out, mask=first_mask, stats=stats)
            assert stats.window == ThresholdWindow()  # empty tables
            iact_invoke(ctx, spec, close, out, mask=second_mask, stats=stats)
            return stats.window

        everyone = np.ones(64, bool)
        assert run(everyone, everyone) == ThresholdWindow(0.3 * 0.3, 1.0)
        # Lanes 0 and 1 never wrote an entry: active in the read phase, they
        # have nothing to compare and leave the window alone.
        no_entry = lane >= 2
        assert run(no_entry, everyone) == ThresholdWindow(0.3 * 0.3, 1.0)
        # Inactive lanes do not compare either.
        assert run(everyone, lane % 2 == 0) == ThresholdWindow(0.3 * 0.3, math.inf)

    def test_window_unit_semantics(self):
        w = ThresholdWindow()
        w.narrow(np.array([np.nan, 0.3, 0.7, 0.1]),
                 np.array([False, True, False, True]),
                 np.array([True, False, True, False]))
        assert w == ThresholdWindow(0.3, 0.7)
        assert w.admits("taf", 0.7) and not w.admits("taf", 0.3)
        assert w.admits("iact", math.sqrt(0.3) + 1e-9)
        assert not w.admits("iact", math.sqrt(0.7) + 1e-9)
        # Perforation has no threshold: its threshold part admits anything.
        assert w.admits("perfo")


# ----------------------------------------------------------------------
GRID_APPS = ("kmeans", "blackscholes", "lulesh")


def _grid(app):
    params, ipt, _bases = CASES[(app, "taf")]
    iparams = CASES[(app, "iact")][0]
    scale = {"lulesh": 0.1}.get(app, 1.0)
    pts = []
    for t in (0.1, 0.3, 0.6, 1.0, 3.0):
        for level in ("thread", "warp"):
            pts.append(SweepPoint("taf", {**params, "threshold": t}, level, ipt))
            pts.append(SweepPoint("iact", {**iparams, "threshold": t * scale}, level, ipt))
    return pts


def _pruned_sweeps(workers):
    cfg = SweepConfig(prune=0.10, workers=workers)
    with BatchEngine(problems=PROBLEMS, config=cfg) as engine:
        reports = [
            run_sweep_parallel(app, "v100_small", _grid(app), engine=engine)
            for app in GRID_APPS
        ]
        assert engine.stats.pool_spawns == (1 if workers > 1 else 0)
        return reports, engine.stats.reused


class TestEngineReuse:
    def test_pool_and_in_process_pruned_sweeps_agree(self):
        serial, serial_reused = _pruned_sweeps(workers=1)
        pooled, pooled_reused = _pruned_sweeps(workers=2)
        for a, b in zip(serial, pooled):
            assert [dumps_record(r) for r in a.records] == [
                dumps_record(r) for r in b.records
            ]
            assert a.reused == b.reused
        # Windows come back from the pool workers: the pool reuses too.
        assert serial_reused == pooled_reused > 0

    def test_reuse_is_exact_against_a_plain_loop(self):
        runner = ExperimentRunner(problems=PROBLEMS)
        pts = _grid("lulesh")
        reference = [runner.run_point("lulesh", "amd_small", pt) for pt in pts]
        with BatchEngine(problems=PROBLEMS) as engine:
            report = engine.submit(
                [BatchJob("lulesh", "amd_small", pt) for pt in pts]
            ).report()
        assert report.reused > 0 and report.evaluated == len(pts)
        assert engine.stats.reused == report.reused
        assert [dumps_record(r) for r in report.records] == [
            dumps_record(r) for r in reference
        ]

    def test_sanitized_sweep_matches_plain_loop(self):
        runner = ExperimentRunner(problems=PROBLEMS)
        pts = _grid("blackscholes")
        reference = [
            runner.run_point("blackscholes", "v100_small", pt, sanitize=True)
            for pt in pts
        ]
        with BatchEngine(problems=PROBLEMS) as engine:
            report = engine.submit(
                [BatchJob("blackscholes", "v100_small", pt) for pt in pts],
                config=SweepConfig(sanitize=True),
            ).report()
        assert report.reused > 0
        assert all("approxsan" in r.extra for r in report.records if r.feasible)
        assert [dumps_record(r) for r in report.records] == [
            dumps_record(r) for r in reference
        ]
