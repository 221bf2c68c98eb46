"""Exact launch-geometry reuse.

Items per thread reaches a run only through
:meth:`~repro.openmp.OffloadProgram.teams_for`, so every run records the
``(n, divisor, teams)`` of those calls in its
:class:`~repro.approx.base.ThresholdWindow`.  Any items per thread that
resolves every call to the same team count launches the same grids and
replays the run; the batch engine serves such points, perforation
included (:class:`~repro.harness.batch.ThresholdMemo`).  These tests hold
the served records to byte equality with direct simulation.
"""

import pytest

from repro.harness.batch import (
    BatchEngine,
    BatchJob,
    ThresholdMemo,
    run_sweep_parallel,
)
from repro.harness.config import SweepConfig
from repro.harness.database import RecordKey, dumps_record
from repro.harness.runner import ExperimentRunner
from repro.harness.sweep import MEMO_ITEMS_PER_THREAD, SweepPoint

PROBLEMS = {
    "lulesh": {"mesh": 6, "time_steps": 4},
    "kmeans": {"num_obs": 1024, "max_iters": 3},
    "blackscholes": {"num_options": 1024, "num_runs": 1},
    "binomial": {"num_options": 64, "steps": 16},
    "lavamd": {"boxes_per_dim": 2, "particles_per_box": 16, "time_steps": 3},
    "leukocyte": {"num_cells": 2, "window": 16, "iterations": 6},
}
DEVICES = ("v100_small", "amd_small")
#: technique -> params of the simulated point.
PARAMS = {
    "taf": {"hsize": 2, "psize": 4, "threshold": 0.5},
    "iact": {"tsize": 4, "tperwarp": 4, "threshold": 0.3},
    "perfo": {"kind": "small", "skip": 4, "herded": False},
}
#: app -> (simulated items per thread, hierarchy level).  kmeans at 16
#: launches one team, like every larger Table-2 value, while 8 launches two.
BASE = {
    "lulesh": (8, "thread"),
    "kmeans": (16, "thread"),
    "blackscholes": (8, "thread"),
    "binomial": (64, "team"),  # per-team teams_for: ceil(64 / ipt)
    "lavamd": (8, "thread"),  # per-team teams_for: ceil(8 boxes / ipt)
    "leukocyte": (8, "thread"),  # one team per cell: never calls teams_for
}
#: Table 2's items per thread, plus small values that launch more teams.
CANDIDATES = sorted(set(MEMO_ITEMS_PER_THREAD) | {1, 2})

GEOMETRY_CASES = [
    (app, tech, device)
    for app in ("lulesh", "kmeans", "blackscholes")
    for tech in ("taf", "iact", "perfo")
    for device in DEVICES
    if tech != "perfo" or app == "lulesh"  # the only one with perforable sites
] + [(app, "taf", "v100_small") for app in ("binomial", "lavamd", "leukocyte")]


def _record_key(job):
    """A :class:`RecordKey` of ``job`` at the default seed and problems."""
    return RecordKey(
        job.app, job.device, job.point.label(), job.site, False, 2023, "{}"
    )


def _point(app, tech, ipt):
    return SweepPoint(tech, dict(PARAMS[tech]), BASE[app][1], ipt)


@pytest.fixture(scope="module")
def direct():
    return ExperimentRunner(problems=PROBLEMS)


class TestGeometryExactness:
    @pytest.mark.parametrize("app,tech,device", GEOMETRY_CASES)
    def test_admitted_items_per_thread_match_direct_simulation(
        self, app, tech, device, direct
    ):
        base_ipt = BASE[app][0]
        engine = BatchEngine(problems=PROBLEMS)
        job = BatchJob(app, device, _point(app, tech, base_ipt))
        stream = engine.submit([job])
        (base,) = stream.records()
        assert base.feasible and not base.note and stream.reused == 0
        window = engine.runner.last_window
        key = ThresholdMemo.key(job.point, engine._key(job, False))

        admitted = [ipt for ipt in CANDIDATES if window.admits_items(ipt)]
        table2 = [ipt for ipt in admitted if ipt in MEMO_ITEMS_PER_THREAD]
        assert base_ipt in admitted and len(table2) > 1
        rejected = [ipt for ipt in CANDIDATES if ipt not in admitted]
        assert (rejected == []) == (app == "leukocyte")

        for ipt in admitted:
            if ipt == base_ipt:
                continue
            pt = _point(app, tech, ipt)
            stream = engine.submit([BatchJob(app, device, pt)])
            (record,) = stream.records()
            assert stream.reused == 1, ipt
            assert record.items_per_thread == ipt and record.params == pt.params
            assert dumps_record(record) == dumps_record(
                direct.run_point(app, device, pt)
            ), ipt

        # A value that changes a team count is never served: it launches
        # different grids.
        for ipt in rejected:
            pt = _point(app, tech, ipt)
            assert engine.threshold_memo.get(key, pt) is None, ipt
            assert (
                direct.run_point(app, device, pt).extra["num_teams"]
                != base.extra["num_teams"]
            ), ipt

    @pytest.mark.parametrize("bad", [0, -4, "eight", None])
    def test_invalid_items_per_thread_never_served(self, bad):
        memo = ThresholdMemo()
        job = BatchJob("leukocyte", "v100_small", _point("leukocyte", "taf", 8))
        runner = ExperimentRunner(problems=PROBLEMS)
        record = runner.run_point("leukocyte", "v100_small", job.point)
        key = ThresholdMemo.key(job.point, _record_key(job))
        memo.put(key, record, runner.last_window)
        # No teams_for call: every positive value replays the run.
        assert memo.get(key, _point("leukocyte", "taf", 3)) is not None
        assert memo.get(key, _point("leukocyte", "taf", bad)) is None

    def test_one_entry_per_chain_and_launch_grid(self):
        engine = BatchEngine(problems=PROBLEMS)
        # kmeans at 8 launches two teams, at 16 one: two grids, one chain.
        for ipt in (8, 16):
            engine.submit(
                [BatchJob("kmeans", "v100_small", _point("kmeans", "taf", ipt))]
            ).records()
        assert len(engine.threshold_memo) == 2
        # 32 replays the one-team run instead of adding an entry.
        stream = engine.submit(
            [BatchJob("kmeans", "v100_small", _point("kmeans", "taf", 32))]
        )
        (served,) = stream.records()
        assert stream.reused == 1 and len(engine.threshold_memo) == 2
        # A served record owns its top-level containers.
        (stored,) = engine.submit(
            [BatchJob("kmeans", "v100_small", _point("kmeans", "taf", 16))]
        ).records()
        for name in ("params", "region_stats", "extra"):
            assert getattr(served, name) == getattr(stored, name)
            assert getattr(served, name) is not getattr(stored, name)


class TestItemsPerThreadValidation:
    """Per-team apps go through ``teams_for`` and reject what it rejects."""

    @pytest.mark.parametrize("app", ["binomial", "lavamd"])
    @pytest.mark.parametrize("ipt", [0, -4])
    def test_non_positive_items_per_thread_is_infeasible(self, app, ipt):
        runner = ExperimentRunner(problems=PROBLEMS)
        record = runner.run_point(app, "v100_small", _point(app, "taf", ipt))
        assert not record.feasible
        assert record.note.startswith("ConfigurationError:")
        assert "items_per_thread" in record.note


# ----------------------------------------------------------------------
SWEEP_APPS = ("lulesh", "kmeans", "blackscholes")


def _grid(app, items=(8, 64, 512)):
    """Thresholds x levels (plus LULESH perforation skips), with items per
    thread innermost as in :func:`~repro.harness.sweep.table2_space`."""
    base = []
    for t in (0.1, 0.5, 2.0):
        for level in ("thread", "warp"):
            base.append(("taf", {**PARAMS["taf"], "threshold": t}, level))
            base.append(("iact", {**PARAMS["iact"], "threshold": t}, level))
    if app == "lulesh":
        for skip in (2, 4, 8):
            base.append(("perfo", {**PARAMS["perfo"], "skip": skip}, "thread"))
    return [SweepPoint(tech, params, level, ipt)
            for tech, params, level in base for ipt in items]


def _pruned_sweeps(workers, by_items_per_thread):
    """Pruned sweeps of every app on one engine, either over
    :func:`_grid` or split into one sweep per items per thread."""
    grids = [
        (app, pts)
        for app in SWEEP_APPS
        for pts in (
            [_grid(app, (ipt,)) for ipt in (8, 64, 512)]
            if by_items_per_thread
            else [_grid(app)]
        )
    ]
    cfg = SweepConfig(prune=0.10, workers=workers)
    with BatchEngine(problems=PROBLEMS, config=cfg) as engine:
        reports = [
            run_sweep_parallel(app, "v100_small", pts, engine=engine)
            for app, pts in grids
        ]
        return reports, engine.stats.reused


class TestEngineGeometryReuse:
    def test_pool_and_in_process_pruned_sweeps_agree(self):
        # One sweep per items per thread: each lattice wave then holds at
        # most one point of a chain, and the pool, which checks a job when
        # its chunk is cut, sees the same memo as the in-process loop.
        serial, serial_reused = _pruned_sweeps(1, by_items_per_thread=True)
        pooled, pooled_reused = _pruned_sweeps(2, by_items_per_thread=True)
        for a, b in zip(serial, pooled):
            assert [dumps_record(r) for r in a.records] == [
                dumps_record(r) for r in b.records
            ]
            assert a.reused == b.reused
        assert serial_reused == pooled_reused
        # LULESH's 64 and 512 sweeps replay the one-team grids of its 8
        # sweep, perforation included.
        assert serial[1].reused > 0 and serial[2].reused > 0

    def test_pool_records_match_when_siblings_share_a_wave(self):
        # A wave holding several points of a chain: the pool holds each
        # point until its chain's job in flight completes, so it serves
        # exactly what the in-process loop serves.
        serial, serial_reused = _pruned_sweeps(1, by_items_per_thread=False)
        pooled, pooled_reused = _pruned_sweeps(2, by_items_per_thread=False)
        for a, b in zip(serial, pooled):
            assert [dumps_record(r) for r in a.records] == [
                dumps_record(r) for r in b.records
            ]
            assert a.reused == b.reused
        assert pooled_reused == serial_reused > 0

    def test_reuse_is_exact_against_a_plain_loop(self, direct):
        pts = _grid("kmeans")
        reference = [direct.run_point("kmeans", "amd_small", pt) for pt in pts]
        with BatchEngine(problems=PROBLEMS) as engine:
            report = engine.submit(
                [BatchJob("kmeans", "amd_small", pt) for pt in pts]
            ).report()
        assert report.reused > 0
        assert [dumps_record(r) for r in report.records] == [
            dumps_record(r) for r in reference
        ]
