"""Sibling rounds: a pool runs at most one job per memo chain at a time.

A :class:`~repro.harness.batch.ThresholdMemo` chain serves a sibling only
after the simulated job's window is stored.  On a pool, a job whose chain
already has a job in flight is held until that job completes, then
memo-checked like any other; so a pool stream serves exactly what an
in-process stream serves, and its records stay byte-identical.  These
tests hold the counts and records equal, and the crash and ``close()``
paths to yielding or dropping every held job; ``test_batch.py``'s chunk-cap
test holds every pool chunk to one job per chain.
"""

import os

from repro.apps import get_benchmark
from repro.harness import batch
from repro.harness.batch import BatchEngine, BatchJob, run_sweep_parallel
from repro.harness.config import SweepConfig
from repro.harness.database import dumps_record
from repro.harness.pruning import SweepLattice
from repro.harness.runner import ExperimentRunner
from repro.harness.sweep import SweepPoint, table2_space

SMALL = {"blackscholes": {"num_options": 512, "num_runs": 1}}
TABLE2 = {"blackscholes": {"num_options": 1024, "num_runs": 2}}


def _chain_jobs():
    """Blackscholes TAF jobs: two chains of three thresholds."""
    return [
        BatchJob(
            "blackscholes", "v100_small",
            SweepPoint("taf", {"hsize": 1, "psize": p, "threshold": t}, "thread", 2),
        )
        for p in (4, 8)
        for t in (0.3, 0.9, 3.0)
    ]


def _crash_chunk(*_args):
    """A chunk that kills the pool worker running it."""
    os._exit(1)


def _chunks_seen(monkeypatch):
    """Record the jobs of every chunk a pool stream dispatches."""
    seen = []
    dispatch = batch.BatchStream._dispatch

    def recording(self, group, keys, jobs):
        seen.append(list(jobs))
        return dispatch(self, group, keys, jobs)

    monkeypatch.setattr(batch.BatchStream, "_dispatch", recording)
    return seen


def _heights(points):
    """Each point's lattice height: one above its highest ancestor."""
    lattice = SweepLattice(points)
    heights = {}

    def height(pt):
        if pt.label() not in heights:
            heights[pt.label()] = 1 + max(
                (height(a) for a in lattice.ancestors(pt)), default=-1
            )
        return heights[pt.label()]

    return {pt.label(): height(pt) for pt in points}


class TestPoolMatchesInProcess:
    def test_pruned_table2_sweep_counts_and_records(self, monkeypatch):
        bench = get_benchmark("blackscholes")
        points = table2_space(
            "taf", "v100_small", threshold_scale=bench.taf_threshold_scale
        ) + table2_space(
            "iact", "v100_small", threshold_scale=bench.iact_threshold_scale
        )

        def sweep(workers):
            cfg = SweepConfig(workers=workers, prune=0.10, preflight=True)
            with BatchEngine(problems=TABLE2, config=cfg) as engine:
                report = run_sweep_parallel(
                    "blackscholes", "v100_small", points, engine=engine
                )
                return report, engine.stats.reused

        simulated = []
        with monkeypatch.context() as m:
            run_point = ExperimentRunner.run_point

            def recording(runner, app, device, point, **kwargs):
                simulated.append(point.label())
                return run_point(runner, app, device, point, **kwargs)

            m.setattr(ExperimentRunner, "run_point", recording)
            serial, serial_reused = sweep(1)
        pooled, pooled_reused = sweep(2)
        # In-process, points simulate in (lattice height, grid position)
        # order: every ancestor is decided before its descendants.
        heights = _heights(points)
        rank = {pt.label(): (heights[pt.label()], i) for i, pt in enumerate(points)}
        assert len({heights[label] for label in simulated}) > 1
        assert [rank[label] for label in simulated] == sorted(
            rank[label] for label in simulated
        )
        assert serial.reused > 0
        assert (pooled.evaluated, pooled.reused) == (serial.evaluated, serial.reused)
        assert pooled_reused == serial_reused
        assert [dumps_record(r) for r in pooled.records] == [
            dumps_record(r) for r in serial.records
        ]


class TestHeldSiblings:
    def test_first_chunks_hold_the_rest_of_each_chain(self, monkeypatch):
        seen = _chunks_seen(monkeypatch)
        jobs = _chain_jobs()
        with BatchEngine(problems=SMALL, config=SweepConfig(workers=2)) as eng:
            stream = eng.submit(jobs)
            # Two chains of three: the first chunk takes one job of each.
            assert [len(chunk) for chunk in seen] == [2]
            assert sorted(len(held) for held in stream._held.values()) == [2, 2]
            records = stream.records()
        assert [r.params for r in records] == [j.point.params for j in jobs]
        assert not stream._held

    def test_crash_past_respawn_budget_yields_every_slot(self, monkeypatch):
        monkeypatch.setattr(batch, "MAX_POOL_RESPAWNS", 0)
        monkeypatch.setattr(batch, "_run_chunk", _crash_chunk)
        jobs = _chain_jobs()
        with BatchEngine(problems=SMALL, config=SweepConfig(workers=2)) as eng:
            stream = eng.submit(jobs)
            assert stream._held
            records = stream.records()
        # The abandoned chunk released its chains; their held jobs were
        # dispatched in turn, and abandoned too.
        assert stream.pending == 0 and not stream._held
        assert [r.params for r in records] == [j.point.params for j in jobs]
        assert all(r.note.startswith("WorkerCrash") for r in records)

    def test_close_dispatches_nothing_more(self, monkeypatch):
        # One-job chunks: the first chain's first job, then (holding the
        # rest of that chain) the second chain's first job.
        monkeypatch.setattr(
            batch.AdaptiveChunker, "next_size", lambda self, group=None: 1
        )
        seen = _chunks_seen(monkeypatch)
        jobs = _chain_jobs()
        with BatchEngine(problems=SMALL, config=SweepConfig(workers=2)) as eng:
            stream = eng.submit(jobs)
            assert [len(chunk) for chunk in seen] == [1, 1]
            assert stream._held
            stream.close()
            # Both in-flight chunks completed; the first one to do so
            # released no held sibling onto the pool.
            assert len(seen) == 2 and eng.stats.executed == 2
            assert len(list(stream)) == 2
        assert stream.pending == len(jobs) - 2
