"""Persistent-engine and streaming-consumption tests.

The acceptance bar from the issue: one engine session running several
consecutive batches spawns exactly one process pool (counter-asserted),
streaming yields records before the batch completes while the final
record set is byte-identical to the blocking path, a crashed worker's
pool is respawned transparently, and single-job streams consumed in
submission order (the evolutionary search's pattern) return records in
that order at any worker count.
"""

import os
import signal
from collections import deque

import pytest

from repro.harness import batch
from repro.harness.batch import BatchEngine, BatchJob, run_sweep_parallel
from repro.harness.config import SweepConfig
from repro.harness.database import dumps_record
from repro.harness.runner import ExperimentRunner
from repro.harness.sweep import SweepPoint

PROBLEMS = {
    "blackscholes": {"num_options": 2048, "num_runs": 4},
    "kmeans": {"num_obs": 2048, "max_iters": 8},
}


def _taf(h, p, t, ipt=2):
    return SweepPoint("taf", {"hsize": h, "psize": p, "threshold": t}, "thread", ipt)


def _jobs(n=6):
    pts = [
        _taf(h, p, t)
        for h in (1, 2)
        for p in (4, 8, 16)
        for t in (0.3, 0.9, 3.0)
    ]
    return [BatchJob("blackscholes", "v100_small", pt) for pt in pts[:n]]


@pytest.fixture(scope="module")
def blocking_dicts():
    with BatchEngine(problems=PROBLEMS, config=SweepConfig(workers=2)) as eng:
        return [r.to_dict() for r in eng.submit(_jobs()).records()]


class TestStreaming:
    def test_streamed_records_identical_to_blocking(self, blocking_dicts):
        with BatchEngine(
            problems=PROBLEMS, config=SweepConfig(workers=2)
        ) as eng:
            streamed = [r.to_dict() for r in eng.submit(_jobs())]
            # records() (what a blocking caller drains) is job-ordered and must be
            # byte-identical to the blocking path; direct iteration yields
            # the same set in readiness order.
            ordered = [r.to_dict() for r in eng.submit(_jobs()).records()]
        assert ordered == blocking_dicts
        key = lambda d: sorted(d["params"].items())  # noqa: E731
        assert sorted(streamed, key=key) == sorted(blocking_dicts, key=key)

    def test_stream_yields_before_batch_completes(
        self, blocking_dicts, monkeypatch
    ):
        # One-job chunks so each record lands individually: after the first
        # yield, later slots must still be pending (the consumer overlaps
        # the pool), yet the drained set matches the blocking one.  Yield
        # order is readiness order — chunks complete out of job order —
        # so the comparison is order-insensitive.
        monkeypatch.setattr(
            batch.AdaptiveChunker, "next_size", lambda self, group=None: 1
        )
        with BatchEngine(
            problems=PROBLEMS, config=SweepConfig(workers=2)
        ) as eng:
            stream = eng.submit(_jobs())
            first = next(stream)
            assert stream.pending > 0
            rest = list(stream)
        streamed = [r.to_dict() for r in [first] + rest]
        key = lambda d: sorted(d["params"].items())  # noqa: E731
        assert sorted(streamed, key=key) == sorted(blocking_dicts, key=key)
        assert stream.pending == 0

    def test_serial_stream_identical(self, blocking_dicts):
        with BatchEngine(
            problems=PROBLEMS, config=SweepConfig(workers=1)
        ) as eng:
            streamed = [r.to_dict() for r in eng.submit(_jobs())]
        assert streamed == blocking_dicts

    def test_stream_serves_cache_hits_immediately(self):
        with BatchEngine(
            problems=PROBLEMS, config=SweepConfig(workers=2)
        ) as eng:
            eng.submit(_jobs(2)).records()
            stream = eng.submit(_jobs(2) + _jobs(4))
            # Both cached slots yield without touching the pool again.
            assert next(stream) is not None
            assert next(stream) is not None
            assert eng.stats.cache_hits >= 2
            list(stream)


class TestPersistentPool:
    def test_one_pool_across_three_batches(self):
        with BatchEngine(
            problems=PROBLEMS, config=SweepConfig(workers=2)
        ) as eng:
            eng.submit(_jobs(2)).records()
            eng.submit(_jobs(4)[2:]).records()
            eng.submit(
                [BatchJob("kmeans", "v100_small", _taf(1, 7, 0.9, ipt=8))]
            ).records()
            assert eng.stats.executed == 5
            assert eng.stats.pool_spawns == 1
            assert eng.stats.pool_respawns == 0

    def test_pruned_pool_sweep_on_serial_engine_spawns_one_pool(
        self, monkeypatch
    ):
        # A pool sweep on an engine built for in-process work runs on the
        # engine's one pool, which its stats count.
        pts = [
            SweepPoint("iact", {"tsize": ts, "threshold": t}, "thread", 8)
            for ts in (2, 4)
            for t in (0.5, 1.0, 2.0, 5.0, 10.0, 50.0)
        ]
        cfg = SweepConfig(workers=2, prune=10.0)
        serial = run_sweep_parallel(
            "kmeans", "v100_small", pts, problems=PROBLEMS,
            config=cfg.replace(workers=1),
        )
        spawned = []

        class CountingExecutor(batch.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                spawned.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(batch, "ProcessPoolExecutor", CountingExecutor)
        with BatchEngine(problems=PROBLEMS) as eng:
            pooled = run_sweep_parallel(
                "kmeans", "v100_small", pts, config=cfg, engine=eng
            )
            assert pooled.extra["lattice_pruned"] == serial.extra["lattice_pruned"]
            assert len(spawned) == 1
            assert eng.stats.pool_spawns == 1
        assert [dumps_record(r) for r in pooled.records] == [
            dumps_record(r) for r in serial.records
        ]

    def test_crashed_worker_pool_respawned(self, blocking_dicts):
        with BatchEngine(
            problems=PROBLEMS, config=SweepConfig(workers=2)
        ) as eng:
            eng.submit(_jobs(1)).records()  # spawn the pool
            for pid in list(eng.pool._executor._processes):
                os.kill(pid, signal.SIGKILL)
            records = eng.submit(_jobs()).records()
            assert eng.stats.pool_respawns >= 1
            assert all(r.feasible for r in records)
            assert [r.to_dict() for r in records] == blocking_dicts

    def test_shared_crashed_pool_respawned_once(
        self, blocking_dicts, monkeypatch
    ):
        # Both streams dispatch onto the dead pool when built; whichever
        # notices first respawns it, the other re-runs its chunks on the
        # replacement instead of respawning again.
        monkeypatch.setattr(
            batch.AdaptiveChunker, "next_size", lambda self, group=None: 1
        )
        jobs = _jobs()
        with BatchEngine(
            problems=PROBLEMS, config=SweepConfig(workers=2)
        ) as eng:
            eng.submit(jobs[:1]).records()  # spawn the pool
            for pid in list(eng.pool._executor._processes):
                os.kill(pid, signal.SIGKILL)
            first, second = eng.submit(jobs[:3]), eng.submit(jobs[3:])
            records = first.records() + second.records()
            assert eng.stats.pool_respawns == 1
        assert [r.to_dict() for r in records] == blocking_dicts


def _consume_in_order(eng, jobs, feed_one_at_a_time=False):
    """The evolutionary search's access pattern: one single-job ``submit``
    stream per proposal, consumed strictly in submission order."""
    in_flight = deque()
    queue = deque(jobs)
    for _ in range(1 if feed_one_at_a_time else len(queue)):
        job = queue.popleft()
        in_flight.append((job, eng.submit([job])))
    out = []
    while in_flight:
        job, stream = in_flight.popleft()
        out.append((job, stream.records()[0]))
        if queue:
            nxt = queue.popleft()
            in_flight.append((nxt, eng.submit([nxt])))
    return out


class TestInOrderStreams:
    def test_records_come_back_in_submission_order(self):
        jobs = _jobs(4)
        with BatchEngine(
            problems=PROBLEMS, config=SweepConfig(workers=2)
        ) as eng:
            out = _consume_in_order(eng, jobs)
            assert eng.stats.pool_spawns == 1
        assert [job for job, _ in out] == jobs
        assert [rec.params for _, rec in out] == [j.point.params for j in jobs]

    def test_serial_and_parallel_consumption_identical(self):
        def drive(workers):
            with BatchEngine(
                problems=PROBLEMS, config=SweepConfig(workers=workers)
            ) as eng:
                return [r.to_dict() for _, r in _consume_in_order(eng, _jobs(4))]

        assert drive(1) == drive(2)

    def test_incremental_submit_between_consumes(self):
        # A consumer that decides its next submission from the last
        # result (the steady-state search's access pattern).
        jobs = _jobs(4)
        with BatchEngine(
            problems=PROBLEMS, config=SweepConfig(workers=2)
        ) as eng:
            seen = _consume_in_order(eng, jobs, feed_one_at_a_time=True)
        assert [job for job, _ in seen] == jobs
        serial = ExperimentRunner(problems=PROBLEMS)
        assert [rec.to_dict() for _, rec in seen] == [
            serial.run_point(j.app, j.device, j.point).to_dict() for j in jobs
        ]
