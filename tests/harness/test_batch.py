"""Batch-evaluation engine tests.

The acceptance bar from the issue: heterogeneous batches match the serial
path record-for-record, each unique (app, device) baseline is computed
exactly once per batch (counter-asserted, not assumed), duplicate jobs
collapse to one evaluation, and every figure entry point produces
identical results through the engine.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.harness import batch
from repro.harness import figures as F
from repro.harness.config import SweepConfig
from repro.harness.batch import AdaptiveChunker, BatchEngine, BatchJob
from repro.harness.database import ResultsDB, dumps_record
from repro.harness.runner import ExperimentRunner
from repro.harness.search import evolutionary_search
from repro.harness.sweep import SweepPoint

PROBLEMS = {
    "blackscholes": {"num_options": 2048, "num_runs": 4},
    "kmeans": {"num_obs": 2048, "max_iters": 8},
}


def _taf(h, p, t, ipt=2):
    return SweepPoint("taf", {"hsize": h, "psize": p, "threshold": t}, "thread", ipt)


def _jobs():
    """Heterogeneous batch: two apps × two devices, interleaved."""
    jobs = []
    for dev in ("v100_small", "amd_small"):
        jobs.append(BatchJob("blackscholes", dev, _taf(1, 4, 0.3)))
        jobs.append(BatchJob("kmeans", dev, _taf(1, 7, 0.9, ipt=8)))
        jobs.append(BatchJob("blackscholes", dev, _taf(2, 8, 0.3)))
    return jobs


def _report(jobs, **cfg):
    """Drain one ``submit`` on a fresh engine into its report."""
    with BatchEngine(problems=PROBLEMS, config=SweepConfig(**cfg)) as engine:
        return engine.submit(jobs).report()


@pytest.fixture(scope="module")
def serial_records():
    runner = ExperimentRunner(problems=PROBLEMS)
    return [
        runner.run_point(j.app, j.device, j.point, site=j.site) for j in _jobs()
    ]


class TestHeterogeneousBatch:
    def test_parallel_matches_serial(self, serial_records):
        report = _report(_jobs(), workers=2)
        assert [r.to_dict() for r in report.records] == [
            r.to_dict() for r in serial_records
        ]
        assert report.evaluated == len(serial_records)

    def test_in_process_path_matches_serial(self, serial_records):
        report = _report(_jobs(), workers=1)
        assert [r.to_dict() for r in report.records] == [
            r.to_dict() for r in serial_records
        ]

    def test_baselines_resolved_once_in_parent(self):
        report = _report(_jobs(), workers=2)
        # 2 apps × 2 devices among the pending jobs — exactly once each.
        assert report.baseline_runs == 4
        assert report.worker_baseline_runs == 0

    def test_duplicate_jobs_collapse(self, serial_records):
        jobs = _jobs()
        report = _report(jobs + jobs, workers=2)
        assert report.deduped == len(jobs)
        assert report.evaluated == len(jobs)
        assert [r.to_dict() for r in report.records] == [
            r.to_dict() for r in serial_records + serial_records
        ]

    def test_heterogeneous_checkpoint_resume(self, tmp_path, serial_records):
        ck = tmp_path / "batch.jsonl"
        jobs = _jobs()
        first = _report(jobs[:3], workers=2, checkpoint=ck)
        assert first.evaluated == 3
        rest = _report(jobs, workers=2, checkpoint=ck)
        assert rest.skipped == 3
        assert rest.evaluated == len(jobs) - 3
        assert [r.to_dict() for r in rest.records] == [
            r.to_dict() for r in serial_records
        ]
        # Baselines are only resolved for still-pending pairs.
        again = _report(jobs, workers=2, checkpoint=ck)
        assert again.evaluated == 0 and again.baseline_runs == 0

    def test_empty_batch(self):
        report = _report([], workers=2)
        assert report.records == [] and report.evaluated == 0


class TestAdaptiveChunker:
    def test_unobserved_group_gets_initial(self):
        c = AdaptiveChunker(initial=2)
        assert c.next_size(("app", "dev")) == 2

    def test_fast_group_grows_toward_target(self):
        c = AdaptiveChunker(target_seconds=1.0, max_size=64)
        c.observe("g", points=20, seconds=0.5)  # 40 pts/s
        assert c.next_size("g") == 40

    def test_slow_group_floors_at_min(self):
        c = AdaptiveChunker(target_seconds=0.5)
        c.observe("g", points=1, seconds=10.0)
        assert c.next_size("g") == 1

    def test_clamped_to_max(self):
        c = AdaptiveChunker(target_seconds=1.0, max_size=64)
        c.observe("g", points=10_000, seconds=0.1)
        assert c.next_size("g") == 64

    def test_rates_smoothed_per_group(self):
        c = AdaptiveChunker(target_seconds=1.0, max_size=64, smoothing=0.5)
        c.observe("a", points=10, seconds=1.0)  # 10 pts/s
        c.observe("a", points=30, seconds=1.0)  # EMA: 20 pts/s
        assert c.next_size("a") == 20
        assert c.next_size("b") == c.initial  # groups independent

    def test_zero_points_ignored(self):
        c = AdaptiveChunker()
        c.observe("g", points=0, seconds=1.0)
        assert c.next_size("g") == c.initial


class TestChunkCap:
    """With a pool, an adaptive chunk never exceeds an even share of the
    points not yet dispatched, so one short stream is split across every
    worker."""

    SMALL = {"blackscholes": {"num_options": 512, "num_runs": 1}}

    @staticmethod
    def _group_jobs():
        from repro.harness.sweep import table2_space

        pts = table2_space("taf", "v100_small")[:50]
        return [BatchJob("blackscholes", "v100_small", pt) for pt in pts]

    def _stream(self, **cfg):
        with BatchEngine(problems=self.SMALL, config=SweepConfig(**cfg)) as eng:
            stream = eng.submit(self._group_jobs())
            return eng, stream, [dumps_record(r) for r in stream.records()]

    def test_adaptive_chunks_capped_and_records_identical(self, monkeypatch):
        # A long target makes the controller want the whole group at once
        # after its first observation: only the cap splits it.
        monkeypatch.setattr(batch, "TARGET_CHUNK_SECONDS", 60.0)
        chunks = []
        dispatch = batch.BatchStream._dispatch

        def recording(stream, group, keys, jobs):
            chunks.append(list(jobs))
            return dispatch(stream, group, keys, jobs)

        monkeypatch.setattr(batch.BatchStream, "_dispatch", recording)
        eng, pooled, pooled_recs = self._stream(workers=2)
        _eng, serial, serial_recs = self._stream(workers=1)
        assert pooled_recs == serial_recs
        log = pooled.dispatch_log
        # Points served by threshold reuse are never dispatched, and a
        # pool serves exactly what in-process does.
        assert pooled.reused == serial.reused > 0
        assert sum(n for n, _left in log) + pooled.reused == 50
        assert all(n <= -(-left // 2) for n, left in log)
        assert max(n for n, _left in log) < 46
        # Sibling rounds: no chunk carries two jobs of one memo chain.
        assert max(len(chunk) for chunk in chunks) > 1
        for chunk in chunks:
            chains = [
                batch.ThresholdMemo.key(j.point, eng._key(j, False)) for j in chunk
            ]
            assert len(set(chains)) == len(chains)
        # In-process there is no IPC to amortize: every dispatch is one job.
        assert serial.dispatch_log
        assert all(n == 1 for n, _left in serial.dispatch_log)


class TestBatchEngine:
    def test_cross_call_cache(self, serial_records):
        engine = BatchEngine(problems=PROBLEMS, config=SweepConfig(workers=1))
        jobs = _jobs()
        first = engine.submit(jobs).records()
        assert engine.stats.executed == len(jobs)
        again = engine.submit(jobs).records()
        assert engine.stats.cache_hits == len(jobs)
        assert engine.stats.executed == len(jobs)  # nothing re-simulated
        assert [r.to_dict() for r in again] == [
            r.to_dict() for r in serial_records
        ]

    def test_error_rows_are_not_reused(self, monkeypatch):
        # A point that exhausted its retries reflects machine state, not
        # the configuration: a later submit on the engine runs it again.
        real = ExperimentRunner.run_point
        calls = []

        def run_point(self, *args, **kwargs):
            calls.append(1)
            if len(calls) <= 2:
                raise OSError("injected failure")
            return real(self, *args, **kwargs)

        monkeypatch.setattr(ExperimentRunner, "run_point", run_point)
        jobs = _jobs()[:1]
        with BatchEngine(problems=PROBLEMS, config=SweepConfig(retries=1)) as engine:
            first = engine.submit(jobs).records()
            assert first[0].note.startswith("WorkerError")
            again = engine.submit(jobs).records()
            assert engine.stats.cache_hits == 0
        assert again[0].feasible and len(calls) == 3

    def test_checkpoint_error_rows_run_again(self, tmp_path, monkeypatch):
        # A resumed checkpoint serves finished rows only: a point lost to
        # a worker fault re-runs, and its record is appended.
        ck = str(tmp_path / "ck.jsonl")
        jobs = [BatchJob("blackscholes", "v100_small", _taf(h, 4, 0.3))
                for h in (1, 2)]
        real = ExperimentRunner.run_point

        def crash(self, *args, **kwargs):
            raise OSError("injected failure")

        monkeypatch.setattr(ExperimentRunner, "run_point", crash)
        cfg = SweepConfig(retries=0, checkpoint=ck)
        with BatchEngine(problems=PROBLEMS) as engine:
            first = engine.submit(jobs, cfg).report()
        assert [r.note[:11] for r in first.records] == ["WorkerError"] * 2
        monkeypatch.setattr(ExperimentRunner, "run_point", real)
        with BatchEngine(problems=PROBLEMS) as engine:
            again = engine.submit(jobs, cfg).report()
        assert again.evaluated == 2 and again.skipped == 0
        assert all(r.feasible for r in again.records)
        assert len(ResultsDB.load(ck)) == 4

    def test_checkpoint_holds_cache_served_slots(self, tmp_path):
        # Slots the engine cache serves are written to the call's
        # checkpoint too, so a new engine resumes the whole call from it.
        ck = str(tmp_path / "ck.jsonl")
        jobs = _jobs()
        with BatchEngine(problems=PROBLEMS) as engine:
            engine.submit(jobs[:2]).records()
            first = engine.submit(jobs, SweepConfig(checkpoint=ck)).records()
        with BatchEngine(problems=PROBLEMS) as fresh:
            report = fresh.submit(jobs, SweepConfig(checkpoint=ck)).report()
        assert report.evaluated == 0 and report.skipped == len(jobs)
        assert [dumps_record(r) for r in report.records] == [
            dumps_record(r) for r in first
        ]

    def test_session_wide_baselines_exactly_once(self):
        engine = BatchEngine(problems=PROBLEMS, config=SweepConfig(workers=1))
        engine.submit(_jobs()[:3]).records()  # first call touches 3 of the 4 pairs
        engine.submit(_jobs()).records()  # second call reuses them
        assert engine.stats.baseline_runs == 4

    def test_sanitize_is_part_of_job_identity(self):
        # A sanitized submit after a plain one on the same engine must run
        # under ApproxSan, not be served the plain record from the cache.
        jobs = [BatchJob("blackscholes", "v100_small", _taf(1, 4, 0.3))]
        runner = ExperimentRunner(problems=PROBLEMS)
        direct = runner.run_point(
            "blackscholes", "v100_small", jobs[0].point, sanitize=True
        )
        with BatchEngine(problems=PROBLEMS) as engine:
            plain = engine.submit(jobs).records()[0]
            sanitized = engine.submit(
                jobs, config=SweepConfig(sanitize=True)
            ).records()[0]
            again = engine.submit(jobs).records()[0]
            assert engine.stats.executed == 2
            assert engine.stats.cache_hits == 1
        assert "approxsan" not in plain.extra
        assert "approxsan" in sanitized.extra
        assert dumps_record(sanitized) == dumps_record(direct)
        assert again is plain

    def test_site_is_part_of_job_identity(self):
        # One perforation point on the default and two named sites: three
        # distinct records.
        problems = {"lulesh": {"mesh": 6, "time_steps": 4}}
        pt = SweepPoint("perfo", {"kind": "small", "skip": 2, "herded": False})
        sites = (None, "hourglass_control", "fb_hourglass")
        runner = ExperimentRunner(problems=problems)
        direct = [
            dumps_record(runner.run_point("lulesh", "v100_small", pt, site=s))
            for s in sites
        ]
        assert len(set(direct)) == 3
        # Across calls: the session cache never serves another site's record.
        with BatchEngine(problems=problems) as engine:
            across = [
                dumps_record(engine.submit(
                    [BatchJob("lulesh", "v100_small", pt, site=s)]
                ).records()[0])
                for s in sites
            ]
            assert engine.stats.cache_hits == 0
        assert across == direct
        # Within one call: jobs that differ only in site are not deduped.
        with BatchEngine(problems=problems) as engine:
            stream = engine.submit(
                [BatchJob("lulesh", "v100_small", pt, site=s) for s in sites]
            )
            within = [dumps_record(r) for r in stream.records()]
            assert stream.deduped == 0
        assert within == direct

    def test_parallel_engine_matches_serial(self, serial_records):
        with BatchEngine(
            problems=PROBLEMS, config=SweepConfig(workers=2)
        ) as engine:
            records = engine.submit(_jobs()).records()
        assert [r.to_dict() for r in records] == [
            r.to_dict() for r in serial_records
        ]
        assert engine.stats.worker_baseline_runs == 0


# ---------------------------------------------------------------------------
# Figure entry points: identical results through the engine.
# ---------------------------------------------------------------------------
SMALL_PROBLEMS = {
    "blackscholes": {"num_options": 2048, "num_runs": 4},
    "binomial": {"num_options": 512, "steps": 16},
    "kmeans": {"num_obs": 2048, "max_iters": 8},
    "lavamd": {"boxes_per_dim": 2, "particles_per_box": 16},
    "leukocyte": {"num_cells": 2, "window": 16, "iterations": 10},
    "lulesh": {"mesh": 8, "time_steps": 10},
    "minife": {"nx": 6, "ny": 6, "nz": 6, "cg_iters": 20},
}


class _RunPointEngine:
    """The figures' reference: a plain ``run_point`` loop on ``runner``.

    Figures touch only ``engine.runner`` and ``engine.submit(jobs).records()``,
    so this stub evaluates every job with one direct simulation — no dedupe,
    no session cache, no sibling reuse."""

    def __init__(self, runner):
        self.runner = runner

    def submit(self, jobs):
        records = [
            self.runner.run_point(j.app, j.device, j.point, site=j.site)
            for j in jobs
        ]
        return SimpleNamespace(records=lambda: records)


@pytest.fixture(scope="module")
def fig_reference():
    return _RunPointEngine(ExperimentRunner(problems=SMALL_PROBLEMS))


@pytest.fixture(scope="module")
def fig_engine():
    return BatchEngine(problems=SMALL_PROBLEMS, config=SweepConfig(workers=1))


def _scatter_dicts(scatter):
    return {
        key: [r.to_dict() for r in recs] for key, recs in scatter.records.items()
    }


class TestFigureEquivalence:
    def test_fig6(self, fig_reference, fig_engine):
        serial = F.fig6_best_speedup(engine=fig_reference)
        batched = F.fig6_best_speedup(engine=fig_engine)
        assert serial.geomean == batched.geomean
        assert set(serial.best) == set(batched.best)
        for key, rec in serial.best.items():
            other = batched.best[key]
            if rec is None:
                assert other is None
            else:
                assert rec.to_dict() == other.to_dict()

    def test_fig7_dedupes_against_fig6(self, fig_reference, fig_engine):
        # Fig 7 re-sweeps the LULESH grid Fig 6 already evaluated: through
        # the shared engine it costs zero new simulations.  (Free if
        # test_fig6 already populated the cache; self-contained otherwise.)
        F.fig6_best_speedup(engine=fig_engine)
        executed_before = fig_engine.stats.executed
        serial = F.fig7_lulesh(engine=fig_reference)
        batched = F.fig7_lulesh(engine=fig_engine)
        assert _scatter_dicts(serial) == _scatter_dicts(batched)
        assert fig_engine.stats.executed == executed_before
        assert fig_engine.stats.cache_hits > 0

    def test_fig8(self, fig_reference, fig_engine):
        serial = F.fig8_binomial(engine=fig_reference)
        batched = F.fig8_binomial(engine=fig_engine)
        assert _scatter_dicts(serial.scatter) == _scatter_dicts(batched.scatter)
        assert serial.items_sweep == batched.items_sweep

    def test_fig9(self, fig_reference, fig_engine):
        serial = F.fig9_leukocyte_minife(engine=fig_reference)
        batched = F.fig9_leukocyte_minife(engine=fig_engine)
        assert _scatter_dicts(serial.leukocyte) == _scatter_dicts(batched.leukocyte)
        assert [r.to_dict() for r in serial.minife_records] == [
            r.to_dict() for r in batched.minife_records
        ]

    def test_fig10(self, fig_reference, fig_engine):
        serial = F.fig10_blackscholes(engine=fig_reference)
        batched = F.fig10_blackscholes(engine=fig_engine)
        assert _scatter_dicts(serial.scatter) == _scatter_dicts(batched.scatter)
        assert set(serial.threshold_study) == set(batched.threshold_study)
        for T, row in serial.threshold_study.items():
            other = batched.threshold_study[T]
            assert row["error"] == other["error"]
            assert row["approx_fraction"] == other["approx_fraction"]
            assert np.array_equal(row["price_quantiles"], other["price_quantiles"])

    def test_fig11(self, fig_reference, fig_engine):
        serial = F.fig11_lavamd(engine=fig_reference)
        batched = F.fig11_lavamd(engine=fig_engine)
        assert _scatter_dicts(serial.scatter) == _scatter_dicts(batched.scatter)
        assert serial.hierarchy_pairs == batched.hierarchy_pairs

    def test_fig12(self, fig_reference, fig_engine):
        serial = F.fig12_kmeans(engine=fig_reference)
        batched = F.fig12_kmeans(engine=fig_engine)
        assert _scatter_dicts(serial.scatter) == _scatter_dicts(batched.scatter)
        assert serial.correlation_points == batched.correlation_points
        assert serial.r2 == batched.r2 or (
            np.isnan(serial.r2) and np.isnan(batched.r2)
        )

    def test_fig7_parallel_matches_serial(self, fig_reference):
        serial = F.fig7_lulesh(engine=fig_reference)
        with BatchEngine(
            problems=SMALL_PROBLEMS, config=SweepConfig(workers=2)
        ) as engine:
            par = F.fig7_lulesh(engine=engine)
        assert _scatter_dicts(serial) == _scatter_dicts(par)


class TestEvolutionaryBatch:
    def _space(self):
        return [
            _taf(h, p, t, ipt)
            for h in (1, 2)
            for p in (4, 16, 64)
            for t in (0.3, 3.0)
            for ipt in (1, 2, 8)
        ]

    def test_parallel_matches_serial(self):
        kwargs = dict(budget=10, seed=5, space=self._space())
        with BatchEngine(problems=PROBLEMS) as engine:
            serial = evolutionary_search(
                engine, "blackscholes", "v100_small", "taf", **kwargs,
            )
        with BatchEngine(problems=PROBLEMS) as engine:
            par = evolutionary_search(
                engine, "blackscholes", "v100_small", "taf",
                config=SweepConfig(workers=2), **kwargs,
            )
        assert [r.to_dict() for r in par.db] == [r.to_dict() for r in serial.db]
        assert par.best.to_dict() == serial.best.to_dict()

    def test_shared_engine_reuses_search_points(self):
        engine = BatchEngine(problems=PROBLEMS, config=SweepConfig(workers=1))
        first = evolutionary_search(
            engine, "blackscholes", "v100_small", "taf",
            budget=8, seed=5, space=self._space(),
        )
        executed = engine.stats.executed
        assert executed == first.evaluations
        # Same seed, same space: the second search's proposals are the same
        # points, and every one is served from the engine cache.
        evolutionary_search(
            engine, "blackscholes", "v100_small", "taf",
            budget=8, seed=5, space=self._space(),
        )
        assert engine.stats.executed == executed
        assert engine.stats.cache_hits >= first.evaluations
