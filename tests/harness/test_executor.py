"""Parallel, checkpointed sweep tests (``run_sweep_parallel``).

The acceptance bar: a thinned TAF sweep through the batch engine with
``workers >= 2`` matches the serial path record-for-record, and
re-running against its checkpoint evaluates zero new points.
"""

import pytest

from repro.harness.batch import (
    BatchEngine,
    BatchReport,
    run_point_with_retry,
    run_sweep_parallel,
)
from repro.harness.config import SweepConfig
from repro.harness.database import (
    CheckpointWriter,
    ResultsDB,
    dumps_record,
    shared_fields,
)
from repro.harness.runner import ExperimentRunner, RunRecord
from repro.harness.sweep import SweepPoint

PROBLEMS = {"blackscholes": {"num_options": 2048, "num_runs": 4}}


def _points():
    """A small thinned TAF slice plus one infeasible iACT corner."""
    pts = [
        SweepPoint("taf", {"hsize": h, "psize": p, "threshold": t}, "thread", 2)
        for h in (1, 2)
        for p in (4, 16)
        for t in (0.3, 3.0)
    ]
    pts.append(
        SweepPoint("iact", {"tsize": 8, "threshold": 0.3, "tperwarp": 32}, "thread", 8)
    )
    return pts


@pytest.fixture(scope="module")
def serial_records():
    """The reference: a plain ``run_point`` loop, one simulation per point."""
    runner = ExperimentRunner(problems=PROBLEMS)
    return [runner.run_point("blackscholes", "v100_small", pt) for pt in _points()]


class TestEquivalence:
    def test_parallel_matches_serial(self, serial_records):
        report = run_sweep_parallel(
            "blackscholes", "v100_small", _points(),
            problems=PROBLEMS, config=SweepConfig(workers=2),
        )
        assert [r.to_dict() for r in report.records] == [
            r.to_dict() for r in serial_records
        ]
        assert report.evaluated == len(serial_records)
        assert report.skipped == 0

    def test_in_process_path_matches_serial(self, serial_records):
        report = run_sweep_parallel(
            "blackscholes", "v100_small", _points(),
            problems=PROBLEMS, config=SweepConfig(workers=1),
        )
        assert [r.to_dict() for r in report.records] == [
            r.to_dict() for r in serial_records
        ]

    def test_run_sweep_parallel_kwarg(self, serial_records):
        # ``workers`` overlaid on a caller's in-process engine.
        with BatchEngine(problems=PROBLEMS) as engine:
            records = run_sweep_parallel(
                "blackscholes", "v100_small", _points(),
                config=SweepConfig(workers=2), engine=engine,
            ).records
        assert [r.to_dict() for r in records] == [
            r.to_dict() for r in serial_records
        ]

    def test_report_counts(self, serial_records):
        report = run_sweep_parallel(
            "blackscholes", "v100_small", _points(),
            problems=PROBLEMS, config=SweepConfig(workers=2),
        )
        assert report.feasible == sum(r.feasible for r in serial_records)
        assert report.infeasible == 1


class TestRunSweepDelegates:
    """A sweep under the default config evaluates through the engine, so a
    threshold chain is served by sibling reuse and a duplicate point
    simulates once — with every record equal to a direct ``run_point``."""

    KMEANS = {"kmeans": {"num_obs": 2048, "max_iters": 8}}

    def test_default_config_run_sweep_reuses_and_dedupes(self, monkeypatch):
        chain = [
            SweepPoint("taf", {"hsize": 1, "psize": 4, "threshold": t}, "thread", 8)
            for t in (0.3, 0.9, 3.0, 20.0)
        ]
        points = chain + [chain[1]]
        direct = ExperimentRunner(problems=self.KMEANS)
        expected = [
            dumps_record(direct.run_point("kmeans", "v100_small", pt))
            for pt in points
        ]
        calls = []
        real = ExperimentRunner.run_point

        def counting(self, *args, **kwargs):
            calls.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(ExperimentRunner, "run_point", counting)
        records = run_sweep_parallel(
            "kmeans", "v100_small", points, problems=self.KMEANS
        ).records
        assert len(calls) < len(points)
        assert [dumps_record(r) for r in records] == expected


class TestCheckpoint:
    def test_resume_skips_completed_labels(self, tmp_path, serial_records):
        ck = tmp_path / "sweep.jsonl"
        pts = _points()
        first = run_sweep_parallel(
            "blackscholes", "v100_small", pts[:4],
            problems=PROBLEMS, config=SweepConfig(workers=2, checkpoint=ck),
        )
        assert first.evaluated == 4 and ck.exists()
        rest = run_sweep_parallel(
            "blackscholes", "v100_small", pts,
            problems=PROBLEMS, config=SweepConfig(workers=2, checkpoint=ck),
        )
        assert rest.skipped == 4
        assert rest.evaluated == len(pts) - 4
        # Full rerun against the finished checkpoint evaluates nothing.
        again = run_sweep_parallel(
            "blackscholes", "v100_small", pts,
            problems=PROBLEMS, config=SweepConfig(workers=2, checkpoint=ck),
        )
        assert again.evaluated == 0
        assert again.skipped == len(pts)
        # Records still come back complete, ordered, and equal to serial.
        assert [r.to_dict() for r in again.records] == [
            r.to_dict() for r in serial_records
        ]

    def test_checkpoint_loadable_as_results_db(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        run_sweep_parallel(
            "blackscholes", "v100_small", _points()[:3],
            problems=PROBLEMS, config=SweepConfig(workers=1, checkpoint=ck),
        )
        db = ResultsDB.load(ck)
        assert len(db) == 3

    def test_checkpoint_ignores_other_app_records(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        pts = _points()[:2]
        # Same seed, problems, site and sanitize flag in the header: only
        # the app and device differ.
        with CheckpointWriter(ck, shared_fields(2023, PROBLEMS)) as w:
            w.write(
                RunRecord(
                    app="lulesh", device="other", technique=p.technique,
                    params=dict(p.params), level=p.level,
                    items_per_thread=p.items_per_thread,
                )
                for p in pts
            )
        report = run_sweep_parallel(
            "blackscholes", "v100_small", pts,
            problems=PROBLEMS, config=SweepConfig(workers=1, checkpoint=ck),
        )
        assert report.skipped == 0 and report.evaluated == 2


class _FailingRunner:
    """Stub runner whose run_point always raises."""

    def __init__(self):
        self.calls = 0

    def run_point(self, app, device, point, site=None, sanitize=False):
        self.calls += 1
        raise RuntimeError("injected worker crash")


def _make_flaky(monkeypatch):
    """Make every ``ExperimentRunner`` crash on first contact with each point.

    ``seen`` is per *process*, not per instance (pool workers fork with the
    patch and an empty set), so the crash looks like transient worker
    state, and the retry's freshly rebuilt runner (the poisoned-runner
    defence) succeeds as a real transient failure would."""
    seen = set()
    real = ExperimentRunner.run_point

    def run_point(self, app, device, point, **kwargs):
        if point.label() not in seen:
            seen.add(point.label())
            raise OSError("transient failure")
        return real(self, app, device, point, **kwargs)

    monkeypatch.setattr(ExperimentRunner, "run_point", run_point)


class TestRetry:
    def test_persistent_failure_records_note(self):
        runner = _FailingRunner()
        rec = run_point_with_retry(
            runner, "blackscholes", "v100_small", _points()[0], retries=2
        )
        assert runner.calls == 3
        assert not rec.feasible
        assert "WorkerError after 3 attempts" in rec.note
        assert "injected worker crash" in rec.note

    def test_transient_failure_retried_to_success(self, monkeypatch):
        _make_flaky(monkeypatch)
        rec = run_point_with_retry(
            ExperimentRunner(problems=PROBLEMS), "blackscholes", "v100_small",
            _points()[0], retries=1,
        )
        assert rec.feasible

    def test_sweep_survives_worker_exceptions(self, serial_records, monkeypatch):
        _make_flaky(monkeypatch)
        with BatchEngine(
            problems=PROBLEMS, config=SweepConfig(workers=2, retries=1),
        ) as engine:
            report = run_sweep_parallel(
                "blackscholes", "v100_small", _points(), engine=engine
            )
        assert [r.to_dict() for r in report.records] == [
            r.to_dict() for r in serial_records
        ]

    def test_retry_rebuilds_poisoned_runner(self):
        # A runner whose instance state is permanently poisoned keeps
        # failing; the retry must swap in the rebuilt instance instead of
        # re-driving the broken one.
        bad = _FailingRunner()
        good = ExperimentRunner(problems=PROBLEMS)
        rebuilt = []

        def rebuild():
            rebuilt.append(True)
            return good

        rec = run_point_with_retry(
            bad, "blackscholes", "v100_small", _points()[0],
            retries=1, rebuild=rebuild,
        )
        assert rebuilt == [True]
        assert bad.calls == 1  # the poisoned instance is not retried
        assert rec.feasible

    def test_rebuild_failure_keeps_old_runner(self):
        # If the rebuild itself raises, the retry falls back to the old
        # instance rather than losing the point entirely.
        bad = _FailingRunner()

        def rebuild():
            raise RuntimeError("rebuild failed")

        rec = run_point_with_retry(
            bad, "blackscholes", "v100_small", _points()[0],
            retries=1, rebuild=rebuild,
        )
        assert bad.calls == 2
        assert not rec.feasible and "WorkerError" in rec.note

    def test_no_retries_aborts_into_infeasible_records(self, monkeypatch):
        def crash(self, *args, **kwargs):
            raise RuntimeError("injected worker crash")

        monkeypatch.setattr(ExperimentRunner, "run_point", crash)
        engine = BatchEngine(
            problems=PROBLEMS, config=SweepConfig(workers=1, retries=0)
        )
        report = run_sweep_parallel(
            "blackscholes", "v100_small", _points()[:2], engine=engine
        )
        assert report.evaluated == 2
        assert all(not r.feasible for r in report.records)
        assert all("WorkerError" in r.note for r in report.records)


class TestProgress:
    def test_progress_callback_streams_monotonically(self):
        snaps = []
        run_sweep_parallel(
            "blackscholes", "v100_small", _points()[:4],
            problems=PROBLEMS,
            config=SweepConfig(workers=1, progress=snaps.append),
        )
        assert [p.done for p in snaps] == [1, 2, 3, 4]
        assert all(p.total == 4 for p in snaps)
        assert snaps[-1].points_per_sec > 0
        assert snaps[-1].eta_seconds == 0


class TestChunking:
    def test_empty_sweep(self):
        report = run_sweep_parallel(
            "blackscholes", "v100_small", [], problems=PROBLEMS,
            config=SweepConfig(workers=2),
        )
        assert isinstance(report, BatchReport)
        assert report.records == [] and report.evaluated == 0
