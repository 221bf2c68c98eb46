"""Experiment runner and results database tests."""

import pytest

from repro.harness.database import ResultsDB
from repro.harness.batch import run_sweep_parallel
from repro.harness.runner import ExperimentRunner, RunRecord
from repro.harness.sweep import SweepPoint

BS_PROBLEM = {"blackscholes": {"num_options": 2048, "num_runs": 4}}


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(problems=BS_PROBLEM)


class TestRunner:
    def test_baseline_cached(self, runner):
        a = runner.baseline("blackscholes", "v100_small")
        b = runner.baseline("blackscholes", "v100_small")
        assert a is b

    def test_baseline_per_device(self, runner):
        a = runner.baseline("blackscholes", "v100_small")
        b = runner.baseline("blackscholes", "amd_small")
        assert a is not b

    def test_run_point_produces_record(self, runner):
        pt = SweepPoint("taf", {"hsize": 1, "psize": 4, "threshold": 0.3}, "thread", 2)
        rec = runner.run_point("blackscholes", "v100_small", pt)
        assert rec.feasible
        assert rec.kernel_speedup > 0
        assert 0 <= rec.error
        assert rec.extra["kernel_only"]  # Blackscholes reports kernel time
        assert rec.reported_speedup == rec.kernel_speedup

    def test_infeasible_config_recorded_not_raised(self, runner):
        # A shared-memory-busting iACT configuration.
        pt = SweepPoint(
            "iact", {"tsize": 8, "threshold": 0.3, "tperwarp": 32}, "thread", 8
        )
        rec = runner.run_point("blackscholes", "v100_small", pt)
        assert not rec.feasible
        assert "SharedMemoryError" in rec.note

    def test_unsupported_technique_recorded(self, runner):
        pt = SweepPoint("iact", {"tsize": 2, "threshold": 0.3, "tperwarp": 1}, "thread", 8)
        rec = runner.run_point("minife", "v100_small", pt)
        assert not rec.feasible
        assert "Unsupported" in rec.note

    def test_run_sweep_returns_all(self):
        pts = [
            SweepPoint("taf", {"hsize": 1, "psize": 4, "threshold": t}, "thread", 2)
            for t in (0.0, 0.3)
        ]
        recs = run_sweep_parallel(
            "blackscholes", "v100_small", pts, problems=BS_PROBLEM
        ).records
        assert len(recs) == 2

    def test_baseline_recomputed_when_problem_changes(self):
        r = ExperimentRunner(
            problems={"blackscholes": {"num_options": 2048, "num_runs": 4}}
        )
        a = r.baseline("blackscholes", "v100_small")
        r.problems["blackscholes"] = {"num_options": 4096, "num_runs": 4}
        b = r.baseline("blackscholes", "v100_small")
        assert a is not b
        assert r.baseline("blackscholes", "v100_small") is b

    def test_partial_region_stats_do_not_crash(self, runner, monkeypatch):
        # A region reporting partial stats (no approx_fraction) must not
        # KeyError mid-sweep.
        app = runner.app("blackscholes")
        real_run = app.run

        def partial_stats_run(*a, **kw):
            res = real_run(*a, **kw)
            res.region_stats = {"partial": {"invocations": 3}}
            return res

        monkeypatch.setattr(app, "run", partial_stats_run)
        pt = SweepPoint("taf", {"hsize": 1, "psize": 4, "threshold": 0.3}, "thread", 2)
        rec = runner.run_point("blackscholes", "v100_small", pt)
        assert rec.feasible
        assert rec.approx_fraction == 0.0

    def test_kmeans_records_convergence(self):
        r = ExperimentRunner(problems={"kmeans": {"num_obs": 4096, "max_iters": 30}})
        pt = SweepPoint("taf", {"hsize": 1, "psize": 7, "threshold": 0.9}, "thread", 8)
        rec = r.run_point("kmeans", "v100_small", pt)
        assert "convergence_speedup" in rec.extra


def _rec(app="a", tech="taf", err=0.01, spd=2.0, feasible=True, device="NVIDIA"):
    return RunRecord(
        app=app, device=device, technique=tech, params={}, level="thread",
        items_per_thread=8, feasible=feasible, speedup=spd, kernel_speedup=spd,
        error=err,
    )


class TestResultsDB:
    def test_query_filters(self):
        db = ResultsDB([_rec("a"), _rec("b"), _rec("a", tech="iact")])
        assert len(db.query(app="a")) == 2
        assert len(db.query(technique="iact")) == 1
        assert len(db.query(device="nvidia")) == 3

    def test_query_excludes_infeasible_by_default(self):
        db = ResultsDB([_rec(), _rec(feasible=False)])
        assert len(db.query()) == 1
        assert len(db.query(feasible=None)) == 2

    def test_best_speedup_respects_error_budget(self):
        db = ResultsDB([
            _rec(err=0.05, spd=2.0),
            _rec(err=0.5, spd=10.0),  # fast but over budget
        ])
        best = db.best_speedup(max_error=0.10)
        assert best.speedup == 2.0

    def test_best_speedup_none_when_all_over(self):
        db = ResultsDB([_rec(err=0.9)])
        assert db.best_speedup(max_error=0.10) is None

    def test_pareto_frontier(self):
        db = ResultsDB([
            _rec(err=0.01, spd=1.5),
            _rec(err=0.02, spd=1.2),  # dominated
            _rec(err=0.05, spd=3.0),
        ])
        front = db.pareto_frontier()
        assert [(r.error, r.speedup) for r in front] == [(0.01, 1.5), (0.05, 3.0)]

    def test_save_load_roundtrip(self, tmp_path):
        db = ResultsDB([_rec(err=0.03, spd=1.7)])
        path = tmp_path / "results.jsonl"
        db.save(path)
        loaded = ResultsDB.load(path)
        assert len(loaded) == 1
        assert loaded.records[0].speedup == 1.7
        assert loaded.records[0].error == 0.03

    def test_save_load_roundtrip_nonfinite_and_infeasible(self, tmp_path):
        # Diverged records carry inf error; json would emit the
        # non-standard `Infinity` literal without the sentinel encoding.
        inf_rec = _rec(err=float("inf"), spd=0.0)
        nan_rec = _rec(err=float("nan"), spd=1.0)
        bad = _rec(feasible=False)
        bad.note = "SharedMemoryError: AC state exceeds budget"
        db = ResultsDB([inf_rec, nan_rec, bad, _rec(err=0.02)])
        path = tmp_path / "results.jsonl"
        db.save(path)
        # The file itself is strict JSON, line by line.
        import json
        import math

        for line in path.read_text().splitlines():
            json.loads(line, parse_constant=lambda _: pytest.fail("non-standard JSON"))
        loaded = ResultsDB.load(path)
        assert loaded.records[0].error == float("inf")
        assert math.isnan(loaded.records[1].error)
        assert not loaded.records[2].feasible
        assert loaded.records[2].note == bad.note
        assert loaded.records[3].error == 0.02

    def test_load_discards_truncated_final_line(self, tmp_path):
        db = ResultsDB([_rec(), _rec()])
        path = tmp_path / "results.jsonl"
        db.save(path)
        with path.open("a") as fh:
            fh.write('{"app": "truncat')  # sweep killed mid-write
        with pytest.warns(UserWarning, match="torn"):
            assert len(ResultsDB.load(path)) == 2

    def test_checkpoint_writer_heals_missing_newline(self, tmp_path):
        from repro.harness.database import CheckpointWriter

        path = tmp_path / "ck.jsonl"
        path.write_text('{"app": "truncat')  # torn tail, no newline
        with CheckpointWriter(path) as w:
            w.write(_rec())
        with pytest.warns(UserWarning, match="torn"):
            loaded = ResultsDB.load(path)
        # The appended record did not merge into the torn line.
        assert len(loaded) == 1
        assert loaded.records[0].app == "a"

    def test_len_iter_add(self):
        db = ResultsDB()
        db.add(_rec())
        db.add([_rec(), _rec()])
        assert len(db) == 3
        assert len(list(db)) == 3


class TestRunRecord:
    def test_reported_speedup_end_to_end_default(self):
        r = _rec()
        r.extra = {"kernel_only": False}
        r.speedup, r.kernel_speedup = 1.5, 3.0
        assert r.reported_speedup == 1.5

    def test_error_percent(self):
        assert _rec(err=0.05).error_percent == pytest.approx(5.0)

    def test_to_dict_serializable(self):
        import json

        json.dumps(_rec().to_dict())

    def test_dumps_record_matches_encoding_to_dict(self):
        import json

        from repro.harness.database import _encode, dumps_record

        r = _rec(err=float("inf"))
        r.params = {"hsize": 2, "threshold": float("nan")}
        r.region_stats = {"r": {"invocations": 4, "approx_fraction": 0.25}}
        r.extra = {"approxsan": {"codes": ("HPAC201",), "nested": [{"x": -float("inf")}]}}
        assert dumps_record(r) == json.dumps(_encode(r.to_dict()), allow_nan=False)
