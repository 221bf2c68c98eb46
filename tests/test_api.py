"""Stable ``repro.api`` facade tests.

The acceptance bar: every CLI subcommand's logic is reachable as one
library call with structured results — no stdout parsing, no shelling
out — and the facade composes with the unified SweepConfig / persistent
BatchEngine objects the engine layer uses.
"""

import pytest

from repro import api
from repro.harness.batch import BatchEngine
from repro.harness.config import SweepConfig
from repro.harness.database import dumps_record
from repro.harness.runner import ExperimentRunner
from repro.harness.sweep import SweepPoint

PROBLEMS = {
    "blackscholes": {"num_options": 2048, "num_runs": 4},
    "kmeans": {"num_obs": 2048, "max_iters": 8},
}


class TestRunPoint:
    def test_inline_point(self):
        rec = api.run_point(
            "blackscholes",
            technique="taf",
            params={"hsize": 1, "psize": 4, "threshold": 0.3},
            items_per_thread=2,
            problems=PROBLEMS,
        ).record
        assert rec.feasible and rec.technique == "taf"

    def test_explicit_point_matches_runner(self):
        pt = SweepPoint(
            "taf", {"hsize": 1, "psize": 4, "threshold": 0.3}, "thread", 2
        )
        with BatchEngine(problems=PROBLEMS) as engine:
            rec = api.run_point("blackscholes", point=pt, engine=engine).record
        assert rec.to_dict() == ExperimentRunner(problems=PROBLEMS).run_point(
            "blackscholes", "v100_small", pt
        ).to_dict()

    def test_needs_point_or_technique(self):
        with pytest.raises(ValueError):
            api.run_point("blackscholes")

    def test_execute_point_through_engine(self):
        # execute() hands a PointRequest its engine: the point is one
        # submitted job there, byte-identical to a direct simulation.
        req = api.PointRequest(
            "blackscholes", technique="taf",
            params={"hsize": 1, "psize": 4, "threshold": 0.3},
            items_per_thread=2,
        )
        with BatchEngine(problems=PROBLEMS) as eng:
            rec = api.execute(req, engine=eng).record
            assert eng.stats.submitted == 1 and eng.stats.executed == 1
        direct = ExperimentRunner(problems=PROBLEMS).run_point(
            "blackscholes", "v100_small", req.resolve_point()
        )
        assert dumps_record(rec) == dumps_record(direct)

    def test_sanitize_request_runs_under_approxsan(self):
        rec = api.run_point(
            "blackscholes", technique="taf",
            params={"hsize": 1, "psize": 4, "threshold": 0.3},
            items_per_thread=2, problems=PROBLEMS, sanitize=True,
        ).record
        assert "approxsan" in rec.extra


class TestSweep:
    def test_curated_grid(self):
        report = api.sweep(
            "kmeans", technique="taf", problems=PROBLEMS,
            config=SweepConfig(workers=1),
        ).report
        assert report.evaluated == len(report.records) > 0

    def test_explicit_points_through_engine(self):
        pts = [
            SweepPoint("taf", {"hsize": 1, "psize": p, "threshold": 0.3},
                       "thread", 2)
            for p in (4, 8)
        ]
        with BatchEngine(problems=PROBLEMS) as eng:
            report = api.sweep("blackscholes", points=pts, engine=eng).report
            assert report.evaluated == 2
            # Same sweep again: served entirely from the engine cache.
            again = api.sweep("blackscholes", points=pts, engine=eng).report
        assert again.evaluated == 0 and again.skipped == 2
        assert [r.to_dict() for r in again.records] == [
            r.to_dict() for r in report.records
        ]

    def test_sanitize_request_runs_under_approxsan(self):
        pts = [SweepPoint("taf", {"hsize": 1, "psize": 4, "threshold": 0.3},
                          "thread", 2)]
        report = api.sweep(
            "blackscholes", points=pts, problems=PROBLEMS, sanitize=True
        ).report
        assert report.records and all(
            "approxsan" in rec.extra for rec in report.records
        )

    def test_needs_points_or_technique(self):
        with pytest.raises(ValueError):
            api.sweep("kmeans")

    @pytest.mark.parametrize("prune", [0.10, False])
    def test_payload_accounts_for_every_record(self, prune, tmp_path):
        pts = [
            SweepPoint("taf", {"hsize": h, "psize": p, "threshold": t}, lvl, 2)
            for h in (1, 2)
            for p in (4, 8)
            for t in (0.3, 3.0, 20.0)
            for lvl in ("thread", "warp")
        ]
        pts.append(pts[0])  # a duplicate slot
        parts = ("evaluated", "skipped", "pruned", "lattice_pruned",
                 "variant_hits", "deduped")
        cfg = SweepConfig(prune=prune, preflight=True,
                          checkpoint=str(tmp_path / "ck.jsonl"))
        with BatchEngine(problems=PROBLEMS) as eng:
            first = api.sweep("kmeans", points=pts, engine=eng, config=cfg)
            # Again on the same engine: served from its session cache.
            cached = api.sweep("kmeans", points=pts, engine=eng,
                               config=cfg.replace(checkpoint=None))
        # Again on a fresh engine: every row resumes from the checkpoint.
        with BatchEngine(problems=PROBLEMS) as eng:
            again = api.sweep("kmeans", points=pts, engine=eng, config=cfg)
        for result in (first, cached, again):
            payload = result.to_payload()
            assert sum(payload[k] for k in parts) == len(payload["records"])
            assert payload["reused"] <= payload["evaluated"]
        assert first.to_payload()["deduped"] == 1
        if prune:
            assert first.to_payload()["lattice_pruned"] > 0


class TestSearch:
    def test_random(self):
        res = api.search(
            "blackscholes", technique="taf", budget=3, problems=PROBLEMS
        ).result
        assert res.evaluations == 3

    def test_evolutionary_parallel_matches_serial(self):
        kwargs = dict(
            technique="taf", strategy="evolutionary", budget=6,
            population=2, problems=PROBLEMS,
        )
        serial = api.search("blackscholes", **kwargs).result
        par = api.search(
            "blackscholes", config=SweepConfig(workers=2), **kwargs
        ).result
        assert [r.to_dict() for r in par.db] == [
            r.to_dict() for r in serial.db
        ]

    @pytest.mark.parametrize("strategy", ["random", "evolutionary"])
    def test_checkpoint_in_config_records_and_resumes(
        self, strategy, tmp_path, monkeypatch
    ):
        from repro.harness.database import ResultsDB, dumps_record

        ck = tmp_path / "search.jsonl"
        kwargs = dict(
            technique="taf", strategy=strategy, budget=5, population=2,
            problems=PROBLEMS, config=SweepConfig(checkpoint=ck),
        )
        first = api.search("blackscholes", **kwargs).result
        saved = ResultsDB.load(ck)
        assert sorted(dumps_record(r) for r in saved) == sorted(
            dumps_record(r) for r in first.db
        )
        assert len(saved) == first.evaluations == 5
        calls = []
        real = ExperimentRunner.run_point

        def counting(self, *args, **kw):
            calls.append(args)
            return real(self, *args, **kw)

        monkeypatch.setattr(ExperimentRunner, "run_point", counting)
        again = api.search("blackscholes", **kwargs).result
        assert calls == []  # every record resumed from the checkpoint
        assert [dumps_record(r) for r in again.db] == [
            dumps_record(r) for r in first.db
        ]

    def test_config_policy_reaches_random_search(self):
        # A statically infeasible iACT corner (HPAC020: AC state overflows
        # shared memory) is recorded by preflight, not simulated.
        corner = SweepPoint(
            "iact", {"tsize": 8, "threshold": 0.3, "tperwarp": 32}, "thread", 8
        )
        res = api.search(
            "blackscholes", technique="iact", budget=1, space=[corner],
            problems=PROBLEMS, config=SweepConfig(preflight=True),
        ).result
        (rec,) = res.db.query(feasible=None)
        assert rec.note.startswith("preflight HPAC")

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            api.search("blackscholes", strategy="annealing")


class TestFigures:
    def test_fast_figures(self):
        out = api.figures(["fig3", "fig4"])
        assert set(out.results) == {"fig3", "fig4"}

    def test_sim_figure_uses_caller_engine(self):
        with BatchEngine(problems=PROBLEMS) as eng:
            out = api.figures(["fig12"], engine=eng)
            assert "fig12" in out.results
            assert out.stats is eng.stats
            assert eng.stats.executed > 0

    def test_unknown_figure(self):
        with pytest.raises(ValueError, match="fig99"):
            api.figures(["fig99"])


class TestSanitize:
    def test_clean_accurate_run(self):
        res = api.sanitize("blackscholes")
        assert len(res.reports) == 1
        rep = res.reports[0]
        assert rep.app == "blackscholes" and rep.clean
        assert res.exit_code == 0

    def test_infeasible_config_recorded_not_raised(self):
        # The iACT shared-memory corner the sweep tests use as their
        # known-infeasible point.
        res = api.sanitize(
            "blackscholes", technique="iact",
            params={"tsize": 8, "threshold": 0.3, "tperwarp": 32},
            items_per_thread=8,
        )
        rep = res.reports[0]
        assert rep.infeasible is not None and rep.report is None
        assert not rep.clean


class TestLint:
    def test_clean_text(self):
        res = api.lint(text="memo(in:4:0.5) in(x[i:4]) out(o[i])")
        assert res.exit_code == 0

    def test_bad_text_nonzero_exit(self):
        res = api.lint(text="memo(in:4")
        assert res.diagnostics and res.exit_code == 2

    def test_app_regions(self):
        res = api.lint(
            app="blackscholes", technique="taf",
            params={"hsize": 1, "psize": 4, "threshold": 0.3},
        )
        assert res.exit_code in (0, 1)  # vetted, no hard errors
