"""The typed request/response redesign of the ``repro.api`` facade:
frozen versioned requests in, uniform ApiResult protocol out, one
``execute`` dispatcher — and the campaign facade + CLI on top of it."""

import dataclasses
import json

import pytest

from repro import api
from repro.__main__ import main
from repro.harness.config import SweepConfig

PROBLEMS = {
    "blackscholes": {"num_options": 2048, "num_runs": 2},
    "kmeans": {"num_obs": 2048, "max_iters": 8},
}


class TestRequestObjects:
    def test_requests_are_frozen(self):
        req = api.SweepRequest(app="kmeans", technique="taf")
        with pytest.raises(dataclasses.FrozenInstanceError):
            req.app = "lulesh"

    def test_version_gate(self):
        for cls, kwargs in [
            (api.PointRequest, dict(app="kmeans")),
            (api.SweepRequest, dict(app="kmeans")),
            (api.SearchRequest, dict(app="kmeans")),
            (api.FiguresRequest, dict()),
        ]:
            with pytest.raises(ValueError, match="version"):
                cls(version=99, **kwargs)

    def test_campaign_spec_is_a_sweep_request(self, tmp_path):
        from repro.harness.campaign import load_campaign

        grid = api.SweepRequest(app="kmeans", technique="taf").resolve_points()
        spec = api.SweepRequest(app="kmeans", points=grid[:2])
        split = api.campaign_split(str(tmp_path / "camp"), spec)
        assert split.request is spec
        assert load_campaign(tmp_path / "camp").spec == spec

    def test_sweep_request_resolves_curated_grid(self):
        req = api.SweepRequest(app="kmeans", technique="taf")
        assert len(req.resolve_points()) > 0

    def test_point_request_needs_technique(self):
        with pytest.raises(ValueError):
            api.PointRequest(app="kmeans").resolve_point()


class TestExecuteDispatch:
    def test_execute_point_request(self):
        req = api.PointRequest(
            app="blackscholes", technique="taf",
            params={"hsize": 1, "psize": 4, "threshold": 0.3},
            items_per_thread=2, problems=PROBLEMS,
        )
        res = api.execute(req)
        assert isinstance(res, api.PointResult)
        assert res.request is req
        assert res.record.feasible
        assert res.exit_code == 0
        assert res.to_payload()["technique"] == "taf"

    def test_execute_matches_loose_kwargs(self):
        req = api.PointRequest(
            app="blackscholes", technique="taf",
            params={"hsize": 1, "psize": 4, "threshold": 0.3},
            items_per_thread=2, problems=PROBLEMS,
        )
        via_request = api.execute(req)
        via_kwargs = api.run_point(
            "blackscholes", technique="taf",
            params={"hsize": 1, "psize": 4, "threshold": 0.3},
            items_per_thread=2, problems=PROBLEMS,
        )
        assert via_request.record.to_dict() == via_kwargs.record.to_dict()

    def test_execute_sweep_request(self):
        res = api.execute(
            api.SweepRequest(app="kmeans", technique="taf", problems=PROBLEMS)
        )
        assert isinstance(res, api.SweepResult)
        assert res.report.evaluated == len(res.report.records) > 0
        payload = res.to_payload()
        assert payload["evaluated"] == res.report.evaluated
        assert len(payload["records"]) == len(res.report.records)

    def test_engine_with_other_problems_or_seed_raises(self):
        from repro.errors import EngineMismatchError
        from repro.harness.batch import BatchEngine

        pts = api.SweepRequest(app="kmeans", technique="taf").resolve_points()
        for prune in (False, 0.1):
            cfg = SweepConfig(prune=prune)
            with BatchEngine(problems=PROBLEMS, seed=7) as engine:
                with pytest.raises(EngineMismatchError, match="problems="):
                    api.execute(
                        api.SweepRequest(
                            app="kmeans", points=pts, seed=7,
                            problems={"kmeans": {"num_obs": 512}},
                        ),
                        config=cfg, engine=engine,
                    )
                with pytest.raises(ValueError, match="seed=2023"):
                    api.execute(
                        api.SweepRequest(
                            app="kmeans", points=pts, problems=PROBLEMS,
                        ),
                        config=cfg, engine=engine,
                    )

    def test_matching_engine_records_unchanged(self):
        from repro.harness.batch import BatchEngine
        from repro.harness.database import dumps_record

        req = api.SweepRequest(
            app="kmeans", technique="taf", problems=PROBLEMS, seed=7
        )
        for cfg in (None, SweepConfig(prune=0.1)):
            alone = api.execute(req, config=cfg)
            with BatchEngine(problems=PROBLEMS, seed=7) as engine:
                shared = api.execute(req, config=cfg, engine=engine)
            assert [dumps_record(r) for r in shared.report.records] == [
                dumps_record(r) for r in alone.report.records
            ]

    def test_search_through_engine_uses_its_problems(self):
        from repro.errors import EngineMismatchError
        from repro.harness.batch import BatchEngine

        req = api.SearchRequest(
            app="blackscholes", technique="taf", budget=3, problems=PROBLEMS
        )
        alone = api.execute(req)
        with BatchEngine(problems=PROBLEMS) as engine:
            shared = api.execute(
                dataclasses.replace(req, problems=None), engine=engine
            )
            with pytest.raises(EngineMismatchError):
                api.execute(
                    dataclasses.replace(req, problems={"blackscholes": {}}),
                    engine=engine,
                )
        assert shared.to_payload()["records"] == alone.to_payload()["records"]

    def test_execute_search_request(self):
        res = api.execute(
            api.SearchRequest(
                app="blackscholes", technique="taf", budget=3,
                problems=PROBLEMS,
            )
        )
        assert isinstance(res, api.SearchResult)
        assert res.result.evaluations == 3
        assert len(res.to_payload()["records"]) == 3

    def test_execute_rejects_non_requests(self):
        with pytest.raises(TypeError, match="request dataclass"):
            api.execute({"app": "kmeans"})


class TestApiResultProtocol:
    def test_render_json_is_stable(self):
        res = api.lint(text="memo(in:4")
        assert res.exit_code == 2
        out = res.render_json()
        assert out == json.dumps(
            json.loads(out), indent=2, sort_keys=True
        )

    def test_all_results_implement_the_protocol(self):
        results = [
            api.lint(text="memo(in:4:0.5) in(x[i:4]) out(o[i])"),
            api.run_point(
                "blackscholes", technique="taf",
                params={"hsize": 1, "psize": 4, "threshold": 0.3},
                items_per_thread=2, problems=PROBLEMS,
            ),
        ]
        for res in results:
            assert isinstance(res, api.ApiResult)
            assert isinstance(res.exit_code, int)
            json.loads(res.render_json())  # payload is pure JSON

    def test_point_payload_sentinels_nonfinite(self):
        from repro.harness.runner import RunRecord

        rec = RunRecord(
            app="a", device="d", technique="taf", params={}, level="thread",
            items_per_thread=1, feasible=False, error=float("inf"),
        )
        payload = api.PointResult(record=rec).to_payload()
        assert payload["error"] == "__inf__"
        json.dumps(payload, allow_nan=False)  # strict JSON throughout


class TestCampaignFacade:
    def test_split_work_merge_status(self, tmp_path):
        camp = tmp_path / "camp"
        spec = api.SweepRequest(
            app="blackscholes", technique="taf", problems=PROBLEMS
        )
        split = api.campaign_split(str(camp), spec, shards=2)
        assert split.exit_code == 0 and split.result.shards == 2
        work = api.campaign_work(str(camp), "tester")
        assert work.report.jobs_done == 2 and work.exit_code == 0
        merged = api.campaign_merge(str(camp))
        assert merged.exit_code == 0 and merged.result.complete
        status = api.campaign_status(str(camp))
        assert status.exit_code == 0
        assert status.status.progress["done"] == 2
        json.loads(merged.render_json())

    def test_partial_merge_exits_nonzero(self, tmp_path):
        camp = tmp_path / "camp"
        api.campaign_split(
            str(camp),
            api.SweepRequest(
                app="blackscholes", technique="taf", problems=PROBLEMS
            ),
            shards=2,
        )
        api.campaign_work(str(camp), "tester", max_jobs=1)
        partial = api.campaign_merge(str(camp), strict=False)
        assert partial.exit_code == 1 and not partial.result.complete


class TestCampaignCLI:
    def test_split_work_merge_status_roundtrip(self, capsys, tmp_path):
        camp = str(tmp_path / "camp")
        assert main(["campaign", "split", camp, "--app", "kmeans",
                     "--technique", "taf", "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "split 5 point(s) into 2 shard job(s)" in out
        assert main(["campaign", "status", camp]) == 0
        assert "2 pending" in capsys.readouterr().out
        assert main(["campaign", "work", camp, "--owner", "cli-a"]) == 0
        assert "completed 2 job(s)" in capsys.readouterr().out
        assert main(["campaign", "merge", camp]) == 0
        assert "merged 5 record(s)" in capsys.readouterr().out
        assert main(["campaign", "status", camp, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["complete"] is True

    def test_merged_cli_output_matches_api_sweep(self, capsys, tmp_path):
        """The CLI path produces the same records the library sweep does."""
        from repro.harness.database import ResultsDB

        camp = str(tmp_path / "camp")
        assert main(["campaign", "split", camp, "--app", "kmeans",
                     "--technique", "taf"]) == 0
        assert main(["campaign", "work", camp, "--owner", "w"]) == 0
        assert main(["campaign", "merge", camp]) == 0
        capsys.readouterr()
        merged = ResultsDB.load(tmp_path / "camp" / "merged.jsonl")
        report = api.sweep("kmeans", technique="taf").report
        assert [r.to_dict() for r in merged] == [
            r.to_dict() for r in report.records
        ]

    def test_strict_merge_of_unfinished_campaign_fails(self, capsys, tmp_path):
        camp = str(tmp_path / "camp")
        assert main(["campaign", "split", camp, "--app", "kmeans",
                     "--technique", "taf"]) == 0
        capsys.readouterr()
        assert main(["campaign", "merge", camp]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: shard-0000: not completed")
        assert "Traceback" not in err

    def test_campaign_errors_print_one_line(self, capsys, tmp_path):
        # A campaign mistake is a ReproError: one ``error:`` line, no
        # traceback (the quick perforation grid of blackscholes is empty).
        camp = str(tmp_path / "camp")
        assert main(["campaign", "split", camp, "--app", "blackscholes",
                     "--technique", "perfo"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("error: ") and "no candidate grid" in err
