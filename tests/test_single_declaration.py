"""One declaration per option.

Every request field and its default is declared once, on its request
dataclass: the CLI fills requests by field name from the flags the user
passed, and the ``repro.api`` entry points build ``Request(*args,
**fields)`` instead of restating the fields as keywords.  Evaluation
policy (workers) travels in a ``SweepConfig``, never in a request.
"""

import dataclasses
import inspect

import pytest

from repro import api
from repro.__main__ import main
from repro.harness import figures as F
from repro.harness.config import SweepConfig


class _Captured(Exception):
    def __init__(self, args, kwargs):
        super().__init__("captured")
        self.args_, self.kwargs = args, kwargs


def _cli_call(monkeypatch, target: str, argv: list[str]) -> _Captured:
    """Run the CLI until it hands its request to ``api.<target>``."""

    def capture(*args, **kwargs):
        raise _Captured(args, kwargs)

    monkeypatch.setattr(api, target, capture)
    with pytest.raises(_Captured) as info:
        main(argv)
    return info.value


class TestCliLibraryParity:
    """Minimal argv builds exactly the request a library call with the
    same required arguments builds: no flag restates a default."""

    def test_run(self, monkeypatch):
        call = _cli_call(
            monkeypatch, "run_point",
            ["run", "blackscholes", "--technique", "taf"],
        )
        request = call.kwargs["request"]
        # The technique parameters are CLI-only flags (--hsize, ...).
        assert request == api.PointRequest(
            "blackscholes", technique="taf", params=request.params
        )
        assert request.items_per_thread is None  # the app's baseline

    def test_sweep(self, monkeypatch):
        call = _cli_call(
            monkeypatch, "execute", ["sweep", "kmeans", "--technique", "taf"]
        )
        assert call.args_ == (api.SweepRequest("kmeans", technique="taf"),)
        assert call.kwargs["config"] == SweepConfig()

    def test_search(self, monkeypatch):
        call = _cli_call(
            monkeypatch, "execute", ["search", "kmeans", "--technique", "taf"]
        )
        assert call.args_ == (api.SearchRequest("kmeans", technique="taf"),)
        assert call.args_[0].seed == 7
        assert call.kwargs["config"] == SweepConfig()

    def test_figures(self, monkeypatch):
        call = _cli_call(monkeypatch, "execute", ["figures"])
        assert call.args_ == (api.FiguresRequest(),)
        assert call.kwargs["config"] == SweepConfig()

    def test_campaign_split(self, monkeypatch, tmp_path):
        camp = str(tmp_path / "camp")
        call = _cli_call(
            monkeypatch, "campaign_split",
            ["campaign", "split", camp, "--app", "kmeans", "--technique", "taf"],
        )
        assert call.args_ == (
            camp, api.SweepRequest(app="kmeans", technique="taf")
        )
        assert call.kwargs == {}

    def test_passed_flags_fill_fields_by_name(self, monkeypatch):
        call = _cli_call(monkeypatch, "execute", [
            "--seed", "5", "search", "kmeans", "--technique", "iact",
            "--device", "amd_small", "--strategy", "evolutionary",
            "--budget", "4", "--population", "2", "--max-error", "0.2",
            "--parallel", "2",
        ])
        assert call.args_ == (
            api.SearchRequest(
                "kmeans", device="amd_small", technique="iact",
                strategy="evolutionary", budget=4, population=2,
                max_error=0.2, seed=5,
            ),
        )
        assert call.kwargs["config"] == SweepConfig(workers=2)

    def test_sweep_policy_flags_fill_the_config(self, monkeypatch, tmp_path):
        ck = str(tmp_path / "ck.jsonl")
        call = _cli_call(monkeypatch, "execute", [
            "sweep", "kmeans", "--technique", "taf", "--effort", "full",
            "--parallel", "3", "--checkpoint", ck, "--retries", "2",
            "--preflight", "--prune",
            "--max-error", "0.2",
        ])
        assert call.args_ == (
            api.SweepRequest("kmeans", technique="taf", effort="full"),
        )
        assert call.kwargs["config"] == SweepConfig(
            workers=3, checkpoint=ck, retries=2, preflight=True, prune=0.2,
        )


@pytest.mark.parametrize(
    "entry, request_cls",
    [
        (api.run_point, api.PointRequest),
        (api.sweep, api.SweepRequest),
        (api.search, api.SearchRequest),
        (api.figures, api.FiguresRequest),
        (api.campaign_split, api.SweepRequest),
    ],
    ids=["run_point", "sweep", "search", "figures", "campaign_split"],
)
def test_entry_points_restate_no_request_field(entry, request_cls):
    named = {
        p.name
        for p in inspect.signature(entry).parameters.values()
        if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
    }
    fields = {f.name for f in dataclasses.fields(request_cls)}
    assert not named & fields


class TestRequestBuilding:
    def test_request_and_fields_together_raise(self):
        with pytest.raises(TypeError, match="not both"):
            api.sweep("kmeans", request=api.SweepRequest("kmeans"))
        with pytest.raises(TypeError, match="not both"):
            api.figures(request=api.FiguresRequest(), effort="full")

    def test_policy_is_not_a_request_field(self):
        assert [f.name for f in dataclasses.fields(api.FiguresRequest)] == [
            "names", "effort", "seed", "version",
        ]
        with pytest.raises(TypeError):
            api.figures(["fig3"], parallel=2)
        with pytest.raises(TypeError):
            F.fig7_lulesh(parallel=2)
        assert "runner" not in inspect.signature(api.search).parameters
        assert "runner" not in inspect.signature(api.figures).parameters

    @pytest.mark.parametrize("app, ipt", [("blackscholes", 1), ("kmeans", 8)])
    def test_point_request_defaults_to_the_baseline_items_per_thread(
        self, app, ipt
    ):
        point = api.PointRequest(app, technique="perfo", params={
            "kind": "small", "skip": 2,
        }).resolve_point()
        assert point.items_per_thread == ipt
        pinned = api.PointRequest(
            app, technique="perfo", params={"kind": "small", "skip": 2},
            items_per_thread=4,
        ).resolve_point()
        assert pinned.items_per_thread == 4
