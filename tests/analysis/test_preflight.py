"""Preflight-pruned sweeps: same feasible records, fewer simulations.

The acceptance bar: with ``preflight`` enabled a sweep records every
statically infeasible point (diagnostic code in the note) without invoking
the simulator, and the surviving feasible records are byte-identical to a
preflight-disabled run.
"""

import pytest

from repro.harness.batch import BatchEngine, run_sweep_parallel
from repro.harness.config import SweepConfig
from repro.harness.database import ResultsDB, dumps_record
from repro.harness.runner import ExperimentRunner
from repro.harness.sweep import SweepPoint

PROBLEMS = {"blackscholes": {"num_options": 2048, "num_runs": 4}}


def _points():
    """Two feasible TAF points + two statically infeasible iACT corners."""
    return [
        SweepPoint("taf", {"hsize": 1, "psize": 4, "threshold": 0.3}, "thread", 2),
        # Over V100's 48 KiB: 8 warps x 32 tables x 200 B = 51200 B.
        SweepPoint("iact", {"tsize": 8, "threshold": 0.3, "tperwarp": 32}, "thread", 8),
        SweepPoint("taf", {"hsize": 2, "psize": 16, "threshold": 0.3}, "thread", 2),
        # tperwarp 48 divides no power-of-two warp: rejected at state build.
        SweepPoint("iact", {"tsize": 2, "threshold": 0.3, "tperwarp": 48}, "thread", 2),
    ]


@pytest.fixture
def simulated(monkeypatch):
    """Labels of the points that reach ``ExperimentRunner.run_point``
    (in-process sweeps only: a pool worker's calls stay in the worker)."""
    labels = []
    real = ExperimentRunner.run_point

    def run_point(self, app, device, point, **kwargs):
        labels.append(point.label())
        return real(self, app, device, point, **kwargs)

    monkeypatch.setattr(ExperimentRunner, "run_point", run_point)
    return labels


@pytest.fixture(scope="module")
def baseline():
    """Preflight-disabled reference records."""
    report = run_sweep_parallel(
        "blackscholes", "v100_small", _points(),
        problems=PROBLEMS,
    )
    return report.records


class TestPointLevel:
    def test_feasible_point_passes(self):
        from repro.analysis import preflight_point

        assert preflight_point(
            "blackscholes", "v100_small", _points()[0], problems=PROBLEMS
        ) is None

    def test_overflow_pruned_with_code(self):
        from repro.analysis import preflight_point

        rec = preflight_point(
            "blackscholes", "v100_small", _points()[1], problems=PROBLEMS
        )
        assert rec is not None and not rec.feasible
        assert rec.note.startswith("preflight HPAC020:")

    def test_bad_sharing_pruned_with_code(self):
        from repro.analysis import preflight_point

        rec = preflight_point(
            "blackscholes", "v100_small", _points()[3], problems=PROBLEMS
        )
        assert rec.note.startswith("preflight HPAC023:")

    def test_unsupported_level_pruned_as_construction_failure(self):
        from repro.analysis import preflight_point

        # Binomial's region contains barriers: team-level only (§4.1).
        rec = preflight_point(
            "binomial", "v100_small",
            SweepPoint("taf", {"hsize": 2, "psize": 8, "threshold": 0.3},
                       "thread", 2),
        )
        assert rec is not None
        assert rec.note.startswith("preflight HPAC030:")

    def test_prediction_matches_simulator_verdict(self, baseline):
        # Every pruned point is one the simulator also found infeasible.
        from repro.analysis import preflight_point

        for pt, ref in zip(_points(), baseline):
            rec = preflight_point(
                "blackscholes", "v100_small", pt, problems=PROBLEMS
            )
            if rec is not None:
                assert not ref.feasible

    def test_aggregate_pressure_does_not_prune(self):
        # LavaMD's two regions run in different kernels: their combined
        # footprint over-budget must NOT prune (HPAC021 is a warning).
        from repro.analysis import RULES, Severity, preflight_diagnostics

        diags = preflight_diagnostics(
            "lavamd", "v100_small",
            SweepPoint("iact", {"tsize": 4, "threshold": 0.3, "tperwarp": 16},
                       "thread", 2),
        )
        blockers = [d for d in diags
                    if d.severity is Severity.ERROR and RULES[d.code].preflight]
        assert blockers == []


class TestContractDiagnostics:
    def test_shipped_contracts_add_no_findings(self):
        from repro.analysis import preflight_diagnostics

        diags = preflight_diagnostics(
            "blackscholes", "v100_small", _points()[0], problems=PROBLEMS
        )
        assert not any(d.code.startswith("HPAC21") for d in diags)

    def test_contract_findings_surface_but_never_prune(self, monkeypatch):
        from repro.analysis import preflight_diagnostics, preflight_point
        from repro.apps.blackscholes import Blackscholes

        # Break the contract width on the fly: out(...) no longer matches.
        orig = Blackscholes.sites

        def sites_with_bad_contract(self):
            sites = orig(self)
            sites[0].contract = "in(dopts[i*5:5]) out(dprices[i*2:2])"
            return sites

        monkeypatch.setattr(Blackscholes, "sites", sites_with_bad_contract)
        diags = preflight_diagnostics(
            "blackscholes", "v100_small", _points()[0], problems=PROBLEMS
        )
        assert any(d.code == "HPAC210" for d in diags)
        # A bad contract makes the sanitizer unreliable, not the point
        # infeasible: it must never prune.
        assert preflight_point(
            "blackscholes", "v100_small", _points()[0], problems=PROBLEMS
        ) is None


class TestLeanPreflight:
    """``preflight_point`` runs only the pruning rules; its verdict must be
    the one the full report-level diagnostics imply."""

    DEVICES = ("v100_small", "amd_small", "mi250x")

    @staticmethod
    def _space(device):
        from repro.harness.sweep import table2_space

        return [
            pt for tech in ("taf", "iact", "perfo")
            for pt in table2_space(tech, device)
        ]

    def test_verdict_matches_full_diagnostics(self):
        from repro.analysis import (
            RULES, Severity, preflight_diagnostics, preflight_point,
        )
        from repro.apps import BENCHMARKS

        pruned = 0
        for device in self.DEVICES:
            space = self._space(device)
            for app in sorted(BENCHMARKS):
                for pt in space:
                    blockers = [
                        d for d in preflight_diagnostics(app, device, pt)
                        if d.severity is Severity.ERROR
                        and RULES[d.code].preflight
                    ]
                    rec = preflight_point(app, device, pt)
                    if not blockers:
                        assert rec is None, (app, device, pt.label())
                        continue
                    pruned += 1
                    d = blockers[0]
                    assert rec is not None, (app, device, pt.label())
                    assert rec.note == f"preflight {d.code}: {d.message}"
                    assert not rec.feasible
        assert pruned > 0

    def test_report_only_lints_never_called(self, monkeypatch):
        import repro.analysis.contracts as contracts
        import repro.analysis.infer as infer
        import repro.analysis.rules.dataflow as dataflow
        from repro.analysis import preflight_point

        def boom(*_args, **_kwargs):
            raise AssertionError("report-only lint ran during preflight")

        monkeypatch.setattr(contracts, "lint_contracts", boom)
        monkeypatch.setattr(infer, "lint_baseline", boom)
        monkeypatch.setattr(dataflow, "lint_dataflow", boom)
        for pt in _points():
            preflight_point("blackscholes", "v100_small", pt, problems=PROBLEMS)
        assert preflight_point(
            "blackscholes", "v100_small", _points()[1], problems=PROBLEMS
        ).note.startswith("preflight HPAC020:")


class TestExecutorIntegration:
    def test_feasible_records_byte_identical(self, baseline):
        report = run_sweep_parallel(
            "blackscholes", "v100_small", _points(),
            problems=PROBLEMS, config=SweepConfig(preflight=True),
        )
        assert report.pruned == 2
        ref_feasible = [dumps_record(r) for r in baseline if r.feasible]
        got_feasible = [dumps_record(r) for r in report.records if r.feasible]
        assert got_feasible == ref_feasible
        # Pruned rows keep the input ordering and carry the HPAC code.
        assert [r.feasible for r in report.records] == [
            r.feasible for r in baseline
        ]
        notes = [r.note for r in report.records if not r.feasible]
        assert notes[0].startswith("preflight HPAC020:")
        assert notes[1].startswith("preflight HPAC023:")

    def test_pruned_points_never_reach_simulator(self, simulated):
        engine = BatchEngine(
            problems=PROBLEMS, config=SweepConfig(preflight=True)
        )
        report = run_sweep_parallel(
            "blackscholes", "v100_small", _points(), engine=engine
        )
        # Only the feasible TAF points.
        assert simulated == [_points()[0].label(), _points()[2].label()]
        assert report.evaluated == 2 and report.pruned == 2

    def test_disabled_preflight_simulates_everything(self, simulated):
        engine = BatchEngine(problems=PROBLEMS)
        report = run_sweep_parallel(
            "blackscholes", "v100_small", _points(), engine=engine
        )
        assert simulated == [pt.label() for pt in _points()]
        assert report.pruned == 0

    def test_custom_preflight_callable(self):
        # A hook is not a preflight: it fails loudly instead of quietly
        # running the static analyzer.
        def veto_iact(app, device, point, site=None):
            return None

        with pytest.raises(TypeError, match="preflight takes a bool"):
            SweepConfig(preflight=veto_iact)
        with pytest.raises(TypeError, match="preflight takes a bool"):
            SweepConfig().replace(preflight=veto_iact)

    def test_pruned_records_checkpointed(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        cfg = SweepConfig(preflight=True, checkpoint=ck)
        first = run_sweep_parallel(
            "blackscholes", "v100_small", _points(),
            problems=PROBLEMS, config=cfg,
        )
        assert first.pruned == 2
        db = ResultsDB.load(ck)
        assert len(db) == len(_points())
        # Resume: pruned rows are trusted records, not re-vetted points.
        again = run_sweep_parallel(
            "blackscholes", "v100_small", _points(),
            problems=PROBLEMS, config=cfg,
        )
        assert again.skipped == len(_points())
        assert again.pruned == 0 and again.evaluated == 0

    def test_runner_run_sweep_preflight_kwarg(self, baseline):
        # ``preflight`` overlaid on a caller's engine.
        with BatchEngine(problems=PROBLEMS) as engine:
            records = run_sweep_parallel(
                "blackscholes", "v100_small", _points(),
                config=SweepConfig(preflight=True), engine=engine,
            ).records
        assert [dumps_record(r) for r in records if r.feasible] == [
            dumps_record(r) for r in baseline if r.feasible
        ]
