"""CLI (`python -m repro`) tests."""

import pytest

from repro.__main__ import main


class TestDevices:
    def test_lists_presets(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "V100" in out and "MI250X" in out
        assert "80 SMs" in out and "220 SMs" in out


class TestRun:
    def test_accurate_run(self, capsys):
        assert main(["run", "blackscholes"]) == 0
        out = capsys.readouterr().out
        assert "accurate" in out

    def test_taf_run_reports_speedup_and_error(self, capsys):
        assert main([
            "run", "blackscholes", "--technique", "taf",
            "--hsize", "1", "--psize", "4", "--threshold", "0.3",
            "--items-per-thread", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "taf:" in out
        assert "MAPE" in out

    def test_perfo_run(self, capsys):
        assert main([
            "run", "lulesh", "--technique", "perfo",
            "--kind", "fini", "--skip-percent", "50",
        ]) == 0
        assert "perfo:" in capsys.readouterr().out

    def test_unknown_app_raises(self, capsys):
        assert main(["run", "hpcg"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown benchmark 'hpcg'; known: [")
        assert err.count("\n") == 1


class TestSweep:
    def test_sweep_prints_table_and_best(self, capsys, tmp_path):
        out_file = tmp_path / "db.jsonl"
        assert main([
            "sweep", "kmeans", "--technique", "taf", "--output", str(out_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "best under 10% error" in out
        assert out_file.exists()

    def test_sweep_requires_technique(self):
        with pytest.raises(SystemExit):
            main(["sweep", "kmeans"])

    def test_sweep_parallel_with_checkpoint_resumes(self, capsys, tmp_path):
        ck = tmp_path / "ck.jsonl"
        argv = ["sweep", "kmeans", "--technique", "taf",
                "--parallel", "2", "--checkpoint", str(ck)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "0 resumed from checkpoint" in first
        assert ck.exists()
        # Re-running the same campaign evaluates nothing new.
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "evaluated 0 points" in second
        assert "best under 10% error" in second

    def test_checkpoint_of_another_seed_is_one_error_line(self, capsys, tmp_path):
        ck = tmp_path / "ck.jsonl"
        argv = ["sweep", "blackscholes", "--technique", "taf",
                "--checkpoint", str(ck)]
        assert main(argv) == 0
        before = ck.read_bytes()
        capsys.readouterr()
        assert main(["--seed", "7"] + argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "seed" in err
        assert "Traceback" not in err
        assert ck.read_bytes() == before


class TestSearch:
    def test_random_search_prints_table_and_best(self, capsys, tmp_path):
        out_file = tmp_path / "search.jsonl"
        assert main([
            "search", "blackscholes", "--technique", "taf",
            "--budget", "3", "--output", str(out_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "random search: blackscholes taf" in out
        assert "(3 evaluations)" in out
        assert "best under 10% error" in out
        assert out_file.exists()

    def test_evolutionary_strategy_parallel(self, capsys):
        assert main([
            "search", "kmeans", "--technique", "taf",
            "--strategy", "evolutionary", "--budget", "4",
            "--population", "2", "--parallel", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "evolutionary search: kmeans taf" in out

    def test_search_requires_technique(self):
        with pytest.raises(SystemExit):
            main(["search", "kmeans"])


class TestCheckpoint:
    def _write_dup_checkpoint(self, path):
        from repro.harness.database import CheckpointWriter
        from repro.harness.runner import RunRecord

        def rec(speedup):
            return RunRecord(
                app="blackscholes", device="dev", technique="taf",
                params={"hsize": 1, "psize": 4, "threshold": 0.3},
                level="thread", items_per_thread=2, speedup=speedup,
            )

        with CheckpointWriter(path) as w:
            w.write([rec(1.0), rec(2.0)])

    def test_compact_in_place(self, capsys, tmp_path):
        from repro.harness.database import ResultsDB

        ck = tmp_path / "ck.jsonl"
        self._write_dup_checkpoint(ck)
        assert main(["checkpoint", "compact", str(ck)]) == 0
        out = capsys.readouterr().out
        assert "kept 1" in out and "dropped 1" in out
        db = ResultsDB.load(ck)
        assert len(db) == 1 and db.records[0].speedup == 2.0

    def test_compact_to_gz_output(self, capsys, tmp_path):
        from repro.harness.database import ResultsDB

        ck = tmp_path / "ck.jsonl"
        out_path = tmp_path / "ck.jsonl.gz"
        self._write_dup_checkpoint(ck)
        assert main([
            "checkpoint", "compact", str(ck), "--output", str(out_path),
        ]) == 0
        assert len(ResultsDB.load(out_path)) == 1

    def test_requires_action(self):
        with pytest.raises(SystemExit):
            main(["checkpoint"])


class TestSanitize:
    def test_json_is_one_pure_stably_ordered_document(self, capsys):
        import json

        assert main(["sanitize", "--app", "blackscholes", "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)  # nothing but JSON on stdout
        # Golden shape: byte-identical to a sorted re-dump, so key order
        # is stable across runs and Python versions.
        assert out.strip() == json.dumps(payload, indent=2, sort_keys=True)
        assert len(payload) == 1
        entry = payload[0]
        assert entry["app"] == "blackscholes"
        assert entry["clean"] is True
        assert entry["static"] == []
        assert entry["report"]["counters"]["launches"] >= 1

    def test_infer_emits_contract_text(self, capsys):
        assert main(["sanitize", "--infer", "--app", "blackscholes"]) == 0
        out = capsys.readouterr().out
        assert "inferred: in(dopts[i*5:5]) out(dprices[i])" in out
        assert "round-trip: clean" in out

    def test_infer_json_is_pure(self, capsys):
        import json

        assert main(["sanitize", "--infer", "--app", "blackscholes",
                     "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert out.strip() == json.dumps(payload, indent=2, sort_keys=True)
        assert payload[0]["regions"]["price"]["inferred"] == (
            "in(dopts[i*5:5]) out(dprices[i])")
        assert payload[0]["roundtrip"]["clean"] is True


class TestSensitivity:
    def test_sensitivity_table(self, capsys):
        assert main(["sensitivity", "lulesh"]) == 0
        out = capsys.readouterr().out
        assert "hourglass_control" in out
        assert "verdict" in out


class TestFigures:
    def test_fast_figures(self, capsys):
        assert main(["figures", "fig3", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "2^27" in out
        assert "Fig 4" in out

    def test_parallel_flag_accepted_and_engine_summary_printed(self, capsys):
        # fig12 is the cheapest simulation-backed figure; --parallel 2
        # drives it through the batch engine and prints its counters.
        assert main(["figures", "fig12", "--parallel", "2"]) == 0
        out = capsys.readouterr().out
        assert "fig12: regenerated" in out
        assert "batch engine:" in out
        assert "baselines computed" in out
