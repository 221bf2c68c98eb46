"""Checkpoint hygiene: schema header, compaction, gzip transport."""

import gzip
import json

import pytest

from repro.harness.config import SweepConfig
from repro.harness.database import (
    CHECKPOINT_SCHEMA_VERSION,
    SCHEMA_KEY,
    CheckpointWriter,
    ResultsDB,
    compact_checkpoint,
)
from repro.harness.batch import run_sweep_parallel
from repro.harness.runner import RunRecord
from repro.harness.sweep import SweepPoint

PROBLEMS = {"blackscholes": {"num_options": 2048, "num_runs": 4}}


def _rec(h=1, speedup=1.0, app="blackscholes", device="dev"):
    return RunRecord(
        app=app, device=device, technique="taf",
        params={"hsize": h, "psize": 4, "threshold": 0.3},
        level="thread", items_per_thread=2, speedup=speedup,
    )


def _points(n=3):
    return [
        SweepPoint("taf", {"hsize": h, "psize": 4, "threshold": 0.3}, "thread", 2)
        for h in range(1, n + 1)
    ]


class TestSchemaHeader:
    def test_new_checkpoints_start_with_header(self, tmp_path):
        ck = tmp_path / "c.jsonl"
        with CheckpointWriter(ck) as w:
            w.write(_rec())
        first = ck.read_text().splitlines()[0]
        assert json.loads(first) == {SCHEMA_KEY: CHECKPOINT_SCHEMA_VERSION}

    def test_load_skips_header(self, tmp_path):
        ck = tmp_path / "c.jsonl"
        with CheckpointWriter(ck) as w:
            w.write([_rec(1), _rec(2)])
        db = ResultsDB.load(ck)
        assert len(db) == 2

    def test_headerless_pr1_files_still_load(self, tmp_path):
        ck = tmp_path / "old.jsonl"
        ResultsDB([_rec(1), _rec(2)]).save(ck)
        header_free = ck.read_text().splitlines()
        assert all(SCHEMA_KEY not in line for line in header_free[:1])
        assert len(ResultsDB.load(ck)) == 2

    def test_append_does_not_duplicate_header(self, tmp_path):
        ck = tmp_path / "c.jsonl"
        with CheckpointWriter(ck) as w:
            w.write(_rec(1))
        with CheckpointWriter(ck) as w:
            w.write(_rec(2))
        headers = [
            line for line in ck.read_text().splitlines() if SCHEMA_KEY in line
        ]
        assert len(headers) == 1
        assert len(ResultsDB.load(ck)) == 2


class TestCompact:
    def test_compact_keeps_latest_per_label(self, tmp_path):
        ck = tmp_path / "c.jsonl"
        with CheckpointWriter(ck) as w:
            w.write([_rec(1, speedup=1.0), _rec(2), _rec(1, speedup=9.0)])
        kept, dropped = compact_checkpoint(ck)
        assert (kept, dropped) == (2, 1)
        db = ResultsDB.load(ck)
        assert len(db) == 2
        by_h = {r.params["hsize"]: r for r in db}
        assert by_h[1].speedup == 9.0  # latest record won

    def test_compact_preserves_first_occurrence_order(self, tmp_path):
        ck = tmp_path / "c.jsonl"
        with CheckpointWriter(ck) as w:
            w.write([_rec(3), _rec(1), _rec(3, speedup=2.0), _rec(2)])
        compact_checkpoint(ck)
        assert [r.params["hsize"] for r in ResultsDB.load(ck)] == [3, 1, 2]

    def test_compact_distinguishes_app_and_device(self, tmp_path):
        ck = tmp_path / "c.jsonl"
        with CheckpointWriter(ck) as w:
            w.write([_rec(1, device="a"), _rec(1, device="b"),
                     _rec(1, app="lulesh")])
        kept, dropped = compact_checkpoint(ck)
        assert (kept, dropped) == (3, 0)

    def test_compact_to_output_converts_compression(self, tmp_path):
        ck = tmp_path / "c.jsonl"
        with CheckpointWriter(ck) as w:
            w.write([_rec(1), _rec(1, speedup=2.0)])
        out = tmp_path / "c.jsonl.gz"
        kept, dropped = compact_checkpoint(ck, output=out)
        assert (kept, dropped) == (1, 1)
        assert len(ResultsDB.load(ck)) == 2  # source untouched
        db = ResultsDB.load(out)
        assert len(db) == 1 and db.records[0].speedup == 2.0


class TestGzipCheckpoints:
    def test_writer_load_roundtrip(self, tmp_path):
        ck = tmp_path / "c.jsonl.gz"
        with CheckpointWriter(ck) as w:
            w.write([_rec(1), _rec(2)])
        with gzip.open(ck, "rt", encoding="utf-8") as fh:
            assert SCHEMA_KEY in fh.readline()
        assert len(ResultsDB.load(ck)) == 2

    def test_append_adds_gzip_member(self, tmp_path):
        ck = tmp_path / "c.jsonl.gz"
        with CheckpointWriter(ck) as w:
            w.write(_rec(1))
        with CheckpointWriter(ck) as w:
            w.write(_rec(2))
        assert len(ResultsDB.load(ck)) == 2

    def test_save_and_load_gz(self, tmp_path):
        p = tmp_path / "db.jsonl.gz"
        ResultsDB([_rec(1), _rec(2), _rec(3)]).save(p)
        assert len(ResultsDB.load(p)) == 3

    def test_sweep_resumes_from_gz_checkpoint(self, tmp_path):
        ck = tmp_path / "sweep.jsonl.gz"
        pts = _points(3)
        first = run_sweep_parallel(
            "blackscholes", "v100_small", pts[:2],
            problems=PROBLEMS, config=SweepConfig(workers=1, checkpoint=ck),
        )
        assert first.evaluated == 2
        rest = run_sweep_parallel(
            "blackscholes", "v100_small", pts,
            problems=PROBLEMS, config=SweepConfig(workers=1, checkpoint=ck),
        )
        assert rest.skipped == 2 and rest.evaluated == 1

    def test_torn_final_line_skipped_with_warning(self, tmp_path):
        ck = tmp_path / "c.jsonl"
        with CheckpointWriter(ck) as w:
            w.write([_rec(1), _rec(2)])
        with ck.open("a") as fh:
            fh.write('{"app": "blacks')  # crash mid-write
        with pytest.warns(UserWarning, match="torn"):
            db = ResultsDB.load(ck)
        assert len(db) == 2
