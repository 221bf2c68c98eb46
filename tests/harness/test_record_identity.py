"""One record identity: a checkpoint resumes only under the seed, problems,
site and sanitize flag its header holds.

Every cache, checkpoint and memo key is a ``RecordKey``.  A record stores
its app, device and point label; the checkpoint header holds the fields
all its rows share.  Resuming a file under other shared fields, or a file
whose records have no such header, raises ``EngineMismatchError`` naming
the file and the field, and leaves the file as it was.
"""

import json

import pytest

from repro.__main__ import main
from repro.errors import EngineMismatchError
from repro.harness.batch import BatchEngine, BatchJob, run_sweep_parallel
from repro.harness.config import SweepConfig
from repro.harness.database import (
    SCHEMA_KEY,
    CheckpointWriter,
    ResultsDB,
    compact_checkpoint,
    dumps_record,
    shared_fields,
)
from repro.harness.sweep import SweepPoint

PROBLEMS = {"blackscholes": {"num_options": 2048, "num_runs": 2}}
POINTS = [
    SweepPoint("taf", {"hsize": 1, "psize": 4, "threshold": t}, "thread", 2)
    for t in (0.3, 3.0, 20.0)
]

#: One change of each shared field away from the defaults the checkpoint
#: is written under: field -> (sweep keywords, config fields).
CHANGES = {
    "seed": ({"seed": 7}, {}),
    "problems": ({"problems": {"blackscholes": {"num_options": 1024}}}, {}),
    "sanitize": ({}, {"sanitize": True}),
    "site": ({"site": "price"}, {}),
}


def _sweep(ck, prune=False, site=None, problems=PROBLEMS, seed=2023, **cfg):
    return run_sweep_parallel(
        "blackscholes", "v100_small", POINTS, site=site, problems=problems,
        seed=seed, config=SweepConfig(checkpoint=ck, prune=prune, **cfg),
    )


class TestRefusal:
    @pytest.mark.parametrize("prune", [False, 0.1], ids=["plain", "pruned"])
    @pytest.mark.parametrize("field", sorted(CHANGES))
    def test_resume_under_another_shared_field_raises(self, tmp_path, field, prune):
        ck = tmp_path / "ck.jsonl"
        _sweep(ck, prune=prune)
        before = ck.read_bytes()
        kwargs, cfg = CHANGES[field]
        with pytest.raises(EngineMismatchError, match=f"ck.jsonl: .*{field}="):
            _sweep(ck, prune=prune, **kwargs, **cfg)
        assert ck.read_bytes() == before

    @pytest.mark.parametrize("header", [None, {SCHEMA_KEY: 1}])
    def test_records_without_identity_header_raise(self, tmp_path, header):
        ck = tmp_path / "ck.jsonl"
        rec = _sweep(tmp_path / "ref.jsonl").records[0]
        lines = [json.dumps(header)] if header else []
        ck.write_text("\n".join(lines + [dumps_record(rec)]) + "\n")
        before = ck.read_bytes()
        with pytest.raises(EngineMismatchError, match="ck.jsonl: holds records but no"):
            _sweep(ck)
        assert ck.read_bytes() == before

    @pytest.mark.parametrize("text", ["", json.dumps({SCHEMA_KEY: 1}) + "\n"])
    def test_record_less_file_is_adopted(self, tmp_path, text):
        ck = tmp_path / "ck.jsonl"
        ck.write_text(text)
        assert _sweep(ck).evaluated == len(POINTS)
        assert ResultsDB.load(ck).shared == shared_fields(2023, PROBLEMS)
        assert _sweep(ck).skipped == len(POINTS)

    def test_one_checkpoint_holds_one_site(self, tmp_path):
        jobs = [
            BatchJob("blackscholes", "v100_small", POINTS[0], site=site)
            for site in (None, "price")
        ]
        with BatchEngine(problems=PROBLEMS) as engine:
            with pytest.raises(EngineMismatchError, match="one site"):
                engine.submit(jobs, SweepConfig(checkpoint=tmp_path / "ck.jsonl"))

    def test_merge_of_another_identity_raises(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        _sweep(ck)
        other = ResultsDB()
        other.shared = shared_fields(7, PROBLEMS)
        with pytest.raises(EngineMismatchError, match="seed="):
            other.merge(ResultsDB.load(ck))


class TestHeader:
    def test_engine_checkpoint_header_holds_the_shared_fields(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        _sweep(ck, site="price", sanitize=True)
        header = json.loads(ck.read_text().splitlines()[0])
        assert header == {
            SCHEMA_KEY: 2, **shared_fields(2023, PROBLEMS, "price", True)
        }

    @pytest.mark.parametrize("output", [None, "out.jsonl.gz"])
    def test_compaction_keeps_the_header_and_still_resumes(self, tmp_path, output):
        ck = tmp_path / "ck.jsonl"
        first = _sweep(ck)
        header = ck.read_text().splitlines()[0]
        with CheckpointWriter(ck) as w:  # a re-run label, appended again
            w.write(first.records[0])
        dest = tmp_path / output if output else ck
        assert compact_checkpoint(ck, dest) == (len(POINTS), 1)
        assert ResultsDB.load(dest).shared == shared_fields(2023, PROBLEMS)
        if output is None:
            assert ck.read_text().splitlines()[0] == header
        again = _sweep(dest)
        assert again.evaluated == 0 and again.skipped == len(POINTS)

    def test_cli_compaction_keeps_the_header(self, tmp_path, capsys):
        ck = tmp_path / "ck.jsonl"
        _sweep(ck, sanitize=True)
        header = ck.read_text().splitlines()[0]
        assert main(["checkpoint", "compact", str(ck)]) == 0
        assert ck.read_text().splitlines()[0] == header
        with pytest.raises(EngineMismatchError, match="sanitize="):
            _sweep(ck)
