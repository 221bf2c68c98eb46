"""Saves replace their file atomically.

``ResultsDB.save`` and ``VariantCache.save`` write a same-directory temp
file and ``os.replace`` it onto the destination, so a save that fails
midway (here: an encoder that raises after two lines) leaves the previous
file whole, with every record it held, and no temp file behind.
"""

import pytest

from repro.harness import database, pruning
from repro.harness.database import RecordKey, ResultsDB, dumps_record
from repro.harness.pruning import VariantCache
from repro.harness.runner import RunRecord


def _records(n, speedup=1.5):
    return [
        RunRecord(
            app="kmeans", device="v100_small", technique="taf",
            params={"hsize": 1, "psize": 4, "threshold": 0.1 * (i + 1)},
            level="thread", items_per_thread=8, speedup=speedup,
        )
        for i in range(n)
    ]


def _key(rec):
    return RecordKey.of_record(rec, database.shared_fields(2023, {}))


def _fail_after(monkeypatch, module, name, lines):
    """Make ``module.name`` raise once it has encoded ``lines`` lines."""
    real = getattr(module, name)
    calls = []

    def encode(*args, **kwargs):
        if len(calls) == lines:
            raise OSError("disk went away")
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, encode)


@pytest.mark.parametrize("name", ["db.jsonl", "db.jsonl.gz"])
def test_interrupted_results_db_save_keeps_the_previous_file(
    tmp_path, monkeypatch, name
):
    path = tmp_path / name
    old = ResultsDB(_records(5))
    old.save(path)
    _fail_after(monkeypatch, database, "dumps_record", 2)
    with pytest.raises(OSError, match="disk went away"):
        ResultsDB(_records(8, speedup=2.5)).save(path)
    assert [dumps_record(r) for r in ResultsDB.load(path).records] == [
        dumps_record(r) for r in old.records
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]


def test_interrupted_variant_cache_save_keeps_the_previous_file(
    tmp_path, monkeypatch
):
    path = tmp_path / "vc.jsonl"
    old = VariantCache()
    for rec in _records(5):
        old.put(_key(rec), rec)
    old.save(path)
    grown = VariantCache(path)
    for rec in _records(8, speedup=2.5):
        grown.put(_key(rec), rec)
    _fail_after(monkeypatch, pruning, "_encode", 2)
    with pytest.raises(OSError, match="disk went away"):
        grown.save()
    reloaded = VariantCache(path)
    assert len(reloaded) == 5
    for rec in _records(5):
        assert dumps_record(reloaded.get(_key(rec))) == dumps_record(rec)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["vc.jsonl"]
