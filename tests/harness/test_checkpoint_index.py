"""An engine reads each checkpoint file once and keeps its index current.

Every ``BatchEngine.submit`` with a checkpoint and every pruned sweep
resumes from the engine's index of that file instead of re-reading it, so
a checkpointed evolutionary search (one single-job stream per proposal)
reads the file once, not once per proposal.  The index holds every row
the engine writes there — stream records, preflight rows, variant-cache
hits and lattice-pruned rows — so a later call sees exactly what a
re-read would.
"""

import pytest

from repro import api
from repro.harness.batch import BatchEngine, BatchJob, run_sweep_parallel
from repro.harness.config import SweepConfig
from repro.harness.database import ResultsDB, dumps_record
from repro.harness.pruning import VariantCache
from repro.harness.runner import ExperimentRunner
from repro.harness.sweep import SweepPoint

PROBLEMS = {
    "blackscholes": {"num_options": 2048, "num_runs": 2},
    "kmeans": {"num_obs": 2048, "max_iters": 8},
}


@pytest.fixture
def loads(monkeypatch):
    """Paths passed to ``ResultsDB.load``, in call order."""
    calls = []
    real = ResultsDB.load.__func__

    def counting(cls, path):
        calls.append(str(path))
        return real(cls, path)

    monkeypatch.setattr(ResultsDB, "load", classmethod(counting))
    return calls


def _index_dump(index: dict) -> dict:
    return {key: dumps_record(rec) for key, rec in index.items()}


class TestCheckpointReadOnce:
    def test_evolutionary_search_reads_its_checkpoint_once(
        self, loads, tmp_path, monkeypatch
    ):
        ck = str(tmp_path / "search.jsonl")
        kwargs = dict(
            technique="taf", strategy="evolutionary", budget=12,
            population=3, problems=PROBLEMS,
            config=SweepConfig(checkpoint=ck),
        )
        first = api.search("blackscholes", **kwargs).result
        assert first.evaluations == 12
        assert len(loads) <= 1  # fresh file: nothing to read yet

        del loads[:]
        calls = []
        real = ExperimentRunner.run_point

        def counting(self, *args, **kw):
            calls.append(args)
            return real(self, *args, **kw)

        monkeypatch.setattr(ExperimentRunner, "run_point", counting)
        again = api.search("blackscholes", **kwargs).result
        assert loads == [ck]
        assert calls == []  # every record resumed from the checkpoint
        assert [dumps_record(r) for r in again.db] == [
            dumps_record(r) for r in first.db
        ]

    def test_engine_reads_each_path_once_across_submits(self, loads, tmp_path):
        ck = str(tmp_path / "ck.jsonl")
        pts = [
            SweepPoint("taf", {"hsize": 1, "psize": p, "threshold": 0.3},
                       "thread", 2)
            for p in (4, 8, 16)
        ]
        with BatchEngine(problems=PROBLEMS) as engine:
            engine.submit(
                [BatchJob("blackscholes", "v100_small", pts[0])],
                config=SweepConfig(checkpoint=ck),
            ).records()
        del loads[:]
        with BatchEngine(problems=PROBLEMS) as engine:
            for pt in pts:
                engine.submit(
                    [BatchJob("blackscholes", "v100_small", pt)],
                    config=SweepConfig(checkpoint=ck),
                ).records()
            report = engine.submit(
                [BatchJob("blackscholes", "v100_small", pt) for pt in pts],
                config=SweepConfig(checkpoint=ck),
            ).report()
        assert loads == [ck]
        assert report.evaluated == 0 and report.skipped == len(pts)


class TestIndexMatchesReread:
    def test_every_written_row_is_indexed(self, tmp_path):
        ck = str(tmp_path / "ck.jsonl")
        # Lattice-pruned rows: three threshold chains whose least
        # aggressive points violate a 10% bound.
        chains = [
            SweepPoint("taf", {"hsize": 1, "psize": ps, "threshold": t})
            for ps in (4, 8)
            for t in (0.3, 3.0, 20.0)
        ]
        # A preflight row (HPAC020: AC state overflows shared memory) and
        # a variant-cache hit seeded by another engine.
        corner = SweepPoint(
            "iact", {"tsize": 8, "threshold": 0.3, "tperwarp": 32}, "thread", 8
        )
        cached = SweepPoint(
            "taf", {"hsize": 1, "psize": 4, "threshold": 0.3}, "thread", 2
        )
        vcache = VariantCache()
        with BatchEngine(problems=PROBLEMS) as other:
            other.submit(
                [BatchJob("blackscholes", "v100_small", cached)],
                config=SweepConfig(variant_cache=vcache),
            ).records()

        with BatchEngine(problems=PROBLEMS) as engine:
            pruned = run_sweep_parallel(
                "kmeans", "v100_small", chains, engine=engine,
                config=SweepConfig(checkpoint=ck, prune=0.10),
            )
            assert pruned.extra["lattice_pruned"] > 0
            engine.submit(
                [BatchJob("blackscholes", "v100_small", pt)
                 for pt in (corner, cached)],
                config=SweepConfig(
                    checkpoint=ck, preflight=True, variant_cache=vcache
                ),
            ).records()
            index = engine.checkpoint_index(ck, engine.shared(None, False))
        with BatchEngine(problems=PROBLEMS) as fresh:
            reread = fresh.checkpoint_index(ck, fresh.shared(None, False))

        assert _index_dump(index) == _index_dump(reread)
        counts = ResultsDB(reread.values()).status_counts()
        assert counts["pruned"] > 0 and counts["preflight"] == 1
        assert len(reread) == len(chains) + 2

    def test_pruned_sweep_resumes_from_the_index(self, loads, tmp_path):
        ck = str(tmp_path / "ck.jsonl")
        chains = [
            SweepPoint("taf", {"hsize": 1, "psize": ps, "threshold": t})
            for ps in (4, 8)
            for t in (0.3, 3.0, 20.0)
        ]
        cfg = SweepConfig(checkpoint=ck, prune=0.10)
        with BatchEngine(problems=PROBLEMS) as engine:
            first = run_sweep_parallel(
                "kmeans", "v100_small", chains, engine=engine, config=cfg
            )
            again = run_sweep_parallel(
                "kmeans", "v100_small", chains, engine=engine, config=cfg
            )
        assert loads == []  # the file did not exist when first indexed
        assert again.evaluated == 0 and again.skipped == len(chains)
        assert [dumps_record(r) for r in again.records] == [
            dumps_record(r) for r in first.records
        ]
