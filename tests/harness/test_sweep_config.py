"""Unified SweepConfig tests: frozen policy, removed shims, progress.

One frozen config object threads through every entry point; the old
loose keywords raise ``TypeError``; and ``progress`` accepts
``bool | Callable[[SweepProgress], None]`` uniformly, firing per point on
every in-process path, ``run_sweep`` included.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.harness import batch
from repro.harness.batch import BatchEngine, BatchJob, run_sweep_parallel
from repro.harness.config import SweepConfig
from repro.harness.runner import ExperimentRunner
from repro.harness.sweep import SweepPoint

PROBLEMS = {"blackscholes": {"num_options": 2048, "num_runs": 4}}


def _points(n=3):
    return [
        SweepPoint("taf", {"hsize": 1, "psize": p, "threshold": 0.3}, "thread", 2)
        for p in (4, 8, 16, 32)
    ][:n]


class TestSweepConfig:
    def test_frozen(self):
        cfg = SweepConfig(workers=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.workers = 4

    def test_replace_derives_variant(self):
        cfg = SweepConfig(workers=2, retries=3)
        out = cfg.replace(workers=4)
        assert (out.workers, out.retries) == (4, 3)
        assert cfg.workers == 2  # original untouched

    @pytest.mark.parametrize("value", ["vc.jsonl", Path("vc.jsonl")])
    def test_variant_cache_takes_an_instance_only(self, value):
        # A path was accepted and never saved; the owner of a
        # VariantCache instance saves it.
        with pytest.raises(TypeError, match=r"VariantCache\(path\)"):
            SweepConfig(variant_cache=value)
        with pytest.raises(TypeError, match=r"VariantCache\(path\)"):
            SweepConfig().replace(variant_cache=value)

    def test_merged_overlays_non_defaults(self):
        base = SweepConfig(workers=4, retries=3)
        out = base.merged(SweepConfig(checkpoint="ck.jsonl"))
        assert out.workers == 4 and out.retries == 3
        assert str(out.checkpoint) == "ck.jsonl"
        assert base.merged(None) is base


class TestRemovedShims:
    """The 1.x loose keywords are gone: each former shim entry point now
    rejects them like any mistyped parameter name."""

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(
                lambda: BatchEngine(problems=PROBLEMS, max_workers=2),
                id="BatchEngine",
            ),
            pytest.param(
                lambda: run_sweep_parallel(
                    "blackscholes", "v100_small", _points(),
                    problems=PROBLEMS, parallel=2,
                ),
                id="run_sweep_parallel",
            ),
            pytest.param(
                lambda: ExperimentRunner(problems=PROBLEMS).run_sweep(
                    "blackscholes", "v100_small", _points(), checkpoint="ck.jsonl"
                ),
                id="runner.run_sweep",
            ),
        ],
    )
    def test_loose_kwarg_raises(self, call):
        with pytest.raises(TypeError):
            call()

    def test_chunk_size_is_gone(self):
        # Pool chunks are sized by guided self-scheduling alone.
        assert len(dataclasses.fields(SweepConfig)) == 8
        with pytest.raises(TypeError):
            SweepConfig(chunk_size=4)


class TestProgressUnification:
    def test_serial_run_sweep_accepts_callable(self):
        runner = ExperimentRunner(problems=PROBLEMS)
        snaps = []
        runner.run_sweep(
            "blackscholes", "v100_small", _points(),
            config=SweepConfig(progress=snaps.append),
        )
        assert [p.done for p in snaps] == [1, 2, 3]
        assert all(p.total == 3 for p in snaps)

    def test_serial_run_sweep_progress_true(self, capsys):
        runner = ExperimentRunner(problems=PROBLEMS)
        runner.run_sweep(
            "blackscholes", "v100_small", _points(1),
            config=SweepConfig(progress=True),
        )
        assert "1/1" in capsys.readouterr().err

    def test_parallel_and_serial_callables_see_same_totals(self, monkeypatch):
        monkeypatch.setattr(
            batch.AdaptiveChunker, "next_size", lambda self, group=None: 1
        )

        def drive(workers):
            snaps = []
            run_sweep_parallel(
                "blackscholes", "v100_small", _points(),
                problems=PROBLEMS,
                config=SweepConfig(workers=workers, progress=snaps.append),
            )
            return [(p.done, p.total) for p in snaps]

        assert drive(1) == drive(2)

    def test_batch_engine_forwards_progress(self):
        # In-process streams evaluate one job per step, so progress fires
        # per point without pinning a chunk size.
        snaps = []
        with BatchEngine(
            problems=PROBLEMS,
            config=SweepConfig(workers=1, progress=snaps.append),
        ) as eng:
            eng.run_jobs(
                [BatchJob("blackscholes", "v100_small", p) for p in _points()]
            )
        assert [p.done for p in snaps] == [1, 2, 3]
