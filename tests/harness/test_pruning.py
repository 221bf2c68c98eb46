"""Lattice-pruned sweep tests.

The acceptance bar from the issue: on a Table-2-style sub-grid the pruned
sweep must evaluate at most 60% of the full sweep's points, every record
it *does* evaluate must be byte-identical to the unpruned run, and every
point it skips must appear as a checkpoint row naming its pruning
ancestor.  On top of that: checkpoint resume over pruned rows,
determinism at any worker count, and variant-cache hit accounting.
"""

import json

import pytest

from repro.harness.batch import BatchEngine, BatchJob, run_sweep_parallel
from repro.harness.config import SweepConfig
from repro.harness.database import RecordKey, ResultsDB, dumps_record, record_status
from repro.harness.pruning import (
    DEFAULT_QOI_BOUND,
    SweepLattice,
    VariantCache,
    aggression_axes,
    aggression_vector,
)
from repro.harness.runner import RunRecord
from repro.harness.sweep import SweepPoint

PROBLEMS = {"kmeans": {"num_obs": 2048, "max_iters": 8}}


def _label(rec):
    return SweepPoint.of_record(rec).label()


def _is_pruned(rec):
    return record_status(rec) == "pruned"


def taf_grid():
    """32-point kmeans TAF sub-grid spanning benign-to-aggressive."""
    return [
        SweepPoint("taf", {"hsize": h, "psize": ps, "threshold": t}, level=lvl)
        for h in (1, 2)
        for ps in (4, 8)
        for t in (0.3, 0.9, 3.0, 20.0)
        for lvl in ("thread", "warp")
    ]


@pytest.fixture(scope="module")
def grid():
    return taf_grid()


@pytest.fixture(scope="module")
def full_report(grid):
    """Unpruned serial reference sweep (shared across tests)."""
    return run_sweep_parallel(
        "kmeans", "v100_small", grid, problems=PROBLEMS,
        config=SweepConfig(),
    )


@pytest.fixture(scope="module")
def pruned_report(grid):
    return run_sweep_parallel(
        "kmeans", "v100_small", grid, problems=PROBLEMS,
        config=SweepConfig(prune=0.10),
    )


class TestLattice:
    def test_axes_directions(self):
        taf = SweepPoint("taf", {"hsize": 1, "psize": 4, "threshold": 0.5})
        assert aggression_axes(taf) == [("threshold", 1)]
        small = SweepPoint("perfo", {"kind": "small", "skip": 4})
        assert aggression_axes(small) == [("skip", -1)]
        large = SweepPoint("perfo", {"kind": "large", "skip": 4})
        assert aggression_axes(large) == [("skip", 1)]
        ini = SweepPoint("perfo", {"kind": "ini", "skip_percent": 20})
        assert aggression_axes(ini) == [("skip_percent", 1)]

    def test_vector_orders_aggressiveness(self):
        mild = SweepPoint("taf", {"hsize": 1, "psize": 4, "threshold": 0.3})
        harsh = SweepPoint("taf", {"hsize": 1, "psize": 4, "threshold": 3.0})
        vm, vh = aggression_vector(mild), aggression_vector(harsh)
        assert vm is not None and vh is not None
        assert all(a <= b for a, b in zip(vm, vh)) and vm != vh

    def test_small_perfo_skip_direction(self):
        # skip-1-of-2 drops half the iterations; skip-1-of-8 drops 1/8 —
        # the smaller skip value is the MORE aggressive point.
        s2 = SweepPoint("perfo", {"kind": "small", "skip": 2})
        s8 = SweepPoint("perfo", {"kind": "small", "skip": 8})
        v2, v8 = aggression_vector(s2), aggression_vector(s8)
        assert all(a >= b for a, b in zip(v2, v8))

    def test_level_in_vector(self):
        params = {"hsize": 1, "psize": 4, "threshold": 1.0}
        t = SweepPoint("taf", params, level="thread")
        w = SweepPoint("taf", params, level="warp")
        vt, vw = aggression_vector(t), aggression_vector(w)
        assert vt[-1] < vw[-1]

    def test_ancestors_within_group_only(self, grid):
        lat = SweepLattice(grid)
        root = next(pt for pt in grid if not lat.ancestors(pt))
        below = [pt for pt in grid if root in lat.ancestors(pt)]
        assert below
        # An ancestor shares every non-axis parameter and is strictly less
        # aggressive; a point sits one above its highest ancestor.
        for pt in grid:
            ancestors = lat.ancestors(pt)
            for a in ancestors:
                assert (a.params["hsize"], a.params["psize"]) == (
                    pt.params["hsize"], pt.params["psize"]
                )
                va, vp = lat.vector(a), lat.vector(pt)
                assert all(x <= y for x, y in zip(va, vp)) and va != vp
            assert lat.height(pt) == 1 + max(
                (lat.height(a) for a in ancestors), default=-1
            )

    def test_unordered_points_isolated(self):
        pts = [SweepPoint("sc", {"rate": r}) for r in (1, 2)]
        lat = SweepLattice(pts)
        for p in pts:
            assert not lat.ancestors(p)
            assert lat.height(p) == 0


class TestPrunedSweepEquivalence:
    def test_evaluates_at_most_60_percent(self, full_report, pruned_report):
        assert pruned_report.evaluated <= 0.60 * full_report.evaluated

    def test_survivors_byte_identical(self, full_report, pruned_report):
        full = {_label(r): dumps_record(r) for r in full_report.records}
        for rec in pruned_report.records:
            if _is_pruned(rec):
                continue
            assert dumps_record(rec) == full[_label(rec)]

    def test_pruned_rows_name_real_ancestors(self, grid, pruned_report):
        labels = {p.label() for p in grid}
        evaluated = {
            _label(r) for r in pruned_report.records
            if not _is_pruned(r)
        }
        pruned = [r for r in pruned_report.records if _is_pruned(r)]
        assert pruned, "bound 0.10 must prune something on this grid"
        for rec in pruned:
            anc = rec.extra["pruned_by"]
            assert anc in labels and anc in evaluated
            assert rec.extra["ancestor_error"] > rec.extra["qoi_bound"]
            assert not rec.feasible
            assert record_status(rec) == "pruned"

    def test_pruned_ancestor_actually_violates(self, full_report, pruned_report):
        by_label = {_label(r): r for r in full_report.records}
        for rec in pruned_report.records:
            if _is_pruned(rec):
                anc = by_label[rec.extra["pruned_by"]]
                assert anc.feasible and anc.error > 0.10

    def test_report_extra_accounting(self, grid, pruned_report):
        extra = pruned_report.extra
        assert extra["qoi_bound"] == 0.10
        assert extra["lattice_pruned"] == sum(
            1 for r in pruned_report.records if _is_pruned(r)
        )
        assert pruned_report.evaluated + extra["lattice_pruned"] == len(grid)

    def test_records_in_input_order(self, grid, pruned_report):
        assert [_label(r) for r in pruned_report.records] == [
            p.label() for p in grid
        ]

    def test_prune_true_uses_default_bound(self, grid):
        rep = run_sweep_parallel(
            "kmeans", "v100_small", grid[:4], problems=PROBLEMS,
            config=SweepConfig(prune=True),
        )
        assert rep.extra["qoi_bound"] == DEFAULT_QOI_BOUND



def chain_grid():
    """12-point kmeans TAF grid: three threshold chains whose least
    aggressive points all violate a 10% bound (3 evaluated, 9 pruned)."""
    return [
        SweepPoint("taf", {"hsize": 1, "psize": ps, "threshold": t})
        for ps in (4, 8, 16)
        for t in (0.3, 0.9, 3.0, 20.0)
    ]


class TestEnginePolicy:
    """A sweep through an engine runs under the engine's policy merged
    with the call's, resolved once at the sweep entry."""

    def test_engine_prune_applies_to_sweeps_through_it(self):
        grid = chain_grid()
        with BatchEngine(
            problems=PROBLEMS, config=SweepConfig(prune=0.10)
        ) as engine:
            rep = run_sweep_parallel("kmeans", "v100_small", grid, engine=engine)
        assert rep.evaluated == 3
        assert rep.extra["lattice_pruned"] == 9

    def test_engine_checkpoint_holds_every_pruned_sweep_row(self, tmp_path):
        ck = str(tmp_path / "ck.jsonl")
        grid = chain_grid()
        call = SweepConfig(prune=0.10)

        def sweep():
            with BatchEngine(
                problems=PROBLEMS, config=SweepConfig(checkpoint=ck)
            ) as engine:
                return run_sweep_parallel(
                    "kmeans", "v100_small", grid, config=call, engine=engine
                )

        first = sweep()
        assert first.evaluated == 3
        assert len(ResultsDB.load(ck)) == len(grid)
        again = sweep()
        assert again.evaluated == 0 and again.skipped == len(grid)
        assert [dumps_record(r) for r in again.records] == [
            dumps_record(r) for r in first.records
        ]


    def test_submit_honors_prune(self, grid, pruned_report, full_report):
        jobs = [BatchJob("kmeans", "v100_small", pt) for pt in grid]
        with BatchEngine(problems=PROBLEMS) as engine:
            rep = engine.submit(jobs, SweepConfig(prune=0.10)).report()
            # Pruned rows are verdicts under one bound: an unpruned call on
            # the same engine evaluates those points instead of reusing them.
            again = engine.submit(jobs).report()
        assert rep.evaluated == 4
        assert sum(_is_pruned(r) for r in rep.records) == 28
        assert rep.extra["lattice_pruned"] == 28
        assert [dumps_record(r) for r in rep.records] == [
            dumps_record(r) for r in pruned_report.records
        ]
        assert again.evaluated == 28
        assert [dumps_record(r) for r in again.records] == [
            dumps_record(r) for r in full_report.records
        ]


class TestPrunedCheckpointResume:
    def test_resume_skips_everything(self, grid, tmp_path):
        ck = str(tmp_path / "ck.jsonl")
        cfg = SweepConfig(prune=0.10, checkpoint=ck)
        r1 = run_sweep_parallel("kmeans", "v100_small", grid,
                                problems=PROBLEMS, config=cfg)
        r2 = run_sweep_parallel("kmeans", "v100_small", grid,
                                problems=PROBLEMS, config=cfg)
        assert r2.evaluated == 0 and r2.skipped == len(grid)
        assert [dumps_record(a) for a in r1.records] == [
            dumps_record(b) for b in r2.records
        ]

    def test_partial_resume_preserves_pruned_rows(self, grid, tmp_path):
        ck = str(tmp_path / "ck.jsonl")
        cfg = SweepConfig(prune=0.10, checkpoint=ck)
        half = grid[: len(grid) // 2]
        run_sweep_parallel("kmeans", "v100_small", half,
                           problems=PROBLEMS, config=cfg)
        mid = ResultsDB.load(ck)
        r2 = run_sweep_parallel("kmeans", "v100_small", grid,
                                problems=PROBLEMS, config=cfg)
        db = ResultsDB.load(ck)
        # Every row from the first run is trusted verbatim by the second.
        final = {_label(r): dumps_record(r) for r in
                 db.query(feasible=None)}
        for rec in mid.query(feasible=None):
            assert final[_label(rec)] == dumps_record(rec)
        assert {_label(r) for r in r2.records} == {
            p.label() for p in grid
        }
        assert db.status_counts()["pruned"] == sum(
            1 for r in r2.records if _is_pruned(r)
        )

    def test_matches_uncheckpointed_run(self, grid, tmp_path, pruned_report):
        ck = str(tmp_path / "ck.jsonl")
        rep = run_sweep_parallel(
            "kmeans", "v100_small", grid, problems=PROBLEMS,
            config=SweepConfig(prune=0.10, checkpoint=ck),
        )
        assert [dumps_record(a) for a in rep.records] == [
            dumps_record(b) for b in pruned_report.records
        ]


class TestOrderingDeterminism:
    def test_worker_count_invariance(self, grid, pruned_report):
        for workers in (2, 3):
            rep = run_sweep_parallel(
                "kmeans", "v100_small", grid, problems=PROBLEMS,
                config=SweepConfig(prune=0.10, workers=workers),
            )
            assert [dumps_record(a) for a in rep.records] == [
                dumps_record(b) for b in pruned_report.records
            ]


class TestVariantCache:
    def test_hit_and_miss_counters(self, grid, tmp_path):
        cache = VariantCache(tmp_path / "vc.jsonl")
        sub = grid[:6]
        cfg = SweepConfig(variant_cache=cache)
        r1 = run_sweep_parallel("kmeans", "v100_small", sub,
                                problems=PROBLEMS, config=cfg)
        assert r1.evaluated == len(sub)
        assert r1.variant_hits == 0
        assert cache.misses == len(sub) and cache.stores == len(sub)
        r2 = run_sweep_parallel("kmeans", "v100_small", sub,
                                problems=PROBLEMS, config=cfg)
        assert r2.evaluated == 0
        assert r2.variant_hits == len(sub)
        assert cache.hits == len(sub)
        assert [dumps_record(a) for a in r1.records] == [
            dumps_record(b) for b in r2.records
        ]

    def test_persistence_round_trip(self, grid, tmp_path):
        path = tmp_path / "vc.jsonl"
        cache = VariantCache(path)
        sub = grid[:4]
        run_sweep_parallel("kmeans", "v100_small", sub, problems=PROBLEMS,
                           config=SweepConfig(variant_cache=cache))
        cache.save()
        reloaded = VariantCache(path)
        assert len(reloaded) == len(sub)
        rep = run_sweep_parallel("kmeans", "v100_small", sub,
                                 problems=PROBLEMS,
                                 config=SweepConfig(variant_cache=reloaded))
        assert rep.evaluated == 0 and rep.variant_hits == len(sub)

    def test_key_sensitive_to_inputs(self, grid):
        # The cache digests every RecordKey field: changing any single one
        # is a miss, an equal key a hit.
        base = RecordKey(
            "kmeans", "v100_small", grid[0].label(), None, False, 2023, "{}"
        )
        other = RecordKey(
            "lulesh", "amd_small", grid[1].label(), "site", True, 7,
            json.dumps(PROBLEMS, sort_keys=True),
        )
        cache = VariantCache()
        record = RunRecord("kmeans", "v100_small", "taf", {}, "thread", 8)
        cache.put(base, record)
        assert cache.get(RecordKey(*base)) is record
        for field, value in zip(RecordKey._fields, other):
            changed = base._replace(**{field: value})
            assert changed.digest() != base.digest(), field
            assert cache.get(changed) is None, field

    def test_single_job_stream_consults_cache(self, grid):
        vc = VariantCache()
        job = BatchJob("kmeans", "v100_small", grid[0])
        eng = BatchEngine(
            problems=PROBLEMS, config=SweepConfig(variant_cache=vc)
        )
        try:
            eng.submit([job]).records()
        finally:
            eng.close()
        eng2 = BatchEngine(
            problems=PROBLEMS, config=SweepConfig(variant_cache=vc)
        )
        try:
            recs = eng2.submit([job]).records()
            assert eng2.stats.variant_hits == 1
            assert eng2.stats.executed == 0
            assert recs[0].feasible
        finally:
            eng2.close()

    def test_torn_cache_line_skipped(self, tmp_path, grid):
        path = tmp_path / "vc.jsonl"
        cache = VariantCache(path)
        run_sweep_parallel("kmeans", "v100_small", grid[:2],
                           problems=PROBLEMS,
                           config=SweepConfig(variant_cache=cache))
        cache.save()
        with open(path, "a") as fh:
            fh.write('{"key": "abc", "record": {tru')
        reloaded = VariantCache(path)
        assert len(reloaded) == 2


class TestRaggedParamKeys:
    """Perforation's pattern kinds carry different parameter keys
    (small/large: herded, kind, skip; ini/fini: kind, skip_percent), so one
    technique's lattice spans groups of two key sets."""

    LULESH = {"lulesh": {"mesh": 6, "time_steps": 4}}

    def test_pruned_lulesh_perfo_sweep_matches_unpruned(self):
        from repro.harness.sweep import table2_space

        points = table2_space("perfo", "v100_small")
        assert len({tuple(sorted(p.params)) for p in points}) > 1
        pruned, plain = (
            run_sweep_parallel(
                "lulesh", "v100_small", points, problems=self.LULESH,
                config=SweepConfig(prune=prune),
            )
            for prune in (0.1, False)
        )
        evaluated = [
            (dumps_record(a), dumps_record(b))
            for a, b in zip(pruned.records, plain.records)
            if not _is_pruned(a)
        ]
        assert evaluated
        assert all(a == b for a, b in evaluated)
