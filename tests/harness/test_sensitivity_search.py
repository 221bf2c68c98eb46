"""Tests for the §4.2 automation: sensitivity analysis and smart search."""

import pytest

from repro.apps import get_benchmark
from repro.harness.batch import BatchEngine
from repro.harness.config import SweepConfig
from repro.harness.search import _neighbors, evolutionary_search, random_search
from repro.harness.sensitivity import (
    SiteSensitivity,
    analyze_sensitivity,
    format_sensitivity,
)
from repro.harness.sweep import SweepPoint


class TestSensitivity:
    def test_lulesh_hourglass_is_amenable(self):
        """The hourglass terms damp perturbations — exactly why the paper
        picks them as approximation sites."""
        app = get_benchmark("lulesh", problem={"mesh": 8, "time_steps": 10})
        reports = analyze_sensitivity(app, rel_sigma=0.05)
        assert {r.site for r in reports} == {"hourglass_control", "fb_hourglass"}
        assert all(r.amenable for r in reports)

    def test_minife_spmv_flagged_protect(self):
        """The analyzer rediscovers the paper's negative result: CG
        amplifies SpMV errors astronomically."""
        app = get_benchmark("minife", problem={"nx": 6, "ny": 6, "nz": 6,
                                               "cg_iters": 20})
        reports = analyze_sensitivity(app, rel_sigma=0.01)
        assert len(reports) == 1
        assert not reports[0].amenable
        assert reports[0].amplification > 100

    def test_reports_sorted_most_amenable_first(self):
        app = get_benchmark("lulesh", problem={"mesh": 8, "time_steps": 10})
        reports = analyze_sensitivity(app)
        amps = [r.amplification for r in reports]
        assert amps == sorted(amps)

    def test_deterministic(self):
        app = get_benchmark("lulesh", problem={"mesh": 8, "time_steps": 10})
        a = analyze_sensitivity(app, rel_sigma=0.05)
        b = analyze_sensitivity(app, rel_sigma=0.05)
        assert [(r.site, r.qoi_error) for r in a] == [
            (r.site, r.qoi_error) for r in b
        ]

    def test_format(self):
        out = format_sensitivity(
            [SiteSensitivity("s", 0.05, 0.01), SiteSensitivity("t", 0.05, 0.5)]
        )
        assert "approximate" in out and "protect" in out


PROBLEMS = {"blackscholes": {"num_options": 4096, "num_runs": 4}}


@pytest.fixture
def engine():
    with BatchEngine(problems=PROBLEMS) as eng:
        yield eng


def _small_space():
    """A compact search space with a known good region."""
    pts = []
    for h in (1, 2):
        for p in (4, 16, 64):
            for t in (0.3, 3.0):
                for ipt in (1, 2, 8):
                    pts.append(
                        SweepPoint(
                            "taf",
                            {"hsize": h, "psize": p, "threshold": t},
                            "thread", ipt,
                        )
                    )
    return pts


class TestNeighbors:
    def test_differing_key_sets_diff_over_union(self):
        # perfo kinds carry different key sets: ini/fini have skip_percent,
        # small/large have skip/herded.  Those points differ in many axes
        # and must never be 1-axis neighbours.
        ini = SweepPoint("perfo", {"kind": "ini", "skip_percent": 10}, "thread", 8)
        small = SweepPoint(
            "perfo", {"kind": "small", "skip": 2, "herded": False}, "thread", 8
        )
        assert small not in _neighbors(ini, [small])
        assert ini not in _neighbors(small, [ini])

    def test_neighborhood_is_symmetric(self):
        # Pre-fix, diffs were summed over cand's keys only, so a point
        # whose params are a superset of the other's was a neighbour in
        # one direction but not the other.
        a = SweepPoint("perfo", {"kind": "ini", "skip_percent": 10}, "thread", 8)
        b = SweepPoint(
            "perfo", {"kind": "ini", "skip_percent": 10, "herded": True}, "thread", 8
        )
        assert (b in _neighbors(a, [b])) == (a in _neighbors(b, [a]))

    def test_same_axis_neighbors_kept(self):
        p = SweepPoint("taf", {"hsize": 1, "psize": 4, "threshold": 0.3}, "thread", 2)
        q = SweepPoint("taf", {"hsize": 2, "psize": 4, "threshold": 0.3}, "thread", 2)
        r = SweepPoint("taf", {"hsize": 2, "psize": 8, "threshold": 0.3}, "thread", 2)
        assert _neighbors(p, [q, r]) == [q]


class TestSearch:
    def test_random_search_respects_budget(self, engine):
        res = random_search(
            engine, "blackscholes", "v100_small", "taf",
            budget=6, space=_small_space(),
        )
        assert res.evaluations == 6
        assert len(res.db) == 6

    def test_random_search_finds_speedup_in_small_space(self, engine):
        res = random_search(
            engine, "blackscholes", "v100_small", "taf",
            budget=18, space=_small_space(),
        )
        assert res.best is not None
        assert res.best_speedup > 1.0

    def test_evolutionary_no_duplicate_evaluations(self, engine):
        res = evolutionary_search(
            engine, "blackscholes", "v100_small", "taf",
            budget=12, space=_small_space(),
        )
        labels = set()
        for rec in res.db.query(feasible=None):
            key = (tuple(sorted(rec.params.items())), rec.level,
                   rec.items_per_thread)
            assert key not in labels
            labels.add(key)

    def test_evolutionary_beats_or_matches_tiny_random(self, engine):
        rand = random_search(
            engine, "blackscholes", "v100_small", "taf",
            budget=12, space=_small_space(), seed=5,
        )
        evo = evolutionary_search(
            engine, "blackscholes", "v100_small", "taf",
            budget=12, space=_small_space(), seed=5,
        )
        assert evo.best_speedup >= rand.best_speedup * 0.8

    def test_search_far_cheaper_than_exhaustive(self, engine):
        space = _small_space()
        res = evolutionary_search(
            engine, "blackscholes", "v100_small", "taf",
            budget=10, space=space,
        )
        assert res.evaluations < len(space)

    def test_random_search_parallel_matches_serial(self, engine):
        serial = random_search(
            engine, "blackscholes", "v100_small", "taf",
            budget=8, space=_small_space(), seed=11,
        )
        with BatchEngine(problems=PROBLEMS) as fresh:
            par = random_search(
                fresh, "blackscholes", "v100_small", "taf",
                budget=8, space=_small_space(), seed=11,
                config=SweepConfig(workers=2),
            )
        assert [r.to_dict() for r in par.db] == [r.to_dict() for r in serial.db]
        assert par.best.to_dict() == serial.best.to_dict()

    def test_infeasible_points_do_not_crash_search(self, engine):
        # iACT corners of Table 2 overflow shared memory; the search must
        # absorb them as infeasible records.
        res = random_search(
            engine, "blackscholes", "v100_small", "iact", budget=8,
            threshold_scale=0.3,
        )
        assert res.evaluations == 8
