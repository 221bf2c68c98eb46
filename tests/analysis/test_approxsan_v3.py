"""ApproxSan v3: vector-clock happens-before engine (HPAC208/209),
multi-seed contract inference, and the static contract-dataflow verifier
(HPAC213/214)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.infer import (
    _fold_observed,
    _seed_list,
    infer_app,
    verify_roundtrip,
)
from repro.analysis.rules.dataflow import lint_dataflow
from repro.analysis.sanitizer import ObservedAccess, Sanitizer
from repro.apps.common import AppResult, Benchmark, SiteInfo
from repro.harness.batch import WorkerPool

#: A 32-lane-warp context: all the race detector reads from it.
CTX32 = SimpleNamespace(warp_size=32)

IDX8 = np.arange(8)
M8 = np.ones(8, dtype=bool)


def codes(diags):
    return sorted(d.code for d in diags)


# ======================================================================
# HPAC208: cross-launch write-write races (the vector-clock engine)
# ======================================================================
class TestCrossLaunchRace:
    def setup_method(self):
        self.san = Sanitizer()
        self.arr = np.zeros(16)

    def _launch_write(self, name, *, nowait, arr=None):
        arr = self.arr if arr is None else arr
        self.san.begin_launch(name, {"buf": arr}, nowait=nowait)
        self.san.on_global_write(arr, IDX8, M8, CTX32)
        self.san.end_launch()

    def test_nowait_pair_missed_by_epochs_caught_by_clock(self):
        # The v2 epoch model treated *every* launch boundary as
        # synchronizing, so two unjoined nowait kernels racing on one
        # buffer sailed through.  The sync clock knows better: neither
        # launch advanced it, so their writes are unordered.
        self._launch_write("writer_a", nowait=True)
        self._launch_write("writer_b", nowait=True)
        diags = self.san.finish().diagnostics
        assert "HPAC206" not in codes(diags)  # epochs differ: not v2's race
        assert "HPAC208" in codes(diags)
        d = next(d for d in diags if d.code == "HPAC208")
        assert "'writer_a'" in d.message and "'writer_b'" in d.message

    def test_synchronous_launches_are_ordered(self):
        self._launch_write("a", nowait=False)
        self._launch_write("b", nowait=False)
        assert codes(self.san.finish().diagnostics) == []

    def test_sync_then_nowait_is_ordered(self):
        # A synchronous launch joins on completion: a later nowait kernel
        # is ordered after its writes.
        self._launch_write("a", nowait=False)
        self._launch_write("b", nowait=True)
        assert codes(self.san.finish().diagnostics) == []

    def test_taskwait_joins_nowait_launches(self):
        self._launch_write("a", nowait=True)
        self.san.on_sync()
        self._launch_write("b", nowait=True)
        assert codes(self.san.finish().diagnostics) == []
        assert self.san.counters["sync_joins"] == 1

    def test_disjoint_elements_are_clean(self):
        self.san.begin_launch("a", {"buf": self.arr}, nowait=True)
        self.san.on_global_write(self.arr, IDX8, M8, CTX32)
        self.san.end_launch()
        self.san.begin_launch("b", {"buf": self.arr}, nowait=True)
        self.san.on_global_write(self.arr, IDX8 + 8, M8, CTX32)
        self.san.end_launch()
        assert codes(self.san.finish().diagnostics) == []

    def test_block_barrier_does_not_order_kernels(self):
        # A __syncthreads() inside the second kernel is block-scope: it
        # cannot order anything against a different launch.
        self._launch_write("a", nowait=True)
        self.san.begin_launch("b", {"buf": self.arr}, nowait=True)
        self.san.on_barrier()
        self.san.on_global_write(self.arr, IDX8, M8, CTX32)
        self.san.end_launch()
        assert "HPAC208" in codes(self.san.finish().diagnostics)

    def test_dedup_is_per_launch_pair(self):
        # Three unjoined writers produce two distinct races — (a, b) and
        # (b, c).  Deduplication keyed only on (code, region, subject)
        # would fold them into one report; the lineage key keeps both.
        self._launch_write("a", nowait=True)
        self._launch_write("b", nowait=True)
        self._launch_write("c", nowait=True)
        races = [d for d in self.san.finish().diagnostics
                 if d.code == "HPAC208"]
        assert len(races) == 2
        pairs = {tuple(d.data["writer_launches"]) for d in races}
        assert pairs == {("a", "b"), ("b", "c")}


# ======================================================================
# HPAC209: reads of never-synchronized cross-launch writes
# ======================================================================
class TestStaleRead:
    def setup_method(self):
        self.san = Sanitizer()
        self.arr = np.zeros(16)

    def _write_launch(self, name, *, nowait=True):
        self.san.begin_launch(name, {"buf": self.arr}, nowait=nowait)
        self.san.on_global_write(self.arr, IDX8, M8, CTX32)
        self.san.end_launch()

    def test_unjoined_producer_read_is_hpac209(self):
        self._write_launch("producer")
        self.san.begin_launch("consumer", {"buf": self.arr}, nowait=True)
        self.san.on_global_read(self.arr, IDX8, M8)
        self.san.end_launch()
        diags = self.san.finish().diagnostics
        assert "HPAC209" in codes(diags)
        d = next(d for d in diags if d.code == "HPAC209")
        assert "'producer'" in d.message and "'consumer'" in d.message

    def test_taskwait_clears_staleness(self):
        self._write_launch("producer")
        self.san.on_sync()
        self.san.begin_launch("consumer", {"buf": self.arr}, nowait=True)
        self.san.on_global_read(self.arr, IDX8, M8)
        self.san.end_launch()
        assert codes(self.san.finish().diagnostics) == []

    def test_synchronous_producer_is_never_stale(self):
        self._write_launch("producer", nowait=False)
        self.san.begin_launch("consumer", {"buf": self.arr}, nowait=True)
        self.san.on_global_read(self.arr, IDX8, M8)
        self.san.end_launch()
        assert codes(self.san.finish().diagnostics) == []

    def test_own_write_shadows_the_stale_read(self):
        # A launch that overwrites the racy elements *before* reading them
        # reads its own values: that is the HPAC208 write-write race, not
        # an additional stale read.
        self._write_launch("producer")
        self.san.begin_launch("consumer", {"buf": self.arr}, nowait=True)
        self.san.on_global_write(self.arr, IDX8, M8, CTX32)
        self.san.on_global_read(self.arr, IDX8, M8)
        self.san.end_launch()
        got = codes(self.san.finish().diagnostics)
        assert "HPAC208" in got and "HPAC209" not in got


# ======================================================================
# barrier edge cases
# ======================================================================
class TestBarrierEdges:
    def setup_method(self):
        self.san = Sanitizer()
        self.arr = np.zeros(64)
        self.san.begin_launch("k", {"buf": self.arr})
        self.m_w0 = np.zeros(64, dtype=bool)
        self.m_w0[:32] = True
        self.m_w1 = np.zeros(64, dtype=bool)
        self.m_w1[32:] = True
        self.idx = np.tile(np.arange(32), 2)

    def test_back_to_back_barriers_still_synchronize(self):
        self.san.on_global_write(self.arr, self.idx, self.m_w0, CTX32)
        self.san.on_barrier()
        self.san.on_barrier()
        self.san.on_global_write(self.arr, self.idx, self.m_w1, CTX32)
        assert codes(self.san.finish().diagnostics) == []
        assert self.san.counters["barriers"] == 2

    def test_zero_active_warp_barrier_is_inert(self):
        # All lanes converged out before the barrier: nothing was written
        # in the dead phase, so the boundary neither hides nor invents a
        # race.
        none = np.zeros(64, dtype=bool)
        self.san.on_global_write(self.arr, self.idx, none, CTX32)
        self.san.on_barrier()
        self.san.on_global_write(self.arr, self.idx,
                                 np.ones(64, dtype=bool), CTX32)
        diags = self.san.finish().diagnostics
        assert "HPAC206" in codes(diags)  # the post-barrier phase races
        assert self.san.counters["barriers"] == 1

    def test_empty_launch_with_barriers_is_clean(self):
        self.san.on_barrier()
        self.san.on_barrier()
        self.san.end_launch()
        assert codes(self.san.finish().diagnostics) == []


# ----------------------------------------------------------------------
def _pool_clock_probe(_seed: int):
    """Top-level (picklable) worker body: a sanitized launch pair whose
    ordering hinges on the sync clock surviving the worker boundary."""
    arr = np.zeros(8)
    san = Sanitizer()
    san.begin_launch("a", {"buf": arr}, nowait=True)
    san.on_global_write(arr, np.arange(8), np.ones(8, dtype=bool))
    san.end_launch()
    san.on_sync()
    san.begin_launch("b", {"buf": arr}, nowait=True)
    san.on_global_write(arr, np.arange(8), np.ones(8, dtype=bool))
    san.end_launch()
    report = san.finish()
    return sorted({d.code for d in report.diagnostics}), san.counters["sync_joins"]


class TestWorkerPoolRespawn:
    def test_respawned_pool_reruns_the_clock_join(self):
        # A respawn replaces every worker process; the fresh interpreter
        # must produce the same verdict (clean, one sync join) as the
        # first — the sanitizer carries no cross-process state.
        with WorkerPool(1) as pool:
            first = pool.submit(_pool_clock_probe, 0).result()
            pool.respawn()
            second = pool.submit(_pool_clock_probe, 1).result()
        assert first == second == ([], 1)
        assert pool.spawns == 2
        assert pool.respawns == 1


# ======================================================================
# static contract-dataflow verifier (HPAC213/214)
# ======================================================================
def _app(plan, sites, inputs=()):
    return SimpleNamespace(
        name="toy", launch_plan=plan, plan_inputs=inputs,
        sites=lambda: [SimpleNamespace(name=n, contract=c)
                       for n, c in sites])


class TestDataflowLint:
    def test_no_plan_is_silent(self):
        app = _app(None, [("r", "out(buf[i])")])
        assert lint_dataflow(app) == []

    def test_nowait_writer_pair_is_hpac213(self):
        app = _app(
            ({"launch": "ka", "regions": ("ra",), "nowait": True},
             {"launch": "kb", "regions": ("rb",), "nowait": True}),
            [("ra", "out(buf[i])"), ("rb", "out(buf[i])")])
        diags = lint_dataflow(app)
        assert codes(diags) == ["HPAC213"]
        assert diags[0].data["launches"] == ["ka", "kb"]

    def test_sync_step_joins_the_pending_writer(self):
        app = _app(
            ({"launch": "ka", "regions": ("ra",), "nowait": True},
             {"sync": True},
             {"launch": "kb", "regions": ("rb",), "nowait": True}),
            [("ra", "out(buf[i])"), ("rb", "out(buf[i])")])
        assert lint_dataflow(app) == []

    def test_synchronous_launch_joins_the_pending_writer(self):
        app = _app(
            ({"launch": "ka", "regions": ("ra",), "nowait": True},
             {"launch": "kb", "regions": ("rb",)}),
            [("ra", "out(buf[i])"), ("rb", "out(buf[i])")])
        assert lint_dataflow(app) == []

    def test_disjoint_literal_bounds_do_not_overlap(self):
        app = _app(
            ({"launch": "ka", "regions": ("ra",), "nowait": True},
             {"launch": "kb", "regions": ("rb",), "nowait": True}),
            [("ra", "out(buf[0:4])"), ("rb", "out(buf[4:4])")])
        assert lint_dataflow(app) == []

    def test_symbolic_vs_literal_overlaps_by_name(self):
        app = _app(
            ({"launch": "ka", "regions": ("ra",), "nowait": True},
             {"launch": "kb", "regions": ("rb",), "nowait": True}),
            [("ra", "out(buf[i])"), ("rb", "out(buf[0:4])")])
        assert codes(lint_dataflow(app)) == ["HPAC213"]

    def test_read_of_unproduced_buffer_is_hpac214(self):
        app = _app(
            ({"launch": "k", "regions": ("r",)},),
            [("r", "in(src[i]) out(dst[i])")])
        diags = lint_dataflow(app)
        assert codes(diags) == ["HPAC214"]
        assert diags[0].data["buffer"] == "src"

    def test_plan_inputs_provide_the_buffer(self):
        app = _app(
            ({"launch": "k", "regions": ("r",)},),
            [("r", "in(src[i]) out(dst[i])")], inputs=("src",))
        assert lint_dataflow(app) == []

    def test_earlier_declared_write_provides_the_buffer(self):
        app = _app(
            ({"launch": "ka", "regions": ("ra",)},
             {"launch": "kb", "regions": ("rb",)}),
            [("ra", "out(src[i])"), ("rb", "in(src[i]) out(dst[i])")])
        assert lint_dataflow(app) == []

    def test_own_out_section_provides_the_in_buffer(self):
        # An in-place update (in and out over one buffer) is not a
        # read-before-write: the region owns the buffer either way.
        app = _app(
            ({"launch": "k", "regions": ("r",)},),
            [("r", "in(buf[i]) out(buf[i])")])
        assert lint_dataflow(app) == []

    def test_unparseable_contract_is_skipped(self):
        # Broken pragma text is HPAC211's finding; the dataflow walk must
        # not crash on (or double-report) it.
        app = _app(
            ({"launch": "k", "regions": ("r",)},),
            [("r", "in(buf[")])
        assert lint_dataflow(app) == []

    def test_shipped_app_plans_are_clean(self):
        from repro.apps import BENCHMARKS, get_benchmark

        for name in sorted(BENCHMARKS):
            bench = get_benchmark(name)
            assert bench.launch_plan is not None, name
            assert lint_dataflow(bench) == [], name


# ======================================================================
# multi-seed union inference
# ======================================================================
class TestSeedList:
    def test_default_is_the_single_seed(self):
        assert _seed_list(2023, None) == [2023]

    def test_int_count_expands_from_the_base_seed(self):
        assert _seed_list(100, 3) == [100, 101, 102]

    def test_explicit_list_passes_through(self):
        assert _seed_list(2023, [7, 5, 7]) == [7, 5, 7]

    def test_zero_and_empty_are_rejected(self):
        with pytest.raises(ValueError):
            _seed_list(2023, 0)
        with pytest.raises(ValueError):
            _seed_list(2023, [])


class TestFoldObserved:
    def _rec(self, elements, width, *, events=1, attributed=False):
        rec = ObservedAccess(region="r", buffer="b", direction="in")
        for _ in range(events):
            rec.mark(np.asarray(elements), width)
        rec.attributed = attributed
        return rec

    def test_union_with_per_seed_provenance(self):
        merged = {}
        _fold_observed(merged, {"r": {("b", "in"): self._rec([0, 1], 1)}}, 10)
        _fold_observed(merged, {"r": {("b", "in"): self._rec([1, 5], 1)}}, 11)
        m = merged["r"][("b", "in")]
        assert np.flatnonzero(m.elements).tolist() == [0, 1, 5]
        assert m.seed_new_elements == {"10": 2, "11": 1}
        assert m.events == 2
        assert m.width == 1

    def test_width_disagreement_goes_ragged(self):
        merged = {}
        _fold_observed(merged, {"r": {("b", "in"): self._rec([0], 1)}}, 10)
        _fold_observed(merged, {"r": {("b", "in"): self._rec([0, 1], 2)}}, 11)
        assert merged["r"][("b", "in")].width == -1

    def test_attribution_survives_only_if_every_seed_agrees(self):
        # One seed observing the write directly proves it is the region's
        # own access, not the post-return heuristic.
        merged = {}
        _fold_observed(
            merged, {"r": {("b", "in"): self._rec([0], 1, attributed=True)}},
            10)
        _fold_observed(
            merged, {"r": {("b", "in"): self._rec([0], 1, attributed=False)}},
            11)
        assert merged["r"][("b", "in")].attributed is False


# ----------------------------------------------------------------------
class SeededGather(Benchmark):
    """A MiniFE-style CSR gather whose halo block depends on the run seed.

    Every lane reads its base element of ``xs``; all but lane 0 also read
    one element of a seed-chosen halo block (ragged -1-padded columns, so
    inference emits literal sections, not a symbolic whole-buffer pass).
    The data-dependent footprint is exactly what single-seed inference
    under-observes.
    """

    name = "seeded_gather"
    default_num_threads = 32
    baseline_items_per_thread = 1
    N, BLOCK = 32, 32
    launch_plan = ({"launch": "gather_kernel", "regions": ("gather",)},)
    plan_inputs = ("xvec",)

    def default_problem(self) -> dict:
        return {}

    def sites(self) -> list[SiteInfo]:
        return [SiteInfo(name="gather", in_width=0, out_width=1,
                         techniques=("taf",), contract=None)]

    def _execute(self, prog, rt, num_threads):
        n = self.N
        pool = n + 6 * self.BLOCK
        xs = np.arange(pool, dtype=float)
        ys = np.zeros(n)
        lo = n + self.BLOCK * int(self.rng.integers(0, 6))
        cols = np.full((n, 2), -1, dtype=np.int64)
        cols[:, 0] = np.arange(n)
        cols[1:, 1] = lo + np.arange(1, n)
        num_teams = prog.teams_for(n, num_threads)

        def kernel(ctx, xvec, yvec):
            for _step, idx, m in ctx.team_chunk_stride(n):
                safe = np.clip(idx, 0, n - 1)

                def compute(am, safe=safe):
                    ctx.charge_global_streamed(
                        2, itemsize=8, mask=am, buffers=("xvec",),
                        indices={"xvec": cols[safe]})
                    return xvec[np.clip(cols[safe], 0, pool - 1)].sum(axis=1)

                vals = rt.region(ctx, "gather", compute, mask=m)
                ctx.global_write(yvec, safe, vals, m)

        with prog.target_data(to={"xs": xs}, from_={"ys": ys}) as env:
            prog.target_teams(
                kernel, num_teams=num_teams, num_threads=num_threads,
                name="gather_kernel",
                params={"xvec": env.device("xs"), "yvec": env.device("ys")})
        return AppResult(qoi=ys, timing=prog.timing, region_stats={})


class TestMultiSeedInference:
    """The acceptance demo: one seed's contract flags under another seed;
    the five-seed union verifies clean on every evidence run."""

    # rng(100..104).integers(0, 6) draws halos 4, 1, 2, 3, 4: seed 101
    # gathers a different block than seed 100.
    SEED, OTHER = 100, 101

    def test_single_seed_contract_fails_under_another_seed(self):
        app = SeededGather()
        inf = infer_app(app, seed=self.SEED)
        assert inf.seeds == [self.SEED]
        contract = inf.region("gather").inferred
        assert contract == "in(xvec[0:32], xvec[161:31]) out(yvec[i])"
        # Its own run round-trips clean...
        assert verify_roundtrip(app, inf)["clean"]
        # ...but a different seed gathers a different halo block.
        san = Sanitizer(contracts={"gather": contract})
        app.run("v100_small", app.build_regions(), seed=self.OTHER,
                sanitize=san)
        assert "HPAC201" in codes(san.finish().diagnostics)

    def test_five_seed_union_verifies_clean(self):
        app = SeededGather()
        inf = infer_app(app, seed=self.SEED, seeds=5)
        assert inf.seeds == [100, 101, 102, 103, 104]
        reg = inf.region("gather")
        # The union covers every halo block any evidence seed gathered.
        assert reg.inferred == ("in(xvec[0:32], xvec[65:31], xvec[97:31], "
                                "xvec[129:31], xvec[161:31]) out(yvec[i])")
        verdict = verify_roundtrip(app, inf)
        assert verdict["clean"], verdict
        assert verdict["seeds"] == inf.seeds
        assert verdict["dirty_seeds"] == []
        # Per-seed provenance: later seeds demonstrably widened the union.
        prov = reg.observed["in"]["xvec"]["seed_new_elements"]
        assert prov["100"] == 63
        assert sum(prov[str(s)] for s in (101, 102, 103)) == 93
        assert any("widened the first-seed envelope" in n for n in reg.notes)

    def test_single_seed_records_no_provenance(self):
        # Golden stability: classic single-seed baselines keep their exact
        # shape — the provenance key only appears for multi-seed evidence.
        app = SeededGather()
        inf = infer_app(app, seed=self.SEED)
        assert "seed_new_elements" not in inf.region("gather").observed["in"]["xvec"]

    def test_api_round_trips_the_seeds_argument(self, monkeypatch):
        from repro import api
        from repro.apps import BENCHMARKS

        monkeypatch.setitem(BENCHMARKS, "seeded_gather", SeededGather)
        result = api.infer_contracts("seeded_gather", seeds=3, seed=self.SEED)
        inf = result.inferences[0]
        assert inf.seeds == [100, 101, 102]
        assert inf.roundtrip["clean"], inf.roundtrip
        assert inf.to_dict()["seeds"] == [100, 101, 102]
