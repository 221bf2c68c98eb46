"""Cross-module integration tests: pragma text → runtime → app → harness."""

import numpy as np
import pytest

from repro import (
    ApproxRuntime,
    compile_pragma,
    get_benchmark,
    get_device,
    launch,
    mape,
)
from repro.approx.base import Technique
from repro.harness.sweep import SweepPoint


class TestPragmaToExecution:
    """Directive text drives a real simulated execution end to end."""

    def test_fig5_program(self):
        """The paper's Fig-5 program: two functions, two directives."""
        specs = [
            compile_pragma(
                "memo(in:2:0.5f:4) level(warp) in(input[i*5:5:N]) out(o1[i])",
                name="foo",
            ),
            compile_pragma(
                "memo(out:3:5:1.5f) level(thread) out(o2[i])", name="bar"
            ),
        ]
        rt = ApproxRuntime(specs)
        n = 2048
        rng = np.random.default_rng(0)
        inp = rng.random((n, 5))
        out1, out2 = np.zeros(n), np.zeros(n)

        def kernel(ctx):
            for _s, idx, m in ctx.team_chunk_stride(n):
                safe = np.clip(idx, 0, n - 1)
                x = inp[safe]

                def foo(am, x=x):
                    ctx.flops(50, am)
                    return x.sum(axis=1)

                out1[safe[m]] = rt.region(ctx, "foo", foo, inputs=x, mask=m)[m]

                def bar(am, x=x):
                    ctx.flops(30, am)
                    return np.cos(x[:, 0])

                out2[safe[m]] = rt.region(ctx, "bar", bar, mask=m)[m]

        launch(kernel, get_device("v100"), 4, 128)
        # Both regions executed; values are near the true computation.
        assert mape(inp.sum(axis=1), out1) < 0.5
        assert np.abs(np.cos(inp[:, 0]) - out2).mean() < 0.5
        assert rt.stats["foo"].invocations == n
        assert rt.stats["bar"].invocations == n

    def test_pragma_spec_equivalent_to_build_regions(self):
        """Specs from clause text behave like specs built programmatically."""
        app = get_benchmark(
            "blackscholes", problem={"num_options": 2048, "num_runs": 4}
        )
        programmatic = app.build_regions("taf", hsize=2, psize=8, threshold=0.3)
        from_pragma = [
            compile_pragma("memo(out:2:8:0.3) out(price[i])", name="price")
        ]
        a = app.run("v100_small", programmatic, items_per_thread=4)
        b = app.run("v100_small", from_pragma, items_per_thread=4)
        assert np.array_equal(a.qoi, b.qoi)
        assert a.seconds == pytest.approx(b.seconds)


class TestCrossDevice:
    """Portability invariants across the two vendors."""

    @pytest.mark.parametrize("name", ["blackscholes", "kmeans"])
    def test_accurate_qoi_is_device_independent(self, name):
        problems = {
            "blackscholes": {"num_options": 2048, "num_runs": 2},
            "kmeans": {"num_obs": 4096, "max_iters": 20},
        }
        app = get_benchmark(name, problem=problems[name])
        a = app.run("v100_small", items_per_thread=app.baseline_items_per_thread or 1)
        b = app.run("amd_small", items_per_thread=app.baseline_items_per_thread or 1)
        assert np.array_equal(a.qoi, b.qoi)

    def test_approximate_qoi_depends_on_launch_geometry_not_vendor(self):
        """With the same teams×threads geometry, the approximate outputs are
        identical across vendors (time differs, values do not) when warp
        width does not enter the decision."""
        app = get_benchmark(
            "blackscholes", problem={"num_options": 2048, "num_runs": 4}
        )
        regs = app.build_regions("taf", hsize=1, psize=4, threshold=0.3)
        a = app.run("v100_small", regs, items_per_thread=4, num_threads=256)
        regs = app.build_regions("taf", hsize=1, psize=4, threshold=0.3)
        b = app.run("amd_small", regs, items_per_thread=4, num_threads=256)
        assert np.array_equal(a.qoi, b.qoi)
        assert a.seconds != b.seconds  # timing models differ


class TestHarnessEndToEnd:
    def test_sweep_database_queries_agree_with_records(self):
        pts = [
            SweepPoint("taf", {"hsize": 1, "psize": p, "threshold": 0.9}, "thread", 8)
            for p in (3, 7)
        ]
        from repro.harness.batch import run_sweep_parallel
        from repro.harness.database import ResultsDB

        db = ResultsDB(run_sweep_parallel(
            "kmeans", "v100_small", pts,
            problems={"kmeans": {"num_obs": 4096, "max_iters": 20}},
        ).records)
        best = db.best_speedup(max_error=1.0)
        assert best is not None
        assert best.reported_speedup == max(
            r.reported_speedup for r in db.query()
        )

    def test_noise_region_never_changes_timing(self):
        """Sensitivity instrumentation must not perturb the cost model."""
        app = get_benchmark("lulesh", problem={"mesh": 8, "time_steps": 10})
        acc = app.run("v100_small", items_per_thread=8)
        noisy = app.run(
            "v100_small",
            app.build_regions("noise", rel_sigma=0.2),
            items_per_thread=8,
        )
        assert noisy.seconds == pytest.approx(acc.seconds, rel=1e-9)

    def test_technique_enum_covered_by_dispatch(self):
        """Every Technique value is executable through the facade."""
        handled = {Technique.NONE, Technique.TAF, Technique.IACT,
                   Technique.PERFORATION, Technique.NOISE}
        assert set(Technique) == handled
