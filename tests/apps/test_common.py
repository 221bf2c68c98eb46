"""Benchmark base-class and data-generator tests."""

import numpy as np
import pytest

from repro.apps import BENCHMARKS, get_benchmark
from repro.apps.common import (
    generate_option_stream,
    make_params,
    option_matrix,
    smooth_stream,
    tile_template,
)
from repro.approx.base import (
    HierarchyLevel,
    IACTParams,
    PerfoParams,
    PerforationKind,
    TAFParams,
    Technique,
)
from repro.errors import (
    ConfigurationError,
    UnknownBenchmarkError,
    UnsupportedApproximationError,
)


class TestRegistry:
    def test_all_table1_benchmarks_present(self):
        assert set(BENCHMARKS) == {
            "lulesh", "leukocyte", "binomial", "minife",
            "blackscholes", "lavamd", "kmeans",
        }

    def test_get_benchmark(self):
        app = get_benchmark("lulesh")
        assert app.name == "lulesh"

    def test_get_benchmark_case_insensitive(self):
        assert get_benchmark("LULESH").name == "lulesh"

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            get_benchmark("hpcg")

    def test_unknown_benchmark_is_a_plain_message_configuration_error(self):
        caught = None
        try:
            get_benchmark("hpcg")
        except KeyError as exc:  # lookups against BENCHMARKS still catch it
            caught = exc
        assert isinstance(caught, UnknownBenchmarkError)
        assert isinstance(caught, ConfigurationError)
        assert str(caught).startswith("unknown benchmark 'hpcg'; known: [")

    def test_problem_overrides_merge(self):
        app = get_benchmark("lulesh", problem={"mesh": 6})
        assert app.problem["mesh"] == 6
        assert "time_steps" in app.problem

    def test_every_benchmark_declares_qoi(self):
        for name, cls in BENCHMARKS.items():
            assert cls.qoi_description, name
            assert cls.error_metric in ("mape", "mcr"), name

    def test_kmeans_uses_mcr(self):
        # §4: MCR for K-Means, MAPE for everything else.
        assert BENCHMARKS["kmeans"].error_metric == "mcr"
        assert all(
            cls.error_metric == "mape"
            for n, cls in BENCHMARKS.items() if n != "kmeans"
        )

    def test_blackscholes_is_kernel_only(self):
        assert BENCHMARKS["blackscholes"].kernel_only
        assert not BENCHMARKS["lulesh"].kernel_only


class TestMakeParams:
    def test_taf(self):
        p = make_params("taf", hsize=2, psize=8, threshold=0.5)
        assert isinstance(p, TAFParams)
        assert p.prediction_size == 8

    def test_iact(self):
        p = make_params("iact", tsize=4, threshold=0.3, tperwarp=2)
        assert isinstance(p, IACTParams)
        assert p.tables_per_warp == 2

    def test_iact_default_tperwarp(self):
        assert make_params("iact", tsize=4, threshold=0.3).tables_per_warp is None

    def test_perfo_skip(self):
        p = make_params("perfo", kind="large", skip=8, herded=True)
        assert isinstance(p, PerfoParams)
        assert p.kind is PerforationKind.LARGE
        assert p.herded

    def test_perfo_percent(self):
        p = make_params("perfo", kind="fini", skip_percent=40)
        assert p.parameter == 40

    def test_none(self):
        assert make_params("none") is None

    def test_unknown(self):
        with pytest.raises(ConfigurationError):
            make_params("quantize")


class TestBuildRegions:
    def test_accurate_specs_for_all_sites(self):
        app = get_benchmark("lulesh")
        specs = app.build_regions()
        assert len(specs) == len(app.sites())
        assert all(s.technique is Technique.NONE for s in specs)

    def test_single_site_selection(self):
        app = get_benchmark("lulesh")
        specs = app.build_regions(
            "taf", site="fb_hourglass", hsize=2, psize=4, threshold=0.5
        )
        by_name = {s.name: s for s in specs}
        assert by_name["fb_hourglass"].technique is Technique.TAF
        assert by_name["hourglass_control"].technique is Technique.NONE

    def test_level_applied(self):
        app = get_benchmark("lulesh")
        specs = app.build_regions("taf", level="warp", hsize=2, psize=4, threshold=0.5)
        assert all(s.level is HierarchyLevel.WARP for s in specs
                   if s.technique is Technique.TAF)

    def test_unsupported_technique_rejected(self):
        # MiniFE: iACT structurally impossible (§4.1).
        app = get_benchmark("minife")
        with pytest.raises(UnsupportedApproximationError, match="does not support"):
            app.build_regions("iact", tsize=4, threshold=0.5)

    def test_unsafe_level_rejected(self):
        # Binomial Options requires team-level decisions (§4.1).
        app = get_benchmark("binomial")
        with pytest.raises(UnsupportedApproximationError, match="requires level"):
            app.build_regions("taf", level="thread", hsize=2, psize=4, threshold=0.5)

    def test_unknown_site(self):
        app = get_benchmark("lulesh")
        with pytest.raises(ConfigurationError):
            app.site("nonexistent")

    def test_rsd_mode_propagated(self):
        app = get_benchmark("lavamd")
        specs = app.build_regions("taf", hsize=2, psize=4, threshold=0.01)
        assert specs[0].meta["rsd_mode"] == "norm"


class TestGenerators:
    def test_smooth_stream_in_unit_range(self):
        rng = np.random.default_rng(0)
        data = smooth_stream(rng, 1000, 3)
        assert data.shape == (1000, 3)
        assert data.min() >= 0.0 and data.max() <= 1.0

    def test_smooth_stream_is_locally_smooth(self):
        rng = np.random.default_rng(0)
        data = smooth_stream(rng, 4096, 1, cycles=2.0)
        step = np.abs(np.diff(data[:, 0]))
        assert step.max() < 0.05  # no jumps

    def test_tile_template_repeats(self):
        rng = np.random.default_rng(0)
        data = tile_template(rng, 100, 350, 2)
        assert data.shape == (350, 2)
        assert np.allclose(data[:100], data[100:200])

    def test_option_matrix_near_money(self):
        rng = np.random.default_rng(0)
        opts = option_matrix(rng.random((500, 5)))
        moneyness = opts[:, 1] / opts[:, 0]
        assert moneyness.min() >= 0.85 - 1e-9
        assert moneyness.max() <= 1.15 + 1e-9

    def test_generate_option_stream_modes(self):
        rng = np.random.default_rng(0)
        smooth = generate_option_stream(rng, 256, "smooth")
        rng = np.random.default_rng(0)
        tiled = generate_option_stream(rng, 256, "tiled", template_rows=64)
        assert smooth.shape == tiled.shape == (256, 5)
        with pytest.raises(ConfigurationError):
            generate_option_stream(rng, 10, "fractal")


class TestDeterminism:
    def test_same_seed_same_qoi(self):
        app = get_benchmark("blackscholes", problem={"num_options": 2048, "num_runs": 2})
        a = app.run("v100_small", seed=42)
        b = app.run("v100_small", seed=42)
        assert np.array_equal(a.qoi, b.qoi)
        assert a.seconds == b.seconds

    def test_different_seed_different_data(self):
        app = get_benchmark("blackscholes", problem={"num_options": 2048, "num_runs": 2})
        a = app.run("v100_small", seed=1)
        b = app.run("v100_small", seed=2)
        assert not np.array_equal(a.qoi, b.qoi)
