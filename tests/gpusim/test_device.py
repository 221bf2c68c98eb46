"""Device model tests: presets, validation, scaling."""

import pytest

from repro.errors import ConfigurationError
from repro.gpusim.device import (
    DeviceSpec,
    amd_mi250x,
    get_device,
    known_devices,
    nvidia_v100,
)


class TestPresets:
    def test_v100_matches_paper_platform(self):
        dev = nvidia_v100()
        assert dev.num_sms == 80  # "each with 80 SMs" (§4)
        assert dev.warp_size == 32
        assert dev.vendor == "nvidia"
        assert dev.global_mem_bytes == 16 * 1024**3  # Fig 3: 16GB

    def test_mi250x_matches_paper_platform(self):
        dev = amd_mi250x()
        assert dev.num_sms == 220  # "each with 220 SMs" (§4)
        assert dev.warp_size == 64
        assert dev.vendor == "amd"

    def test_amd_has_more_sms_than_nvidia(self):
        # Insight 2 depends on this ordering.
        assert amd_mi250x().num_sms > nvidia_v100().num_sms

    def test_presets_are_fresh_instances(self):
        assert nvidia_v100() == nvidia_v100()
        assert nvidia_v100() is not nvidia_v100()

    def test_known_devices(self):
        assert "nvidia_v100" in known_devices()
        assert "amd_mi250x" in known_devices()


class TestGetDevice:
    @pytest.mark.parametrize(
        "name,vendor",
        [
            ("v100", "nvidia"),
            ("V100", "nvidia"),
            ("nvidia", "nvidia"),
            ("amd", "amd"),
            ("MI250X", "amd"),
            ("amd-mi250x", "amd"),
            ("v100_small", "nvidia"),
            ("amd_small", "amd"),
        ],
    )
    def test_aliases(self, name, vendor):
        assert get_device(name).vendor == vendor

    def test_spec_passthrough(self):
        dev = nvidia_v100()
        assert get_device(dev) is dev

    def test_unknown_device(self):
        with pytest.raises(ConfigurationError, match="unknown device"):
            get_device("tpu")


class TestScaling:
    def test_scaled_sm_count(self):
        assert nvidia_v100(0.1).num_sms == 8
        assert amd_mi250x(0.1).num_sms == 22

    def test_scaling_preserves_vendor_ratio(self):
        small_nv = nvidia_v100(0.1)
        small_amd = amd_mi250x(0.1)
        assert small_amd.num_sms / small_nv.num_sms == pytest.approx(
            220 / 80, rel=0.01
        )

    def test_scaling_shrinks_bandwidth_proportionally(self):
        full, small = nvidia_v100(), nvidia_v100(0.1)
        assert small.mem_bandwidth / full.mem_bandwidth == pytest.approx(
            small.num_sms / full.num_sms
        )

    def test_scaling_keeps_per_sm_resources(self):
        full, small = nvidia_v100(), nvidia_v100(0.1)
        assert small.warp_size == full.warp_size
        assert small.max_warps_per_sm == full.max_warps_per_sm
        assert small.shared_mem_per_block == full.shared_mem_per_block

    def test_scale_one_is_identity(self):
        assert nvidia_v100(1.0) == nvidia_v100()

    @pytest.mark.parametrize("scale", [0.0, -0.5, 1.5])
    def test_invalid_scale(self, scale):
        with pytest.raises(ConfigurationError):
            nvidia_v100(scale)

    def test_scale_recorded_in_extra(self):
        assert nvidia_v100(0.1).extra["scale"] == pytest.approx(0.1)


class TestValidation:
    def test_rejects_zero_sms(self):
        with pytest.raises(ConfigurationError):
            nvidia_v100().with_overrides(num_sms=0)

    def test_rejects_non_pow2_warp(self):
        with pytest.raises(ConfigurationError):
            nvidia_v100().with_overrides(warp_size=48)

    def test_rejects_block_not_multiple_of_warp(self):
        with pytest.raises(ConfigurationError):
            nvidia_v100().with_overrides(max_threads_per_block=1000)

    def test_rejects_nonpositive_clock(self):
        with pytest.raises(ConfigurationError):
            nvidia_v100().with_overrides(clock_hz=0.0)


class TestHelpers:
    def test_cycles_to_seconds(self):
        dev = nvidia_v100()
        assert dev.cycles_to_seconds(dev.clock_hz) == pytest.approx(1.0)

    def test_with_overrides_returns_new_spec(self):
        dev = nvidia_v100()
        dev2 = dev.with_overrides(num_sms=40)
        assert dev.num_sms == 80 and dev2.num_sms == 40
        assert isinstance(dev2, DeviceSpec)
