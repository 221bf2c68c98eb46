"""Data-environment (map clause) tests."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.gpusim.device import nvidia_v100
from repro.gpusim.memory import DeviceMemory, TransferModel
from repro.openmp.mapping import DataEnvironment, MapDirection


@pytest.fixture
def env():
    dev = nvidia_v100()
    mem = DeviceMemory(dev)
    return DataEnvironment(mem, TransferModel(dev))


class TestDirections:
    def test_map_to_copies_in_only(self, env):
        host = np.arange(10.0)
        env.map_to("x", host)
        env.enter()
        dev = env.device("x")
        assert (dev == host).all()
        dev[...] = -1
        env.exit()
        assert (host == np.arange(10.0)).all()  # no copy-back

    def test_map_from_copies_out_only(self, env):
        host = np.zeros(10)
        env.map_from("y", host)
        env.enter()
        dev = env.device("y")
        assert (dev == 0).all()
        dev[...] = 7.0
        env.exit()
        assert (host == 7.0).all()

    def test_map_tofrom_copies_both(self, env):
        host = np.arange(4.0)
        env.map_tofrom("z", host)
        env.enter()
        dev = env.device("z")
        assert (dev == host).all()
        dev += 1
        env.exit()
        assert (host == np.arange(4.0) + 1).all()

    def test_map_alloc_no_transfers(self, env):
        host = np.arange(4.0)
        env.map_alloc("w", host)
        env.enter()
        assert env.transfers.stats.htod_count == 0
        env.exit()
        assert env.transfers.stats.dtoh_count == 0


class TestAccounting:
    def test_transfer_bytes_counted(self, env):
        env.map_to("x", np.zeros(1000))
        env.map_from("y", np.zeros(500))
        t_in = env.enter()
        t_out = env.exit()
        assert env.transfers.stats.htod_bytes == 8000
        assert env.transfers.stats.dtoh_bytes == 4000
        assert t_in > 0 and t_out > 0

    def test_device_buffers_released_on_exit(self, env):
        env.map_to("x", np.zeros(10))
        env.enter()
        assert env.memory.in_use > 0
        env.exit()
        assert env.memory.in_use == 0


class TestLifecycle:
    def test_duplicate_mapping_rejected(self, env):
        env.map_to("x", np.zeros(1))
        with pytest.raises(ConfigurationError, match="mapped twice"):
            env.map_from("x", np.zeros(1))

    def test_map_after_enter_rejected(self, env):
        env.enter()
        with pytest.raises(ConfigurationError):
            env.map_to("x", np.zeros(1))

    def test_double_enter_rejected(self, env):
        env.enter()
        with pytest.raises(ConfigurationError):
            env.enter()

    def test_exit_without_enter_rejected(self, env):
        with pytest.raises(ConfigurationError):
            env.exit()

    def test_device_before_enter_rejected(self, env):
        env.map_to("x", np.zeros(1))
        with pytest.raises(ConfigurationError):
            env.device("x")

    def test_direction_enum_values(self):
        assert MapDirection.TO.value == "to"
        assert MapDirection.TOFROM.value == "tofrom"
