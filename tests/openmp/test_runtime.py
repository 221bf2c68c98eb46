"""OffloadProgram tests: target regions, teams math, timing aggregation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.openmp.runtime import OffloadProgram


class TestTargetData:
    def test_structured_region_transfers(self):
        prog = OffloadProgram("v100")
        x = np.arange(100.0)
        y = np.zeros(100)
        with prog.target_data(to={"x": x}, from_={"y": y}) as env:
            env.device("y")[...] = env.device("x") * 2
        assert (y == x * 2).all()
        assert prog.timing.transfer_seconds > 0

    def test_exit_transfers_even_on_exception(self):
        prog = OffloadProgram("v100")
        y = np.zeros(4)
        with pytest.raises(RuntimeError):
            with prog.target_data(from_={"y": y}) as env:
                env.device("y")[...] = 5.0
                raise RuntimeError("kernel failed")
        assert (y == 5.0).all()


class TestTargetTeams:
    def test_launch_accounted_in_timing(self):
        prog = OffloadProgram("v100")

        def k(ctx):
            ctx.flops(10)

        res = prog.target_teams(k, num_teams=4, num_threads=64)
        assert prog.timing.kernel_seconds == pytest.approx(res.seconds)

    def test_threads_rounded_to_warp(self):
        prog = OffloadProgram("v100")
        seen = {}

        def k(ctx):
            seen["tpb"] = ctx.threads_per_block

        prog.target_teams(k, num_teams=1, num_threads=100)
        assert seen["tpb"] == 128

    def test_invalid_config_rejected(self):
        prog = OffloadProgram("v100")
        with pytest.raises(ConfigurationError):
            prog.target_teams(lambda ctx: None, num_teams=0, num_threads=64)

    def test_ac_shared_budget_forwarded(self):
        prog = OffloadProgram("v100", ac_shared_bytes=2048)

        def k(ctx):
            assert ctx.shared.capacity_per_block == 2048

        prog.target_teams(k, num_teams=1, num_threads=32)

    def test_kernel_value_surfaced(self):
        prog = OffloadProgram("v100")
        res = prog.target_teams(lambda ctx: 123, num_teams=1, num_threads=32)
        assert res.value == 123


class TestTeamsFor:
    @pytest.mark.parametrize(
        "n,threads,ipt,expected",
        [
            (1024, 128, 1, 8),
            (1024, 128, 8, 1),
            (1025, 128, 1, 9),
            (100, 128, 1, 1),
            (10**6, 256, 512, 8),
        ],
    )
    def test_teams_math(self, n, threads, ipt, expected):
        prog = OffloadProgram("v100", items_per_thread=ipt)
        assert prog.teams_for(n, threads) == expected

    def test_rounds_threads_to_warp_first(self):
        prog = OffloadProgram("v100")
        # 100 threads → 128; 1024/128 = 8 teams.
        assert prog.teams_for(1024, 100) == 8

    def test_per_team_form(self):
        # One item per team at a time: ceil(n / items_per_thread).
        prog = OffloadProgram("v100", items_per_thread=8)
        assert prog.teams_for(100) == 13
        assert prog.teams_for(0) == 1

    def test_calls_are_recorded(self):
        prog = OffloadProgram("v100", items_per_thread=2)
        prog.teams_for(1024, 100)
        prog.teams_for(9)
        assert prog.grids == [(1024, 128, 4), (9, 1, 5)]

    def test_invalid_items_per_thread(self):
        prog = OffloadProgram("v100", items_per_thread=0)
        with pytest.raises(ConfigurationError):
            prog.teams_for(100, 128)
        with pytest.raises(ConfigurationError):
            prog.teams_for(100)


class TestHostWork:
    def test_host_seconds_accumulate(self):
        prog = OffloadProgram("v100")
        prog.host_work(0.5)
        prog.host_work(0.25)
        assert prog.timing.host_seconds == pytest.approx(0.75)
        assert prog.timing.seconds == pytest.approx(0.75)
