"""OpenMP offload runtime: schedules target regions onto the simulator.

:class:`OffloadProgram` is the per-application handle that owns one device,
its global memory, the transfer model, and the accumulated
:class:`~repro.gpusim.timing.ProgramTiming`.  Applications drive it as::

    prog = OffloadProgram("v100")
    with prog.target_data(to={"x": x}, from_={"y": y}) as env:
        prog.target_teams(kernel, num_teams=1024, num_threads=256,
                          params={"x": env.device("x"), "y": env.device("y")})
    speedup_base = prog.timing.seconds

``num_teams`` is the paper's central parallelism knob (§4: "By adjusting the
value passed to num_teams, we can assign more items to be computed by the
same GPU thread and thus explore the interaction between parallelism and
approximation").
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.gpusim.device import DeviceSpec, get_device
from repro.gpusim.kernel import KernelResult, launch, round_up
from repro.gpusim.memory import DeviceMemory, TransferModel
from repro.gpusim.timing import ProgramTiming
from repro.openmp.mapping import DataEnvironment


class OffloadProgram:
    """One GPU-accelerated program: device state + end-to-end timing."""

    def __init__(
        self,
        device: str | DeviceSpec,
        *,
        ac_shared_bytes: int | None = None,
        sanitizer=None,
        items_per_thread: int = 1,
    ) -> None:
        self.device = get_device(device)
        #: The paper's *Items per Thread* knob (Table 2).  It reaches the
        #: launches only through :meth:`teams_for`.
        self.items_per_thread = items_per_thread
        #: ``(n, divisor, teams)`` of every :meth:`teams_for` call, in order:
        #: the launch geometry the knob resolved to.
        self.grids: list[tuple[int, int, int]] = []
        self.memory = DeviceMemory(self.device)
        self.transfers = TransferModel(self.device)
        self.timing = ProgramTiming()
        #: Optional ApproxSan instance observing every launch this program
        #: schedules.  Purely observational: attaching one does not change
        #: any timing, counter, or allocation behaviour.
        self.sanitizer = sanitizer
        if sanitizer is not None:
            sanitizer.attach_memory(self.memory)
        #: Shared-memory capacity handed to kernels; HPAC-Offload's AC state
        #: must fit in it (paper §3.3 / footnote 2).  ``None`` = device limit.
        self.ac_shared_bytes = ac_shared_bytes
        #: Per-program scratch the approximation runtime uses to persist
        #: state *between* kernel launches of one application when the app
        #: semantically re-enters the same region (cleared per launch by
        #: default — approximations are scoped to kernel lifetime, §3.1.1).
        self.persistent_state: dict = {}

    # ------------------------------------------------------------------
    @contextmanager
    def target_data(
        self,
        to: dict | None = None,
        from_: dict | None = None,
        tofrom: dict | None = None,
        alloc: dict | None = None,
    ):
        """``#pragma omp target data map(...)`` structured region."""
        env = DataEnvironment(self.memory, self.transfers)
        for name, arr in (to or {}).items():
            env.map_to(name, arr)
        for name, arr in (from_ or {}).items():
            env.map_from(name, arr)
        for name, arr in (tofrom or {}).items():
            env.map_tofrom(name, arr)
        for name, arr in (alloc or {}).items():
            env.map_alloc(name, arr)
        self.timing.add_transfer(env.enter())
        try:
            yield env
        finally:
            self.timing.add_transfer(env.exit())
            # Mapping buffers back to the host waits for the device: every
            # launch issued inside the region happens-before whatever the
            # host does next (observed by the sanitizer's clock engine).
            if self.sanitizer is not None:
                self.sanitizer.on_sync()

    # ------------------------------------------------------------------
    def target_teams(
        self,
        fn: Callable[..., Any],
        *,
        num_teams: int,
        num_threads: int,
        name: str | None = None,
        params: dict | None = None,
        nowait: bool = False,
    ) -> KernelResult:
        """``#pragma omp target teams distribute parallel for``.

        Launches ``num_teams`` blocks of ``num_threads`` threads (rounded up
        to a warp multiple, as OpenMP runtimes do) and accounts the kernel
        into the program timing.  ``nowait`` mirrors the OpenMP clause: the
        launch is asynchronous with respect to other device work until a
        :meth:`taskwait`, a synchronous launch, or the enclosing
        ``target_data`` exit joins it — purely a happens-before annotation
        for ApproxSan; simulated timing is unchanged.
        """
        if num_teams <= 0 or num_threads <= 0:
            raise ConfigurationError("num_teams and num_threads must be positive")
        tpb = round_up(num_threads, self.device.warp_size)
        result = launch(
            fn,
            self.device,
            num_blocks=num_teams,
            threads_per_block=tpb,
            name=name,
            memory=self.memory,
            shared_capacity=self.ac_shared_bytes,
            params=params,
            sanitizer=self.sanitizer,
            nowait=nowait,
        )
        self.timing.add_kernel(result.timing)
        return result

    def taskwait(self) -> None:
        """``#pragma omp taskwait``: join all outstanding nowait launches.

        A sanitizer-visible synchronization point only; the simulator runs
        launches serially, so there is no time to account.
        """
        if self.sanitizer is not None:
            self.sanitizer.on_sync()

    # ------------------------------------------------------------------
    def host_work(self, seconds: float) -> None:
        """Account host-side time (allocation, setup, serial phases).

        Blackscholes spends 99% of its end-to-end time here (§4.1), which is
        why the paper reports kernel-only speedups for it.
        """
        self.timing.add_host(seconds)

    def teams_for(self, n: int, num_threads: int | None = None) -> int:
        """Teams needed so each thread handles ``items_per_thread`` items.

        This is the knob behind the paper's *Items per Thread* parameter
        (Table 2): ``num_teams = ceil(n / (num_threads*items_per_thread))``,
        with ``num_threads`` rounded up to a warp multiple.  The per-team
        form (``num_threads=None``) is for kernels whose whole team works
        on one item at a time: ``num_teams = ceil(n / items_per_thread)``.
        Each call is recorded in :attr:`grids`.
        """
        if self.items_per_thread <= 0:
            raise ConfigurationError("items_per_thread must be positive")
        divisor = (
            1 if num_threads is None
            else round_up(num_threads, self.device.warp_size)
        )
        teams = teams_needed(int(n), divisor, self.items_per_thread)
        self.grids.append((int(n), divisor, teams))
        return teams


def teams_needed(n: int, divisor: int, items_per_thread: int) -> int:
    """``max(1, ceil(n / (divisor * items_per_thread)))``: the team count
    :meth:`OffloadProgram.teams_for` resolves ``items_per_thread`` to."""
    per_team = divisor * items_per_thread
    return max(1, (n + per_team - 1) // per_team)
