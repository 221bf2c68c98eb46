"""Binomial Options [39]: lattice pricing of American-style portfolios.

**QoI:** the computed prices (Table 1).

Following the CUDA reference design, *an entire thread block collaboratively
computes the price of a single option*: the lattice leaves are distributed
across the block's threads and each backward-induction level ends in a
block barrier.  Because the approximated region contains those barriers,
only **team-level** decision making is safe — thread- or warp-level
decisions would deadlock the block (§3.1.2); the paper uses block-level
decisions exclusively for this app (§4.1), and the simulator raises
:class:`~repro.errors.SimulatedDeadlockError` if you try otherwise
(``sites()`` therefore advertises ``levels=("team",)``).

Each block walks a block-stride sequence of options; the region output is
the option price.  The portfolio tiles a template (high redundancy), which
is why both memoization techniques excel here: TAF reaches 6.90× and iACT
5.64× with ~1.4% MAPE on NVIDIA (Fig 8a,b).  The lattice makes the region's
accurate path *expensive*, so iACT's per-invocation decision cost is
amortized — the opposite of the Leukocyte/LavaMD situation.

This app also drives Fig 8c: the items-per-thread knob trades approximation
opportunity (more options per block ⇒ more TAF warm state reuse) against
the latency hiding that needs many resident blocks.
"""

from __future__ import annotations

import numpy as np

from repro.apps.common import AppResult, Benchmark, SiteInfo, generate_option_stream
from repro.approx.runtime import ApproxRuntime
from repro.openmp.runtime import OffloadProgram

#: Per-node FLOPs of one backward-induction update.
_NODE_FLOPS = 6.0
#: FLOPs to set up u, d, pu and the leaf payoffs (per thread).
_SETUP_FLOPS = 30.0
_SETUP_SFU = 6.0


#: Scale vector normalizing option parameters for iACT distance tests, so
#: the Table-2 threshold grid (0.1..20) is meaningful in input space.
_INPUT_SCALE = np.array([150.0, 150.0, 0.06, 0.6, 2.0])


def binomial_price(S, K, r, v, T, steps: int) -> np.ndarray:
    """Reference vectorized CRR binomial price for European calls.

    ``S, K, r, v, T`` are 1-D arrays (one option each); returns prices.
    """
    S = np.atleast_1d(np.asarray(S, dtype=np.float64))
    dt = T / steps
    u = np.exp(v * np.sqrt(dt))
    d = 1.0 / u
    disc = np.exp(-r * dt)
    pu = (np.exp(r * dt) - d) / (u - d)
    j = np.arange(steps + 1)
    # Leaf asset prices: S * u^j * d^(steps-j)  (options × leaves)
    ST = S[:, None] * u[:, None] ** j[None, :] * d[:, None] ** (steps - j)[None, :]
    V = np.maximum(ST - K[:, None], 0.0)
    for level in range(steps, 0, -1):
        V = disc[:, None] * (
            pu[:, None] * V[:, 1 : level + 1] + (1.0 - pu)[:, None] * V[:, :level]
        )
    return V[:, 0]


class BinomialOptions(Benchmark):
    """CUDA-SDK-style binomial option pricing on the simulated GPU."""

    name = "binomial"
    qoi_description = "The computed prices."
    error_metric = "mape"
    default_num_threads = 128
    baseline_items_per_thread = 2
    iact_threshold_scale = 0.3  # normalized option-parameter space
    # One lattice-pricing launch per run; the portfolio is host-mapped in.
    launch_plan = ({"launch": "binomial_kernel", "regions": ("option_price",)},)
    plan_inputs = ("dopts",)

    def default_problem(self) -> dict:
        return {
            "num_options": 4096,
            "steps": 64,  # lattice depth (scaled down from 2048 upstream)
            "data_mode": "smooth",  # locally smooth portfolio ("tiled" alt.)
            "template_rows": 1000,
            "jitter": 0.0,
            #: Smooth-stream frequency (cycles across the portfolio).
            "cycles": 1.0,
        }

    def sites(self) -> list[SiteInfo]:
        return [
            SiteInfo(
                name="option_price",
                in_width=5,
                out_width=1,
                techniques=("taf", "iact"),
                # The region body contains block barriers: only collective
                # block decisions avoid deadlock (§3.1.2, §4.1).
                levels=("team",),
                contract="in(dopts[i*5:5]) out(dprices[i])",
            )
        ]

    # ------------------------------------------------------------------
    def _generate(self) -> np.ndarray:
        p = self.problem
        return generate_option_stream(
            self.rng,
            p["num_options"],
            data_mode=p["data_mode"],
            template_rows=p["template_rows"],
            jitter=p["jitter"],
            cycles=p.get("cycles", 1.0),
        )

    def _execute(
        self,
        prog: OffloadProgram,
        rt: ApproxRuntime,
        num_threads: int,
    ) -> AppResult:
        opts = self._generate()
        n = len(opts)
        steps = int(self.problem["steps"])
        prices = np.zeros(n)
        # One option per block at a time: items_per_thread options per block.
        num_teams = prog.teams_for(n)
        capture_inputs = rt.needs_inputs("option_price")

        def kernel(ctx, dopts, dprices):
            tpb = ctx.threads_per_block
            nodes_per_thread = (steps + tpb) / tpb  # avg leaves per thread
            lattice_flops = _SETUP_FLOPS + _NODE_FLOPS * nodes_per_thread * steps / 2.0

            for _step, item, m in ctx.block_chunk_stride(n):
                safe = np.clip(item, 0, n - 1)
                row = dopts[safe]  # per-lane copy of its block's option
                if capture_inputs:
                    ctx.charge_global_streamed(
                        5, itemsize=8, mask=m, buffers=("dopts",),
                        indices={"dopts": (safe * 5, 5)},
                    )

                def compute(am, row=row, safe=safe):
                    if not capture_inputs:
                        ctx.charge_global_streamed(
                            5, itemsize=8, mask=am, buffers=("dopts",),
                            indices={"dopts": (safe * 5, 5)},
                        )
                    ctx.flops(lattice_flops, am)
                    ctx.sfu(_SETUP_SFU, am)
                    # One barrier per induction level; validity checked once
                    # (team decisions keep the mask block-uniform), the rest
                    # charged in bulk.
                    ctx.barrier(am)
                    extra = (steps - 1) * ctx.device.barrier_cycles
                    warps = ctx._active_info(am)[0]
                    ctx.charge_warps(extra, warps)
                    ctx.counters.barrier_cycles += extra * int(warps.sum())
                    ctx.counters.barriers += steps - 1
                    # Compute only the distinct active options (one/block).
                    blk = np.unique(ctx.block_id[am])
                    vals = np.zeros(ctx.total_threads)
                    if len(blk):
                        rows = dopts[safe[blk * ctx.threads_per_block]]
                        pr = binomial_price(
                            rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3],
                            rows[:, 4], steps,
                        )
                        per_block = np.zeros(ctx.num_blocks)
                        per_block[blk] = pr
                        vals = np.repeat(per_block, ctx.threads_per_block)
                    return vals

                vals = rt.region(
                    ctx, "option_price", compute,
                    inputs=row / _INPUT_SCALE if capture_inputs else None, mask=m,
                )
                # Thread 0 of each block writes its option's price.
                writer = np.logical_and(m, ctx.lane_in_block == 0)
                ctx.global_write(dprices, safe, vals, writer)

        with prog.target_data(to={"opts": opts}, from_={"prices": prices}) as env:
            prog.target_teams(
                kernel,
                num_teams=num_teams,
                num_threads=num_threads,
                name="binomial_kernel",
                params={"dopts": env.device("opts"), "dprices": env.device("prices")},
            )

        return AppResult(qoi=prices, timing=prog.timing, region_stats={},
                         extra={"num_teams": num_teams, "options": opts})
