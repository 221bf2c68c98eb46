"""Blackscholes (PARSEC [5]): European option pricing, closed form.

**QoI:** the computed option prices (Table 1).

The workload is PARSEC-faithful in the two properties that matter to
approximation:

* inputs tile a **1000-option template** — a thread's grid-stride walk
  cycles through different (but recurring) options, so the TAF RSD
  threshold genuinely discriminates between stable and varying windows;
* the kernel re-prices the whole portfolio ``num_runs`` times (PARSEC's
  ``NUM_RUNS`` loop) — the dominant source of temporal output locality that
  lets TAF reach 2.26× with 0.015% MAPE on AMD (Fig 10a).

The approximated region is *the entire price calculation of an option*
(§4.1).  99% of the original benchmark's end-to-end time is host memory
allocation and transfers, so the paper (and this reproduction) reports
**kernel-only** speedups for this app (``kernel_only = True``).

The accurate path is the genuine Black-Scholes formula, so
approximation-induced MAPE is measured, not modelled:

    d1 = (ln(S/K) + (r + v²/2)T) / (v√T),   d2 = d1 - v√T
    call = S·Φ(d1) - K e^{-rT}·Φ(d2)
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

from repro.apps.common import AppResult, Benchmark, SiteInfo, generate_option_stream
from repro.approx.runtime import ApproxRuntime
from repro.openmp.runtime import OffloadProgram

#: FLOP/SFU cost of pricing one option on the accurate path (per lane):
#: log/exp/sqrt plus two polynomial normal-CDF evaluations (the expensive
#: part of the PARSEC kernel).
_PRICE_FLOPS = 60.0
_PRICE_SFU = 16.0

#: Modelled host-side seconds per option (allocation + initialization); sized
#: so host work dominates end-to-end time as in the original benchmark.
_HOST_SECONDS_PER_OPTION = 2.0e-7


#: Scale vector normalizing option parameters for iACT distance tests, so
#: the Table-2 threshold grid (0.1..20) is meaningful in input space.
_INPUT_SCALE = np.array([150.0, 150.0, 0.06, 0.6, 2.0])


def black_scholes_call(S, K, r, v, T):
    """Reference vectorized Black-Scholes call price."""
    sqrtT = np.sqrt(T)
    d1 = (np.log(S / K) + (r + 0.5 * v * v) * T) / (v * sqrtT)
    d2 = d1 - v * sqrtT
    return S * ndtr(d1) - K * np.exp(-r * T) * ndtr(d2)


class Blackscholes(Benchmark):
    """PARSEC Blackscholes on the simulated GPU."""

    name = "blackscholes"
    qoi_description = "The computed prices."
    error_metric = "mape"
    kernel_only = True
    default_num_threads = 256
    iact_threshold_scale = 0.3  # normalized option-parameter space
    # One pricing launch per run; the portfolio is host-mapped in.
    launch_plan = ({"launch": "bs_kernel", "regions": ("price",)},)
    plan_inputs = ("dopts",)

    def default_problem(self) -> dict:
        return {
            "num_options": 32768,
            #: "tiled" replicates a 1000-option template (PARSEC-faithful);
            #: "smooth" (default) varies parameters slowly along the
            #: portfolio so replay errors stay small but nonzero.
            "data_mode": "smooth",
            "template_rows": 1000,
            #: PARSEC's NUM_RUNS repetition (100 upstream, scaled down).
            "num_runs": 8,
            #: Stream noise / per-copy jitter of the tiled data.
            "jitter": 0.0,
            #: Smooth-stream frequency: cycles of variation across the
            #: portfolio (lower = more redundancy, lower replay error).
            "cycles": 1.0,
        }

    def sites(self) -> list[SiteInfo]:
        return [
            SiteInfo(
                name="price",
                in_width=5,  # S, K, r, v, T
                out_width=1,
                techniques=("taf", "iact"),
                levels=("thread", "warp"),
                contract="in(dopts[i*5:5]) out(dprices[i])",
            )
        ]

    # ------------------------------------------------------------------
    def _generate(self) -> np.ndarray:
        """Option parameter matrix (N, 5): S, K, r, v, T."""
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
        prices = np.zeros(n)
        num_teams = prog.teams_for(n, num_threads)
        capture_inputs = rt.needs_inputs("price")
        num_runs = int(self.problem["num_runs"])

        # Host-side allocation/initialization dominates this benchmark.
        prog.host_work(_HOST_SECONDS_PER_OPTION * n)

        def kernel(ctx, dopts, dprices):
            for _run in range(num_runs):
                for _step, idx, m in ctx.team_chunk_stride(n):
                    safe = np.minimum(idx, n - 1)
                    row = dopts[safe]
                    if capture_inputs:
                        # iACT reads the declared in(...) section on every
                        # invocation to evaluate distances.
                        ctx.charge_global_streamed(
                            5, itemsize=8, mask=m, buffers=("dopts",),
                            indices={"dopts": (safe * 5, 5)},
                        )

                    def compute(am, row=row, safe=safe):
                        if not capture_inputs:
                            # TAF loads the inputs only on the accurate
                            # path: the region closure is skipped entirely
                            # when approximating.
                            ctx.charge_global_streamed(
                                5, itemsize=8, mask=am, buffers=("dopts",),
                                indices={"dopts": (safe * 5, 5)},
                            )
                        ctx.flops(_PRICE_FLOPS, am)
                        ctx.sfu(_PRICE_SFU, am)
                        return black_scholes_call(
                            row[:, 0], row[:, 1], row[:, 2], row[:, 3], row[:, 4]
                        )

                    vals = rt.region(
                        ctx, "price", compute,
                        inputs=row / _INPUT_SCALE if capture_inputs else None, mask=m,
                    )
                    ctx.global_write(dprices, safe, vals, m)

        with prog.target_data(to={"opts": opts}, from_={"prices": prices}) as env:
            prog.target_teams(
                kernel,
                num_teams=num_teams,
                num_threads=num_threads,
                name="bs_kernel",
                params={"dopts": env.device("opts"), "dprices": env.device("prices")},
            )

        return AppResult(qoi=prices, timing=prog.timing, region_stats={},
                         extra={"num_teams": num_teams, "options": opts})
