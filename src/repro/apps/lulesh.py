"""LULESH [24]: Sedov blast hydrodynamics proxy.

**QoI:** the final origin energy (Table 1) — the energy of the element at
the mesh origin after the blast has evolved, LULESH's own verification
quantity.

The proxy models the Sedov problem the way LULESH does at a physics level:
a point energy deposit at the origin corner of a 3-D hexahedral mesh
propagates outward under a nonlinear update, while *hourglass control*
terms damp spurious modes.  Each timestep launches the application's
kernel pipeline:

1. ``stress_integration`` — pressure from energy (accurate);
2. ``CalcHourglassControlForElems`` — hourglass control term (approximable);
3. ``CalcFBHourglassForceForElems`` — FB hourglass force (approximable);
4. ``energy_update`` — flux exchange + hourglass damping (accurate).

Kernels 2 and 3 are the two most expensive kernels the paper decorates
(§4.1) and together account for roughly half of a timestep, bounding the
perforation speedup near the paper's 1.64×/1.67×.

Elements are stored in lexicographic mesh order, so the element index
correlates with distance from the origin.  That makes ``ini`` perforation
(dropping the *first* iterations — the near-origin elements, where the
blast lives) hurt the origin-energy QoI more than ``fini`` (dropping the
far, still-quiet elements), reproducing the paper's finding that fini
induces less error than ini.
"""

from __future__ import annotations

import numpy as np

from repro.apps.common import AppResult, Benchmark, SiteInfo
from repro.approx.runtime import ApproxRuntime
from repro.openmp.runtime import OffloadProgram

#: Per-element FLOP budgets for each kernel of the step pipeline; the two
#: hourglass kernels take ~2/3 of a timestep, matching LULESH profiles
#: (they are "the two most computationally expensive kernels", §4.1).
_STRESS_FLOPS = 40.0
_HG_CONTROL_FLOPS = 300.0
_FB_HOURGLASS_FLOPS = 380.0
_ENERGY_FLOPS = 60.0


class Lulesh(Benchmark):
    """Sedov-blast hydro proxy with approximable hourglass kernels."""

    name = "lulesh"
    qoi_description = "The final origin energy."
    error_metric = "mape"
    default_num_threads = 128
    baseline_items_per_thread = 8
    iact_threshold_scale = 0.1  # hourglass inputs are O(0.1) energies
    # One Lagrange-leapfrog step: four synchronous kernels in dependence
    # order, the middle two carrying the contracted hourglass regions.
    launch_plan = (
        {"launch": "stress_integration"},
        {"launch": "CalcHourglassControlForElems",
         "regions": ("hourglass_control",)},
        {"launch": "CalcFBHourglassForceForElems",
         "regions": ("fb_hourglass",)},
        {"launch": "energy_update"},
    )
    plan_inputs = ("de", "avg")

    def default_problem(self) -> dict:
        return {
            "mesh": 20,  # 20³ elements (45³..90³ upstream)
            "time_steps": 40,
            "e0": 1.0,  # initial origin energy deposit
            "background_e": 1e-4,
            "c0": 0.02,  # linear conduction coefficient
            "c1": 0.08,  # nonlinear (shock) coefficient, scaled by sqrt(e)
            "kappa": 0.05,  # hourglass damping strength
            "dt": 1.0,
        }

    def sites(self) -> list[SiteInfo]:
        return [
            SiteInfo(
                name="hourglass_control",
                in_width=2,  # element energy + neighbour average
                out_width=1,
                techniques=("taf", "iact", "perfo"),
                levels=("thread", "warp"),
                contract="in(de[i], avg[i]) out(dout[i])",
            ),
            SiteInfo(
                name="fb_hourglass",
                in_width=2,
                out_width=1,
                techniques=("taf", "iact", "perfo"),
                levels=("thread", "warp"),
                contract="in(de[i], avg[i]) out(dout[i])",
            ),
        ]

    # ------------------------------------------------------------------
    @staticmethod
    def _neighbor_avg(e: np.ndarray, n: int) -> np.ndarray:
        """6-point neighbour average on the n³ element grid."""
        g = e.reshape(n, n, n)
        acc = np.zeros_like(g)
        cnt = np.zeros_like(g)
        for axis in range(3):
            for shift in (1, -1):
                rolled = np.roll(g, shift, axis=axis)
                # Zero-flux boundaries: clip the wrap-around layer.
                sl = [slice(None)] * 3
                sl[axis] = 0 if shift == 1 else n - 1
                rolled[tuple(sl)] = g[tuple(sl)]
                acc += rolled
                cnt += 1
        return (acc / cnt).reshape(-1)

    def _execute(
        self,
        prog: OffloadProgram,
        rt: ApproxRuntime,
        num_threads: int,
    ) -> AppResult:
        p = self.problem
        n = int(p["mesh"])
        nel = n**3
        e = np.full(nel, float(p["background_e"]))
        e[0] = float(p["e0"])  # Sedov point deposit at the origin corner
        kappa = float(p["kappa"])
        dt = float(p["dt"])
        num_teams = prog.teams_for(nel, num_threads)
        cap_hgc = rt.needs_inputs("hourglass_control")
        cap_fbh = rt.needs_inputs("fb_hourglass")

        def stress_kernel(ctx, de, dp_):
            gamma = 0.4
            for _s, idx, m in ctx.team_chunk_stride(nel):
                safe = np.minimum(idx, nel - 1)
                ctx.charge_global_streamed(2, itemsize=8, mask=m)
                ctx.flops(_STRESS_FLOPS, m)
                ctx.global_write(dp_, safe, gamma * de[safe], m)

        def hourglass_kernel(ctx, site, flops, de, avg, dout, capture):
            """Shared body of the two approximated hourglass kernels."""
            tech = rt.spec(site).technique.value
            if tech in ("perfo", "none"):
                iterator = rt.loop(ctx, site, nel)
            else:
                iterator = ctx.team_chunk_stride(nel)
            for _s, idx, m in iterator:
                safe = np.minimum(idx, nel - 1)
                pair = np.stack([de[safe], avg[safe]], axis=1)
                if capture:
                    ctx.charge_global_streamed(
                        2, itemsize=8, mask=m, buffers=("de", "avg"),
                        indices={"de": safe, "avg": safe},
                    )

                def compute(am, safe=safe):
                    if not capture:
                        ctx.charge_global_streamed(
                            2, itemsize=8, mask=am, buffers=("de", "avg"),
                            indices={"de": safe, "avg": safe},
                        )
                    ctx.flops(flops, am)
                    return kappa * (avg[safe] - de[safe])

                if tech in ("taf", "iact", "noise"):
                    vals = rt.region(
                        ctx, site, compute,
                        inputs=pair if capture else None, mask=m,
                    )
                else:
                    # Accurate or perforated loop: skipped iterations keep a
                    # zero hourglass term this step.
                    vals = compute(m)
                ctx.global_write(dout, safe, vals, m)

        def energy_kernel(ctx, de, dp_, dhg1, dhg2, new_e):
            for _s, idx, m in ctx.team_chunk_stride(nel):
                safe = np.minimum(idx, nel - 1)
                ctx.charge_global_streamed(5, itemsize=8, mask=m)
                ctx.flops(_ENERGY_FLOPS, m)
                ctx.sfu(1.0, m)  # sqrt in the conduction coefficient
                ctx.global_write(new_e, safe, new_e[safe], m)

        with prog.target_data(tofrom={"e": e}) as env:
            de = env.device("e")
            press = np.zeros(nel)
            hg1 = np.zeros(nel)
            hg2 = np.zeros(nel)
            for _step in range(int(p["time_steps"])):
                prog.target_teams(
                    stress_kernel, num_teams=num_teams, num_threads=num_threads,
                    name="stress_integration", params={"de": de, "dp_": press},
                )
                avg = self._neighbor_avg(de, n)
                hg1[...] = 0.0
                prog.target_teams(
                    hourglass_kernel, num_teams=num_teams, num_threads=num_threads,
                    name="CalcHourglassControlForElems",
                    params={"site": "hourglass_control", "flops": _HG_CONTROL_FLOPS,
                            "de": de, "avg": avg, "dout": hg1, "capture": cap_hgc},
                )
                hg2[...] = 0.0
                prog.target_teams(
                    hourglass_kernel, num_teams=num_teams, num_threads=num_threads,
                    name="CalcFBHourglassForceForElems",
                    params={"site": "fb_hourglass", "flops": _FB_HOURGLASS_FLOPS,
                            "de": de, "avg": avg, "dout": hg2, "capture": cap_fbh},
                )
                # Energy update: nonlinear conduction + hourglass damping.
                c = p["c0"] + p["c1"] * np.sqrt(np.maximum(de, 0.0))
                flux = c * (avg - de)
                new_e = np.maximum(de + dt * (flux + hg1 + hg2), 0.0)
                prog.target_teams(
                    energy_kernel, num_teams=num_teams, num_threads=num_threads,
                    name="energy_update",
                    params={"de": de, "dp_": press, "dhg1": hg1, "dhg2": hg2,
                            "new_e": new_e},
                )
                de[...] = new_e

        return AppResult(
            qoi=np.array([e[0]]),
            timing=prog.timing,
            region_stats={},
            extra={"num_teams": num_teams, "energy_field": e},
        )
