"""Leukocyte (Rodinia [6]): tracking white blood cells in video microscopy.

**QoI:** the final location of each leukocyte (Table 1).

The tracking stage solves, for every detected cell, an IMGVF (image
gradient vector flow) fixed-point iteration over a small window around the
cell.  Following the Rodinia CUDA design, *one thread block owns one cell's
window* and runs the entire iterative solve inside a single kernel launch,
with block barriers between sweeps.  The approximated region is the
per-pixel IMGVF update (§4.1: "we approximate the IMGVF matrix calculation").

As the fixed point is approached, successive updates of a pixel change less
and less: a thread's invocation stream (its pixels, sweep after sweep)
stabilizes, TAF replays the converged values and skips the stencil work —
up to 1.99× at 1.12% error in the paper (Fig 9a).  iACT instead pays a
table scan plus the input capture of the 5-point stencil on every
invocation, which costs more than the ~10-FLOP update it can save: error is
low but the application only slows down (Fig 9b) — insight 6.

The QoI is computed like the application would: the converged IMGVF field
is thresholded and each cell's location is its intensity-weighted centroid,
so approximation-induced field errors translate into (small) position
errors.
"""

from __future__ import annotations

import numpy as np

from repro.apps.common import AppResult, Benchmark, SiteInfo
from repro.approx.runtime import ApproxRuntime
from repro.openmp.runtime import OffloadProgram

#: FLOPs of one IMGVF pixel update (4-neighbour blend + image force).
_UPDATE_FLOPS = 12.0


class Leukocyte(Benchmark):
    """Rodinia Leukocyte tracking (IMGVF solve) on the simulated GPU."""

    name = "leukocyte"
    qoi_description = "The final location of each leukocyte."
    error_metric = "mape"
    #: One thread per window pixel (32² = 1024): a thread's invocation
    #: stream is then the *same* pixel across sweeps — the temporal
    #: locality the IMGVF fixed point provides.
    default_num_threads = 1024
    taf_threshold_scale = 0.1  # converged-field RSD values are small
    iact_threshold_scale = 0.5
    # One IMGVF relaxation launch per iteration; the field updates in place
    # (dfield appears in both in(...) and out(...)).
    launch_plan = ({"launch": "imgvf_kernel", "regions": ("imgvf_update",)},)
    plan_inputs = ("dfield",)

    def default_problem(self) -> dict:
        return {
            "num_cells": 8,
            "window": 32,  # pixels per side of a cell window (41 upstream)
            "iterations": 40,  # IMGVF sweeps inside the kernel
            #: Fixed-point blend weights: V' = (1-w_s-w_i)·V + w_s·avg4(V)
            #: + w_i·I.
            "w_smooth": 0.35,
            "w_image": 0.15,
            "cell_radius": 6.0,
            "noise": 0.05,
        }

    def sites(self) -> list[SiteInfo]:
        return [
            SiteInfo(
                name="imgvf_update",
                in_width=5,  # centre + 4-neighbour stencil values
                out_width=1,
                techniques=("taf", "iact"),
                levels=("thread", "warp"),
                # The declared capture is the 5-point stencil; the image
                # force load inside the accurate closure is charged
                # anonymously (attribution granularity, see README).
                contract="in(dfield[p*5:5]) out(dfield[p])",
            )
        ]

    # ------------------------------------------------------------------
    def _generate(self):
        """Per-cell windows with a bright, off-centre leukocyte blob."""
        p = self.problem
        w = int(p["window"])
        c = int(p["num_cells"])
        yy, xx = np.mgrid[0:w, 0:w].astype(np.float64)
        frames = np.empty((c, w, w))
        true_centers = np.empty((c, 2))
        for i in range(c):
            cy, cx = self.rng.uniform(w * 0.35, w * 0.65, size=2)
            true_centers[i] = (cy, cx)
            r2 = (yy - cy) ** 2 + (xx - cx) ** 2
            frames[i] = np.exp(-r2 / (2.0 * p["cell_radius"] ** 2))
            frames[i] += p["noise"] * self.rng.standard_normal((w, w))
        return frames, true_centers

    @staticmethod
    def centroids(fields: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Cell locations: intensity-weighted centroid above threshold."""
        c, w, _ = fields.shape
        yy, xx = np.mgrid[0:w, 0:w].astype(np.float64)
        out = np.empty((c, 2))
        for i in range(c):
            massed = np.where(fields[i] >= threshold * fields[i].max(), fields[i], 0.0)
            total = massed.sum()
            out[i, 0] = (massed * yy).sum() / total
            out[i, 1] = (massed * xx).sum() / total
        return out

    def _execute(
        self,
        prog: OffloadProgram,
        rt: ApproxRuntime,
        num_threads: int,
    ) -> AppResult:
        p = self.problem
        frames, _true = self._generate()
        c, w, _ = frames.shape
        npix = w * w
        capture_inputs = rt.needs_inputs("imgvf_update")
        fields = frames.copy()  # IMGVF field, initialized to the image
        w_s, w_i = float(p["w_smooth"]), float(p["w_image"])

        # One block per cell; a block's threads sweep the window pixels.
        num_teams = int(c)

        def kernel(ctx, dimg, dfield):
            tpb = ctx.threads_per_block
            cell = ctx.block_id  # block b owns cell b (< c)
            cell_live = cell < c
            for _sweep in range(int(p["iterations"])):
                new_fields = np.array(dfield)
                for _s, pix_step in enumerate(range(0, npix, tpb)):
                    pix = pix_step + ctx.lane_in_block
                    m = np.logical_and.reduce(
                        [ctx.mask, cell_live, pix < npix]
                    )
                    safe_cell = np.clip(cell, 0, c - 1)
                    safe_pix = np.clip(pix, 0, npix - 1)
                    py, px = safe_pix // w, safe_pix % w
                    up = dfield[safe_cell, np.maximum(py - 1, 0), px]
                    dn = dfield[safe_cell, np.minimum(py + 1, w - 1), px]
                    lf = dfield[safe_cell, py, np.maximum(px - 1, 0)]
                    rg = dfield[safe_cell, py, np.minimum(px + 1, w - 1)]
                    ce = dfield[safe_cell, py, px]
                    im = dimg[safe_cell, py, px]
                    stencil = np.stack([ce, up, dn, lf, rg], axis=1)
                    # Flat dfield indices of the 5-point stencil, per lane.
                    base = safe_cell * npix
                    stencil_idx = np.stack([
                        base + py * w + px,
                        base + np.maximum(py - 1, 0) * w + px,
                        base + np.minimum(py + 1, w - 1) * w + px,
                        base + py * w + np.maximum(px - 1, 0),
                        base + py * w + np.minimum(px + 1, w - 1),
                    ], axis=1)

                    if capture_inputs:
                        # iACT captures the 5-point stencil (5 loads).
                        ctx.charge_global_streamed(
                            5, itemsize=8, mask=m, buffers=("dfield",),
                            indices={"dfield": stencil_idx},
                        )

                    def compute(am, ce=ce, up=up, dn=dn, lf=lf, rg=rg, im=im,
                                stencil_idx=stencil_idx):
                        if not capture_inputs:
                            # 6 loads: the 5 dfield stencil points plus the
                            # image force term (charged here, attributed to
                            # dfield only — dimg stays outside the region's
                            # declared footprint).
                            ctx.charge_global_streamed(
                                6, itemsize=8, mask=am, buffers=("dfield",),
                                indices={"dfield": stencil_idx},
                            )
                        ctx.flops(_UPDATE_FLOPS, am)
                        avg4 = 0.25 * (up + dn + lf + rg)
                        return (1.0 - w_s - w_i) * ce + w_s * avg4 + w_i * im

                    vals = rt.region(
                        ctx, "imgvf_update", compute,
                        inputs=stencil if capture_inputs else None, mask=m,
                    )
                    lanes = np.where(m)[0]
                    new_fields[safe_cell[lanes], py[lanes], px[lanes]] = vals[lanes]
                    ctx.charge_global_streamed(
                        1, itemsize=8, mask=m, writes=("dfield",),
                        indices={"dfield": base + py * w + px},
                    )
                dfield[...] = new_fields
                # Jacobi sweeps synchronize the block between iterations.
                ctx.barrier()

        with prog.target_data(to={"img": frames}, tofrom={"field": fields}) as env:
            prog.target_teams(
                kernel,
                num_teams=num_teams,
                num_threads=num_threads,
                name="imgvf_kernel",
                params={"dimg": env.device("img"), "dfield": env.device("field")},
            )

        qoi = self.centroids(fields).reshape(-1)
        return AppResult(qoi=qoi, timing=prog.timing, region_stats={},
                         extra={"fields": fields, "num_teams": num_teams})
