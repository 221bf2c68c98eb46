"""LavaMD (Rodinia [6]): particle potentials/forces in a 3-D box grid.

**QoI:** the final force and location of each particle (Table 1).

One thread block owns a *home box* of particles (one thread per particle);
the force kernel loops over the home box and its ≤26 neighbour boxes in
Rodinia's near-to-far order, accumulating a DL_POLY-style pair interaction.
The approximated region is *the force calculation for one neighbouring box*
(§4.1).

The two memoization techniques see the region through its declared data:

* **TAF** declares the particle's whole per-timestep force as the region
  output (``out(force[i])``): its temporal locality is *step to step* —
  with a small dt, a particle's force evolves slowly, the window RSD drops
  below threshold, and whole force evaluations are replayed.  That is the
  regime behind the paper's 2.98× at 0.133% error (Fig 11a): what gets
  skipped is a force that barely changed.  Vector outputs use the norm-RSD
  activation (``rsd_mode="norm"``).
* **iACT** memoizes the *pure function* from declared inputs (the
  particle's position relative to the neighbour box) to that box's
  contribution.  It must scan the shared table on every invocation, which
  costs more than the pair loop it can save: lower error, but a net
  slowdown (Fig 11b, insight 6).

This app also drives Fig 11c: per-particle RSD values straddle the
threshold, so *thread-level* decisions make warps diverge (the accurate
lanes stall the replaying ones), while *warp-level* majority voting removes
the divergence and raises the median speedup.
"""

from __future__ import annotations

import numpy as np

from repro.apps.common import AppResult, Benchmark, SiteInfo
from repro.approx.base import Technique
from repro.approx.runtime import ApproxRuntime
from repro.openmp.runtime import OffloadProgram

#: FLOPs of one pair interaction (distance, exp kernel, 3 force components).
_PAIR_FLOPS = 14.0
_PAIR_SFU = 1.0


class LavaMD(Benchmark):
    """Rodinia LavaMD on the simulated GPU."""

    name = "lavamd"
    qoi_description = "The final force and location of each particle."
    error_metric = "mape"
    default_num_threads = 64  # one thread per particle; 64 = one AMD wave
    taf_threshold_scale = 0.01  # step-to-step force RSD is ~1e-2
    # One force launch per step; particle positions are host-mapped in and
    # the relative-displacement capture is built in kernel-scope code.
    launch_plan = ({"launch": "lavamd_kernel", "regions": ("neighbor_force",)},)
    plan_inputs = ("rel",)

    def default_problem(self) -> dict:
        return {
            "boxes_per_dim": 3,  # 3³ = 27 boxes
            "particles_per_box": 64,
            #: Interaction decay exp(-alpha·r²): 2.0 gives the short-range
            #: profile where the home box dominates and the distant boxes
            #: are a convergent tail.
            "alpha": 2.0,
            "dt": 5e-4,  # relocation step
            "time_steps": 12,
        }

    def sites(self) -> list[SiteInfo]:
        return [
            SiteInfo(
                name="neighbor_force",
                in_width=3,  # position relative to the neighbour box centre
                out_width=4,  # fx, fy, fz, potential
                techniques=("taf", "iact"),
                levels=("thread", "warp"),
                rsd_mode="norm",  # force components oscillate in sign
                contract="in(rel[j*3:3]) out(dforce[p*4:4])",
            )
        ]

    # ------------------------------------------------------------------
    def _generate(self):
        p = self.problem
        b = int(p["boxes_per_dim"])
        ppb = int(p["particles_per_box"])
        nboxes = b**3
        bx, by, bz = np.unravel_index(np.arange(nboxes), (b, b, b))
        corners = np.stack([bx, by, bz], axis=1).astype(np.float64)
        offsets = self.rng.random((nboxes, ppb, 3))
        pos = corners[:, None, :] + offsets  # (nboxes, ppb, 3)
        # Broad charge spread: per-particle force scales (and thus
        # stability timing) vary, the heterogeneity behind Fig 11c.
        charge = 0.1 + 1.9 * self.rng.random((nboxes, ppb))
        # Neighbour lists (including self), walked near-to-far as Rodinia
        # does: home box first, then faces, edges, corners.
        neighbors = []
        for i in range(nboxes):
            c = np.array([bx[i], by[i], bz[i]])
            nb = []
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    for dz in (-1, 0, 1):
                        q = c + (dx, dy, dz)
                        if ((0 <= q) & (q < b)).all():
                            dist2 = dx * dx + dy * dy + dz * dz
                            nb.append(
                                (dist2, int(np.ravel_multi_index(tuple(q), (b, b, b))))
                            )
            nb.sort()
            neighbors.append([box for _, box in nb])
        max_nb = max(len(nb) for nb in neighbors)
        nb_arr = np.full((nboxes, max_nb), -1, dtype=np.int64)
        for i, nb in enumerate(neighbors):
            nb_arr[i, : len(nb)] = nb
        centers = corners + 0.5
        return pos, charge, nb_arr, centers

    @staticmethod
    def _pair_contrib(pos_home, q_home, pos_nb, q_nb, alpha):
        """Vectorized contributions of one neighbour box to home particles.

        ``pos_home``: (B, P, 3); ``pos_nb``: (B, P, 3).  Returns (B, P, 4):
        force vector + potential, DL_POLY-style exp(-alpha·r²) kernel.
        """
        dr = pos_nb[:, None, :, :] - pos_home[:, :, None, :]  # (B, P, P, 3)
        r2 = np.einsum("bijk,bijk->bij", dr, dr)
        w = q_nb[:, None, :] * np.exp(-alpha * r2)
        pot = w.sum(axis=2)
        force = np.einsum("bij,bijk->bik", w, dr)
        return np.concatenate([force, pot[..., None]], axis=2)  # (B, P, 4)

    def _execute(
        self,
        prog: OffloadProgram,
        rt: ApproxRuntime,
        num_threads: int,
    ) -> AppResult:
        p = self.problem
        pos, charge, nb_arr, centers = self._generate()
        nboxes, ppb, _ = pos.shape
        alpha = float(p["alpha"])
        dt = float(p["dt"])
        # TAF (and the accurate baseline) declare the particle's whole
        # per-timestep force as the region; iACT declares the pure per-box
        # contribution function (see the class docstring).
        region_is_whole_force = rt.spec("neighbor_force").technique is not Technique.IACT

        forces = np.zeros((nboxes, ppb, 4))
        num_teams = prog.teams_for(nboxes)  # one box per block at a time

        def contrib_of(ctx, dpos, am, safe_box, j):
            """Pair-loop contributions of neighbour slot ``j`` (active blocks)."""
            tpb = ctx.threads_per_block
            ctx.flops(_PAIR_FLOPS * ppb, am)
            ctx.sfu(_PAIR_SFU * ppb, am)
            ctx.shared_access(float(ppb), am)
            vals = np.zeros((ctx.total_threads, 4))
            blocks = np.unique(ctx.block_id[am])
            if len(blocks):
                home = safe_box[blocks * tpb]
                nbb = nb_arr[home, j]
                ok = nbb >= 0
                if ok.any():
                    c = self._pair_contrib(
                        dpos[home[ok]], charge[home[ok]],
                        dpos[nbb[ok]], charge[nbb[ok]], alpha,
                    )
                    out = np.zeros((ctx.num_blocks, tpb, 4))
                    out[blocks[ok], :ppb] = c
                    vals = out.reshape(-1, 4)
            return vals

        def kernel(ctx, dpos, dcharge, dforce):
            for _t in range(int(p["time_steps"])):
                dforce[...] = 0.0
                for _bstep, box, m in ctx.block_chunk_stride(nboxes):
                    safe_box = np.clip(box, 0, nboxes - 1)
                    pid = ctx.lane_in_block
                    live = np.logical_and(m, pid < ppb)
                    pidx = safe_box * ppb + np.clip(pid, 0, ppb - 1)
                    ctx.charge_global_streamed(
                        4, itemsize=8, mask=live,
                        buffers=("dpos", "dcharge"),
                        indices={"dpos": (pidx * 3, 3), "dcharge": pidx},
                    )
                    my_box = safe_box
                    my_pos = dpos[my_box, np.clip(pid, 0, ppb - 1)]

                    if region_is_whole_force:
                        # TAF (and accurate): the region is the particle's
                        # whole per-step force; its temporal locality is
                        # step-to-step (dt is small, forces evolve slowly).
                        def compute(am):
                            acc = np.zeros((ctx.total_threads, 4))
                            for j in range(nb_arr.shape[1]):
                                jn = nb_arr[my_box, j]
                                sub = np.logical_and(am, jn >= 0)
                                if sub.any():
                                    acc += contrib_of(ctx, dpos, sub, safe_box, j)
                                    ctx.flops(4.0, sub)
                            return acc

                        acc_f = rt.region(ctx, "neighbor_force", compute, mask=live)
                    else:
                        # iACT: the region is the *pure function* from the
                        # particle's neighbour-relative position to that
                        # box's contribution — cheap relative to the table
                        # scan, which is why iACT loses here (Fig 11b).
                        acc_f = np.zeros((ctx.total_threads, 4))
                        for j in range(nb_arr.shape[1]):
                            nb_of_lane = nb_arr[my_box, j]
                            act = np.logical_and(live, nb_of_lane >= 0)
                            if not act.any():
                                continue
                            nb_safe = np.clip(nb_of_lane, 0, nboxes - 1)
                            nbidx = nb_safe * ppb + np.clip(pid, 0, ppb - 1)
                            ctx.charge_global_streamed(
                                3, itemsize=8, mask=act, buffers=("dpos",),
                                indices={"dpos": (nbidx * 3, 3)},
                            )
                            rel = my_pos - centers[nb_safe]
                            vals = rt.region(
                                ctx, "neighbor_force",
                                lambda am, j=j: contrib_of(ctx, dpos, am, safe_box, j),
                                inputs=rel, mask=act,
                            )
                            acc_f = acc_f + np.where(act[:, None], vals, 0.0)
                            ctx.flops(4.0, act)

                    lanes = np.where(live)[0]
                    dforce[my_box[lanes], pid[lanes]] = acc_f[lanes]
                    ctx.charge_global_streamed(
                        4, itemsize=8, mask=live, writes=("dforce",),
                        indices={"dforce": (pidx * 4, 4)},
                    )
                # Relocation: x += f·dt (accurate, cheap).
                ctx.charge_global_streamed(6, itemsize=8)
                ctx.flops(6.0)
                dpos += dt * dforce[..., :3]

        with prog.target_data(
            tofrom={"pos": pos}, to={"charge": charge}, from_={"force": forces}
        ) as env:
            prog.target_teams(
                kernel,
                num_teams=num_teams,
                num_threads=num_threads,
                name="lavamd_kernel",
                params={
                    "dpos": env.device("pos"),
                    "dcharge": env.device("charge"),
                    "dforce": env.device("force"),
                },
            )

        # QoI: per-particle force magnitude + potential + final positions
        # (component-wise force MAPE is dominated by sign cancellations
        # around zero; magnitude+potential preserves the physics while
        # keeping eq. (1) well-defined).
        fmag = np.linalg.norm(forces[..., :3], axis=-1).reshape(-1)
        qoi = np.concatenate([fmag, forces[..., 3].reshape(-1), pos.reshape(-1)])
        return AppResult(qoi=qoi, timing=prog.timing, region_stats={},
                         extra={"num_teams": num_teams})
