"""K-Means (Rodinia [6]): iterative clustering with approximate assignment.

**QoI:** the cluster id each observation is assigned to (Table 1); the
error metric is the misclassification rate (MCR, paper eq. 2) — the only
benchmark not using MAPE.

The approximated kernel computes *the euclidean distances of an observation
to the current clusters* (§4.1): the region outputs the K distances and the
(accurate) argmin picks the assignment.

Structure: the whole Lloyd loop runs inside **one persistent kernel
launch** — assignment phase, centroid-update phase, and a device-side
convergence check per iteration.  This keeps the TAF state machines alive
across iterations (approximation state is scoped to the kernel lifetime,
§3.1.1), which is where the temporal locality lives: a thread re-evaluates
the distances of the *same* observations every iteration, and as the
centroids settle those outputs stabilize.  TAF then replays stale distance
vectors, which (a) herds observations onto the cluster of a neighbouring
observation in the thread's walk ("Observations are herded to the same
cluster by memoization techniques", §4.1) and (b) freezes assignments, so
the run crosses the convergence threshold in fewer iterations.

The distance kernel is a small fraction of an iteration (centroid update
and the convergence reduction dominate, cf. the paper's 3.5%), so the
speedup comes from the reduced *iteration count*: Fig 12c shows time
speedup ≈ convergence speedup with R² = 0.95, which the Fig-12 bench
reproduces from ``extra["iterations"]``.

Observations are generated in locally ordered runs (sorted by generating
cluster), the structure real sensor/image streams have; herding then
mostly assigns the *correct* neighbouring cluster, keeping MCR low at high
approximation rates.
"""

from __future__ import annotations

import numpy as np

from repro.apps.common import AppResult, Benchmark, SiteInfo
from repro.approx.runtime import ApproxRuntime
from repro.openmp.runtime import OffloadProgram


class KMeans(Benchmark):
    """Rodinia K-Means on the simulated GPU (persistent-kernel Lloyd loop)."""

    name = "kmeans"
    qoi_description = "The cluster id each observation is assigned to."
    error_metric = "mcr"
    default_num_threads = 64  # short intra-team stride keeps herding local
    baseline_items_per_thread = 8
    # One Lloyd-iteration launch (repeated; each repetition is synchronous,
    # so a single representative step captures the whole loop's dataflow).
    launch_plan = ({"launch": "kmeans_lloyd", "regions": ("distances",)},)
    plan_inputs = ("dobs", "dcent")

    def default_problem(self) -> dict:
        return {
            "num_obs": 16384,
            "dim": 4,
            "k": 5,
            "max_iters": 60,
            #: Cluster spread relative to centre separation.
            "spread": 0.25,
            #: Length of same-cluster runs in the observation stream
            #: (sensor/image streams are locally homogeneous; this is what
            #: makes herding mostly assign the *right* cluster).  None =
            #: num_obs // k, one run per cluster.
            "run_length": None,
            #: Convergence: stop when fewer than this fraction of
            #: observations change cluster (Rodinia's ``-t``, 0.001).
            "tol": 0.0005,
        }

    def sites(self) -> list[SiteInfo]:
        k = int(self.problem["k"])
        d = int(self.problem["dim"])
        return [
            SiteInfo(
                name="distances",
                in_width=d,
                out_width=k,
                techniques=("taf", "iact"),
                levels=("thread", "warp"),
                contract=f"in(dobs[i*{d}:{d}]) out(dist[i*{k}:{k}])",
            )
        ]

    # ------------------------------------------------------------------
    def _generate(self) -> np.ndarray:
        """Locally ordered observations: long same-cluster runs."""
        p = self.problem
        k, d, n = int(p["k"]), int(p["dim"]), int(p["num_obs"])
        run = int(p["run_length"] or max(1, n // k))
        centers = self.rng.uniform(-1.0, 1.0, size=(k, d))
        nruns = (n + run - 1) // run
        # Visit every cluster before repeating so all k survive.
        order = np.concatenate(
            [self.rng.permutation(k) for _ in range(nruns // k + 1)]
        )[:nruns]
        labels = np.repeat(order, run)[:n]
        obs = centers[labels] + p["spread"] * self.rng.standard_normal((n, d))
        return obs

    def _execute(
        self,
        prog: OffloadProgram,
        rt: ApproxRuntime,
        num_threads: int,
    ) -> AppResult:
        p = self.problem
        obs = self._generate()
        n, d, k = len(obs), int(p["dim"]), int(p["k"])
        tol_changes = p["tol"] * n
        assignments = np.full(n, -1, dtype=np.float64)
        num_teams = prog.teams_for(n, num_threads)
        capture_inputs = rt.needs_inputs("distances")

        def kernel(ctx, dobs, dassign, dcent):
            iterations = 0
            for _it in range(int(p["max_iters"])):
                iterations += 1
                changed = 0
                # --- assignment phase (the approximated kernel) ----------
                for _step, idx, m in ctx.team_chunk_stride(n):
                    safe = np.clip(idx, 0, n - 1)
                    x = dobs[safe]
                    if capture_inputs:
                        ctx.charge_global_streamed(
                            d, itemsize=8, mask=m, buffers=("dobs",),
                            indices={"dobs": (safe * d, d)},
                        )

                    def compute(am, x=x, safe=safe):
                        if not capture_inputs:
                            ctx.charge_global_streamed(
                                d, itemsize=8, mask=am, buffers=("dobs",),
                                indices={"dobs": (safe * d, d)},
                            )
                        ctx.shared_access(float(k * d), am)
                        ctx.flops(3.0 * k * d, am)
                        diff = x[:, None, :] - dcent[None, :, :]
                        return np.einsum("lkd,lkd->lk", diff, diff)

                    dist = rt.region(
                        ctx, "distances", compute,
                        inputs=x if capture_inputs else None, mask=m,
                    )
                    ctx.flops(float(k), m)  # argmin scan
                    new = np.argmin(dist, axis=1).astype(np.float64)
                    old = dassign[safe]
                    changed += int(np.sum((new != old) & m))
                    ctx.global_write(dassign, safe, new, m)

                # --- centroid update phase (accurate) ---------------------
                for _step, idx, m in ctx.team_chunk_stride(n):
                    ctx.charge_global_streamed(d + 1, itemsize=8, mask=m)
                    ctx.flops(2.0 * d, m)
                    ctx.atomic_shared(float(d + 1), m)
                ctx.barrier()
                lab = dassign.astype(np.int64)
                ok = lab >= 0
                counts = np.bincount(lab[ok], minlength=k).astype(np.float64)
                sums = np.zeros((k, d))
                np.add.at(sums, lab[ok], dobs[ok])
                nonzero = counts > 0
                dcent[nonzero] = sums[nonzero] / counts[nonzero, None]

                # --- convergence reduction ---------------------------------
                ctx.block_count(np.zeros(ctx.total_threads, dtype=bool))
                if changed <= tol_changes:
                    break
            return iterations

        # Initial centroids: the observation at the centre of each run.
        # One seed per stream region means the accurate and approximate
        # runs converge into the same basin, so MCR measures approximation
        # damage rather than a label permutation or a degenerate split.
        run = int(p["run_length"] or max(1, n // k))
        seed_idx = (np.minimum(np.arange(k) * run + run // 2, n - 1)).astype(int)
        seeds = obs[seed_idx].copy()
        with prog.target_data(
            to={"obs": obs}, tofrom={"assign": assignments}, alloc={"cent": seeds}
        ) as env:
            dcent = env.device("cent")
            dcent[...] = seeds
            result = prog.target_teams(
                kernel,
                num_teams=num_teams,
                num_threads=num_threads,
                name="kmeans_lloyd",
                params={
                    "dobs": env.device("obs"),
                    "dassign": env.device("assign"),
                    "dcent": dcent,
                },
            )
            iters = int(result.value)

        return AppResult(
            qoi=assignments.copy(),
            timing=prog.timing,
            region_stats={},
            extra={"iterations": iters, "num_teams": num_teams},
        )
