"""MiniFE (Mantevo [1]): implicit finite-element proxy — CG on a 3-D brick.

**QoI:** the final residual of the solver (Table 1).

MiniFE assembles a sparse system from a hexahedral mesh and solves it with
conjugate gradients; the dominant kernel is the CSR sparse matrix-vector
product, which is what the paper approximates ("sparse matrix
multiplication is approximated", §4.1).  The approximated region is one
row's dot product ``y_i = Σ_j A_ij · x_j``.

This benchmark is the paper's *negative result*, reproduced here for the
same reasons:

* **TAF** replays stale row products into the Krylov recurrences; CG's
  orthogonality collapses and the error *compounds over iterations*
  ("locally introduced errors that propagate through subsequent
  iterations"), blowing the final-residual MAPE to ≥593% (Fig 9c).
* **iACT is not applicable**: a CSR row's input is its non-zero values and
  the matching ``x`` entries, whose *count varies per row* — "HPAC-Offload
  only supports computations with uniform input sizes for all threads."
  The site therefore advertises ``techniques=("taf",)``;
  :meth:`~repro.apps.common.Benchmark.build_regions` raises
  :class:`~repro.errors.UnsupportedApproximationError` if iACT is requested,
  matching the runtime's ragged-input check in
  :func:`repro.approx.iact.check_uniform_inputs`.

The matrix is the standard 7-point Laplacian on an ``nx×ny×nz`` brick with
Dirichlet boundaries — the same operator class MiniFE assembles — stored in
CSR so the variable row length is structural, not synthetic.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.apps.common import AppResult, Benchmark, SiteInfo
from repro.approx.runtime import ApproxRuntime
from repro.openmp.runtime import OffloadProgram


def poisson_csr(nx: int, ny: int, nz: int) -> sp.csr_matrix:
    """7-point Laplacian on an nx×ny×nz grid (Dirichlet), CSR format."""
    n = nx * ny * nz
    diags = [6.0 * np.ones(n)]
    offsets = [0]
    for stride, size in ((1, nx), (nx, ny), (nx * ny, nz)):
        off = np.ones(n - stride)
        if stride == 1:
            # No coupling across x-row boundaries.
            idx = np.arange(1, n)
            off[(idx % nx) == 0] = 0.0
        elif stride == nx:
            idx = np.arange(stride, n)
            off[((idx // nx) % ny) == 0] = 0.0
        diags.extend([-off, -off])
        offsets.extend([stride, -stride])
    return sp.diags(diags, offsets, shape=(n, n), format="csr")


class MiniFE(Benchmark):
    """MiniFE CG solve with approximable SpMV on the simulated GPU."""

    name = "minife"
    qoi_description = "The final residual of the solver."
    error_metric = "mape"
    default_num_threads = 128
    baseline_items_per_thread = 8
    # One CG iteration: SpMV (the contracted region) then the vector
    # kernels, all synchronous.  xvec is the re-uploaded search direction.
    launch_plan = (
        {"launch": "minife_spmv", "regions": ("spmv_row",)},
        {"launch": "minife_dot"},
        {"launch": "minife_axpy"},
        {"launch": "minife_dot"},
        {"launch": "minife_axpy"},
    )
    plan_inputs = ("xvec",)

    def default_problem(self) -> dict:
        return {
            "nx": 12,
            "ny": 12,
            "nz": 12,
            "cg_iters": 40,
        }

    def sites(self) -> list[SiteInfo]:
        return [
            SiteInfo(
                name="spmv_row",
                in_width=0,  # rows are ragged: no uniform input capture
                out_width=1,
                techniques=("taf", "perfo"),  # iACT structurally impossible
                levels=("thread", "warp"),
                # Symbolic section: the row's non-zero count varies, which
                # is exactly why iACT is impossible here (ragged inputs).
                contract="in(xvec[row:nnz]) out(yvec[i])",
            )
        ]

    def _execute(
        self,
        prog: OffloadProgram,
        rt: ApproxRuntime,
        num_threads: int,
    ) -> AppResult:
        p = self.problem
        A = poisson_csr(int(p["nx"]), int(p["ny"]), int(p["nz"]))
        n = A.shape[0]
        b = np.ones(n)
        x = np.zeros(n)
        num_teams = prog.teams_for(n, num_threads)
        nnz_per_row = np.diff(A.indptr)
        # Per-row column indices, -1 padded to the widest row: the ragged
        # element payload behind the streamed xvec gather hint below.
        max_nnz = int(nnz_per_row.max())
        row_cols = np.full((n, max_nnz), -1, dtype=np.int64)
        row_cols[np.arange(max_nnz) < nnz_per_row[:, None]] = A.indices

        def spmv_kernel(ctx, xvec, yvec):
            for _step, idx, m in ctx.team_chunk_stride(n):
                safe = np.clip(idx, 0, n - 1)

                def compute(am, safe=safe):
                    # Row dot product: nnz multiply-adds; the CSR gather is
                    # the irregular-memory part that dominates SpMV.
                    ctx.flops_per_lane(2.0 * nnz_per_row[safe], am)
                    ctx.charge_global_streamed(
                        8, itemsize=8, mask=am, buffers=("xvec",),
                        indices={"xvec": row_cols[safe]},
                    )
                    rows = A[safe].dot(xvec)
                    return rows

                vals = rt.region(ctx, "spmv_row", compute, mask=m)
                ctx.global_write(yvec, safe, vals, m)

        def vec_kernel(ctx, work_flops: float, reads: int, writes: int):
            """Accurate BLAS-1 kernels (dot, axpy) of the CG body."""
            for _step, idx, m in ctx.team_chunk_stride(n):
                ctx.charge_global_streamed(reads + writes, itemsize=8, mask=m)
                ctx.flops(work_flops, m)

        residual = np.inf
        with prog.target_data(
            to={"b": b}, tofrom={"x": x}, alloc={"Ap": np.zeros(n), "r": b.copy(),
                                                 "p_": b.copy()}
        ) as env:
            xd = env.device("x")
            Ap = env.device("Ap")
            r = env.device("r")
            pvec = env.device("p_")
            r[...] = b
            pvec[...] = b
            rs_old = float(r @ r)
            for _it in range(int(p["cg_iters"])):
                prog.target_teams(
                    spmv_kernel, num_teams=num_teams, num_threads=num_threads,
                    name="minife_spmv", params={"xvec": pvec.copy(), "yvec": Ap},
                )
                # dot(p, Ap)
                prog.target_teams(
                    vec_kernel, num_teams=num_teams, num_threads=num_threads,
                    name="minife_dot", params={"work_flops": 2.0, "reads": 2, "writes": 0},
                )
                pAp = float(pvec @ Ap)
                if pAp == 0.0 or not np.isfinite(pAp):
                    break
                alpha = rs_old / pAp
                # x += alpha p ; r -= alpha Ap  (two axpys)
                prog.target_teams(
                    vec_kernel, num_teams=num_teams, num_threads=num_threads,
                    name="minife_axpy", params={"work_flops": 4.0, "reads": 4, "writes": 2},
                )
                xd += alpha * pvec
                r -= alpha * Ap
                prog.target_teams(
                    vec_kernel, num_teams=num_teams, num_threads=num_threads,
                    name="minife_dot", params={"work_flops": 2.0, "reads": 2, "writes": 0},
                )
                rs_new = float(r @ r)
                if not np.isfinite(rs_new):
                    rs_old = rs_new
                    break
                beta = rs_new / rs_old
                prog.target_teams(
                    vec_kernel, num_teams=num_teams, num_threads=num_threads,
                    name="minife_axpy", params={"work_flops": 2.0, "reads": 2, "writes": 1},
                )
                pvec[...] = r + beta * pvec
                rs_old = rs_new
                prog.timing.add_transfer(prog.transfers.dtoh(8))
            residual = float(np.sqrt(abs(rs_old))) if np.isfinite(rs_old) else np.inf

        return AppResult(
            qoi=np.array([residual]),
            timing=prog.timing,
            region_stats={},
            extra={"num_teams": num_teams, "solution": x},
        )
