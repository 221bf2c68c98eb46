"""A deliberately broken benchmark: one violation per ApproxSan code.

Run it to see every ``HPAC2xx`` diagnostic the sanitizer can emit::

    PYTHONPATH=src python examples/broken_contracts.py

Each approximation site (or kernel construct) below is wrong in exactly one
way:

========  =============================================================
HPAC201   ``undeclared_read`` reads ``dzs`` (not declared) and reads
          ``dxs`` beyond its declared ``[0:4]`` section; ``streamed``
          gathers ``dqs[7]``, outside both declared sections
          (element-precise via the ``indices=`` payload)
HPAC202   ``undeclared_write`` writes ``dws``, which ``out(...)`` omits
HPAC203   ``drift`` declares ``in(unused[i])`` but never reads it;
          ``streamed`` declares ``in(dqs[8:4])`` but its gather never
          touches [8, 12) (element-precise drift)
HPAC204   every lane of a warp writes the same shared memo table in one
          write phase (no single-writer election)
HPAC205   TAF state fetched at kernel scope, outside any region
HPAC206   two warps write the same ``dcoll`` elements in one launch with
          no barrier between (cross-warp global write race)
HPAC207   the ``taint`` region (forced TAF — an approximating producer)
          writes ``dtnt`` inside its scope; the kernel reads it back
HPAC208   ``race_writer_a`` and ``race_writer_b`` both launch ``nowait``
          and write the same ``drace`` elements with no synchronizing
          launch, taskwait, or map-back between them (cross-launch
          write-write race, vector-clock engine)
HPAC209   ``race_writer_b`` reads ``dst``, last written by the unjoined
          nowait launch ``race_writer_a`` (read of an unsynchronized
          write)
HPAC210   ``bad_width`` declares a 3-wide capture but ``in_width=2``
HPAC211   ``bad_syntax`` has an unterminated section
HPAC213   the static launch plan shows ``racer_a`` and ``racer_b`` (both
          nowait) declaring overlapping ``out(drace[i])`` write sets —
          the static shadow of HPAC208
HPAC214   ``stale_read`` declares ``in(dmiss[i])`` but no plan step
          produces ``dmiss`` and ``plan_inputs`` omits it (the plan
          under-declares its host-provided buffers)
========  =============================================================

The golden-report test (``tests/analysis/test_sanitizer_example.py``)
asserts that running this app under ``sanitize=True`` triggers every code.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.apps.common import AppResult, Benchmark, SiteInfo
from repro.approx.base import RegionSpec, TAFParams, Technique
from repro.approx.runtime import ApproxRuntime
from repro.openmp.runtime import OffloadProgram

#: Elements per buffer; one block of N threads covers them exactly.
N = 64

#: The state fetched outside any region scope (HPAC205).
_STALE_SPEC = RegionSpec(
    name="stale",
    technique=Technique.TAF,
    params=TAFParams(history_size=2, prediction_size=4, rsd_threshold=0.1),
    out_width=1,
)


class BrokenContracts(Benchmark):
    """Every contract violation ApproxSan detects, in one kernel."""

    name = "broken_contracts"
    qoi_description = "Nothing meaningful; this app exists to be wrong."
    default_num_threads = N
    # Static launch plan (HPAC213/214): the two racer launches are nowait
    # with no join, and plan_inputs deliberately omits dmiss, the buffer
    # stale_read declares reading.
    launch_plan = (
        {"launch": "broken_kernel",
         "regions": ("undeclared_read", "undeclared_write", "drift",
                     "bad_width", "bad_syntax", "taint", "streamed",
                     "stale_read")},
        {"launch": "race_writer_a", "regions": ("racer_a",), "nowait": True},
        {"launch": "race_writer_b", "regions": ("racer_b",), "nowait": True},
    )
    plan_inputs = ("dxs", "unused", "dqs")

    def default_problem(self) -> dict:
        return {}

    def sites(self) -> list[SiteInfo]:
        return [
            # HPAC201: the kernel also reads dzs, and reads dxs past [0:4].
            SiteInfo(name="undeclared_read", in_width=1, out_width=1,
                     techniques=("taf",),
                     contract="in(dxs[0:4]) out(dys[i])"),
            # HPAC202: the kernel also writes dws.
            SiteInfo(name="undeclared_write", in_width=1, out_width=1,
                     techniques=("taf",),
                     contract="in(dxs[i]) out(dys[i])"),
            # HPAC203: unused is a real kernel parameter, never read.
            SiteInfo(name="drift", in_width=1, out_width=1,
                     techniques=("taf",),
                     contract="in(unused[i]) out(dys[i])"),
            # HPAC210: 3-wide capture declared, in_width says 2.
            SiteInfo(name="bad_width", in_width=2, out_width=1,
                     techniques=("taf", "iact"),
                     contract="in(dxs[i*3:3]) out(dys[i])"),
            # HPAC211: unterminated array section.
            SiteInfo(name="bad_syntax", in_width=1, out_width=1,
                     techniques=("taf",),
                     contract="in(dxs["),
            # HPAC207: an approximating producer (build_regions forces this
            # site to TAF) whose declared output the kernel reads back.
            SiteInfo(name="taint", in_width=1, out_width=1,
                     techniques=("taf",),
                     contract="out(dtnt[i])"),
            # HPAC201/HPAC203, element-precise: the gather touches
            # {0, 5, 7} — 7 is outside both sections, [8, 12) is never
            # touched.
            SiteInfo(name="streamed", in_width=1, out_width=1,
                     techniques=("taf",),
                     contract="in(dqs[0:6], dqs[8:4]) out(dys[i])"),
            # HPAC214 (static): dmiss has no declared producer and is not
            # in plan_inputs.  The dynamic run is clean for this region —
            # the kernel really does read dmiss.
            SiteInfo(name="stale_read", in_width=1, out_width=1,
                     techniques=("taf",),
                     contract="in(dmiss[i]) out(dys[i])"),
            # HPAC208/HPAC213: both racer regions declare writing drace
            # and their launches are nowait with no join between.
            SiteInfo(name="racer_a", in_width=1, out_width=1,
                     techniques=("taf",),
                     contract="out(drace[i])"),
            SiteInfo(name="racer_b", in_width=1, out_width=1,
                     techniques=("taf",),
                     contract="out(drace[i])"),
        ]

    def build_regions(self, technique: str = "none", **kwargs):
        """Force the ``taint`` site to TAF: HPAC207 needs an approximating
        producer even in the otherwise-accurate demonstration run."""
        specs = []
        for spec in super().build_regions(technique, **kwargs):
            if spec.name == "taint" and spec.technique is Technique.NONE:
                spec = RegionSpec(
                    name="taint",
                    technique=Technique.TAF,
                    params=TAFParams(history_size=2, prediction_size=4,
                                     rsd_threshold=0.1),
                    out_width=1,
                )
            specs.append(spec)
        return specs

    def _execute(
        self,
        prog: OffloadProgram,
        rt: ApproxRuntime,
        num_threads: int,
    ) -> AppResult:
        xs = np.arange(N, dtype=np.float64)
        ys = np.zeros(N)
        zs = np.ones(N)
        ws = np.zeros(N)
        unused = np.zeros(N)
        coll = np.zeros(N)
        tnt = np.zeros(N)
        qs = np.ones(N)
        miss = np.zeros(N)
        race = np.zeros(N)
        stale = np.zeros(N)

        def kernel(ctx, dxs, dys, dzs, dws, unused, dcoll, dtnt, dqs, dmiss):
            idx = ctx.thread_id % N

            # HPAC201 (twice): zs is not declared at all; xs is declared
            # but only elements [0, 4) — the grid reads all of it.
            def read_everything(am):
                ctx.global_read(dzs, idx, am)
                return ctx.global_read(dxs, idx, am)

            vals = rt.region(ctx, "undeclared_read", read_everything)
            ctx.global_write(dys, idx, vals)

            # HPAC202: ws is written inside the region but out(...) only
            # declares ys.
            def write_scratch(am):
                ctx.global_write(dws, idx, np.ones(ctx.total_threads), am)
                return np.zeros(ctx.total_threads)

            rt.region(ctx, "undeclared_write", write_scratch)

            # HPAC203: the region never touches its declared in(unused[i]).
            rt.region(ctx, "drift", lambda am: np.zeros(ctx.total_threads))

            # HPAC204: every lane targets its warp's table in one write
            # phase — 32 writers per table, no single-writer election.
            ctx.shared_table_write("race", ctx.warp_id)

            # HPAC205: approximation state fetched at kernel scope, outside
            # the owning region's lifetime.
            from repro.approx import taf

            taf.get_state(ctx, _STALE_SPEC)

            # HPAC206: both warps write dcoll[0:32] in the same launch with
            # no barrier between — a cross-warp write-write race.
            ctx.global_write(dcoll, idx % 32, np.ones(ctx.total_threads))

            # HPAC207: the taint region runs under TAF (an approximating
            # producer) and writes its declared output; the kernel-scope
            # read-back is a consumer of approximated data.
            def write_tainted(am):
                ctx.global_write(dtnt, idx, np.ones(ctx.total_threads), am)
                return np.zeros(ctx.total_threads)

            rt.region(ctx, "taint", write_tainted)
            ctx.global_read(dtnt, idx)

            # Element-precise HPAC201 + HPAC203: the streamed gather's
            # indices= payload pins each lane to an element — lane 1 reads
            # dqs[7] (outside both declared sections) and nothing ever
            # touches the declared dqs[8:4].
            qidx = np.where(idx % 2 == 0, 0, 5).astype(np.int64)
            qidx[idx == 1] = 7

            def gather(am):
                ctx.charge_global_streamed(
                    1, itemsize=8, mask=am, buffers=("dqs",),
                    indices={"dqs": qidx},
                )
                return np.zeros(ctx.total_threads)

            rt.region(ctx, "streamed", gather)

            # Statically flagged as HPAC214 (nothing in the plan produces
            # dmiss); the read itself is real and matches the contract.
            def read_missing(am):
                return ctx.global_read(dmiss, idx, am)

            rt.region(ctx, "stale_read", read_missing)

        # HPAC208/HPAC209: two nowait launches with no taskwait between.
        # writer_a produces drace (declared) and stores dst from kernel
        # scope; writer_b reads dst before any join (HPAC209) and writes
        # the same drace elements (HPAC208).
        def writer_a(ctx, drace, dst):
            idx = ctx.thread_id % N

            def produce(am):
                ctx.global_write(drace, idx, np.ones(ctx.total_threads), am)
                return np.zeros(ctx.total_threads)

            rt.region(ctx, "racer_a", produce)
            ctx.global_write(dst, idx, np.ones(ctx.total_threads))

        def writer_b(ctx, drace, dst):
            idx = ctx.thread_id % N
            ctx.global_read(dst, idx)

            def produce(am):
                ctx.global_write(drace, idx, np.ones(ctx.total_threads), am)
                return np.zeros(ctx.total_threads)

            rt.region(ctx, "racer_b", produce)

        with prog.target_data(
            to={"xs": xs, "zs": zs, "qs": qs},
            from_={"ys": ys, "ws": ws, "coll": coll, "tnt": tnt,
                   "race": race, "stale": stale},
        ) as env:
            prog.target_teams(
                kernel,
                num_teams=1,
                num_threads=num_threads,
                name="broken_kernel",
                params={
                    "dxs": env.device("xs"),
                    "dys": env.device("ys"),
                    "dzs": env.device("zs"),
                    "dws": env.device("ws"),
                    "unused": unused,
                    "dcoll": env.device("coll"),
                    "dtnt": env.device("tnt"),
                    "dqs": env.device("qs"),
                    "dmiss": miss,
                },
            )
            race_params = {"drace": env.device("race"),
                           "dst": env.device("stale")}
            prog.target_teams(writer_a, num_teams=1,
                              num_threads=num_threads,
                              name="race_writer_a", params=race_params,
                              nowait=True)
            prog.target_teams(writer_b, num_teams=1,
                              num_threads=num_threads,
                              name="race_writer_b", params=race_params,
                              nowait=True)

        return AppResult(qoi=ys, timing=prog.timing, region_stats={})


def main() -> int:
    from repro.analysis import (exit_code, lint_contracts, lint_dataflow,
                                render_all)

    app = BrokenContracts()
    # HPAC210 + HPAC211 (contract text) and HPAC213 + HPAC214 (launch plan)
    static = lint_contracts(app) + lint_dataflow(app)
    result = app.run("v100_small", app.build_regions(), sanitize=True)
    report = result.extra["approxsan"]
    diags = static + report.diagnostics
    print(render_all(diags))
    codes = sorted({d.code for d in diags})
    print(f"\ntriggered: {', '.join(codes)}")
    return exit_code(diags)


if __name__ == "__main__":
    sys.exit(main())
