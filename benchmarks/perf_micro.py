"""Perf micro for the simulator core.

Run as a script (``python benchmarks/perf_micro.py``).  Measures the
steady-state per-invocation cost of the two stateful approximation
techniques plus the raw charging primitives:

1. **TAF microbenchmark** — a replay-dominant steady state (short history,
   long prediction window): after warmup ~95% of invocations take the
   prediction path, which is exactly the regime HPAC-Offload's runtime
   lives in (§3.2).
2. **iACT microbenchmark** — a hit-dominant steady state (small per-warp
   tables, generous threshold, cycling inputs): after the tables fill,
   every invocation is a read-phase hit with no write phase.
3. **Uniform-mask primitive microbenchmark** — flops/shared/streamed-global
   charges under the base all-true mask: O(warps) bookkeeping and the
   deferred counter journal.

Each measurement is the best of ``REPS`` launches, divided by the steps
the kernel runs, and must fit the absolute seconds-per-step budget in
:data:`BUDGET_S_PER_STEP`.  The TAF run also snapshots the scratch arena
mid-kernel: after warmup, further invocations must be served entirely
from cache (misses frozen).  Two full application runs (one TAF, one
iACT, both with ApproxSan attached) must reproduce their committed
digests in ``tests/approx/goldens/equivalence.json`` on both devices.

Everything lands in the ``perf_micro`` section of ``BENCH_harness.json``.
Exit status is the CI contract:

* nonzero if a microbenchmark's seconds per step exceed its budget;
* nonzero if attaching ApproxSan changes simulated cycles or counters, or
  a sanitizer-attached full-app run drifts from its golden;
* nonzero if arena misses keep growing in steady state.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))

import numpy as np  # noqa: E402

from repro.approx.base import (  # noqa: E402
    HierarchyLevel,
    IACTParams,
    RegionSpec,
    TAFParams,
    Technique,
)
from repro.approx.iact import iact_invoke  # noqa: E402
from repro.approx.taf import taf_invoke  # noqa: E402
from repro.gpusim import launch, nvidia_v100  # noqa: E402

from tests.approx.equivalence_util import (  # noqa: E402
    DEVICES,
    SAN_CELLS,
    golden_key,
    run_combo,
)

DEV = nvidia_v100()
NUM_BLOCKS = 128
THREADS_PER_BLOCK = 256
STEPS = 60
PRIMITIVE_STEPS = 400
REPS = 7
#: Seconds per step (one region invocation; one flops+shared+streamed
#: triple for the primitives).  Each budget is the ceiling the former 2x
#: fast-vs-reference gate implied on a 2-vCPU box: half the reference
#: implementation's best-of-7 launch time (TAF 129.4 ms, iACT 344.8 ms,
#: primitives 47.3 ms), divided by the kernel's steps.
BUDGET_S_PER_STEP = {
    "taf": 129.4e-3 / 2 / STEPS,
    "iact": 344.8e-3 / 2 / STEPS,
    "primitives": 47.3e-3 / 2 / PRIMITIVE_STEPS,
}
GOLDENS = json.loads(
    (REPO / "tests" / "approx" / "goldens" / "equivalence.json").read_text()
)

TAF_SPEC = RegionSpec(
    name="t",
    technique=Technique.TAF,
    params=TAFParams(history_size=2, prediction_size=30, rsd_threshold=0.5),
    level=HierarchyLevel.WARP,
    in_width=0,
    out_width=1,
)
IACT_SPEC = RegionSpec(
    name="i",
    technique=Technique.IACT,
    params=IACTParams(table_size=4, threshold=2.0, tables_per_warp=1),
    level=HierarchyLevel.WARP,
    in_width=1,
    out_width=1,
)

arena_snapshots: list[dict] = []


def taf_kernel(ctx):
    base = np.sin(ctx.thread_id.astype(np.float64))
    for step in range(STEPS):
        def compute(mask, s=step):
            ctx.flops(4.0, mask)
            return (base * (1.0 + 1e-6 * (s % 3)))[:, None]

        taf_invoke(ctx, TAF_SPEC, compute)
        if step in (STEPS // 2, STEPS - 1):
            arena_snapshots.append(ctx.arena.snapshot())


def iact_kernel(ctx):
    t = ctx.thread_id.astype(np.float64)
    xs = [np.cos(t + k)[:, None] for k in range(3)]
    for step in range(STEPS):
        x = xs[step % 3]

        def compute(mask):
            ctx.flops(8.0, mask)
            return x

        iact_invoke(ctx, IACT_SPEC, x, compute)


def primitive_kernel(ctx):
    for _ in range(PRIMITIVE_STEPS):
        ctx.flops(4.0)
        ctx.shared_access(2.0)
        ctx.charge_global_streamed(1.0, itemsize=8)


def bench(kernel, sanitizer_factory=None):
    """Best-of-REPS wall clock plus the last result for identity checks."""
    best = float("inf")
    result = None
    for _ in range(REPS):
        sanitizer = sanitizer_factory() if sanitizer_factory else None
        t0 = time.perf_counter()
        result = launch(kernel, DEV, NUM_BLOCKS, THREADS_PER_BLOCK, sanitizer=sanitizer)
        best = min(best, time.perf_counter() - t0)
    return best, result


def identical(a, b) -> bool:
    return bool(
        np.array_equal(a.context.warp_cycles, b.context.warp_cycles)
        and vars(a.counters) == vars(b.counters)
    )


def main() -> int:
    failures: list[str] = []
    report: dict = {
        "grid": f"{NUM_BLOCKS}x{THREADS_PER_BLOCK}",
        "steps": STEPS,
        "reps": REPS,
    }

    for label, kernel, steps in (
        ("taf", taf_kernel, STEPS),
        ("iact", iact_kernel, STEPS),
        ("primitives", primitive_kernel, PRIMITIVE_STEPS),
    ):
        seconds, _ = bench(kernel)
        per_step = seconds / steps
        budget = BUDGET_S_PER_STEP[label]
        report[label] = {
            "seconds": seconds,
            "steps": steps,
            "s_per_step": per_step,
            "budget_s_per_step": budget,
        }
        print(
            f"{label:10s} {seconds * 1e3:8.2f}ms = {per_step * 1e6:8.2f}us/step "
            f"(budget {budget * 1e6:8.2f}us/step)"
        )
        if per_step > budget:
            failures.append(
                f"{label}: {per_step * 1e6:.2f}us/step over the "
                f"{budget * 1e6:.2f}us/step budget"
            )

    # Arena steady state: between the mid-kernel and final snapshots of the
    # last TAF launch, misses must be frozen while hits keep climbing.
    warm, final = arena_snapshots[-2], arena_snapshots[-1]
    report["arena"] = {"warm": warm, "final": final}
    print(f"arena      warm={warm} final={final}")
    if final["misses"] != warm["misses"]:
        failures.append(f"arena misses grew in steady state: {warm} -> {final}")
    if final["hits"] <= warm["hits"]:
        failures.append("arena hits did not grow in steady state")

    # Sanitizer no-regression: attaching ApproxSan (now carrying the v3
    # launch-lineage/sync-clock planes) must never change simulated cycles
    # or counters — it observes, it does not charge.  The wall-clock
    # overhead ratio is recorded as information, not gated: shadow
    # tracking is allowed to cost host time, never simulated time.
    from repro.analysis.sanitizer import Sanitizer

    t_plain, r_plain = bench(primitive_kernel)
    t_san, r_san = bench(primitive_kernel, Sanitizer)
    same = identical(r_plain, r_san)
    report["sanitizer"] = {
        "plain_seconds": t_plain,
        "attached_seconds": t_san,
        "overhead": round(t_san / t_plain, 3),
        "identical": same,
    }
    print(
        f"sanitizer  plain={t_plain * 1e3:8.2f}ms attached={t_san * 1e3:8.2f}ms "
        f"x{t_san / t_plain:5.2f} identical={same}"
    )
    if not same:
        failures.append("sanitizer: attaching ApproxSan changed simulated results")

    # Full applications, sanitizer attached: the whole record must match
    # its committed golden digest.
    apps = {}
    for device in DEVICES:
        for name, tech, level in SAN_CELLS:
            key = golden_key(device, name, tech, level, sanitize=True)
            digest = run_combo(name, tech, level, sanitize=True, device=device)
            ok = digest == GOLDENS[key]
            apps[key] = {"identical": ok, "digest": digest[:16]}
            print(f"{key:32s} matches golden={ok}")
            if not ok:
                failures.append(f"{key}: full-app record drifted from its golden")
    report["full_app"] = apps
    report["failures"] = failures

    bench_path = REPO / "BENCH_harness.json"
    data = json.loads(bench_path.read_text()) if bench_path.exists() else {}
    data["perf_micro"] = report
    bench_path.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote perf_micro section to {bench_path}")

    if failures:
        print("FAILURES:")
        for f in failures:
            print(f"  - {f}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
