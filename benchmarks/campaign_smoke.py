"""Campaign fabric smoke: 2-worker file-queue campaign with a worker kill.

Run as a script (``python benchmarks/campaign_smoke.py``).  One scenario,
timed end-to-end:

1. a serial checkpointed sweep of the quick-effort blackscholes TAF grid
   is the byte reference;
2. the same spec is split into 2 shard jobs; worker A is killed after
   writing two records to its fence-1 shard file (no release, no
   completion — the lease just goes silent); after the TTL, worker B
   reclaims the dead shard under fence 2, seeds its own shard file with
   A's compacted one, re-emits A's records from that checkpoint, and
   finishes the campaign;
3. the merge reads only B's completion-fence file, counts A's
   superseded-fence records as stale, and must produce a file
   **byte-identical** to the serial checkpoint.

Recorded into the ``"campaign"`` section of ``BENCH_harness.json``
(load-and-update — ``perf_smoke.py`` owns the rest of the file): serial
and campaign wall-clocks, the reclaim latency (steal-to-first-record of
the reclaimed shard), and the stale/re-emit counters.

Exit status is the CI contract: nonzero if the merged bytes differ from
serial, if no records were fenced out (the kill must actually orphan
work), or if the dead shard was never reclaimed.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import SweepRequest  # noqa: E402
from repro.harness.campaign import (  # noqa: E402
    WorkerKilled,
    campaign_status,
    merge_campaign,
    run_worker,
    split_campaign,
)
from repro.harness.database import CheckpointWriter, shared_fields  # noqa: E402
from repro.harness.runner import ExperimentRunner  # noqa: E402

OUT = Path(__file__).resolve().parent.parent / "BENCH_harness.json"

PROBLEMS = {"blackscholes": {"num_options": 4096, "num_runs": 4}}
TTL = 2.0  # short lease so the reclaim happens within the smoke budget


def main() -> int:
    spec = SweepRequest(
        app="blackscholes", technique="taf", effort="quick", problems=PROBLEMS
    )
    points = spec.resolve_points()
    failures: list[str] = []
    root = Path(tempfile.mkdtemp(prefix="campaign_smoke_"))

    # -- serial reference ----------------------------------------------
    t0 = time.perf_counter()
    runner = ExperimentRunner(problems=spec.problems, seed=spec.seed)
    serial_path = root / "serial.jsonl"
    shared = shared_fields(spec.seed, spec.problems, spec.site, spec.sanitize)
    with CheckpointWriter(serial_path, shared) as w:
        for pt in points:
            w.write(runner.run_point(spec.app, spec.device, pt))
    serial_s = time.perf_counter() - t0

    # -- campaign: split, kill worker A, reclaim with worker B ---------
    camp = root / "camp"
    t0 = time.perf_counter()
    split_campaign(camp, spec, shards=2)

    state = {"written": 0}

    def kill_after_two(worker, claim, label):
        state["written"] += 1
        if state["written"] >= 2:
            raise WorkerKilled("campaign_smoke injected kill")

    killed = False
    try:
        run_worker(camp, "worker-a", ttl=TTL, on_point=kill_after_two)
    except WorkerKilled:
        killed = True
    if not killed:
        failures.append("worker A was not killed mid-shard")

    # Worker B polls until the dead lease expires, then drains the queue.
    reclaim_wait_t0 = time.perf_counter()
    time.sleep(TTL + 0.1)
    report = run_worker(camp, "worker-b", ttl=TTL)
    reclaim_s = time.perf_counter() - reclaim_wait_t0
    if report.reemitted != state["written"]:
        failures.append(
            f"expected {state['written']} re-emitted record(s), "
            f"got {report.reemitted}"
        )

    merged = merge_campaign(camp)
    campaign_s = time.perf_counter() - t0
    status = campaign_status(camp)

    identical = serial_path.read_bytes() == Path(merged.output).read_bytes()
    if not identical:
        failures.append("merged campaign is not byte-identical to serial")
    if merged.rejected_stale == 0:
        failures.append("no stale records fenced out — kill had no effect")
    reclaims = sum(
        entry.get("reclaims", 0) for entry in status.lease_table.values()
    )
    if reclaims == 0:
        failures.append("dead shard was never reclaimed")

    payload = json.loads(OUT.read_text()) if OUT.exists() else {}
    payload["campaign"] = {
        "points": len(points),
        "shards": 2,
        "lease_ttl_s": TTL,
        "serial_s": round(serial_s, 3),
        "campaign_with_kill_s": round(campaign_s, 3),
        "reclaim_latency_s": round(reclaim_s, 3),
        "records_reemitted": report.reemitted,
        "records_rejected_stale": merged.rejected_stale,
        "lease_reclaims": reclaims,
        "byte_identical_to_serial": identical,
        "failures": failures,
    }
    OUT.write_text(json.dumps(payload, indent=2) + "\n")

    print(f"serial sweep:           {serial_s:8.3f}s  ({len(points)} points)")
    print(f"campaign w/ kill:       {campaign_s:8.3f}s  "
          f"(TTL {TTL}s, reclaim latency {reclaim_s:.3f}s)")
    print(f"re-emitted {report.reemitted}, fenced out "
          f"{merged.rejected_stale}, reclaims {reclaims}")
    print(f"byte-identical to serial: {identical}")
    if failures:
        print("FAILURES:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("campaign smoke OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
