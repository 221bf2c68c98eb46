#!/usr/bin/env python
"""A design-space-exploration campaign with the HPAC-Offload harness.

Reproduces the workflow of §2.3: sweep technique parameters for an
application, store every run in the results database, then query it the
way the paper's users would — best configuration under an error budget,
the Pareto frontier, and a JSONL dump for offline analysis.

Run:  python examples/dse_campaign.py [app] [device]
      (defaults: lavamd v100_small)
"""

import sys

from repro.harness.batch import run_sweep_parallel
from repro.harness.database import ResultsDB
from repro.harness.figures import candidates
from repro.harness.reporting import format_record, format_records_table


def main() -> None:
    app = sys.argv[1] if len(sys.argv) > 1 else "lavamd"
    device = sys.argv[2] if len(sys.argv) > 2 else "v100_small"

    db = ResultsDB()

    print(f"Sweeping {app} on {device} ...")
    for technique in ("taf", "iact", "perfo"):
        points = candidates(app, technique, effort="quick")
        if not points:
            continue
        records = run_sweep_parallel(app, device, points).records
        db.add(records)
        print(f"  {technique}: {len(records)} configurations "
              f"({sum(not r.feasible for r in records)} infeasible)")

    print("\nAll runs:")
    print(format_records_table(db.query(feasible=None)))

    best = db.best_speedup(max_error=0.10, app=app)
    print("\nBest under 10% error (the Fig-6 selection):")
    print("  " + (format_record(best) if best else "none met the budget"))

    print("\nPareto frontier (error vs speedup):")
    for rec in db.pareto_frontier(app=app):
        print("  " + format_record(rec))

    out = f"{app}_{device}_results.jsonl"
    db.save(out)
    print(f"\nSaved {len(db)} records to {out} "
          f"(reload with ResultsDB.load({out!r})).")


if __name__ == "__main__":
    main()
