#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the HPAC-Offload reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table2_sweep --seed 2023 --seconds 20 --trace 0

``--trace 0`` times whole workload units (at least two, three on
``table2_pool``, repeated until ``--seconds`` have elapsed) and prints the
end-to-end metrics.
``--trace 1`` runs one untraced unit and then one traced unit, and prints
the per-layer metrics from the traced one.  Either way the last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  A correctness mismatch prints ``"correct": false`` and exits
with status 1.  See NOTES.md for the workloads and metrics.

This file only prepares the process; the benchmark itself is bench.py.
"""

import os

# Before numpy is imported anywhere (here, in setup probes, in pool
# workers): numpy links threaded OpenBLAS, and two pool workers on two
# cores would otherwise oversubscribe them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("fig6_quick", "table2_sweep", "table2_pool")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=2023)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}")


def main(argv=None) -> int:
    args = parse_args(argv)
    cores = len(os.sched_getaffinity(0))
    if args.workload == "table2_pool" and cores < 2:
        print(
            f"perfbench: skipping table2_pool: it runs 2 pool workers and "
            f"this machine has {cores} core(s)",
            file=sys.stderr,
        )
        return 3
    import_program()
    import bench

    return bench.run(args, cores)


if __name__ == "__main__":
    sys.exit(main())
