"""Record the randomized primitive-vector digests.

Runs every ``(seed, device)`` program of
``tests/gpusim/primitive_vectors.py`` and writes the digests to
``tests/gpusim/goldens/primitives.json``, which
``tests/gpusim/test_primitive_goldens.py`` then holds the simulator to.
The committed goldens were recorded from the original reference
implementation of every primitive.

Re-run only when an *intentional* change to the cost model or a runtime's
semantics invalidates the goldens (and say so in the change that does it):

    PYTHONPATH=src python tests/approx/record_primitive_goldens.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from tests.gpusim.primitive_vectors import DEVICES, SEEDS, run_vector  # noqa: E402

GOLDEN_PATH = (
    Path(__file__).resolve().parents[1] / "gpusim" / "goldens" / "primitives.json"
)


def main() -> int:
    goldens = {
        f"{device}/{seed}": run_vector(seed, device)
        for device in DEVICES
        for seed in SEEDS
    }
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(goldens)} goldens to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
