"""Record the digests for the full-application equivalence matrix.

Runs every supported (app, technique, level) cell on every device of the
matrix and writes the digests to ``tests/approx/goldens/equivalence.json``.
``tests/approx/test_equivalence_matrix.py`` then asserts that the simulator
still reproduces these bytes exactly.  The committed goldens were recorded
from the original reference implementation, and every later optimisation
has been held to them.

Re-run only when an *intentional* behavior change invalidates the goldens
(and say so in the change that does it):

    PYTHONPATH=src python tests/approx/record_equivalence_goldens.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from tests.approx.equivalence_util import (  # noqa: E402
    DEVICES,
    SAN_CELLS,
    SKIP_ERRORS,
    golden_key,
    iter_matrix,
    run_combo,
)

GOLDEN_PATH = Path(__file__).resolve().parent / "goldens" / "equivalence.json"


def main() -> int:
    goldens: dict[str, str] = {}
    for device in DEVICES:
        for name, tech, level in iter_matrix():
            try:
                d = run_combo(name, tech, level, device=device)
            except SKIP_ERRORS as e:
                print(f"{device:6s} {name:12s} {tech:5s} {level:6s} skip ({type(e).__name__})")
                continue
            goldens[golden_key(device, name, tech, level)] = d
            print(f"{device:6s} {name:12s} {tech:5s} {level:6s} {d[:16]}")
        # One sanitizer-attached cell per technique: the sanitizer must
        # observe without perturbing a single byte, and its report must be
        # stable too.
        for name, tech, level in SAN_CELLS:
            d = run_combo(name, tech, level, sanitize=True, device=device)
            goldens[golden_key(device, name, tech, level, sanitize=True)] = d
            print(f"{device:6s} {name:12s} {tech:5s} {level:6s} +san {d[:16]}")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(goldens)} goldens to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
