"""Equivalence matrix: 7 apps × {taf, iact, perfo} × levels × devices.

The simulator core must stay **byte-identical** to the original reference
implementation on every full application run — same QoI bytes, same
kernel timings, same counters, same region stats, same ApproxSan report.
Each supported cell's digest must match the committed golden
(``tests/approx/goldens/equivalence.json``, recorded from the reference
implementation by ``record_equivalence_goldens.py``).  Every cell runs on
the V100 (32-wide warps) and on the MI250X (64-wide wavefronts); V100
cells keep their original ids, MI250X ids carry a ``mi250x-`` prefix.
``test_fast_and_slow_match_golden`` keeps its original name so the ids of
the V100 cells stay stable: the optimised ("fast") simulator must match
the goldens recorded from the retired reference ("slow") implementation.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tests.approx.equivalence_util import (
    DEVICES,
    SAN_CELLS,
    SKIP_ERRORS,
    golden_key,
    iter_matrix,
    run_combo,
)

GOLDEN_PATH = Path(__file__).resolve().parent / "goldens" / "equivalence.json"
GOLDENS = json.loads(GOLDEN_PATH.read_text())


def _cells(cells):
    return [
        pytest.param(
            device, *cell,
            id="-".join(cell) if device == "v100" else "-".join((device, *cell)),
        )
        for device in DEVICES
        for cell in cells
    ]


@pytest.mark.parametrize("device,name,tech,level", _cells(iter_matrix()))
def test_fast_and_slow_match_golden(device, name, tech, level):
    key = golden_key(device, name, tech, level)
    try:
        digest = run_combo(name, tech, level, device=device)
    except SKIP_ERRORS:
        assert key not in GOLDENS, f"{key} was recorded but now raises"
        pytest.skip(f"{key} unsupported")
    assert key in GOLDENS, (
        f"{key} runs but has no golden — re-record with "
        f"record_equivalence_goldens.py"
    )
    assert digest == GOLDENS[key], f"not byte-identical to the golden for {key}"


@pytest.mark.parametrize("device,name,tech,level", _cells(SAN_CELLS))
def test_sanitizer_attached_is_still_identical(device, name, tech, level):
    """ApproxSan only observes: attaching it must not change a byte, and
    its own report must match the recorded one."""
    key = golden_key(device, name, tech, level, sanitize=True)
    digest = run_combo(name, tech, level, sanitize=True, device=device)
    assert digest == GOLDENS[key], f"sanitizer-attached run drifted for {key}"


def test_matrix_coverage_has_not_silently_shrunk():
    """At least 20 cells per device must actually execute — if a refactor
    starts raising skip-class errors everywhere, the matrix would silently
    pass while testing nothing."""
    for device in DEVICES:
        prefix = "" if device == "v100" else f"{device}/"
        cells = [k for k in GOLDENS if k.startswith(prefix) and k.count("/") == 2 + bool(prefix)]
        assert len(cells) >= 20, device
