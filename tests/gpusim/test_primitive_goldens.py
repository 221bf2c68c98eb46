"""Randomized primitive vectors against recorded digests.

Each ``(device, seed)`` program of :mod:`tests.gpusim.primitive_vectors`
exercises every public :class:`~repro.gpusim.context.GridContext`
primitive plus ``decide``, ``taf_invoke``, ``iact_invoke`` and
``perforated_grid_stride`` under nested masks, and must reproduce the
digest in ``goldens/primitives.json``, recorded from the original
reference implementation of every primitive.  Together with the
full-application matrix (``tests/approx/test_equivalence_matrix.py``)
these goldens are the simulator's byte-identity oracle.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tests.gpusim.primitive_vectors import DEVICES, SEEDS, run_vector

GOLDENS = json.loads(
    (Path(__file__).resolve().parent / "goldens" / "primitives.json").read_text()
)


@pytest.mark.parametrize("device", list(DEVICES))
@pytest.mark.parametrize("seed", SEEDS)
def test_primitive_vector_matches_golden(device, seed):
    key = f"{device}/{seed}"
    assert run_vector(seed, device) == GOLDENS[key], f"primitive vector drifted for {key}"


def test_every_vector_has_a_golden():
    assert sorted(GOLDENS) == sorted(f"{d}/{s}" for d in DEVICES for s in SEEDS)
