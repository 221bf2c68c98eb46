"""Shared machinery for the full-application equivalence matrix.

The simulator core (scratch arena, uniform-mask short-circuits, analytic
coalescing) promises **byte identity** with
the recorded goldens: every QoI array, kernel timing, counter, and
region-stat it produces must equal the recorded run bit for bit.  This
module digests a full application run into one hash so the matrix test and
the golden recorder agree on exactly what "identical" means.

The digest covers:

* the QoI array's raw bytes and dtype;
* every per-kernel timing field, hex-encoded at full float precision;
* the per-region stats dict;
* the ApproxSan report (when a sanitizer is attached).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.apps import BENCHMARKS, get_benchmark
from repro.errors import (
    ConfigurationError,
    SharedMemoryError,
    UnsupportedApproximationError,
)

#: Region parameters per technique — mid-range values that exercise both the
#: approximate and accurate branches (TAF re-arms, iACT reads and writes,
#: perforation skips) rather than degenerate all-approx/all-accurate runs.
MATRIX_PARAMS = {
    "taf": dict(hsize=2, psize=4, threshold=0.3),
    "iact": dict(tsize=4, threshold=0.3),
    "perfo": dict(kind="small", skip=2),
}

TECHNIQUES = ("taf", "iact", "perfo")
LEVELS = ("thread", "warp", "team")
#: 32-wide warps (V100) and 64-wide wavefronts (MI250X).
DEVICES = ("v100", "mi250x")
#: One sanitizer-attached cell per stateful technique, run on every device.
SAN_CELLS = (("blackscholes", "taf", "warp"), ("kmeans", "iact", "warp"))

#: Exceptions that mean "this app/technique/level combination does not
#: exist" (ragged iACT inputs, shared-memory overflow, loop-only
#: perforation sites) rather than "the simulation failed".
SKIP_ERRORS = (UnsupportedApproximationError, SharedMemoryError, ConfigurationError)

_TIMING_FIELDS = (
    "total_warp_cycles",
    "hiding_efficiency",
    "memory_fraction",
    "compute_seconds",
    "bandwidth_seconds",
    "seconds",
)


def digest_result(result) -> str:
    """SHA-256 over every observable byte of an :class:`AppResult`."""
    h = hashlib.sha256()
    qoi = np.asarray(result.qoi)
    h.update(qoi.tobytes())
    h.update(str(qoi.dtype).encode())
    for k in result.timing.kernels:
        h.update(k.name.encode())
        for f in _TIMING_FIELDS:
            h.update(float(getattr(k, f)).hex().encode())
    h.update(json.dumps(result.region_stats, sort_keys=True, default=str).encode())
    report = result.extra.get("approxsan") if isinstance(result.extra, dict) else None
    if report is not None:
        h.update(json.dumps(report.to_dict(), sort_keys=True, default=str).encode())
    return h.hexdigest()


def pick_site(bench, tech: str, level: str) -> str | None:
    """First site of ``bench`` supporting ``tech`` at ``level``."""
    for s in bench.sites():
        if tech in s.techniques and level in s.levels:
            return s.name
    return None


def run_combo(
    name: str,
    tech: str,
    level: str,
    sanitize: bool = False,
    device: str = "v100",
) -> str:
    """Run one matrix cell; returns its digest.

    Raises one of :data:`SKIP_ERRORS` when the combination is unsupported.
    """
    bench = get_benchmark(name, None)
    site = pick_site(bench, tech, level)
    if site is None:
        raise UnsupportedApproximationError(f"{name} has no {tech}/{level} site")
    regions = bench.build_regions(tech, level, site, **MATRIX_PARAMS[tech])
    return digest_result(bench.run(device=device, regions=regions, sanitize=sanitize))


def golden_key(device: str, name: str, tech: str, level: str, sanitize: bool = False) -> str:
    """Key of one cell in ``goldens/equivalence.json``.

    The original V100 cells keep their unprefixed keys; every other device
    is prefixed with its name (``mi250x/kmeans/iact/warp``).
    """
    key = f"{name}/{tech}/{level}" + ("+san" if sanitize else "")
    return key if device == "v100" else f"{device}/{key}"


def iter_matrix():
    """Yield every (app, technique, level) cell of the full matrix."""
    for name in BENCHMARKS:
        for tech in TECHNIQUES:
            for level in LEVELS:
                yield name, tech, level
