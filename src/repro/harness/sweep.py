"""Design-space-exploration parameter grids (Table 2).

The paper explores the Cartesian product of the Table-2 grids per
benchmark, technique, and platform — 57,288 configurations in total, up to
988 GPU-hours per benchmark.  :func:`table2_space` reproduces the full
grids; the default ``thinned=True`` subsamples each axis so the figure
benches run in laptop time (DESIGN.md §3, "Scale substitutions").

Apps may scale the threshold axis: region outputs live on different
numeric scales (e.g. LavaMD memoizes a force accumulator whose RSD is
naturally small), so each benchmark declares ``taf_threshold_scale`` /
``iact_threshold_scale`` multipliers, the knob a user of the real system
would tune per region.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.gpusim.device import DeviceSpec, get_device

# --- Table 2, verbatim -------------------------------------------------
TAF_HSIZE = [1, 2, 3, 4, 5]
TAF_PSIZE = [2, 4, 8, 16, 32, 64, 128, 256, 512]
TAF_THRESH = [0.3, 0.6, 0.9, 1.2, 1.5, 3.0, 5.0, 20.0]

IACT_TPERWARP = [1, 2, 16, 32]  # "Only the AMD platform uses 64"
IACT_TPERWARP_AMD = [1, 2, 16, 32, 64]
IACT_TSIZE = [1, 2, 4, 8]
IACT_THRESH = [0.1, 0.3, 0.5, 0.7, 0.9, 3.0, 5.0, 20.0]

PERFO_SKIP = [2, 4, 8, 16, 32, 64]
PERFO_SKIP_PERCENT = [10, 20, 30, 40, 50, 60, 70, 80, 90]

MEMO_HIERARCHY = ["thread", "warp"]
MEMO_ITEMS_PER_THREAD = [8, 16, 32, 64, 128, 256, 512]

# --- thinned axes used by the default benches ---------------------------
_THIN = {
    "hsize": [1, 2, 4],
    "psize": [4, 16, 64],
    "taf_thresh": [0.3, 0.9, 3.0, 20.0],
    "tperwarp": [1, 32],
    "tsize": [2, 8],
    "iact_thresh": [0.1, 0.5, 3.0],
    "skip": [2, 8, 32],
    "skip_percent": [10, 50, 90],
    "items": [8, 64, 512],
    "hierarchy": ["thread", "warp"],
}


@dataclass(frozen=True)
class SweepPoint:
    """One configuration in the DSE space."""

    technique: str
    params: dict = field(hash=False)
    level: str = "thread"
    items_per_thread: int = 8

    def label(self) -> str:
        # The label is the point's identity across dedupe, checkpoint
        # resume, and search `seen` sets — computed once per instance
        # (frozen, so object.__setattr__ backdoors the cache in).
        cached = self.__dict__.get("_label")
        if cached is None:
            inner = ":".join(f"{k}={v}" for k, v in sorted(self.params.items()))
            cached = (
                f"{self.technique}({inner}) "
                f"level={self.level} ipt={self.items_per_thread}"
            )
            object.__setattr__(self, "_label", cached)
        return cached

    @classmethod
    def of_record(cls, record) -> "SweepPoint":
        """Reconstruct the point a :class:`~repro.harness.runner.RunRecord`
        was run at — the checkpoint identity used to resume sweeps.  Params
        survive the JSONL round-trip unchanged (ints/floats/bools), so
        ``SweepPoint.of_record(rec).label()`` matches the original label."""
        return cls(
            record.technique,
            dict(record.params),
            level=record.level,
            items_per_thread=record.items_per_thread,
        )


#: Hierarchy levels ordered by AC-state sharing aggressiveness: a warp-level
#: table is shared by all lanes, a team-level table by the whole block.
#: The pruning lattice uses this ordinal as an aggressiveness axis (see
#: :mod:`repro.harness.pruning`).
LEVEL_ORDER = {"thread": 0, "warp": 1, "team": 2}


def _taf_axes(thinned: bool) -> tuple[list, list, list]:
    if thinned:
        return _THIN["hsize"], _THIN["psize"], _THIN["taf_thresh"]
    return TAF_HSIZE, TAF_PSIZE, TAF_THRESH


def _iact_axes(device: DeviceSpec, thinned: bool) -> tuple[list, list, list]:
    if thinned:
        return _THIN["tperwarp"], _THIN["tsize"], _THIN["iact_thresh"]
    tpw = IACT_TPERWARP_AMD if device.vendor == "amd" else IACT_TPERWARP
    return tpw, IACT_TSIZE, IACT_THRESH


def table2_space(
    technique: str,
    device: str | DeviceSpec = "v100",
    thinned: bool = True,
    hierarchy_levels: list[str] | None = None,
    items_per_thread: list[int] | None = None,
    threshold_scale: float = 1.0,
) -> list[SweepPoint]:
    """Enumerate the Table-2 grid for one technique.

    ``thinned=False`` reinstates the paper's full grid.  ``threshold_scale``
    multiplies the threshold axis (per-region output scale, see module
    docstring).
    """
    dev = get_device(device)
    levels = hierarchy_levels or (
        _THIN["hierarchy"] if thinned else MEMO_HIERARCHY
    )
    items = items_per_thread or (
        _THIN["items"] if thinned else MEMO_ITEMS_PER_THREAD
    )
    points: list[SweepPoint] = []
    t = technique.lower()
    if t == "taf":
        hsizes, psizes, threshs = _taf_axes(thinned)
        for h, ps, thr, lvl, ipt in itertools.product(
            hsizes, psizes, threshs, levels, items
        ):
            points.append(
                SweepPoint(
                    "taf",
                    {"hsize": h, "psize": ps, "threshold": thr * threshold_scale},
                    level=lvl,
                    items_per_thread=ipt,
                )
            )
    elif t == "iact":
        tpws, tsizes, threshs = _iact_axes(dev, thinned)
        for tpw, ts, thr, lvl, ipt in itertools.product(
            tpws, tsizes, threshs, levels, items
        ):
            if tpw > dev.warp_size:
                continue  # 64 tables/warp only fits AMD wavefronts
            points.append(
                SweepPoint(
                    "iact",
                    {
                        "tsize": ts,
                        "threshold": thr * threshold_scale,
                        "tperwarp": tpw,
                    },
                    level=lvl,
                    items_per_thread=ipt,
                )
            )
    elif t == "perfo":
        skips = _THIN["skip"] if thinned else PERFO_SKIP
        pcts = _THIN["skip_percent"] if thinned else PERFO_SKIP_PERCENT
        # small/large explore Items per Thread (Table 2 note); ini/fini are
        # bound adjustments and use the default distribution.
        for kind in ("small", "large"):
            for M, herded, ipt in itertools.product(skips, (False, True), items):
                points.append(
                    SweepPoint(
                        "perfo",
                        {"kind": kind, "skip": M, "herded": herded},
                        items_per_thread=ipt,
                    )
                )
        for kind in ("ini", "fini"):
            for pct in pcts:
                points.append(
                    SweepPoint(
                        "perfo",
                        {"kind": kind, "skip_percent": pct},
                        items_per_thread=items[0],
                    )
                )
    else:
        raise ValueError(f"unknown technique {technique!r}")
    return points


def full_space_size(device: str | DeviceSpec = "v100") -> int:
    """Total configurations in the un-thinned Table-2 product (one app)."""
    return sum(
        len(table2_space(t, device, thinned=False)) for t in ("taf", "iact", "perfo")
    )
