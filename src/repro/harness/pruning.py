"""Lattice-pruned DSE sweeps (ROADMAP: "stop evaluating points we can
predict").

Table 2 spans 57k+ (technique, threshold/rate, hierarchy-level)
configurations, and the grid is *monotone*: making a configuration more
aggressive along any axis — a higher TAF/iACT threshold, a denser
perforation pattern, a coarser AC-state hierarchy level — can only admit
more approximation.  A point that already violates its QoI bound therefore
implies (under that monotonicity) that every more-aggressive descendant
violates it too, so simulating those points buys nothing.  Two
components exploit that structure:

* :class:`SweepLattice` — the subsumption lattice over sweep points.
  Points that agree on every non-aggressiveness parameter form a chain
  group; within a group, point *q* descends from *p* when *q*'s
  aggressiveness vector dominates *p*'s.  With ``SweepConfig.prune`` set,
  every :class:`~repro.harness.batch.BatchStream` queues its jobs by
  lattice height (:func:`lattice_order`), holds a job until each of its
  ancestors has a record, and records a job with a bound-violating ancestor as a
  ``pruned`` checkpoint row naming the least aggressive violator
  (:func:`pruned_record`) — the same mechanism preflight uses for
  ``infeasible`` rows, so resume, merge, and
  :class:`~repro.harness.database.ResultsDB` work unchanged.
* :class:`VariantCache` — a content-hash record cache keyed on the sha256
  of a record's :class:`~repro.harness.database.RecordKey`, so identical
  configurations across apps, figures, and campaigns never re-simulate;
  optionally persisted to a JSONL file.

Soundness: pruning is exact only where error is monotone along the pruned
axes.  The threshold axes are monotone by construction (a larger threshold
accepts strictly more approximations); the hierarchy-level axis is
heuristic (sharing AC state across a warp usually, but not provably,
increases error).  Surviving (non-pruned) records are byte-identical to
the unpruned sweep's in either case — pruning only ever *removes* rows
from the simulated set, replacing them with ``pruned`` markers.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from pathlib import Path
from typing import Iterable

from repro.gpusim.device import DeviceSpec
from repro.harness.config import SweepConfig
from repro.harness.database import RecordKey, _decode, _encode, replace_lines
from repro.harness.runner import RunRecord
from repro.harness.sweep import LEVEL_ORDER, SweepPoint

#: Default QoI bound when ``SweepConfig(prune=True)`` does not name one —
#: the paper's 10% error budget (Fig 6).
DEFAULT_QOI_BOUND = 0.10

#: ``RunRecord.note`` prefix identifying a lattice-pruned checkpoint row
#: (mirrors the ``"preflight"`` prefix on statically pruned rows).
PRUNED_NOTE_PREFIX = "pruned:"


# ---------------------------------------------------------------------------
# Aggressiveness axes
# ---------------------------------------------------------------------------
def aggression_axes(point: SweepPoint) -> list[tuple[str, int]]:
    """The (param, direction) axes along which ``point`` can get more
    aggressive.  Direction ``+1`` means a larger value admits more
    approximation; ``-1`` the opposite (small-perforation ``skip`` drops
    one of every M iterations, so a *smaller* M skips more)."""
    t = point.technique
    if t in ("taf", "iact"):
        return [("threshold", +1)]
    if t == "perfo":
        kind = point.params.get("kind")
        if kind == "small":
            return [("skip", -1)]
        if kind == "large":
            return [("skip", +1)]
        if kind in ("ini", "fini"):
            return [("skip_percent", +1)]
    return []


def aggression_vector(point: SweepPoint) -> tuple[float, ...] | None:
    """Sortable aggressiveness coordinates, the hierarchy level last, or
    ``None`` when an axis value is not a number (such points form
    singleton lattice groups)."""
    coords: list[float] = []
    for name, sign in aggression_axes(point):
        val = point.params.get(name)
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            return None
        coords.append(sign * float(val))
    coords.append(float(LEVEL_ORDER.get(point.level, -1)))
    return tuple(coords)


def _base_key(point: SweepPoint) -> tuple:
    """Everything a point's identity holds *except* its aggressiveness
    coordinates — two points compare only when these match."""
    axis_names = {name for name, _sign in aggression_axes(point)}
    fixed = tuple(
        sorted((k, v) for k, v in point.params.items() if k not in axis_names)
    )
    return (point.technique, fixed, point.items_per_thread)


def _dominates(a: tuple, b: tuple) -> bool:
    """True when ``b`` is strictly more aggressive than ``a`` (elementwise
    ``>=`` with at least one ``>``)."""
    return all(x <= y for x, y in zip(a, b)) and a != b


class SweepLattice:
    """Subsumption lattice over a set of sweep points.

    Points sharing a :func:`_base_key` form one group; within a group the
    partial order is elementwise dominance of :func:`aggression_vector`.
    Points with non-numeric axis values are singletons — never pruned,
    never pruning anything.  A point's height is the length of the longest
    chain of ancestors below it, so every ancestor is lower.
    """

    def __init__(self, points: Iterable[SweepPoint]) -> None:
        self._vec: dict[str, tuple | None] = {}
        groups: dict[tuple, list[SweepPoint]] = OrderedDict()
        for n, pt in enumerate(points):
            label = pt.label()
            if label in self._vec:
                continue
            vec = self._vec[label] = aggression_vector(pt)
            # Unordered points get a unique group so they stand alone.
            key = _base_key(pt) if vec is not None else ("·", n)
            groups.setdefault(key, []).append(pt)
        self._ancestors: dict[str, list[SweepPoint]] = {}
        self._height: dict[str, int] = {}
        for group in groups.values():
            # Lexicographic order extends dominance, so each point's
            # ancestors precede it, least aggressive first.
            group.sort(key=lambda p: (self._vec[p.label()], p.label()))
            for i, pt in enumerate(group):
                vec = self._vec[pt.label()]
                anc = [a for a in group[:i] if _dominates(self._vec[a.label()], vec)]
                self._ancestors[pt.label()] = anc
                self._height[pt.label()] = 1 + max(
                    (self._height[a.label()] for a in anc), default=-1
                )

    def vector(self, point: SweepPoint) -> tuple | None:
        return self._vec.get(point.label())

    def ancestors(self, point: SweepPoint) -> list[SweepPoint]:
        """Strictly less-aggressive points of the same group, least
        aggressive first (by vector, then label)."""
        return self._ancestors.get(point.label(), [])

    def height(self, point: SweepPoint) -> int:
        """The longest chain of :meth:`ancestors` below ``point``."""
        return self._height[point.label()]


def lattice_order(
    points: dict[RecordKey, SweepPoint],
) -> tuple[dict[RecordKey, int], dict[RecordKey, list[RecordKey]]]:
    """Each key's lattice height and its ancestors' keys (least aggressive
    first), from one :class:`SweepLattice` per (app, device, site)."""
    by_run: dict[tuple, dict[str, RecordKey]] = {}
    for key in points:
        by_run.setdefault((key.app, key.device, key.site), {})[key.label] = key
    heights: dict[RecordKey, int] = {}
    ancestors: dict[RecordKey, list[RecordKey]] = {}
    for keys in by_run.values():
        lattice = SweepLattice(points[key] for key in keys.values())
        for key in keys.values():
            heights[key] = lattice.height(points[key])
            ancestors[key] = [keys[a.label()] for a in lattice.ancestors(points[key])]
    return heights, ancestors


# ---------------------------------------------------------------------------
# Variant cache
# ---------------------------------------------------------------------------
class VariantCache:
    """Content-hash record cache keyed on the fully lowered configuration.

    Records are stored under :meth:`RecordKey.digest
    <repro.harness.database.RecordKey.digest>`, which covers everything
    that determines a deterministic simulation's record, so a hit is
    byte-exact by construction.  Shared across engines, figures, and
    campaigns; pass a ``path`` to persist (JSONL: one ``{"key", "record"}``
    object per line).
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._records: dict[str, RunRecord] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0
        if self.path is not None and self.path.exists():
            self.load(self.path)

    def get(self, key: RecordKey) -> RunRecord | None:
        rec = self._records.get(key.digest())
        if rec is None:
            self.misses += 1
        else:
            self.hits += 1
        return rec

    def put(self, key: RecordKey, record: RunRecord) -> None:
        digest = key.digest()
        if digest not in self._records:
            self.stores += 1
        self._records[digest] = record

    def __len__(self) -> int:
        return len(self._records)

    def save(self, path: str | Path | None = None) -> Path:
        """Write every cached record to ``path`` (default: the load path),
        atomically (:func:`~repro.harness.database.replace_lines`)."""
        dest = Path(path) if path is not None else self.path
        if dest is None:
            raise ValueError("VariantCache.save: no path given or configured")
        replace_lines(dest, (
            json.dumps({"key": key, "record": _encode(rec.to_dict())}, allow_nan=False)
            for key, rec in self._records.items()
        ))
        return dest

    def load(self, path: str | Path) -> int:
        """Merge records from ``path``; returns how many were loaded."""
        n = 0
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                rec = RunRecord(**_decode(obj["record"]))
            except (json.JSONDecodeError, KeyError, TypeError):
                continue  # torn line: the variant just re-simulates
            self._records[obj["key"]] = rec
            n += 1
        return n


# ---------------------------------------------------------------------------
# Pruned checkpoint rows
# ---------------------------------------------------------------------------
def pruned_record(
    app: str,
    device_name: str,
    point: SweepPoint,
    ancestor: str,
    ancestor_error: float,
    bound: float,
) -> RunRecord:
    """The checkpoint row recorded for a lattice-pruned point.

    Shaped exactly like a preflight ``infeasible`` row — ``feasible=False``
    with a provenance note — so checkpoint resume, merge, and every
    :class:`ResultsDB` query treat it as just another row; the pruning
    ancestor's label rides in both the note and ``extra["pruned_by"]``."""
    return RunRecord(
        app=app,
        device=device_name,
        technique=point.technique,
        params=dict(point.params),
        level=point.level,
        items_per_thread=point.items_per_thread,
        feasible=False,
        note=(
            f"{PRUNED_NOTE_PREFIX} ancestor {ancestor} "
            f"error {ancestor_error:.6g} > bound {bound:g}"
        ),
        extra={
            "pruned_by": ancestor,
            "ancestor_error": ancestor_error,
            "qoi_bound": bound,
        },
    )


def violates(record: RunRecord, bound: float) -> bool:
    """A feasible record whose error exceeds the QoI bound (non-finite
    errors count: a diverged run certainly violates)."""
    return bool(record.feasible) and not (float(record.error) <= bound)


# ---------------------------------------------------------------------------
# The pruned sweep
# ---------------------------------------------------------------------------
def run_sweep_pruned(
    app: str,
    device: str | DeviceSpec,
    points: list[SweepPoint],
    *,
    config: SweepConfig,
    engine,
    site: str | None = None,
):
    """Execute ``points`` on ``engine`` under ``config`` (whose ``prune``
    is set) as one :meth:`~repro.harness.batch.BatchEngine.submit`; returns
    its :class:`~repro.harness.batch.BatchReport`.
    :func:`~repro.harness.batch.run_sweep_parallel` calls this with its
    fully resolved ``config``; the stream does the pruning."""
    from repro.harness.batch import BatchJob

    jobs = [BatchJob(app, device, pt, site=site) for pt in points]
    return engine.submit(jobs, config=config).report()
